import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sofic_spectra.exact import CZERO, ComplexRational
from sofic_spectra.groups import ball, free_group, lattice_group
from sofic_spectra.measures import (
    Alphabet,
    EnumerationBudgetError,
    IIDProduct,
    Mixture,
    binary_alphabet,
    lattice_periodic,
    sample_configuration,
)
import sofic_spectra.operators as operators_module
from sofic_spectra.operators import (
    AssemblyError,
    InducedOperator,
    RuleValidationError,
    _matrix_power_diagonal,
    _walk_space,
    _walk_values,
    adjacency_rule,
    assemble_graph_schrodinger,
    assemble_induced,
    diagonal_rule,
    expected_moment,
    laplacian_rule,
    power_diagonal_check,
    schrodinger_rule,
    table_rule,
    trace_moments,
    validate_local_rule,
)
from sofic_spectra.sofic import (
    good_vertices,
    random_permutation_approximation,
    torus_approximation,
)

from dense_operators import hermitian_entries, rule_tables
from window_references import pullback_window, translate_window

Z1 = lattice_group(1)
BIN = binary_alphabet()
TRIV = Alphabet(symbols=("0",))


def zero_config(n):
    return np.zeros(n, dtype=np.int64)


def _same_rule(a, b):
    """Equal elements, codes and values."""
    assert a.elements == b.elements and a.values == b.values
    assert np.array_equal(a.codes, b.codes)


def test_schrodinger_rule_values():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5)])
    e = Z1.identity()
    b = ball(Z1, 1)
    e_pos = b.index(e)
    # window with w(e) = 1: c(e, w) = -2 + 5 = 3
    code = 1 * BIN.size ** e_pos
    tables = rule_tables(rule)
    assert tables[e][code] == ComplexRational(Fraction(3))
    assert tables[e][0] == ComplexRational(Fraction(-2))
    assert tables[(1,)][0] == ComplexRational(Fraction(1))
    f2rule = schrodinger_rule(free_group(2), BIN, [Fraction(0), Fraction(1)])
    assert rule_tables(f2rule)[()][0] == ComplexRational(Fraction(-4))


def test_validate_laplacian():
    rule = laplacian_rule(Z1, TRIV)
    assert validate_local_rule(rule) == []
    assert rule.realized_value_sets() == ({ComplexRational(Fraction(-2))},
                                          {ComplexRational(Fraction(1))})


def test_validate_self_adjointness_violation():
    i = ComplexRational(Fraction(0), Fraction(1))
    windows = [(0,) * 3]
    entries = [((1,), windows[0], i), ((-1,), windows[0], i)]
    rule = table_rule(Z1, TRIV, 1, entries)
    witnesses = validate_local_rule(rule)
    assert witnesses
    assert any(g == (1,) or g == (-1,) for g, _ in witnesses)


def test_validate_real_diagonal_required():
    i = ComplexRational(Fraction(0), Fraction(1))
    rule = table_rule(Z1, TRIV, 0, [((0,), (0,), i)])
    assert ((0,), "non-real diagonal value") in validate_local_rule(rule)


def test_validate_diagonal_rule_any_real():
    rule = diagonal_rule(Z1, BIN, [Fraction(-7, 3), Fraction(2)])
    assert validate_local_rule(rule) == []


def test_assemble_circulant():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(8))
    dense = op.to_dense()
    expect = -2 * np.eye(8) + np.eye(8, k=1) + np.eye(8, k=-1)
    expect[0, 7] = expect[7, 0] = 1
    assert np.array_equal(dense, expect)


def test_assemble_zero_rule():
    rule = table_rule(Z1, TRIV, 0, [])
    sig = torus_approximation(1, 6)
    op = assemble_induced(rule, sig, zero_config(6))
    assert op.entries == {}


def test_assemble_diagonal_rule():
    rule = diagonal_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    sig = torus_approximation(1, 10)
    rho = np.array([0, 1] * 5)
    op = assemble_induced(rule, sig, rho)
    assert op.is_diagonal()
    assert [str(op.entries.get((i, i), CZERO).re)
            for i in range(op.n)] == ["0", "1"] * 5


def test_assembly_zero_pattern_invariant():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    allowed = set().union(*rule.realized_value_sets())
    sig = torus_approximation(1, 32)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(1))
    op = assemble_induced(rule, sig, rho)
    good = good_vertices(sig, 2).good
    for (i, j), v in op.entries.items():
        assert v in allowed
        assert good[i] and good[j]
        assert min(abs(i - j), 32 - abs(i - j)) <= 1


def test_assembly_zeroes_at_bad_vertices():
    # n=4 torus has no 2-good vertex, so the strict assembly is empty
    sig = torus_approximation(1, 4)
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(4))
    assert op.entries == {}
    # the graph construction carries the small-size circulant instead
    graph_op = assemble_graph_schrodinger(sig, zero_config(4), TRIV,
                                          [Fraction(0)])
    dense = graph_op.to_dense()
    assert np.array_equal(np.diag(dense), [-2.0] * 4)


def test_graph_mode_matches_strict_on_good_torus():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 12)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(9))
    strict = assemble_induced(rule, sig, rho)
    graph = assemble_graph_schrodinger(sig, rho, BIN,
                                       [Fraction(0), Fraction(5, 3)])
    assert np.array_equal(strict.to_dense(), graph.to_dense())


def test_goodness_radius_mismatch_error():
    sig = torus_approximation(1, 8)
    with pytest.raises(AssemblyError):
        assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(8),
                         good_vertices(sig, 3))


def test_finite_level_equivariance():
    # pullback windows shift correctly: window at sigma^s(v) equals the
    # translated window at v, so entries repeat along the orbit
    sig = torus_approximation(1, 12)
    rho = np.arange(12) % 2
    big = pullback_window(rho, sig, 3, 2)
    stepped = pullback_window(rho, sig, int(sig.perm_of((1,))[3]), 1)
    assert translate_window(Z1, (1,), big, 1) == stepped


def test_power_diagonal_trivial_k1():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    sig = torus_approximation(1, 12)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(4))
    rep = power_diagonal_check(rule, sig, rho, 1)
    assert rep.max_discrepancy == 0.0
    assert rep.fraction_tested == 1.0


def test_power_diagonal_laplacian_k2():
    sig = torus_approximation(1, 12)
    rep = power_diagonal_check(laplacian_rule(Z1, TRIV), sig, zero_config(12), 2)
    assert rep.max_discrepancy == 0.0
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(12))
    dense = op.to_dense()
    assert np.allclose(np.diag(dense @ dense), 6.0)


def test_power_diagonal_diagonal_rule_k3():
    rule = diagonal_rule(Z1, BIN, [Fraction(2), Fraction(-3)])
    sig = torus_approximation(1, 9)
    rho = np.arange(9) % 2
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.max_discrepancy == 0.0
    op = assemble_induced(rule, sig, rho)
    d = [op.entries.get((i, i), CZERO).re ** 3 for i in range(op.n)]
    assert d[0] == 8 and d[1] == -27


def test_expected_moment_examples():
    lap = laplacian_rule(Z1, TRIV)
    triv = IIDProduct(alphabet=TRIV, weights=(1.0,))
    assert expected_moment(lap, triv, 1).value == -2.0
    assert expected_moment(lap, triv, 2).value == 6.0
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    assert expected_moment(rule, iid, 2).value == 4.5


def test_expected_moment_periodic_model():
    rule = diagonal_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    per = lattice_periodic(BIN, [2], [0, 1])
    assert expected_moment(rule, per, 1).value == 0.5
    assert expected_moment(rule, per, 2).value == 0.5


@pytest.mark.parametrize("k", [6, 8])
def test_expected_moment_budget_counts_the_law_support(k):
    # the walk reads 25 (k = 6) or 41 (k = 8) sites, but the periodic law
    # has 4 translates; the torus side 10 > k, so no closed walk wraps
    z2 = lattice_group(2)
    rule = schrodinger_rule(z2, BIN, [Fraction(0), Fraction(5, 3)])
    per = lattice_periodic(BIN, [2, 2], [0, 1, 1, 1])
    got = expected_moment(rule, per, k).value
    sig = torus_approximation(2, 10)
    op = assemble_induced(rule, sig, sample_configuration(
        per, sig, np.random.default_rng(0)))
    den, re, _ = _matrix_power_diagonal(op, k, np.arange(sig.n_vertices))
    want = Fraction(sum(re.tolist()), den ** k * sig.n_vertices)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_expected_moment_refuses_iid_over_budget_before_enumerating(
        monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("site_law called")

    monkeypatch.setattr(operators_module, "site_law", no_enumeration)
    rule = schrodinger_rule(lattice_group(2), BIN, [Fraction(0), Fraction(1)])
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    with pytest.raises(EnumerationBudgetError,
                       match="exceed budget 1000000; lower the moment order"):
        expected_moment(rule, iid, 6)


def test_power_diagonal_float_mode():
    # a float potential is its dyadic value, so both sides agree exactly;
    # den = 2^52 puts R^k past 2^62 from k = 2 on, onto Python ints
    rule = schrodinger_rule(Z1, BIN, [0.0, math.sqrt(2)])
    _same_rule(rule, schrodinger_rule(Z1, BIN, [Fraction(0),
                                                Fraction(math.sqrt(2))]))
    sig = torus_approximation(1, 16)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(6))
    for k in range(1, 7):
        rep = power_diagonal_check(rule, sig, rho, k)
        assert rep.max_discrepancy == 0.0 and rep.n_tested == 16
        assert rep.to_json()["exact"] is True


NON_FINITE = [float("nan"), float("inf"), float("-inf"),
              complex(0.0, float("nan"))]


@pytest.mark.parametrize("build", [
    lambda bad: schrodinger_rule(Z1, BIN, [Fraction(0), bad]),
    lambda bad: diagonal_rule(Z1, BIN, [bad, Fraction(1)]),
    lambda bad: table_rule(Z1, BIN, 1, [((1,), (0, 1, 0), bad)]),
    lambda bad: assemble_graph_schrodinger(
        torus_approximation(1, 4), zero_config(4), BIN, [bad, Fraction(0)]),
], ids=["schrodinger_rule", "diagonal_rule", "table_rule",
        "assemble_graph_schrodinger"])
def test_constructors_refuse_non_finite_values(build):
    for bad in NON_FINITE:
        with pytest.raises(RuleValidationError, match="not finite"):
            build(bad)


def test_table_rule_refuses_bad_symbols_and_repeated_cells():
    for window in [(0, 0, 5), (0, -1, 0), (0, 0.5, 0)]:
        with pytest.raises(RuleValidationError,
                           match="has a symbol outside 0..1"):
            table_rule(Z1, BIN, 1, [((0,), window, 1)])
    with pytest.raises(RuleValidationError,
                       match=r"\(1,\), window \(0, 1, 0\) is given twice"):
        table_rule(Z1, BIN, 1, [((1,), (0, 1, 0), 1), ((-1,), (0, 1, 0), 1),
                                ((1,), (0, 1, 0), 0)])
    # one window under two elements, two windows under one: distinct cells
    rule = table_rule(Z1, BIN, 1, [((1,), (0, 1, 0), 1),
                                   ((-1,), (0, 1, 0), 2),
                                   ((1,), (1, 1, 0), 3)])
    assert [[v.re for v in t.tolist()]
            for t in rule_tables(rule).values()] == [
        [0, 0, 2, 0, 0, 0, 0, 0], [0, 0, 1, 3, 0, 0, 0, 0]]


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(FINITE_FLOATS, st.complex_numbers(allow_nan=False,
                                                      allow_infinity=False)),
       kind=st.sampled_from(["schrodinger", "diagonal", "table"]))
def test_float_coefficients_are_their_dyadic_values(x, kind):
    def build(v):
        if kind == "schrodinger":
            return schrodinger_rule(Z1, BIN, [v, Fraction(1, 3)])
        if kind == "diagonal":
            return diagonal_rule(Z1, BIN, [Fraction(1, 3), v])
        return table_rule(Z1, BIN, 1, [((1,), (0, 1, 1), v),
                                       ((0,), (1, 0, 0), v),
                                       ((-1,), (0, 0, 1), Fraction(1, 3))])

    _same_rule(build(x), build(ComplexRational(Fraction(x.real),
                                               Fraction(x.imag))))


def test_expected_moment_free_group_tree():
    adj = adjacency_rule(free_group(2), TRIV)
    triv = IIDProduct(alphabet=TRIV, weights=(1.0,))
    assert expected_moment(adj, triv, 2).value == 4.0
    assert expected_moment(adj, triv, 4).value == 28.0
    assert expected_moment(adj, triv, 1).value == 0.0
    assert expected_moment(adj, triv, 3).value == 0.0


def test_hermitian_check_rejects_tampering():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(8))
    two = ComplexRational(Fraction(2))
    # one side of a pair is refused when the operator is built; the pair
    # moved together is Hermitian again
    with pytest.raises(AssemblyError, match=r"\(0,1\)$"):
        _with_entries(op, {(0, 1): two})
    dense = _with_entries(op, {(0, 1): two, (1, 0): two}).to_dense()
    assert dense[0, 1] == dense[1, 0] == 2


def test_row_sum_bound():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig, zero_config(8))
    assert op.row_sum_bound() == 4.0


# Values of the Fraction-dict closed-walk oracle that the integer-array
# kernels replaced, as float.hex(): the kernels must reproduce them bit for bit.
PINNED_IID = [
    "-0x1.8000000000000p+0", "0x1.3555555555555p+2", "-0x1.d38e38e38e38bp+3",
    "0x1.86f684bda12f6p+5", "-0x1.4c06522c3f358p+7", "0x1.2174acc60ebfcp+9",
    "-0x1.ffa636145e1d1p+10", "0x1.c9d311ace406ap+12"]
PINNED_MIXTURE = [
    "-0x1.58e38e38e38e3p+0", "0x1.1e84bda12f684p+2", "-0x1.9edd3c0ca4588p+3",
    "0x1.56469598c1d7ep+5", "-0x1.1bcc33f8fa07cp+7", "0x1.e5b0a6afd12d7p+8"]


def test_expected_moment_bit_identical_to_fraction_oracle():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    iid = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    mixture = Mixture(components=(lattice_periodic(BIN, [3], [0, 1, 1]), iid),
                      weights=(0.25, 0.75))
    assert [expected_moment(rule, iid, k).value.hex()
            for k in range(1, 9)] == PINNED_IID
    assert [expected_moment(rule, mixture, k).value.hex()
            for k in range(1, 7)] == PINNED_MIXTURE


def _dense_fraction_power_diagonal(op, k):
    """diag(H^k) as Fractions, by dense products of the Gaussian-integer
    matrix den*H, real and imaginary parts apart: int64 while every entry
    of |den*H|^k stays below 2^62, Python ints otherwise.  H is Hermitian,
    so the diagonal is real."""
    den = math.lcm(*(f.denominator for v in op.values for f in (v.re, v.im)))
    parts = []
    for part in ("re", "im"):
        parts.append([getattr(v, part).numerator
                      * (den // getattr(v, part).denominator)
                      for v in op.values])
    rows_abs = np.zeros(op.n, dtype=object)
    np.add.at(rows_abs, op.rows, [abs(parts[0][c]) + abs(parts[1][c])
                                  for c in op.codes])
    dtype = np.int64 if max(rows_abs, default=0) ** k < 2 ** 62 else object
    h_re, h_im = np.zeros((2, op.n, op.n), dtype=dtype)
    h_re[op.rows, op.cols] = np.array(parts[0], dtype=object)[op.codes]
    h_im[op.rows, op.cols] = np.array(parts[1], dtype=object)[op.codes]
    p_re, p_im = h_re, h_im
    for _ in range(k - 1):
        p_re, p_im = p_re @ h_re - p_im @ h_im, p_re @ h_im + p_im @ h_re
    assert not np.diagonal(p_im).any()
    return [Fraction(int(x), den ** k) for x in np.diagonal(p_re).tolist()]


def test_power_kernels_fall_back_to_python_ints(monkeypatch):
    # den = 7 and row sum R = 10^6, so R^6 >= 2^62: int64 could wrap
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(10**6, 7)])
    k = 6
    sig = torus_approximation(1, 9)
    rho = np.array([0, 1, 1, 0, 1, 1, 1, 0, 0])
    op = assemble_induced(rule, sig, rho)
    expect = _dense_fraction_power_diagonal(op, k)
    # on the 9-cycle no closed 6-walk wraps and the radius-4 window is the
    # whole torus, so every vertex sees the closed-walk value
    big_vals = rho[sig.ball_images(ball(Z1, 4))]
    den, re, im = _walk_values(rule, _walk_space(Z1, 1, k), big_vals, k)
    assert re.dtype == object
    assert [Fraction(num, den ** k) for num in re.tolist()] == expect
    assert not im.any()
    den_m, re_m, _ = _matrix_power_diagonal(op, k, np.arange(9))
    assert re_m.dtype == object
    assert [Fraction(num, den_m ** k) for num in re_m.tolist()] == expect
    # a few cells per batch: one source per chunk, in any order, repeated
    monkeypatch.setattr(operators_module, "_BATCH_CELLS", 5)
    vertices = np.array([4, 0, 8, 3, 4])
    got = _matrix_power_diagonal(op, k, vertices)
    assert got[1].dtype == object
    _assert_same_power_diagonal(got, _ref_dense_power_diagonal(op, k, vertices))
    assert [Fraction(num, den_m ** k) for num in got[1].tolist()] == [
        expect[v] for v in vertices]
    monkeypatch.undo()

    sig = torus_approximation(1, 50)     # (k/2 + 2)M-good everywhere
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(3))
    rep = power_diagonal_check(rule, sig, rho, k)
    assert rep.n_tested == 50
    assert rep.max_discrepancy == 0.0


def test_power_diagonal_detects_corrupted_entry(monkeypatch):
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 18)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(4))
    quarter_i = ComplexRational(Fraction(0), Fraction(1, 4))
    clean = assemble_induced(rule, sig, rho)
    # one side of the hopping pair alone is refused when the operator is built
    with pytest.raises(AssemblyError, match=r"\(3,4\)$"):
        _with_entries(clean, {(3, 4): clean.entries[3, 4] + quarter_i})

    def corrupting(delta):
        def corrupted(*args, **kwargs):
            op = assemble_induced(*args, **kwargs)
            return _with_entries(op, {key: op.entries[key] + d
                                      for key, d in delta.items()})
        return corrupted

    # k = 1 sees the diagonal shift and k = 2 the conjugate hopping pair,
    # through H(3,4) H(4,3) = |1 + i/4|^2 = 1 + 1/16
    monkeypatch.setattr(operators_module, "assemble_induced", corrupting(
        {(3, 3): ComplexRational(Fraction(1, 4))}))
    assert power_diagonal_check(rule, sig, rho, 1).max_discrepancy == 0.25
    assert power_diagonal_check(rule, sig, rho, 2).max_discrepancy > 0
    monkeypatch.setattr(operators_module, "assemble_induced", corrupting(
        {(3, 4): quarter_i, (4, 3): quarter_i.conjugate()}))
    assert power_diagonal_check(rule, sig, rho, 1).max_discrepancy == 0.0
    assert power_diagonal_check(rule, sig, rho, 2).max_discrepancy == 1 / 16


def _hopping_rule(group, potential, hop):
    """Potential F(w(e)) plus hopping i/2 along the first axis and `hop`
    along the others: a Hermitian rule with non-real coefficients."""
    b = ball(group, 1)
    e = group.identity()
    half_i = ComplexRational(Fraction(0), Fraction(1, 2))
    entries = []
    for window in itertools.product(range(BIN.size), repeat=len(b)):
        entries.append((e, window, potential[window[b.index(e)]]))
        for axis in range(group.d):
            s = group.generator(2 * axis)
            value = half_i if axis == 0 else hop
            entries.append((s, window, value))
            entries.append((group.inverse(s), window, value.conjugate()))
    return table_rule(group, BIN, 1, entries)


def _rule_of(kind, group, potential, hop, dyadic=False):
    """A diagonal, Schrodinger or complex-hopping rule on BIN.  dyadic
    builds it from the floats nearest the rationals, which it takes at their
    exact binary values."""
    if dyadic:
        potential, hop = [float(x) for x in potential], float(hop)
    if kind == "diagonal":
        return diagonal_rule(group, BIN, list(potential))
    if kind == "schrodinger":
        return schrodinger_rule(group, BIN, list(potential))
    return _hopping_rule(group, potential, hop)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(A=st.integers(1, 3), data=st.data(), side=st.integers(2, 9),
       seed=st.integers(0, 2**16))
def test_random_self_adjoint_table_rules_assemble_hermitian(A, data, side,
                                                            seed):
    # on Z with M = 1: a real diagonal of the whole window, hopping
    # f(w(e), w(+1)) to +1 and its adjoint conj f(w(-1), w(e)) to -1
    b = ball(Z1, 1)
    e, right, left = (b.index(g) for g in [(0,), (1,), (-1,)])
    f = {pair: data.draw(st.builds(ComplexRational, RATIONALS, RATIONALS))
         for pair in itertools.product(range(A), repeat=2)}
    entries = []
    for w in itertools.product(range(A), repeat=len(b)):
        entries += [((0,), w, ComplexRational(data.draw(RATIONALS))),
                    ((1,), w, f[w[e], w[right]]),
                    ((-1,), w, f[w[left], w[e]].conjugate())]
    rule = table_rule(Z1, Alphabet(symbols=tuple("abc"[:A])), 1, entries)
    assert validate_local_rule(rule) == []
    sig = torus_approximation(1, side)
    rho = np.random.default_rng(seed).integers(0, A, side)
    dense = assemble_induced(rule, sig, rho).to_dense()
    assert np.array_equal(dense, dense.conj().T)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       k=st.integers(1, 4), potential=st.tuples(RATIONALS, RATIONALS),
       hop=RATIONALS, dyadic=st.booleans(), seed=st.integers(0, 2**16))
def test_power_diagonal_exact_on_random_rules(d, kind, k, potential, hop,
                                              dyadic, seed):
    # a dyadic rule (from floats) is checked exactly too, on Python ints
    rule = _rule_of(kind, lattice_group(d), potential, hop, dyadic)
    assert validate_local_rule(rule) == []
    side = 2 * (k // 2 + 2) * rule.hopping + 2 if rule.hopping else 3
    sig = torus_approximation(d, side)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(seed))
    rep = power_diagonal_check(rule, sig, rho, k)
    assert rep.n_tested == side ** d
    assert rep.max_discrepancy == 0.0


def _ref_dense_power_diagonal(op, k, vertices):
    """diag((den*H)^k) by dense unit-column blocks through k CSR matvecs:
    the kernel that the sparse-frontier propagation replaced, kept as the
    reference it must reproduce exactly."""
    n = op.n
    rows, cols, codes = op.rows, op.cols, op.codes
    den, val_re, val_im = operators_module._scaled_numerators(op.values)
    order = np.lexsort((cols, rows))
    rows, cols, codes = rows[order], cols[order], codes[order]
    val_re, val_im = val_re[codes], val_im[codes]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    filled = np.diff(indptr) > 0
    starts = indptr[:-1][filled]
    bound = (np.add.reduceat(np.abs(val_re) + np.abs(val_im), starts).max()
             if len(rows) else 0)
    dtype = operators_module._kernel_dtype(bound, k)
    val_re = val_re.astype(dtype)[:, None]
    val_im = val_im.astype(dtype)[:, None]
    real = not val_im.any()
    re = np.zeros(len(vertices), dtype=dtype)
    im = np.zeros(len(vertices), dtype=dtype)
    chunk = max(1, operators_module._BATCH_CELLS // max(n, len(rows), 1))
    for lo in range(0, len(vertices), chunk):
        block = vertices[lo:lo + chunk]
        unit = (block, np.arange(len(block)))
        x_re = np.zeros((n, len(block)), dtype=dtype)
        x_re[unit] = 1
        x_im = np.zeros_like(x_re)
        for _ in range(k):
            g_re = x_re[cols]
            p_re = g_re * val_re
            x_re = np.zeros_like(x_re)
            if not real:
                g_im = x_im[cols]
                p_re -= g_im * val_im
                p_im = g_re * val_im + g_im * val_re
                x_im = np.zeros_like(x_im)
            if len(starts):
                x_re[filled] = np.add.reduceat(p_re, starts, axis=0)
                if not real:
                    x_im[filled] = np.add.reduceat(p_im, starts, axis=0)
        re[lo:lo + len(block)] = x_re[unit]
        im[lo:lo + len(block)] = x_im[unit]
    return den, re, im


def _assert_same_power_diagonal(got, want):
    """Equal denominators, dtypes and numerators."""
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["Z", "Z2", "F2"]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       dyadic=st.booleans(), k=st.integers(1, 8),
       potential=st.tuples(RATIONALS, RATIONALS), hop=RATIONALS,
       size=st.integers(3, 9), seed=st.integers(0, 2**16),
       subset=st.booleans(), cells=st.sampled_from([1 << 17, 40]))
def test_frontier_power_diagonal_matches_dense_blocks(model, kind, dyadic, k,
                                                      potential, hop, size,
                                                      seed, subset, cells):
    group = free_group(2) if model == "F2" else lattice_group(len(model))
    rule = _rule_of(kind, group, potential, hop, dyadic)
    # small tori and permutation models leave bad vertices, whose entries
    # assembly zeroes
    sig = (random_permutation_approximation(2, 6 * size, seed)
           if model == "F2" else torus_approximation(len(model), size))
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(seed))
    op = assemble_induced(rule, sig, rho)
    rng = np.random.default_rng(seed)
    vertices = (rng.permutation(op.n)[:rng.integers(0, op.n + 1)] if subset
                else np.arange(op.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_module, "_BATCH_CELLS", cells)
        got = _matrix_power_diagonal(op, k, vertices)
        want = _ref_dense_power_diagonal(op, k, vertices)
    _assert_same_power_diagonal(got, want)


def _rng_hermitian_entries(rng, n, p, part):
    """Each pair i <= j with probability p: part() + i part() at (i, j) and
    its conjugate at (j, i), or a real part() on the diagonal."""
    entries = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < p:
                v = ComplexRational(part(), part() if i < j else Fraction(0))
                entries[i, j], entries[j, i] = v, v.conjugate()
    return entries


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 7), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1, 10**5]), cells=st.sampled_from([1 << 17, 3]))
def test_power_diagonal_on_random_hermitian_exact_operators(n, k, seed,
                                                            scale, cells):
    # random sparse Hermitian entries, stored zeros included: a real
    # diagonal and complex conjugate pairs off it; scale 10^5 pushes R^k
    # past 2^62 and onto Python ints
    rng = np.random.default_rng(seed)
    op = InducedOperator.from_entries(n, _rng_hermitian_entries(
        rng, n, 0.5, lambda: Fraction(int(rng.integers(-9, 10)) * scale,
                                      int(rng.integers(1, 7)))))
    vertices = rng.integers(0, n, size=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_module, "_BATCH_CELLS", cells)
        got = _matrix_power_diagonal(op, k, vertices)
        _assert_same_power_diagonal(
            got, _ref_dense_power_diagonal(op, k, vertices))
    den, re, im = got
    expect = _dense_fraction_power_diagonal(op, k)
    assert [Fraction(num, den ** k) for num in re.tolist()] == [
        expect[v] for v in vertices]
    assert not im.any()


def test_power_diagonal_catches_non_hermitian_hopping_at_k3(monkeypatch):
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 40)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(5))
    v = 20
    quarter = ComplexRational(Fraction(1, 4))
    clean = assemble_induced(rule, sig, rho)
    # H(v+1, v) moved without its transpose is refused when it is built
    with pytest.raises(AssemblyError, match=rf"\({v},{v + 1}\)$"):
        _with_entries(clean, {(v + 1, v): clean.entries[v + 1, v] + quarter})

    def corrupted(*args, **kwargs):
        # H(v+1, v) and its transpose H(v, v+1) move together
        op = assemble_induced(*args, **kwargs)
        return _with_entries(op, {key: op.entries[key] + quarter
                                  for key in [(v + 1, v), (v, v + 1)]})

    bad = corrupted(rule, sig, rho)
    den, re, _ = _matrix_power_diagonal(bad, 3, np.array([v]))
    den_c, re_c, _ = _matrix_power_diagonal(clean, 3, np.array([v]))
    got = Fraction(re[0], den ** 3)
    assert got == _dense_fraction_power_diagonal(bad, 3)[v]
    assert got != Fraction(re_c[0], den_c ** 3)
    monkeypatch.setattr(operators_module, "assemble_induced", corrupted)
    assert power_diagonal_check(rule, sig, rho, 1).max_discrepancy == 0.0
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.max_discrepancy > 0


def test_power_diagonal_walks_cancelling_to_zero():
    # diagonal -2 + F is -1, 0, 1 on symbols 0, 1, 2 and hopping is 1, so
    # (H^3)(v,v) = p_v^3 + 4 p_v + p_{v-1} + p_{v+1} vanishes at a 0 between
    # a -1 and a 1, and (H^3)(v,v) = 0 exactly there on both sides
    tri = Alphabet(symbols=("0", "1", "2"))
    rule = schrodinger_rule(Z1, tri, [Fraction(1), Fraction(2), Fraction(3)])
    sig = torus_approximation(1, 30)
    rho = np.tile([0, 1, 2], 10)
    op = assemble_induced(rule, sig, rho)
    vertices = np.arange(op.n)
    den, re, im = _matrix_power_diagonal(op, 3, vertices)
    _assert_same_power_diagonal(
        (den, re, im), _ref_dense_power_diagonal(op, 3, vertices))
    assert re.tolist() == [-4, 0, 4] * 10 and not im.any()
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.n_tested == 30 and rep.max_discrepancy == 0.0


def _trace_case(name):
    """An operator on at most 30 vertices, by case name.  F2 takes 200:
    its random-permutation models on 30 vertices had no 2-good vertex (none
    of 200 seeds)."""
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    if name == "zero":
        return InducedOperator.from_entries(12, {})
    if name == "stored zeros":
        return InducedOperator.from_entries(
            4, {(0, 0): 0, (1, 3): 0, (3, 1): 0})
    if name == "F2 random perm":
        # about 28% of the vertices are 2-good: assembly zeroes the others
        group = free_group(2)
        sig = random_permutation_approximation(2, 200, 0)
        assert 0 < good_vertices(sig, 2).good.mean() < 1
        rule = schrodinger_rule(group, BIN, [Fraction(0), Fraction(5, 3)])
    elif name == "potential 0, 5/3":
        sig = torus_approximation(1, 30)
        rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    else:
        # i/2 to the right and -i/2 back, so r != c at odd k reads both;
        # the dyadic rule takes the floats of 1/3 and -5/7 at their values
        sig = torus_approximation(1, 30)
        rule = _rule_of("complex hopping", Z1,
                        (Fraction(1, 3), Fraction(-5, 7)), Fraction(1),
                        dyadic=name == "dyadic complex hopping")
    rho = sample_configuration(iid, sig, np.random.default_rng(11))
    return assemble_induced(rule, sig, rho)


@pytest.mark.parametrize("name", [
    "potential 0, 5/3", "complex hopping", "dyadic complex hopping",
    "F2 random perm", "zero", "stored zeros"])
def test_trace_moments_are_exact_traces_of_dense_powers(name):
    op = _trace_case(name)
    got = trace_moments(op, 6)
    assert all(isinstance(m, Fraction) for m in got)
    assert got == [sum(_dense_fraction_power_diagonal(op, k), Fraction(0))
                   / op.n for k in range(1, 7)]
    if name.startswith("dyadic"):
        assert _matrix_power_diagonal(op, 6, np.arange(op.n))[1].dtype == \
            object
    # scipy sparse powers as a float reference, within 1e-12 of the trace
    # of the entrywise |H|^k, which bounds their cancellation
    a = power = op.to_sparse()
    a_abs = power_abs = abs(a)
    for k, m in enumerate(got, start=1):
        if k > 1:
            power, power_abs = power @ a, power_abs @ a_abs
        want = power.diagonal().sum().real / op.n
        scale = power_abs.diagonal().sum() / op.n
        assert abs(float(m) - want) <= 1e-12 * scale


def test_trace_moments_refuse_an_imaginary_diagonal(monkeypatch):
    op = _trace_case("potential 0, 5/3")
    kernel = _matrix_power_diagonal

    def tilted(op, k, vertices):
        den, re, im = kernel(op, k, vertices)
        if k == 3:
            im[-1] += 1
        return den, re, im

    monkeypatch.setattr(operators_module, "_matrix_power_diagonal", tilted)
    with pytest.raises(ArithmeticError,
                       match=r"diag\(H\^3\) has a nonzero imaginary part"):
        trace_moments(op, 4)
    monkeypatch.undo()
    assert len(trace_moments(op, 4)) == 4


def _with_entries(op, changed):
    """op with some entries set anew, rebuilt through from_entries: the way
    fault-injection tests corrupt an assembled operator."""
    return InducedOperator.from_entries(op.n, {**op.entries, **changed})


# Per-entry loops that the value-coded operator methods replaced, kept as the
# reference they must reproduce exactly.
def _ref_is_real(op):
    return all(v.is_real() for v in op.entries.values())


def _ref_row_sum_bound(op):
    sums = np.zeros(op.n)
    for (i, _), v in op.entries.items():
        sums[i] += float(v.abs2()) ** 0.5
    return float(sums.max()) if op.n else 0.0


def _ref_to_dense(op):
    real = _ref_is_real(op)
    out = np.zeros((op.n, op.n), dtype=float if real else complex)
    for (i, j), v in op.entries.items():
        c = v.to_complex()
        out[i, j] = c.real if real else c
    return out


def _ref_to_sparse(op):
    import scipy.sparse as sp
    if not op.entries:
        return sp.csr_matrix((op.n, op.n))
    rows, cols, vals = zip(*[(i, j, v.to_complex())
                             for (i, j), v in op.entries.items()])
    vals = np.asarray(vals)
    if _ref_is_real(op):
        vals = vals.real
    return sp.csr_matrix((vals, (rows, cols)), shape=(op.n, op.n))


def _ref_hermitian_violation(entries):
    """The first entry of a (row, col) -> value dict, in row-major order,
    without a conjugate transpose."""
    for i, j in sorted(entries):
        w = entries.get((j, i))
        if w is None or _as_exact(w).conjugate() != _as_exact(entries[i, j]):
            return f"({i},{j})"
    return None


def _assert_refused(n, entries):
    """from_entries refuses the entries, naming the reference's pair."""
    bad = _ref_hermitian_violation(entries)
    assert bad is not None
    with pytest.raises(AssemblyError) as err:
        InducedOperator.from_entries(n, entries)
    assert str(err.value) == f"Hermitian symmetry violated at entry pair {bad}"


def _assert_same_dense(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    # the sign of every zero (real and imaginary parts alike) is kept
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(np.imag(got)), np.signbit(np.imag(want)))


def _assert_same_sparse(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data, equal_nan=True)


def _assert_matches_reference(op):
    assert op.row_sum_bound().hex() == _ref_row_sum_bound(op).hex()
    assert op.is_real() == _ref_is_real(op)
    _assert_same_dense(op.to_dense(), _ref_to_dense(op))
    _assert_same_sparse(op.to_sparse(), _ref_to_sparse(op))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       dyadic=st.booleans(), fresh=st.booleans(),
       potential=st.tuples(RATIONALS, RATIONALS), hop=RATIONALS,
       side=st.sampled_from([3, 4, 7]), seed=st.integers(0, 2**16),
       tamper=st.integers(0, 10**6))
def test_value_coded_methods_match_per_entry_loops(d, kind, dyadic, fresh,
                                                   potential, hop, side, seed,
                                                   tamper):
    rule = _rule_of(kind, lattice_group(d), potential, hop, dyadic)
    sig = torus_approximation(d, side)      # side 3 and 4 leave bad vertices
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(seed))
    op = assemble_induced(rule, sig, rho)
    if fresh:
        # one object per entry: interning must then merge by value alone
        op = InducedOperator.from_entries(
            op.n, {key: ComplexRational(Fraction(v.re.numerator,
                                                 v.re.denominator),
                                        Fraction(v.im.numerator,
                                                 v.im.denominator))
                   for key, v in op.entries.items()})
    _assert_matches_reference(op)
    if op.entries:
        # one entry moved alone is refused when the operator is built
        keys = list(op.entries)
        i, j = keys[tamper % len(keys)]
        bump = ComplexRational(Fraction(0), Fraction(1, 3))
        _assert_refused(op.n, {**op.entries, (i, j): op.entries[i, j] + bump})
        # the conjugate pair moved together (a diagonal entry by a real
        # bump), and then removed together, is Hermitian
        if i == j:
            bump = ComplexRational(Fraction(1, 3))
        op = _with_entries(op, {(i, j): op.entries[i, j] + bump,
                                (j, i): op.entries[j, i] + bump.conjugate()})
        _assert_matches_reference(op)
        entries = dict(op.entries)
        del entries[i, j]
        entries.pop((j, i), None)
        op = InducedOperator.from_entries(op.n, entries)
        _assert_matches_reference(op)


def test_float_operator_zero_signs_and_nan():
    # float entries are their exact values: a zero of either sign is 0, so
    # 1 - 0.0j is the real 1 and -0.0 a stored exact zero; NaN and the
    # infinities have no exact value and are refused
    one_minus_0j = complex(1.0, -0.0)       # the literal 1 - 0j has +0.0
    entries = {(0, 0): one_minus_0j, (0, 1): 0.5j, (1, 0): -0.5j,
               (1, 1): complex(-0.0, -0.0), (2, 2): complex(2.0, 0.0)}
    op = InducedOperator.from_entries(3, entries)
    _assert_matches_reference(op)
    assert op.entries[0, 0] == ComplexRational(Fraction(1))
    assert op.entries[1, 1].is_zero()
    assert not np.signbit(op.to_dense()[0, 0].imag)
    real = InducedOperator.from_entries(3, {(0, 0): one_minus_0j,
                                            (1, 1): complex(-0.0, 0.0),
                                            (2, 2): 1 + 0j})
    _assert_matches_reference(real)
    assert real.to_dense().dtype == np.float64
    for bad in (float("nan"), complex(float("nan"), 0.0), float("-inf"),
                complex(0.0, float("inf"))):
        with pytest.raises(RuleValidationError, match="not finite"):
            InducedOperator.from_entries(3, {**entries, (2, 2): bad})


HALF_I = ComplexRational(Fraction(0), Fraction(1, 2))
ONE = ComplexRational(Fraction(1))
HERMITIAN_VALUES = [CZERO, ONE, HALF_I, ComplexRational(Fraction(-2, 3)),
                    ComplexRational(Fraction(1, 3), Fraction(-5, 7))]


def _exact_dense(op):
    """The n x n object array of the operator's exact values."""
    out = np.full((op.n, op.n), CZERO, dtype=object)
    for key, v in op.entries.items():
        out[key] = v
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data(), tamper=st.integers(0, 10**6),
       drop=st.booleans())
def test_check_hermitian_names_first_bad_pair_in_row_major_order(n, data,
                                                                 tamper, drop):
    from sofic_spectra.monotone import _difference
    # i/2 against i/2 is not a conjugate pair
    _assert_refused(3, {(0, 0): ONE, (0, 1): HALF_I, (1, 0): HALF_I})
    # the dict order is not kept: a missing transpose given first is named
    # after a conjugate mismatch that sorts first
    _assert_refused(3, {(1, 2): ONE, (0, 0): ONE, (1, 0): HALF_I,
                        (0, 1): HALF_I})
    _assert_refused(3, {(2, 2): ONE, (1, 2): ONE, (0, 0): ONE})
    # random Hermitian entries pass, and so does their difference
    a, b = (data.draw(hermitian_entries(n, HERMITIAN_VALUES))
            for _ in range(2))
    op_a, op_b = (InducedOperator.from_entries(n, e) for e in (a, b))
    assert dict(op_a.entries) == a
    assert np.array_equal(_exact_dense(_difference(op_a, op_b)),
                          _exact_dense(op_a) - _exact_dense(op_b))
    if a:
        # break one conjugate pair: change one side or drop it
        i, j = sorted(a)[tamper % len(a)]
        broken = dict(a)
        if drop and i != j:
            del broken[i, j]
            first = (j, i)
        else:
            broken[i, j] = broken[i, j] + HALF_I
            first = min((i, j), (j, i))
        assert _ref_hermitian_violation(broken) == f"({first[0]},{first[1]})"
        _assert_refused(n, broken)


# Array storage: from_entries round trip and the graph assembly from arrays.


def _same_operator(a, b):
    """Equal arrays and identical results from every method."""
    assert a.n == b.n
    for name in ("rows", "cols", "codes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.values == b.values
    assert list(a.entries.items()) == list(b.entries.items())
    assert a.row_sum_bound().hex() == b.row_sum_bound().hex()
    assert (a.is_real(), a.is_diagonal()) == (b.is_real(), b.is_diagonal())
    _assert_same_dense(a.to_dense(), b.to_dense())
    _assert_same_sparse(a.to_sparse(), b.to_sparse())
    vertices = np.arange(a.n)
    _assert_same_power_diagonal(_matrix_power_diagonal(a, 3, vertices),
                                _matrix_power_diagonal(b, 3, vertices))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping", "graph"]),
       dyadic=st.booleans(), potential=st.tuples(RATIONALS, RATIONALS),
       hop=RATIONALS, side=st.sampled_from([3, 4, 7]),
       seed=st.integers(0, 2**16), tamper=st.integers(0, 10**6))
def test_from_entries_round_trip(d, kind, dyadic, potential, hop, side, seed,
                                 tamper):
    sig = torus_approximation(d, side)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(seed))
    if kind == "graph":
        op = assemble_graph_schrodinger(
            sig, rho, BIN, [float(x) for x in potential] if dyadic
            else list(potential))
    else:
        op = assemble_induced(
            _rule_of(kind, lattice_group(d), potential, hop, dyadic), sig, rho)
    for a in (op.rows, op.cols, op.codes):
        assert not a.flags.writeable
    assert len(op.entries) == len(op.rows)
    with pytest.raises(TypeError):
        op.entries[(0, 0)] = CZERO
    _same_operator(InducedOperator.from_entries(op.n, dict(op.entries)), op)
    if op.entries:
        # a copy with one conjugate pair corrupted is rebuilt as faithfully
        i, j = list(op.entries)[tamper % len(op.entries)]
        bad = _with_entries(op, {key: op.entries[key] + op.entries[key]
                                 for key in [(i, j), (j, i)]})
        _same_operator(InducedOperator.from_entries(
            bad.n, dict(bad.entries)), bad)


def _dict_graph_schrodinger(sigma, rho, potential):
    """The per-vertex dict loop the array assembly replaced: each vertex's
    distinct neighbours, read off the permutations in plain Python (loops
    dropped, multi-edges collapsed), and the nonzero diagonal
    -deg(v) + F(rho(v)); a float potential at its exact value."""
    n = sigma.n_vertices
    neighbours = [set() for _ in range(n)]
    for perm in sigma.perms:
        for v, u in enumerate(perm.tolist()):
            if u != v:
                neighbours[v].add(u)
    entries = {}
    one = ComplexRational(Fraction(1))
    for v in range(n):
        for u in neighbours[v]:
            entries[(v, u)] = one
        val = ComplexRational(Fraction(-len(neighbours[v]))
                              + Fraction(potential[int(rho[v])]))
        if not val.is_zero():
            entries[(v, v)] = val
    return entries


@pytest.mark.parametrize("floats", [False, True])
def test_graph_schrodinger_matches_dict_loop(floats):
    # potential = degree: the diagonal vanishes at full-degree vertices of
    # symbol 0, and small F_2 models collapse multi-edges and fixed points,
    # so degrees below 4 occur too
    potentials = ([Fraction(4), Fraction(5, 2)], [Fraction(4), Fraction(3)],
                  [Fraction(3), Fraction(1)])
    seen_zero_diagonal = seen_low_degree = False
    for n in (3, 5, 8, 13):
        for seed in range(4):
            sig = random_permutation_approximation(2, n, seed)
            rho = sample_configuration(
                IIDProduct(alphabet=BIN, weights=(0.5, 0.5)), sig,
                np.random.default_rng(seed))
            for potential in potentials:
                if floats:
                    potential = [float(x) for x in potential]
                want = _dict_graph_schrodinger(sig, rho, potential)
                op = assemble_graph_schrodinger(sig, rho, BIN, potential)
                assert list(op.entries) == sorted(want)
                assert all(type(op.entries[k]) is type(v) and
                           op.entries[k] == v for k, v in want.items())
                _same_operator(op, InducedOperator.from_entries(n, want))
                diag = {i for i, j in want if i == j}
                seen_zero_diagonal |= len(diag) < n
                seen_low_degree |= len(want) - len(diag) < 4 * n
    assert seen_zero_diagonal and seen_low_degree


# The power-diagonal test radius: every (floor(k/2) + 2)M-good vertex.


def _range_two_rule(group):
    """Potential F(w(e)) in {0, 5/3}, hopping 1 to the words of length 1 and
    f(w(e), w(g)) to the words g of length 2, f symmetric: a self-adjoint
    rule of hopping range M = 2."""
    b = ball(group, 2)
    e = group.identity()
    f = [[Fraction(1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(2)]]
    entries = []
    for window in itertools.product(range(BIN.size), repeat=len(b)):
        here = window[b.index(e)]
        entries.append((e, window, [Fraction(0), Fraction(5, 3)][here]))
        for g, length in zip(b.elements, b.word_lengths):
            if length == 1:
                entries.append((g, window, Fraction(1)))
            elif length == 2:
                entries.append((g, window, f[here][window[b.index(g)]]))
    return table_rule(group, BIN, 2, entries)


def _walk_values_at(rule, sig, rho, k, radius):
    """The radius-good vertices, and the closed-walk value at each of them as
    a Fraction."""
    M = rule.hopping
    vertices = np.flatnonzero(good_vertices(sig, radius).good)
    big = ball(rule.group, (k // 2) * M + M)
    big_vals = rho[sig.ball_images(big)[:, vertices]]
    den, re, im = _walk_values(rule, _walk_space(rule.group, M, k), big_vals,
                               k)
    assert not im.any()
    return vertices, [Fraction(num, den ** k) for num in re.tolist()]


def _radius_cases():
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    for rank in (1, 2):
        group = free_group(rank)
        rules = [schrodinger_rule(group, BIN, [Fraction(0), Fraction(5, 3)])]
        if rank == 1:
            rules.append(_range_two_rule(group))
        for n in (30, 60, 200):
            for seed in range(3):
                sig = random_permutation_approximation(rank, n, seed)
                rho = sample_configuration(iid, sig,
                                           np.random.default_rng(seed))
                yield from ((rule, sig, rho) for rule in rules)
    Z2 = lattice_group(2)
    for side in (6, 8, 12):
        sig = torus_approximation(2, side)
        rho = sample_configuration(iid, sig, np.random.default_rng(side))
        yield schrodinger_rule(Z2, BIN, [Fraction(0), Fraction(5, 3)]), sig, rho


def test_power_diagonal_radius_is_sound():
    # at every tested vertex the dense matrix power equals the closed-walk
    # value; F_1 models with n >= 60 and the 8 x 8 and 12 x 12 tori test
    # vertices at k >= 2 that the radius 4kM left out.  One M less is not
    # enough: some (floor(k/2) + 1)M-good vertex sees a different value
    tested = 0
    too_small = False
    for rule, sig, rho in _radius_cases():
        op = assemble_induced(rule, sig, rho)
        M = rule.hopping
        for k in range(1, 7):
            if M == 2 and k > 4:
                continue            # windows of 41 sites: enough at k <= 4
            dense = _dense_fraction_power_diagonal(op, k)
            vertices, walks = _walk_values_at(rule, sig, rho, k,
                                              (k // 2 + 2) * M)
            assert [dense[v] for v in vertices.tolist()] == walks
            rep = power_diagonal_check(rule, sig, rho, k)
            assert rep.max_discrepancy == 0.0
            assert rep.n_tested == len(vertices)
            tested += len(vertices)
            vertices, walks = _walk_values_at(rule, sig, rho, k,
                                              (k // 2 + 1) * M)
            too_small |= [dense[v] for v in vertices.tolist()] != walks
    assert tested > 0 and too_small


def test_power_diagonal_tests_free_group_models():
    # F_2 at n = 200: the radius 4kM = 4 left no vertex at k = 1, and the
    # radius-12 ball of k = 3 exceeded the ball capacity
    group = free_group(2)
    rule = schrodinger_rule(group, BIN, [Fraction(0), Fraction(5, 3)])
    sig = random_permutation_approximation(2, 200, 0)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(0))
    assert not good_vertices(sig, 4).good.any()
    reports = [power_diagonal_check(rule, sig, rho, k) for k in (1, 3)]
    assert reports[0].n_tested > 0
    assert all(rep.max_discrepancy == 0.0 for rep in reports)


# Row-major operator storage.


def _keys(op):
    return op.rows * op.n + op.cols


def _assert_row_major(op):
    """Strictly increasing keys, codes numbered by first appearance."""
    assert (np.diff(_keys(op)) > 0).all()
    _, first = np.unique(op.codes, return_index=True)
    assert np.array_equal(op.codes[np.sort(first)], np.arange(len(first)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 7), floats=st.booleans(), seed=st.integers(0, 2**16))
def test_from_entries_stores_row_major(n, floats, seed):
    rng = np.random.default_rng(seed)
    # Hermitian entries, given in a shuffled order
    items = list(_rng_hermitian_entries(
        rng, n, 0.4, lambda: Fraction(int(rng.integers(-3, 4)),
                                      int(rng.integers(1, 4)))).items())
    rng.shuffle(items)
    entries = {key: v.to_complex() if floats else v for key, v in items}
    op = InducedOperator.from_entries(n, entries)
    _assert_row_major(op)
    assert list(op.entries) == sorted(entries)
    assert all(op.entries[key] == _as_exact(v) for key, v in entries.items())
    # the CSR matrix is the one scipy builds from the coordinates
    import scipy.sparse as sp
    rows, cols, vals = op._float_coo()
    _assert_same_sparse(op.to_sparse(),
                        sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def test_every_constructor_stores_row_major():
    from sofic_spectra.monotone import _difference
    group = free_group(2)
    sig = random_permutation_approximation(2, 40, 1)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(1))
    strict = assemble_induced(
        schrodinger_rule(group, BIN, [Fraction(0), Fraction(5, 3)]), sig, rho)
    graph = assemble_graph_schrodinger(sig, rho, BIN,
                                       [Fraction(1), Fraction(2)])
    float_graph = assemble_graph_schrodinger(sig, rho, BIN, [1.0, 2.5])
    for op in (strict, graph, float_graph, _difference(strict, graph)):
        _assert_row_major(op)


def test_entries_is_one_read_only_dict_in_row_major_order():
    sig = random_permutation_approximation(2, 40, 1)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(1))
    op = assemble_induced(schrodinger_rule(
        free_group(2), BIN, [Fraction(0), Fraction(5, 3)]), sig, rho)
    entries = op.entries
    assert op.entries is entries
    with pytest.raises(TypeError):
        entries[0, 0] = CZERO
    keys = list(zip(op.rows.tolist(), op.cols.tolist()))
    assert list(entries) == keys == sorted(keys)
    assert entries == {key: op.values[c]
                       for key, c in zip(keys, op.codes.tolist())}


def test_operator_rejects_unsorted_or_repeated_entries():
    one = (ComplexRational(Fraction(1)),)

    def op(rows, cols):
        return InducedOperator(3, np.array(rows), np.array(cols),
                               np.zeros(len(rows), dtype=np.int64), one)

    op([0, 1, 2], [1, 0, 2])
    with pytest.raises(ValueError, match="row-major"):
        op([1, 0], [0, 1])
    with pytest.raises(ValueError, match="row-major"):
        op([0, 1, 1], [1, 2, 2])
    with pytest.raises(ValueError, match="row-major"):
        op([0, 0], [2, 1])


def test_frontier_keys_refuse_int64_overflow(monkeypatch):
    # n = 2^29 with two stored entries: each source expands to one term, so
    # w sources give tagged keys below w * 2^29 * w, which fits int64 up to
    # w = 2^17 sources; at 2^18 the check raises instead of wrapping, and
    # nothing of length n is built on the way
    import tracemalloc
    n = 2 ** 29
    op = InducedOperator.from_entries(n, {(0, 0): Fraction(2),
                                          (n - 1, n - 1): Fraction(3)})
    sources = np.zeros(2 ** 17, dtype=np.int64)
    tracemalloc.start()
    try:
        den, re, im = _matrix_power_diagonal(op, 2, sources)
        assert den == 1 and (re == 4).all() and not im.any()
        monkeypatch.setattr(operators_module, "_BATCH_CELLS", 2 ** 18)
        with pytest.raises(OverflowError, match="overflow int64"):
            _matrix_power_diagonal(op, 2, np.zeros(2 ** 18, dtype=np.int64))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 27
    finally:
        tracemalloc.stop()


# expected_moment builds its walk structures once per rule, model and reach.


def test_expected_moment_caches_per_reach():
    from sofic_spectra.operators import _walk_setup
    import dataclasses
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    iid = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    values = [expected_moment(rule, iid, k).value for k in range(1, 9)]
    assert sorted(rule._walks) == [0, 1, 2, 3, 4]
    assert sorted(rule._laws) == [(iid, r) for r in range(5)]
    assert _walk_setup(rule, 4) is _walk_setup(rule, 5)
    # an equal model hits the cache, and the values do not move
    same = IIDProduct(alphabet=BIN, weights=[0.7, 0.3])
    assert [expected_moment(rule, same, k).value
            for k in range(1, 9)] == values
    assert len(rule._laws) == 5
    # the rule is frozen, and its arrays read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.hopping = 2
    with pytest.raises(ValueError):
        rule.codes[0, 0] = rule.codes[0, 1]
    with pytest.raises(TypeError):
        rule.values[0] = rule.values[1]


# ---------------------------------------------------------------------------
# Value-coded rules against the per-cell code they replaced
# ---------------------------------------------------------------------------


def _per_cell_tables(group, alphabet, hopping, entries):
    """The per-cell table_rule: {g: one exact value per window code}."""
    from sofic_spectra.exact import CZERO
    b = ball(group, hopping)
    A = alphabet.size
    tables = {}
    for g, window, value in entries:
        code = 0
        for pos in reversed(range(len(b))):
            code = code * A + int(window[pos])
        if g not in tables:
            tables[g] = np.full(A ** len(b), CZERO, dtype=object)
        tables[g][code] = _as_exact(value)
    return tables


def _per_cell_value_sets(tables, e):
    """The per-cell realized_value_sets."""
    f1, f2 = set(), set()
    for g, table in tables.items():
        vals = {v for v in table.tolist() if not v.is_zero()}
        if g == e:
            f1 |= vals
        else:
            f2 |= vals
    return f1, f2


def _per_cell_influential(tables, A, K):
    """The per-table influential_positions."""
    influential = set()
    for table in tables.values():
        arr = table.reshape([A] * K)
        for pos in range(K):
            axis = K - 1 - pos
            first = np.take(arr, 0, axis=axis)
            if any(np.any(np.take(arr, s, axis=axis) != first)
                   for s in range(1, A)):
                influential.add(pos)
    return sorted(influential)


def _per_cell_validation(group, alphabet, hopping, tables):
    """The per-cell validate_local_rule's witnesses."""
    from sofic_spectra.exact import CZERO
    from sofic_spectra.measures import _digits
    A = alphabet.size
    small = ball(group, hopping)
    big = ball(group, 2 * hopping)
    codes = np.arange(A ** len(big))
    digits = _digits(codes, A, len(big))
    weights = A ** np.arange(len(small), dtype=np.int64)

    def subcode(position_map):
        return (digits[position_map, :] * weights[:, None]).sum(axis=0)

    restricted = subcode([big.index(h) for h in small.elements])
    e = group.identity()
    witnesses = []
    for g in small.elements:
        translated = subcode([big.index(group.multiply(h, g))
                              for h in small.elements])
        tg = tables.get(g)
        tginv = tables.get(group.inverse(g))
        for code in codes:
            lhs = tg[restricted[code]] if tg is not None else CZERO
            rhs = tginv[translated[code]] if tginv is not None else CZERO
            if lhs != rhs.conjugate():
                witnesses.append((g, tuple(int(digits[big.index(h), code])
                                           for h in big.elements)))
                break
        if g == e and tg is not None:
            for v in tg.tolist():
                if not v.is_real():
                    witnesses.append((e, "non-real diagonal value"))
                    break
    return witnesses


def _per_cell_schedule(tables, e, n_codes, sched, m):
    """The per-cell apply_schedule on the tables, with its value sets."""
    from sofic_spectra.exact import CZERO
    f1, f2 = _per_cell_value_sets(tables, e)
    diagonal = tables.get(e)
    if f2 and (diagonal is None
               or any(v.is_zero() for v in diagonal.tolist())):
        f1.add(CZERO)
    source = dict(tables)
    if CZERO in f1:
        source.setdefault(e, np.full(n_codes, CZERO, dtype=object))
    out = {}
    for g, table in source.items():
        new = np.full(len(table), CZERO, dtype=object)
        for code, v in enumerate(table.tolist()):
            if g == e and (CZERO in f1 or not v.is_zero()):
                new[code] = ComplexRational(sched.a[(m, v)])
            elif not v.is_zero():
                new[code] = sched.b[(m, v)]
        out[g] = new
    return out, (f1, f2)


def _same_tables(got, want):
    assert set(got) == set(want)
    for g, table in want.items():
        assert got[g].dtype == table.dtype
        if table.dtype == object:
            assert got[g].tolist() == table.tolist()
        else:
            assert got[g].tobytes() == table.tobytes()


CELL_VALUES = [0, 1, Fraction(-1, 2), Fraction(5, 3), Fraction(7, 4),
               ComplexRational(Fraction(1), Fraction(1)),
               ComplexRational(Fraction(0), Fraction(-2)),
               ComplexRational(Fraction(1, 3), Fraction(-1, 5))]


def _as_exact(v):
    """v at its exact value: a float or complex by its binary value."""
    if isinstance(v, ComplexRational):
        return v
    return ComplexRational(Fraction(v.real), Fraction(v.imag))


def _as_float_value(v):
    return v.to_complex() if isinstance(v, ComplexRational) else float(v)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), group=st.sampled_from(["Z", "F2"]),
       hopping=st.integers(0, 1), A=st.integers(1, 3), dyadic=st.booleans(),
       self_adjoint=st.booleans())
def test_value_coded_rules_match_per_cell_tables(data, group, hopping, A,
                                                 dyadic, self_adjoint):
    from sofic_spectra.monotone import (
        ScheduleError,
        apply_schedule,
        build_schedule,
        value_sets_of,
    )
    group = Z1 if group == "Z" else free_group(2)
    if group.kind == "free" and hopping == 1:
        A = 1       # 17 sites in B(e, 2): keep the per-cell loops small
    alphabet = Alphabet(symbols=tuple("abc"[:A]))
    b = ball(group, hopping)
    e = group.identity()
    windows = list(itertools.product(range(A), repeat=len(b)))
    real = [v for v in CELL_VALUES if not isinstance(v, ComplexRational)
            or v.is_real()]
    entries = []
    if self_adjoint:
        # a real diagonal of the window; one value on each generator and
        # its conjugate on the inverse, whatever the window
        for w in data.draw(st.lists(st.sampled_from(windows), max_size=6,
                                    unique=True)):
            entries.append((e, w, data.draw(st.sampled_from(real))))
        for g in b.elements:
            if g != e and g < group.inverse(g) and data.draw(st.booleans()):
                h = _as_exact(data.draw(st.sampled_from(CELL_VALUES)))
                entries += [(g, w, h) for w in windows]
                entries += [(group.inverse(g), w, h.conjugate())
                            for w in windows]
    else:
        entries = data.draw(st.lists(st.tuples(
            st.sampled_from(b.elements), st.sampled_from(windows),
            st.sampled_from(CELL_VALUES)), max_size=12,
            unique_by=lambda entry: entry[:2]))
    if dyadic:
        entries = [(g, w, _as_float_value(v)) for g, w, v in entries]
    rule = table_rule(group, alphabet, hopping, entries)
    tables = _per_cell_tables(group, alphabet, hopping, entries)
    assert list(rule.elements) == [g for g in b.elements if g in tables]
    _same_tables(rule_tables(rule), tables)
    assert rule.realized_value_sets() == _per_cell_value_sets(tables, e)
    assert rule.influential_positions == _per_cell_influential(tables, A,
                                                               len(b))

    witnesses = _per_cell_validation(group, alphabet, hopping, tables)
    assert validate_local_rule(rule) == witnesses
    if self_adjoint:
        assert witnesses == []

    try:
        sched = build_schedule(value_sets_of(rule), 3)
    except ScheduleError:
        return
    for m in range(1, 4):
        want, value_sets = _per_cell_schedule(tables, e, rule.n_window_codes,
                                              sched, m)
        assert (set(sched.values.f1), set(sched.values.f2)) == value_sets
        _same_tables(rule_tables(apply_schedule(rule, sched, m)), want)

