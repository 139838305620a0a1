import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sofic_spectra.exact import ComplexRational
from sofic_spectra.groups import ball, free_group, lattice_group
from sofic_spectra.measures import (
    Alphabet,
    Configuration,
    EnumerationBudgetError,
    IIDProduct,
    Mixture,
    binary_alphabet,
    lattice_periodic,
    pullback_window,
    sample_configuration,
)
import sofic_spectra.operators as operators_module
from sofic_spectra.operators import (
    AssemblyError,
    InducedOperator,
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
    validate_local_rule,
)
from sofic_spectra.sofic import (
    good_vertices,
    random_permutation_approximation,
    torus_approximation,
)

Z1 = lattice_group(1)
BIN = binary_alphabet()
TRIV = Alphabet(symbols=("0",))


def zero_config(n):
    return Configuration(values=np.zeros(n, dtype=np.int64))


def test_schrodinger_rule_values():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5)])
    e = Z1.identity()
    b = ball(Z1, 1)
    e_pos = b.index(e)
    # window with w(e) = 1: c(e, w) = -2 + 5 = 3
    code = 1 * BIN.size ** e_pos
    assert rule.tables[e][code] == ComplexRational(Fraction(3))
    assert rule.tables[e][0] == ComplexRational(Fraction(-2))
    assert rule.tables[(1,)][0] == ComplexRational(Fraction(1))
    f2rule = schrodinger_rule(free_group(2), BIN, [Fraction(0), Fraction(1)])
    assert f2rule.tables[()][0] == ComplexRational(Fraction(-4))


def test_validate_laplacian():
    rule = laplacian_rule(Z1)
    rep = validate_local_rule(rule)
    assert rep.ok
    assert rep.row_sum_bound == 4.0
    assert rep.diagonal_values == {ComplexRational(Fraction(-2))}
    assert rep.offdiagonal_values == {ComplexRational(Fraction(1))}


def test_validate_self_adjointness_violation():
    i = ComplexRational(Fraction(0), Fraction(1))
    windows = [(0,) * 3]
    entries = [((1,), windows[0], i), ((-1,), windows[0], i)]
    rule = table_rule(Z1, TRIV, 1, entries)
    rep = validate_local_rule(rule)
    assert not rep.ok
    assert any(g == (1,) or g == (-1,) for g, _ in rep.witnesses)


def test_validate_real_diagonal_required():
    i = ComplexRational(Fraction(0), Fraction(1))
    rule = table_rule(Z1, TRIV, 0, [((0,), (0,), i)])
    rep = validate_local_rule(rule)
    assert not rep.ok


def test_validate_diagonal_rule_any_real():
    rule = diagonal_rule(Z1, BIN, [Fraction(-7, 3), Fraction(2)])
    assert validate_local_rule(rule).ok


def test_assemble_circulant():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(8))
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
    rho = Configuration(values=np.array([0, 1] * 5))
    op = assemble_induced(rule, sig, rho)
    assert op.is_diagonal()
    assert [str(v.re) for v in op.diagonal()] == ["0", "1"] * 5


def test_assembly_zero_pattern_invariant():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    rep = validate_local_rule(rule)
    allowed = rep.diagonal_values | rep.offdiagonal_values
    sig = torus_approximation(1, 32)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 1)
    op = assemble_induced(rule, sig, rho)
    good = good_vertices(sig, 2).good
    for (i, j), v in op.entries.items():
        assert v in allowed
        assert good[i] and good[j]
        assert min(abs(i - j), 32 - abs(i - j)) <= 1


def test_assembly_zeroes_at_bad_vertices():
    # n=4 torus has no 2-good vertex, so the strict assembly is empty
    sig = torus_approximation(1, 4)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(4))
    assert op.entries == {}
    # the graph-mode construction carries the small-size circulant instead
    graph_op = assemble_graph_schrodinger(sig, zero_config(4), TRIV,
                                          [Fraction(0)])
    dense = graph_op.to_dense()
    assert np.array_equal(np.diag(dense), [-2.0] * 4)


def test_graph_mode_matches_strict_on_good_torus():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 12)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 9)
    strict = assemble_induced(rule, sig, rho)
    graph = assemble_graph_schrodinger(sig, rho, BIN,
                                       [Fraction(0), Fraction(5, 3)])
    assert np.array_equal(strict.to_dense(), graph.to_dense())


def test_goodness_radius_mismatch_error():
    sig = torus_approximation(1, 8)
    with pytest.raises(AssemblyError):
        assemble_induced(laplacian_rule(Z1), sig, zero_config(8),
                         good_vertices(sig, 3))


def test_finite_level_equivariance():
    # pullback windows shift correctly: window at sigma^s(v) equals the
    # translated window at v, so entries repeat along the orbit
    from sofic_spectra.groups import translate_window
    sig = torus_approximation(1, 12)
    rho = Configuration(values=np.arange(12) % 2)
    big = pullback_window(rho, sig, 3, 2)
    stepped = pullback_window(rho, sig, int(sig.perm_of((1,))[3]), 1)
    assert translate_window(Z1, (1,), big, 1) == stepped


def test_power_diagonal_trivial_k1():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    sig = torus_approximation(1, 12)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 4)
    rep = power_diagonal_check(rule, sig, rho, 1)
    assert rep.max_discrepancy == 0.0
    assert rep.fraction_tested == 1.0


def test_power_diagonal_laplacian_k2():
    sig = torus_approximation(1, 12)
    rep = power_diagonal_check(laplacian_rule(Z1), sig, zero_config(12), 2)
    assert rep.max_discrepancy == 0.0
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(12))
    dense = op.to_dense()
    assert np.allclose(np.diag(dense @ dense), 6.0)


def test_power_diagonal_diagonal_rule_k3():
    rule = diagonal_rule(Z1, BIN, [Fraction(2), Fraction(-3)])
    sig = torus_approximation(1, 9)
    rho = Configuration(values=np.arange(9) % 2)
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.max_discrepancy == 0.0
    op = assemble_induced(rule, sig, rho)
    d = [v.re ** 3 for v in op.diagonal()]
    assert d[0] == 8 and d[1] == -27


def test_expected_moment_examples():
    lap = laplacian_rule(Z1)
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
    op = assemble_induced(rule, sig, sample_configuration(per, sig, 0))
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
    with pytest.raises(EnumerationBudgetError, match="retry with mode='mc'"):
        expected_moment(rule, iid, 6)


def test_expected_moment_monte_carlo_cross_oracle():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    iid = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    for k in (2, 3, 4):
        exact = expected_moment(rule, iid, k)
        mc = expected_moment(rule, iid, k, mode="mc", samples=400, seed=k)
        assert mc.standard_error > 0
        assert abs(mc.value - exact.value) <= 5 * mc.standard_error


def test_power_diagonal_float_mode():
    import math
    rule = schrodinger_rule(Z1, BIN, [0.0, math.sqrt(2)])
    assert not rule.exact
    sig = torus_approximation(1, 16)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 6)
    rep = power_diagonal_check(rule, sig, rho, 2)
    assert not rep.exact
    bound = assemble_induced(rule, sig, rho).row_sum_bound()
    assert rep.max_discrepancy <= 1e-10 * bound ** 2


def test_expected_moment_free_group_tree():
    adj = adjacency_rule(free_group(2), TRIV)
    triv = IIDProduct(alphabet=TRIV, weights=(1.0,))
    assert expected_moment(adj, triv, 2).value == 4.0
    assert expected_moment(adj, triv, 4).value == 28.0
    assert expected_moment(adj, triv, 1).value == 0.0
    assert expected_moment(adj, triv, 3).value == 0.0


def test_hermitian_check_rejects_tampering():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(8))
    op = _with_entries(op, {(0, 1): ComplexRational(Fraction(2))})
    with pytest.raises(AssemblyError):
        op.check_hermitian()


def test_row_sum_bound():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(8))
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
PINNED_MC = {  # k: (value, standard error), samples=400, seed=k
    2: ("0x1.3733333333333p+2", "0x1.6ac3ccd032080p-4"),
    3: ("-0x1.d2314dbf86a31p+3", "0x1.5a98c0d75fcc4p-2"),
    4: ("0x1.7b12a59c20de8p+5", "0x1.32829e5432507p+0")}


def test_expected_moment_bit_identical_to_fraction_oracle():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    iid = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    mixture = Mixture(components=(lattice_periodic(BIN, [3], [0, 1, 1]), iid),
                      weights=(0.25, 0.75))
    assert [expected_moment(rule, iid, k).value.hex()
            for k in range(1, 9)] == PINNED_IID
    assert [expected_moment(rule, mixture, k).value.hex()
            for k in range(1, 7)] == PINNED_MIXTURE
    for k, (value, se) in PINNED_MC.items():
        mc = expected_moment(rule, iid, k, mode="mc", samples=400, seed=k)
        assert (mc.value.hex(), mc.standard_error.hex()) == (value, se)


def _dense_fraction_power_diagonal(op, k):
    """diag(H^k) by dense Fraction matrix products (real operators only)."""
    h = [[Fraction(0)] * op.n for _ in range(op.n)]
    for (i, j), v in op.entries.items():
        assert v.im == 0
        h[i][j] = v.re
    power = h
    for _ in range(k - 1):
        power = [[sum(power[i][m] * h[m][j] for m in range(op.n))
                  for j in range(op.n)] for i in range(op.n)]
    return [power[i][i] for i in range(op.n)]


def test_power_kernels_fall_back_to_python_ints(monkeypatch):
    # den = 7 and row sum R = 10^6, so R^6 >= 2^62: int64 could wrap
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(10**6, 7)])
    k = 6
    sig = torus_approximation(1, 9)
    rho = Configuration(values=np.array([0, 1, 1, 0, 1, 1, 1, 0, 0]))
    op = assemble_induced(rule, sig, rho)
    expect = _dense_fraction_power_diagonal(op, k)
    # on the 9-cycle no closed 6-walk wraps and the radius-4 window is the
    # whole torus, so every vertex sees the closed-walk value
    big_vals = rho.values[sig.ball_images(ball(Z1, 4))]
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

    sig = torus_approximation(1, 50)     # 4kM-good everywhere
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 3)
    rep = power_diagonal_check(rule, sig, rho, k)
    assert rep.exact and rep.n_tested == 50
    assert rep.max_discrepancy == 0.0


def test_power_diagonal_detects_corrupted_entry(monkeypatch):
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 18)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 4)
    delta = {(3, 3): ComplexRational(Fraction(1, 4)),
             (3, 4): ComplexRational(Fraction(0), Fraction(1, 4))}

    def corrupted(*args, **kwargs):
        op = assemble_induced(*args, **kwargs)
        return _with_entries(op, {key: op.entries[key] + d
                                  for key, d in delta.items()})

    monkeypatch.setattr(operators_module, "assemble_induced", corrupted)
    # k = 1 sees only the diagonal shift; k = 2 also sees the imaginary
    # hopping error through H(3,4) H(4,3) = 1 + i/4
    for k in (1, 2):
        rep = power_diagonal_check(rule, sig, rho, k)
        assert rep.exact and rep.max_discrepancy > 0
    assert power_diagonal_check(rule, sig, rho, 1).max_discrepancy == 0.25


def _hopping_rule(group, potential, hop):
    """Potential F(w(e)) plus hopping i/2 along the first axis and `hop`
    along the others: a Hermitian rule with non-real coefficients."""
    b = ball(group, 1)
    e = group.identity()
    half_i = ComplexRational(Fraction(0), Fraction(1, 2))
    entries = []
    for window in itertools.product(range(BIN.size), repeat=len(b)):
        entries.append((e, window, potential[window[b.index(e)]]))
        for axis, s in enumerate(group.generators()[::2]):
            value = half_i if axis == 0 else ComplexRational(hop)
            entries.append((s, window, value))
            entries.append((group.inverse(s), window, value.conjugate()))
    return table_rule(group, BIN, 1, entries)


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
    assert rule.exact and validate_local_rule(rule).ok
    sig = torus_approximation(1, side)
    rho = Configuration(values=np.random.default_rng(seed).integers(0, A, side))
    dense = assemble_induced(rule, sig, rho).to_dense()
    assert np.array_equal(dense, dense.conj().T)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       k=st.integers(1, 4), potential=st.tuples(RATIONALS, RATIONALS),
       hop=RATIONALS, seed=st.integers(0, 2**16))
def test_power_diagonal_exact_on_random_rules(d, kind, k, potential, hop, seed):
    group = lattice_group(d)
    if kind == "diagonal":
        rule = diagonal_rule(group, BIN, list(potential))
    elif kind == "schrodinger":
        rule = schrodinger_rule(group, BIN, list(potential))
    else:
        rule = _hopping_rule(group, potential, hop)
    assert rule.exact and validate_local_rule(rule).ok
    side = 2 * 4 * k * rule.hopping + 2 if rule.hopping else 3
    sig = torus_approximation(d, side)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, seed)
    rep = power_diagonal_check(rule, sig, rho, k)
    assert rep.exact and rep.n_tested == side ** d
    assert rep.max_discrepancy == 0.0


def _ref_dense_power_diagonal(op, k, vertices):
    """diag((den*H)^k) by dense unit-column blocks through k CSR matvecs:
    the kernel that the sparse-frontier propagation replaced, kept as the
    reference it must reproduce, exactly for exact rules."""
    n = op.n
    rows, cols, codes = op.rows, op.cols, op.codes
    den, val_re, val_im = operators_module._scaled_numerators(op.values,
                                                              op.exact)
    order = np.lexsort((cols, rows))
    rows, cols, codes = rows[order], cols[order], codes[order]
    val_re, val_im = val_re[codes], val_im[codes]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    filled = np.diff(indptr) > 0
    starts = indptr[:-1][filled]
    bound = (np.add.reduceat(np.abs(val_re) + np.abs(val_im), starts).max()
             if len(rows) else 0)
    dtype = operators_module._kernel_dtype(op.exact, bound, k)
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


def _assert_same_power_diagonal(got, want, atol=0.0):
    """Equal numerators (floats by float.hex), or float ones within atol."""
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        if atol:
            assert np.abs(a - b).max(initial=0.0) <= atol
        elif a.dtype == np.float64:
            assert list(map(float.hex, a.tolist())) == list(
                map(float.hex, b.tolist()))
        else:
            assert a.tolist() == b.tolist()


def _float_power_tolerance(op, k):
    """A bound on how far two float evaluations of diag(H^k) that add the
    same terms in different association can differ: each is within
    2k(m + 1) eps R^k of the exact value (the 2 for complex products), for
    row sums R and at most m entries per row, so they differ by twice that."""
    if op.exact or not op.entries:
        return 0.0
    rows = np.array([i for i, _ in op.entries])
    m = np.bincount(rows).max()
    return 4 * k * (m + 1) * np.finfo(float).eps * max(op.row_sum_bound(),
                                                       1.0) ** k


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["Z", "Z2", "F2"]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       exact=st.booleans(), k=st.integers(1, 8),
       potential=st.tuples(RATIONALS, RATIONALS), hop=RATIONALS,
       size=st.integers(3, 9), seed=st.integers(0, 2**16),
       subset=st.booleans(), cells=st.sampled_from([1 << 17, 40]))
def test_frontier_power_diagonal_matches_dense_blocks(model, kind, exact, k,
                                                      potential, hop, size,
                                                      seed, subset, cells):
    # float cases stay at k <= 5, the range _float_power_tolerance is checked on
    assume(exact or k <= 5)
    group = free_group(2) if model == "F2" else lattice_group(len(model))
    if kind == "diagonal":
        rule = diagonal_rule(group, BIN, list(potential))
    elif kind == "schrodinger":
        rule = schrodinger_rule(group, BIN, list(potential))
    else:
        rule = _hopping_rule(group, potential, hop)
    if not exact:
        rule = _float_rule(rule)
    # small tori and permutation models leave bad vertices, whose entries
    # assembly zeroes
    sig = (random_permutation_approximation(2, 6 * size, seed)
           if model == "F2" else torus_approximation(len(model), size))
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, seed)
    op = assemble_induced(rule, sig, rho)
    rng = np.random.default_rng(seed)
    vertices = (rng.permutation(op.n)[:rng.integers(0, op.n + 1)] if subset
                else np.arange(op.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_module, "_BATCH_CELLS", cells)
        got = _matrix_power_diagonal(op, k, vertices)
        want = _ref_dense_power_diagonal(op, k, vertices)
    # the frontiers meet in the middle and their dot adds products of
    # partial sums, while the dense blocks carry k full matvecs with the zero
    # terms of unreached columns, so a float sum can associate differently
    # and move in the last bits
    _assert_same_power_diagonal(got, want, _float_power_tolerance(op, k))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 7), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1, 10**5]), cells=st.sampled_from([1 << 17, 3]))
def test_power_diagonal_on_random_non_symmetric_exact_operators(n, k, seed,
                                                                scale, cells):
    # random sparse real entries, stored zeros included, with no symmetry;
    # scale 10^5 pushes R^k past 2^62 and onto Python ints
    rng = np.random.default_rng(seed)
    entries = {(i, j): Fraction(int(rng.integers(-9, 10)) * scale,
                                int(rng.integers(1, 7)))
               for i in range(n) for j in range(n) if rng.random() < 0.5}
    op = InducedOperator.from_entries(n, entries, exact=True)
    vertices = rng.integers(0, n, size=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_module, "_BATCH_CELLS", cells)
        den, re, im = _matrix_power_diagonal(op, k, vertices)
    expect = _dense_fraction_power_diagonal(op, k)
    assert [Fraction(num, den ** k) for num in re.tolist()] == [
        expect[v] for v in vertices]
    assert not im.any()


def test_power_diagonal_catches_non_hermitian_hopping_at_k3(monkeypatch):
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 40)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, 5)
    v = 20
    clean = assemble_induced(rule, sig, rho)

    def corrupted(*args, **kwargs):
        # H(v+1, v) moves, its transpose H(v, v+1) does not
        op = assemble_induced(*args, **kwargs)
        return _with_entries(op, {(v + 1, v): op.entries[v + 1, v]
                                  + ComplexRational(Fraction(1, 4))})

    bad = corrupted(rule, sig, rho)
    with pytest.raises(AssemblyError):
        bad.check_hermitian()
    den, re, _ = _matrix_power_diagonal(bad, 3, np.array([v]))
    den_c, re_c, _ = _matrix_power_diagonal(clean, 3, np.array([v]))
    got = Fraction(re[0], den ** 3)
    assert got == _dense_fraction_power_diagonal(bad, 3)[v]
    assert got != Fraction(re_c[0], den_c ** 3)
    monkeypatch.setattr(operators_module, "assemble_induced", corrupted)
    assert power_diagonal_check(rule, sig, rho, 1).max_discrepancy == 0.0
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.exact and rep.max_discrepancy > 0


def test_power_diagonal_walks_cancelling_to_zero():
    # diagonal -2 + F is -1, 0, 1 on symbols 0, 1, 2 and hopping is 1, so
    # (H^3)(v,v) = p_v^3 + 4 p_v + p_{v-1} + p_{v+1} vanishes at a 0 between
    # a -1 and a 1, and (H^3)(v,v) = 0 exactly there on both sides
    tri = Alphabet(symbols=("0", "1", "2"))
    rule = schrodinger_rule(Z1, tri, [Fraction(1), Fraction(2), Fraction(3)])
    sig = torus_approximation(1, 30)
    rho = Configuration(values=np.tile([0, 1, 2], 10))
    op = assemble_induced(rule, sig, rho)
    vertices = np.arange(op.n)
    for exact in (True, False):
        if not exact:
            op = assemble_induced(_float_rule(rule), sig, rho)
        den, re, im = _matrix_power_diagonal(op, 3, vertices)
        _assert_same_power_diagonal(
            (den, re, im), _ref_dense_power_diagonal(op, 3, vertices))
        assert re.tolist() == [-4, 0, 4] * 10 and not im.any()
    rep = power_diagonal_check(rule, sig, rho, 3)
    assert rep.exact and rep.n_tested == 30 and rep.max_discrepancy == 0.0


def _with_entries(op, changed):
    """op with some entries set anew, rebuilt through from_entries: the way
    fault-injection tests corrupt an assembled operator."""
    return InducedOperator.from_entries(op.n, {**op.entries, **changed},
                                        op.exact)


# Per-entry loops that the value-coded operator methods replaced, kept as the
# reference they must reproduce exactly.
def _ref_to_complex(v):
    return v.to_complex() if isinstance(v, ComplexRational) else complex(v)


def _ref_is_real(op):
    return all(v.is_real() if isinstance(v, ComplexRational) else v.imag == 0
               for v in op.entries.values())


def _ref_row_sum_bound(op):
    sums = np.zeros(op.n)
    for (i, _), v in op.entries.items():
        sums[i] += (float(v.abs2()) ** 0.5 if isinstance(v, ComplexRational)
                    else abs(v))
    return float(sums.max()) if op.n else 0.0


def _ref_to_dense(op):
    real = _ref_is_real(op)
    out = np.zeros((op.n, op.n), dtype=float if real else complex)
    for (i, j), v in op.entries.items():
        c = _ref_to_complex(v)
        out[i, j] = c.real if real else c
    return out


def _ref_to_sparse(op):
    import scipy.sparse as sp
    if not op.entries:
        return sp.csr_matrix((op.n, op.n))
    rows, cols, vals = zip(*[(i, j, _ref_to_complex(v))
                             for (i, j), v in op.entries.items()])
    vals = np.asarray(vals)
    if _ref_is_real(op):
        vals = vals.real
    return sp.csr_matrix((vals, (rows, cols)), shape=(op.n, op.n))


def _ref_hermitian_violation(op):
    """The first entry, in dict order, without a conjugate transpose."""
    for (i, j), v in op.entries.items():
        w = op.entries.get((j, i))
        conj = None if w is None else w.conjugate()
        if w is None or conj != v:
            return f"({i},{j})"
    return None


def _hermitian_violation(op):
    try:
        op.check_hermitian()
    except AssemblyError as err:
        return str(err).rsplit(" ", 1)[-1]
    return None


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


def _float_rule(rule):
    """The same rule with every coefficient converted to a Python complex."""
    import dataclasses
    tables = {g: np.array([v.to_complex() for v in t.tolist()], dtype=complex)
              for g, t in rule.tables.items()}
    return dataclasses.replace(rule, tables=tables, exact=False)


def _assert_matches_reference(op):
    assert op.row_sum_bound().hex() == _ref_row_sum_bound(op).hex()
    assert op.is_real() == _ref_is_real(op)
    _assert_same_dense(op.to_dense(), _ref_to_dense(op))
    _assert_same_sparse(op.to_sparse(), _ref_to_sparse(op))
    assert _hermitian_violation(op) == _ref_hermitian_violation(op)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping"]),
       exact=st.booleans(), fresh=st.booleans(),
       potential=st.tuples(RATIONALS, RATIONALS), hop=RATIONALS,
       side=st.sampled_from([3, 4, 7]), seed=st.integers(0, 2**16),
       tamper=st.integers(0, 10**6))
def test_value_coded_methods_match_per_entry_loops(d, kind, exact, fresh,
                                                   potential, hop, side, seed,
                                                   tamper):
    group = lattice_group(d)
    if kind == "diagonal":
        rule = diagonal_rule(group, BIN, list(potential))
    elif kind == "schrodinger":
        rule = schrodinger_rule(group, BIN, list(potential))
    else:
        rule = _hopping_rule(group, potential, hop)
    if not exact:
        rule = _float_rule(rule)
    sig = torus_approximation(d, side)      # side 3 and 4 leave bad vertices
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, seed)
    op = assemble_induced(rule, sig, rho)
    if exact and fresh:
        # one object per entry: interning must then merge by value alone
        op = InducedOperator.from_entries(
            op.n, {key: ComplexRational(Fraction(v.re.numerator,
                                                 v.re.denominator),
                                        Fraction(v.im.numerator,
                                                 v.im.denominator))
                   for key, v in op.entries.items()}, exact=True)
    _assert_matches_reference(op)
    if op.entries:
        # break one entry: its transpose no longer holds the conjugate
        keys = list(op.entries)
        key = keys[tamper % len(keys)]
        bump = (ComplexRational(Fraction(0), Fraction(1, 3)) if exact
                else 1j / 3)
        op = _with_entries(op, {key: op.entries[key] + bump})
        _assert_matches_reference(op)
        entries = dict(op.entries)
        del entries[key]
        op = InducedOperator.from_entries(op.n, entries, op.exact)
        _assert_matches_reference(op)


def test_float_operator_zero_signs_and_nan():
    one_minus_0j = complex(1.0, -0.0)       # the literal 1 - 0j has +0.0
    entries = {(0, 0): one_minus_0j, (0, 1): 0.5j, (1, 0): -0.5j,
               (1, 1): complex(-0.0, -0.0), (2, 2): complex(2.0, 0.0)}
    op = InducedOperator.from_entries(3, entries, exact=False)
    _assert_matches_reference(op)
    assert np.signbit(op.to_dense()[0, 0].imag)
    real = InducedOperator.from_entries(3, {(0, 0): one_minus_0j,
                                            (1, 1): complex(-0.0, 0.0),
                                            (2, 2): 1 + 0j}, exact=False)
    _assert_matches_reference(real)
    assert real.to_dense().dtype == np.float64
    # NaN is never equal to its own conjugate, so it never passes
    op = _with_entries(op, {(2, 2): complex(float("nan"), 0.0)})
    _assert_matches_reference(op)
    assert _hermitian_violation(op) == "(2,2)"


def test_check_hermitian_names_first_bad_pair_in_dict_order():
    half_i = ComplexRational(Fraction(0), Fraction(1, 2))
    one = ComplexRational(Fraction(1))

    def op(entries):
        return InducedOperator.from_entries(3, entries, exact=True)

    good = op({(0, 0): one, (0, 1): half_i, (1, 0): half_i.conjugate(),
               (1, 2): one, (2, 1): one})
    good.check_hermitian()
    # i/2 against i/2 is not a conjugate pair
    same = op({(0, 0): one, (0, 1): half_i, (1, 0): half_i})
    with pytest.raises(AssemblyError, match=r"\(0,1\)$"):
        same.check_hermitian()
    # a missing transpose, stored before a conjugate mismatch that sorts first
    missing = op({(1, 2): one, (0, 0): one, (1, 0): half_i, (0, 1): half_i})
    with pytest.raises(AssemblyError, match=r"\(1,2\)$"):
        missing.check_hermitian()
    flipped = op({(1, 0): half_i, (0, 1): half_i, (1, 2): one})
    with pytest.raises(AssemblyError, match=r"\(1,0\)$"):
        flipped.check_hermitian()


# Array storage: from_entries round trip and the graph assembly from arrays.


def _same_operator(a, b):
    """Equal arrays and identical results from every method."""
    assert (a.n, a.exact) == (b.n, b.exact)
    for name in ("rows", "cols", "codes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    if a.exact:
        assert a.values == b.values
    else:
        assert a.values.tobytes() == b.values.tobytes()
    assert list(a.entries.items()) == list(b.entries.items())
    assert a.row_sum_bound().hex() == b.row_sum_bound().hex()
    assert (a.is_real(), a.is_diagonal()) == (b.is_real(), b.is_diagonal())
    assert a.diagonal() == b.diagonal()
    _assert_same_dense(a.to_dense(), b.to_dense())
    _assert_same_sparse(a.to_sparse(), b.to_sparse())
    assert _hermitian_violation(a) == _hermitian_violation(b)
    vertices = np.arange(a.n)
    _assert_same_power_diagonal(_matrix_power_diagonal(a, 3, vertices),
                                _matrix_power_diagonal(b, 3, vertices))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(
           ["diagonal", "schrodinger", "complex hopping", "graph"]),
       exact=st.booleans(), potential=st.tuples(RATIONALS, RATIONALS),
       hop=RATIONALS, side=st.sampled_from([3, 4, 7]),
       seed=st.integers(0, 2**16), tamper=st.integers(0, 10**6))
def test_from_entries_round_trip(d, kind, exact, potential, hop, side, seed,
                                 tamper):
    group = lattice_group(d)
    sig = torus_approximation(d, side)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, seed)
    if kind == "graph":
        op = assemble_graph_schrodinger(
            sig, rho, BIN, list(potential) if exact
            else [float(x) for x in potential])
    else:
        if kind == "diagonal":
            rule = diagonal_rule(group, BIN, list(potential))
        elif kind == "schrodinger":
            rule = schrodinger_rule(group, BIN, list(potential))
        else:
            rule = _hopping_rule(group, potential, hop)
        op = assemble_induced(rule if exact else _float_rule(rule), sig, rho)
    for a in (op.rows, op.cols, op.codes, op.values):
        if isinstance(a, np.ndarray):
            assert not a.flags.writeable
    assert len(op.entries) == len(op.rows)
    with pytest.raises(TypeError):
        op.entries[(0, 0)] = op.entry(0, 0)
    _same_operator(InducedOperator.from_entries(op.n, dict(op.entries),
                                                op.exact), op)
    if op.entries:
        # a corrupted copy is rebuilt as faithfully
        key = list(op.entries)[tamper % len(op.entries)]
        bad = _with_entries(op, {key: op.entries[key] + op.entries[key]})
        _same_operator(InducedOperator.from_entries(
            bad.n, dict(bad.entries), bad.exact), bad)


def _dict_graph_schrodinger(sigma, rho, potential):
    """The per-vertex dict loop the array assembly replaced: sorted edge
    keys, then the nonzero diagonal -deg(v) + F(rho(v)) in vertex order."""
    from sofic_spectra.sofic import edge_graph
    exact = all(isinstance(x, (int, Fraction)) for x in potential)
    graph = edge_graph(sigma)
    n = sigma.n_vertices
    keys = np.unique(graph.src.astype(np.int64) * n + graph.dst)
    entries = {}
    one = ComplexRational(Fraction(1)) if exact else 1 + 0j
    deg = np.zeros(n, dtype=np.int64)
    for key in keys.tolist():
        i, j = divmod(key, n)
        entries[(i, j)] = one
        deg[i] += 1
    for v in range(n):
        if exact:
            val = ComplexRational(Fraction(int(-deg[v]))
                                  + Fraction(potential[int(rho.values[v])]))
        else:
            val = complex(-int(deg[v]) + potential[int(rho.values[v])])
        if val != (ComplexRational(Fraction(0)) if exact else 0):
            entries[(v, v)] = val
    return entries


@pytest.mark.parametrize("exact", [True, False])
def test_graph_schrodinger_matches_dict_loop(exact):
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
                IIDProduct(alphabet=BIN, weights=(0.5, 0.5)), sig, seed)
            for potential in potentials:
                if not exact:
                    potential = [float(x) for x in potential]
                want = _dict_graph_schrodinger(sig, rho, potential)
                op = assemble_graph_schrodinger(sig, rho, BIN, potential)
                assert list(op.entries) == list(want)
                assert all(type(op.entries[k]) is type(v) and
                           op.entries[k] == v for k, v in want.items())
                _same_operator(op, InducedOperator.from_entries(n, want,
                                                                exact))
                diag = {i for i, j in want if i == j}
                seen_zero_diagonal |= len(diag) < n
                seen_low_degree |= len(want) - len(diag) < 4 * n
    assert seen_zero_diagonal and seen_low_degree
