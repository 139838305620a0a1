import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofic_spectra.exact import ComplexRational
from sofic_spectra.groups import ball, free_group, lattice_group
from sofic_spectra.measures import (
    Alphabet,
    Configuration,
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
from sofic_spectra.sofic import good_vertices, torus_approximation

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
    op.entries[(0, 1)] = ComplexRational(Fraction(2))
    with pytest.raises(AssemblyError):
        op.check_hermitian()


def test_row_sum_bound():
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(8))
    assert op.row_sum_bound() == 4.0


def test_matrix_market_export(tmp_path):
    from sofic_spectra.operators import export_matrix_market
    sig = torus_approximation(1, 8)
    op = assemble_induced(laplacian_rule(Z1), sig, zero_config(8))
    path = tmp_path / "op.mtx"
    export_matrix_market(op, path)
    import scipy.io
    back = scipy.io.mmread(str(path))
    assert np.array_equal(back.toarray(), op.to_dense())


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


def test_power_kernels_fall_back_to_python_ints():
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
        for key, d in delta.items():
            op.entries[key] = op.entries[key] + d
        return op

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
