import hashlib
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sofic_spectra import spectral
from sofic_spectra.exact import CZERO, ComplexRational
from sofic_spectra.groups import lattice_group
from sofic_spectra.measures import Alphabet, binary_alphabet
from sofic_spectra.operators import (
    AssemblyError,
    InducedOperator,
    assemble_graph_schrodinger,
    assemble_induced,
    diagonal_rule,
    laplacian_rule,
    trace_moments,
)
from sofic_spectra.sofic import torus_approximation
from sofic_spectra.spectral import (
    EigensolverError,
    IDSCurve,
    Spectrum,
    atom_mass,
    counting_function,
    eigen_spectrum,
    ids_curve,
    kolmogorov_distance,
    punctured_mass,
    punctured_mass_bound,
    reference_ids,
)
from sofic_spectra.spectral import _matrix_hash

from dense_operators import operator_of

Z1 = lattice_group(1)
BIN = binary_alphabet()
TRIV = Alphabet(symbols=("0",))


def torus_laplacian_spectrum(n):
    sig = torus_approximation(1, n)
    rho = np.zeros(n, dtype=np.int64)
    op = assemble_graph_schrodinger(sig, rho, TRIV, [Fraction(0)])
    return eigen_spectrum(op)


def test_eigen_zero_and_diag():
    spec = eigen_spectrum(operator_of(np.zeros((5, 5))))
    assert np.array_equal(spec.values, np.zeros(5))
    spec = eigen_spectrum(operator_of(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(spec.values, [1, 2, 3])
    assert spec.residual <= 1e-12


@pytest.mark.parametrize("entries", [
    # diagonal, so the exact path would read only the real part of 1+i
    {(0, 0): 1 + 1j, (1, 1): 2},
    # equal magnitudes in both triangles: the values-only solve reads one
    # and its trace identities hold, so it would return [0.382, 2.618]
    {(0, 0): 1, (0, 1): 1j, (1, 0): 1j, (1, 1): 2}])
@pytest.mark.parametrize("vectors", [False, True])
def test_eigen_refuses_non_hermitian_operators(entries, vectors):
    # the operator is refused when it is built, so no solve ever reads one
    with pytest.raises(AssemblyError, match="Hermitian symmetry violated"):
        eigen_spectrum(InducedOperator.from_entries(2, entries),
                       vectors=vectors)


def test_eigen_exact_diagonal_path():
    rule = diagonal_rule(Z1, BIN, [Fraction(1, 3), Fraction(2)])
    sig = torus_approximation(1, 6)
    rho = np.array([0, 1] * 3)
    spec = eigen_spectrum(assemble_induced(rule, sig, rho))
    assert spec.is_exact
    assert spec.exact == ((Fraction(1, 3), Fraction(2)), (0, 3, 6))
    assert spec.residual == 0.0


def test_eigen_torus4():
    spec = torus_laplacian_spectrum(4)
    assert np.allclose(spec.values, [-4, -2, -2, 0], atol=1e-12)


def test_eigen_budget(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_DENSE_BUDGET", 5)
    with pytest.raises(EigensolverError):
        eigen_spectrum(operator_of(np.eye(10, k=1) + np.eye(10, k=-1)))


def test_eigen_budget_is_checked_before_densifying(monkeypatch):
    budget = 5
    monkeypatch.setattr(spectral, "DEFAULT_DENSE_BUDGET", budget)
    sig = torus_approximation(1, budget + 1)
    op = assemble_induced(laplacian_rule(Z1, TRIV), sig,
                          np.zeros(budget + 1, dtype=int))

    def no_dense(self):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(InducedOperator, "to_dense", no_dense)
    with pytest.raises(EigensolverError, match="exceeds budget 5"):
        eigen_spectrum(op)


def test_counting_examples():
    spec = torus_laplacian_spectrum(4)
    # at 4.0, Gershgorin containment: everything below the row-sum bound
    assert counting_function(spec, [-2, -5, 0, 4.0]) == [3, 0, 4, 4]


def test_counting_exact_ties():
    spec = Spectrum(values=np.array([0.5, 1.0]), residual=0.0,
                    exact=((Fraction(1, 2), Fraction(1)), (0, 1, 2)))
    assert counting_function(spec, [Fraction(1, 2),
                                    Fraction(4999, 10000)]) == [1, 0]


def test_atom_mass_examples():
    rng = np.random.default_rng(0)
    vals = np.array([1.0] * 30 + [0.0] * 70)
    rng.shuffle(vals)
    spec = Spectrum(values=np.sort(vals), residual=0.0)
    assert atom_mass(spec, 1.0) == 0.30
    lap = torus_laplacian_spectrum(8)
    assert atom_mass(lap, 1.0) == 0.0
    zero = eigen_spectrum(operator_of(np.zeros((4, 4))))
    assert atom_mass(zero, 0.0) == 1.0


@pytest.mark.parametrize("offset, mass", [(5e-9, 0.0), (1e-9, 1 / 3)])
def test_float_atom_mass_shares_the_counting_tie_width(offset, mass):
    # the scale is 2, so both count 1 + offset at 1.0 when it lies within
    # TIE_TOL * 2 = 2e-9 of it; 1 + 5e-9 lies outside, so neither sees an
    # atom at 1.0
    spec = Spectrum(values=np.array([0.0, 1.0 + offset, 2.0]), residual=0.0)
    left, right = counting_function(spec, [1.0 - 1e-6, 1.0])
    assert atom_mass(spec, 1.0) == (right - left) / spec.n == mass


def test_punctured_mass_examples():
    spec = Spectrum(values=np.array([0.0, 0.5, 1.0]), residual=0.0)
    assert punctured_mass(spec, 0.0, 0.6) == pytest.approx(1 / 3)
    gap = Spectrum(values=np.array([-2.0, 2.0]), residual=0.0)
    assert punctured_mass(gap, 0.0, 1.0) == 0.0
    # eps must lie above the tie width
    with pytest.raises(ValueError):
        punctured_mass(spec, 0.0, spectral.TIE_TOL)


def test_punctured_mass_leaves_out_what_atom_mass_counts():
    # scale 4: atom_mass counts 0 and 2e-9 (within TIE_TOL * 4), and only
    # -1e-3 is left for the punctured interval; 3 of the 4 lie within eps
    spec = Spectrum(values=np.array([-1e-3, 0.0, 2e-9, 4.0]), residual=0.0)
    assert atom_mass(spec, 0.0) == 0.5
    assert punctured_mass(spec, 0.0, 0.01) == 0.25
    # the exact path compares exactly: 1/10^10 is no atom at 0 and lies in
    # the punctured interval, 1/2 lies on its edge
    exact = eigen_spectrum(InducedOperator.from_entries(4, {
        (0, 0): Fraction(-1, 1000), (1, 1): Fraction(1, 10 ** 10),
        (2, 2): Fraction(1, 2)}))
    assert exact.is_exact
    assert atom_mass(exact, 0) == 0.25
    assert punctured_mass(exact, 0.0, 0.5) == 0.5


def test_punctured_mass_bound_values():
    assert punctured_mass_bound(2.0, 1 / 16, 1) == pytest.approx(0.25)
    assert punctured_mass_bound(1.0, 0.5, 1) == 0.0
    with pytest.raises(ValueError):
        punctured_mass_bound(0.5, 0.1, 1)
    with pytest.raises(ValueError):
        punctured_mass_bound(2.0, 1.5, 1)


def test_integer_punctured_law_small_ensemble():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(10, 60))
        raw = rng.integers(-1, 2, size=(n, n))
        h = np.triu(raw) + np.triu(raw, 1).T
        spec = eigen_spectrum(operator_of(h))
        r = max(1.0, float(np.max(np.abs(spec.values))) if n else 1.0)
        for eps in (1e-2, 1e-4):
            assert punctured_mass(spec, 0.0, eps) <= \
                punctured_mass_bound(r, eps, 1)


def test_rational_shift_reduction():
    # atoms at p/q of H match atoms at 0 of qH - pI with eps scaled by q
    rng = np.random.default_rng(3)
    h = rng.integers(-2, 3, size=(40, 40))
    h = np.triu(h) + np.triu(h, 1).T
    spec = eigen_spectrum(operator_of(h))
    p, q = 1, 2
    shifted = eigen_spectrum(operator_of(q * h - p * np.eye(40, dtype=int)))
    eps = 0.3
    # the tie width scales with the spectrum, as the operator does
    assert punctured_mass(spec, p / q, eps) == punctured_mass(shifted, 0.0,
                                                              q * eps)


def test_moment_consistency_trace_vs_eigs():
    from sofic_spectra.measures import IIDProduct, sample_configuration
    from sofic_spectra.operators import schrodinger_rule
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(1, 64)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.6, 0.4)),
                               sig, np.random.default_rng(8))
    op = assemble_induced(rule, sig, rho)
    spec = eigen_spectrum(op)
    A = op.to_sparse()
    power = A.copy()
    bound = op.row_sum_bound()
    for k in range(1, 7):
        if k > 1:
            power = power @ A
        trace_moment = power.diagonal().sum().real / 64
        assert abs(np.mean(spec.values ** k) - trace_moment) <= \
            1e-8 * bound ** k


def test_weyl_interlacing_direction():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(30, 30))
    a = (a + a.T) / 2
    r = rng.normal(size=(30, 30))
    psd = r.T @ r
    sa = eigen_spectrum(operator_of(a))
    sb = eigen_spectrum(operator_of(a + psd))
    grid = np.linspace(-10, 10, 41)
    assert all(b <= a for a, b in zip(counting_function(sa, grid),
                                      counting_function(sb, grid)))


def test_ids_curve_shape():
    spec = torus_laplacian_spectrum(16)
    curve = ids_curve(spec, np.linspace(-5, 1, 61))
    assert curve.kind == "step"
    assert np.all(np.diff(curve.ys) >= 0)
    assert curve.eval(np.array([10.0]))[0] == 1.0
    assert curve.eval(np.array([-10.0]))[0] == 0.0
    # right continuity: value at an eigenvalue includes its jump
    clean = Spectrum(values=np.array([0.0, 0.0, 1.0]), residual=0.0)
    c = ids_curve(clean, [-1.0, 0.5])
    assert c.eval(np.array([0.0]))[0] == pytest.approx(2 / 3)
    assert c.eval_left(np.array([0.0]))[0] == 0.0
    assert c.eval(np.array([1.0]))[0] == 1.0
    assert c.eval_left(np.array([1.0]))[0] == pytest.approx(2 / 3)


def test_kolmogorov_examples():
    a = IDSCurve(xs=np.array([0.0]), ys=np.array([1.0]), kind="step")
    b = IDSCurve(xs=np.array([1.0]), ys=np.array([1.0]), kind="step")
    assert kolmogorov_distance(a, a) == 0.0
    assert kolmogorov_distance(a, b) == 1.0


def test_arcsine_reference_values():
    grid = np.array([-4.0, -2.0, 0.0])
    ref = reference_ids("lattice_laplacian", 1, grid)
    assert ref.ys == pytest.approx([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        reference_ids("lattice_laplacian", 3, grid)
    with pytest.raises(ValueError):
        reference_ids("unknown", 1, grid)


def test_torus_vs_arcsine_distance():
    spec = torus_laplacian_spectrum(256)
    grid = np.union1d(np.linspace(-4.5, 0.5, 2001), spec.values)
    curve = ids_curve(spec, grid)
    ref = reference_ids("lattice_laplacian", 1, grid)
    assert kolmogorov_distance(curve, ref) <= 0.01


def test_2d_reference_sanity(monkeypatch):
    grid = np.linspace(-8.5, 0.5, 181)
    # the error bound holds at a coarser rule too
    monkeypatch.setattr(spectral, "QUADRATURE_POINTS", 20000)
    ref2 = reference_ids("lattice_laplacian", 2, grid)
    assert ref2.eval(np.array([-8.2]))[0] == 0.0
    assert ref2.eval(np.array([0.2]))[0] == pytest.approx(1.0, abs=1e-9)
    # spectrum of the 2d Laplacian is symmetric about -4
    assert ref2.eval(np.array([-4.0]))[0] == pytest.approx(0.5, abs=1e-3)
    # against an actual 2d torus eigensolve
    sig = torus_approximation(2, 30)
    rho = np.zeros(900, dtype=np.int64)
    op = assemble_induced(laplacian_rule(lattice_group(2), TRIV), sig, rho)
    curve = ids_curve(eigen_spectrum(op), grid)
    assert kolmogorov_distance(curve, ref2) <= 0.08


EXACT_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=10)


@settings(max_examples=30, deadline=None)
@given(values=st.tuples(EXACT_RATIONALS, EXACT_RATIONALS),
       side=st.sampled_from([2, 5, 9]), pattern=st.integers(0, 2**9 - 1),
       fresh=st.booleans())
def test_exact_diagonal_spectrum_matches_sorted_diagonal(values, side,
                                                         pattern, fresh):
    from sofic_spectra.exact import ComplexRational
    rule = diagonal_rule(Z1, BIN, list(values))
    sig = torus_approximation(1, side)
    rho = np.array([(pattern >> v) & 1
                                         for v in range(side)])
    op = assemble_induced(rule, sig, rho)
    if fresh:
        op = InducedOperator.from_entries(
            op.n, {key: ComplexRational(Fraction(str(v.re)))
                   for key, v in op.entries.items()})
    spec = eigen_spectrum(op)
    want = sorted(op.entries.get((i, i), CZERO).re for i in range(op.n))
    distinct = tuple(sorted(set(want)))
    assert spec.exact == (distinct, tuple(
        [want.index(x) for x in distinct] + [op.n]))
    assert [x.hex() for x in spec.values] == [float(x).hex() for x in want]


def test_exact_counts_match_brute_force():
    exact = (Fraction(-2), Fraction(1, 10), Fraction(1, 10), Fraction(1, 3),
             Fraction(1, 2), Fraction(1, 2), Fraction(3))
    spec = Spectrum(values=np.array([float(x) for x in exact]), residual=0.0,
                    exact=((Fraction(-2), Fraction(1, 10), Fraction(1, 3),
                            Fraction(1, 2), Fraction(3)), (0, 1, 3, 4, 6, 7)))
    points = [-3, 0, 3, 7, Fraction(1, 10), Fraction(1, 2), Fraction(1, 3),
              0.1, 0.5, 1 / 3, -2.0, 3.0, 0.30000000000000004, np.float64(0.5),
              float("inf"), float("-inf"), float("nan")]
    for x, count in zip(points, counting_function(spec, points)):
        below = sum(1 for v in exact if v <= x)
        at = sum(1 for v in exact if v == x)
        assert count == below, x
        assert atom_mass(spec, x) == at / spec.n, x
    # a float is compared by its exact binary value: 0.5 is 1/2, 0.1 is not 1/10
    assert atom_mass(spec, 0.5) == atom_mass(spec, Fraction(1, 2)) == 2 / 7
    assert atom_mass(spec, 0.1) == 0.0 < atom_mass(spec, Fraction(1, 10))
    assert counting_function(
        spec, [0.1, Fraction(1, 10) - Fraction(1, 10**30)]) == [3, 1]


def test_float_and_exact_counts_agree_off_the_finite_line():
    # no eigenvalue is <= NaN; searchsorted alone would sort NaN above all
    values = np.array([-1.0, 0.5, 0.5])
    points = [float("nan"), float("inf"), float("-inf")]
    float_counts = counting_function(Spectrum(values=values, residual=0.0),
                                     points)
    exact_counts = counting_function(
        Spectrum(values=values, residual=0.0,
                 exact=((Fraction(-1), Fraction(1, 2)), (0, 1, 3))), points)
    assert float_counts == exact_counts == [0, 3, 0]


def test_ids_curve_float_path_matches_pointwise_counts(monkeypatch):
    rng = np.random.default_rng(5)
    values = np.sort(np.round(rng.normal(size=200), 2))
    spec = Spectrum(values=values, residual=0.0)
    grid = np.linspace(-3, 3, 301)
    for tie_tol in (spectral.TIE_TOL, 0.0, 0.01):
        monkeypatch.setattr(spectral, "TIE_TOL", tie_tol)
        curve = ids_curve(spec, grid)
        # the per-point loop the vectorised path replaced
        tol = tie_tol * spec.scale()
        want = [int(np.searchsorted(values, float(x) + tol, side="right"))
                / spec.n for x in curve.xs]
        assert [y.hex() for y in curve.ys] == [float(y).hex() for y in want]


# Values-only solves: the trace-identity certificate and where it is used.


def _schrodinger_op(side=40, d=1, seed=2, hopping="real", dyadic=False):
    """Schrodinger operator on a torus; "complex" adds +-i/2 to every hopping
    entry (i/2 above the diagonal, -i/2 below), which keeps it Hermitian.
    dyadic rebuilds it from the float images of its entries, which it takes
    at their exact binary values."""
    from sofic_spectra.exact import ComplexRational
    from sofic_spectra.measures import IIDProduct, sample_configuration
    from sofic_spectra.operators import schrodinger_rule
    group = lattice_group(d)
    rule = schrodinger_rule(group, BIN, [Fraction(0), Fraction(5, 3)])
    sig = torus_approximation(d, side)
    rho = sample_configuration(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                               sig, np.random.default_rng(seed))
    op = assemble_induced(rule, sig, rho)
    if hopping == "complex":
        half_i = ComplexRational(Fraction(0), Fraction(1, 2))
        op = InducedOperator.from_entries(
            op.n, {(i, j): v + half_i if i < j else v - half_i
                   if i > j else v for (i, j), v in op.entries.items()})
    if dyadic:
        op = InducedOperator.from_entries(
            op.n, {key: v.to_complex() for key, v in op.entries.items()})
    return op


@pytest.mark.parametrize("hopping", ["real", "complex"])
def test_dense_operator_is_column_major_and_solves_as_before(
        monkeypatch, hopping):
    # LAPACK reads column-major arrays; numpy copies a row-major one into
    # that layout first, so both layouts give the solver the same buffer
    op = _schrodinger_op(side=200, hopping=hopping)
    dense = op.to_dense()
    rows = np.ascontiguousarray(dense)
    assert dense.flags.f_contiguous and not rows.flags.f_contiguous
    assert np.array_equal(dense, rows)
    assert _matrix_hash(dense) == \
        hashlib.sha256(rows.tobytes()).hexdigest()[:16]
    values, vectors = eigen_spectrum(op), eigen_spectrum(op, vectors=True)
    assert values.values.tobytes() == np.linalg.eigvalsh(rows).tobytes()
    assert vectors.values.tobytes() == np.linalg.eigh(rows)[0].tobytes()
    monkeypatch.setattr(InducedOperator, "to_dense", lambda self: rows)
    for spec, again in ((values, eigen_spectrum(op)),
                        (vectors, eigen_spectrum(op, vectors=True))):
        assert spec.values.tobytes() == again.values.tobytes()
        assert spec.residual == again.residual


def _fake_solver(monkeypatch, driver, change):
    """Make np.linalg's driver return its eigenvalues changed in place by
    change; eigh keeps its eigenvectors.  Returns the vectors flag of
    eigen_spectrum that reaches that driver."""
    real = getattr(np.linalg, driver)

    def fake(a):
        solved = real(a)
        w = (solved[0] if driver == "eigh" else solved).copy()
        change(w)
        return (w, solved[1]) if driver == "eigh" else w
    monkeypatch.setattr(np.linalg, driver, fake)
    return driver == "eigh"


FAULTS = ["move 1e-6", "move 2e-8", "negate", "opposite pair"]


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("fault", FAULTS)
def test_values_only_detects_wrong_eigenvalues(monkeypatch, dyadic, fault,
                                               driver="eigvalsh"):
    op = _schrodinger_op(hopping="complex", dyadic=dyadic)
    dense = op.to_dense()
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(dense)).max()))

    def move(w):
        if fault.startswith("move"):
            # one eigenvalue off by just over tol * scale is enough
            w[len(w) // 2] += float(fault.split()[1]) * scale
        elif fault == "negate":
            w[-1] = -w[-1]          # keeps sum w^2, breaks sum w
        else:
            w[-1] += 1e-6 * scale   # keeps sum w, breaks sum w^2
            w[0] -= 1e-6 * scale
    vectors = _fake_solver(monkeypatch, driver, move)
    with pytest.raises(EigensolverError,
                       match=f"trace-identity .*{_matrix_hash(dense)}"):
        eigen_spectrum(op, vectors=vectors)


@pytest.mark.parametrize("dyadic", [False, True])
def test_values_only_detects_value_outside_row_sum_bound(monkeypatch, dyadic,
                                                         driver="eigvalsh"):
    op = _schrodinger_op(dyadic=dyadic)
    dense = op.to_dense()
    bound = op.row_sum_bound()

    def push(w):
        w[-1] = bound * (1 + 1e-6)
    vectors = _fake_solver(monkeypatch, driver, push)
    with pytest.raises(EigensolverError,
                       match=f"row-sum bound .*{_matrix_hash(dense)}"):
        eigen_spectrum(op, vectors=vectors)


# eigh's eigenvalues go through the same certificate; its eigenvectors are
# left as solved and play no part


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("fault", FAULTS)
def test_eigh_values_are_certified(monkeypatch, dyadic, fault):
    test_values_only_detects_wrong_eigenvalues(monkeypatch, dyadic, fault,
                                               driver="eigh")


@pytest.mark.parametrize("dyadic", [False, True])
def test_eigh_values_are_in_the_row_sum_bound(monkeypatch, dyadic):
    test_values_only_detects_value_outside_row_sum_bound(monkeypatch, dyadic,
                                                         driver="eigh")


def test_certificate_references_are_the_exact_traces(monkeypatch):
    # in floats the stored diagonal 2^53, 1, -2^53 sums to 0 (2^53 + 1
    # rounds to 2^53), while tr H = 1 exactly; w below sums to 1.0 and
    # sum w^2 rounds to 2^107, the float of ||H||_F^2 = 2^107 + 3
    big = 2 ** 53
    op = InducedOperator.from_entries(3, {
        (0, 0): big, (0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 2): -big})
    dense = op.to_dense()
    assert float(np.sum(np.diagonal(dense))) == 0.0
    w = np.array([-2.0 ** 53, 1.0, 2.0 ** 53])
    assert float(np.sum(w)) == 1.0 and float(np.dot(w, w)) == 2.0 ** 107
    calls = []

    def recorded(op, k_max):
        calls.append((op, k_max))
        return trace_moments(op, k_max)

    monkeypatch.setattr(spectral, "trace_moments", recorded)
    # the float diagonal sum would give a defect of 2^-53
    assert spectral._certify_values(op, dense, w) == 0.0
    assert calls == [(op, 2)]


def test_values_only_reports_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    op = _schrodinger_op()
    with pytest.raises(EigensolverError,
                       match=f"converge .*{_matrix_hash(op.to_dense())}"):
        eigen_spectrum(op)


def test_counting_function_on_a_grid_matches_pointwise(monkeypatch):
    grid = np.linspace(-5, 2, 141)
    exact = Spectrum(values=np.array([-1.0, 0.5, 0.5, 1.0]), residual=0.0,
                     exact=((Fraction(-1), Fraction(1, 2), Fraction(1)),
                            (0, 1, 3, 4)))
    for spec in (eigen_spectrum(_schrodinger_op(side=30)), exact):
        for tie_tol in (spectral.TIE_TOL, 0.0, 0.05):
            monkeypatch.setattr(spectral, "TIE_TOL", tie_tol)
            got = counting_function(spec, grid)
            assert all(type(c) is int for c in got)
            assert got == [counting_function(spec, [b])[0] for b in grid]
        points = [Fraction(1, 2), 0.5, float("inf"), -2]
        assert counting_function(spec, points) == \
            [counting_function(spec, [b])[0] for b in points]


def test_values_only_and_vector_diagnostics():
    op = _schrodinger_op()
    for vectors in (False, True):
        assert eigen_spectrum(op, vectors=vectors).residual <= 1e-12
    # the empty operator is diagonal: both paths solve it exactly
    empty = operator_of(np.zeros((0, 0)))
    for vectors in (False, True):
        spec = eigen_spectrum(empty, vectors=vectors)
        assert spec.is_exact and spec.n == 0 and spec.residual == 0.0


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["real", "complex", "dense real",
                             "dense complex"]),
       dyadic=st.booleans(), d=st.sampled_from([1, 2]),
       size=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_values_only_agrees_with_eigh(kind, dyadic, d, size, seed):
    if kind.startswith("dense"):
        # a generic dense Hermitian operator at the exact values of its floats
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((size, size))
        if kind == "dense complex":
            a = a + 1j * rng.standard_normal((size, size))
        op = operator_of(a + a.conj().T)
    else:
        side = max(3, size if d == 1 else int(np.sqrt(size)))
        op = _schrodinger_op(side=side, d=d, seed=seed, hopping=kind,
                             dyadic=dyadic)
    dense = op.to_dense()
    spec = eigen_spectrum(op)
    w = np.linalg.eigh(dense)[0]
    scale = max(1.0, float(np.abs(w).max()))
    assert spec.residual <= 1e-12
    assert np.abs(spec.values - w).max() <= 1e-12 * scale


def test_written_ids_comes_from_eigenvector_solver(tmp_path):
    """Sample 0's IDS file is the curve of the eigh values, byte for byte.

    On the Z torus Laplacian the values-only solver rounds the degenerate
    eigenvalues differently and the breakpoint rows change, so this pins
    which solver the written spectrum comes from.
    """
    import json
    from pathlib import Path

    from sofic_spectra import cli
    from sofic_spectra.measures import sample_configuration, sample_rng
    config = json.loads((Path(__file__).parent.parent / "configs"
                         / "weak_convergence.json").read_text())
    config.update(samples=3, k_max=2)
    config["sofic"]["sizes"] = [16, 64]
    cli.run(config, out_dir=tmp_path / "run")
    config = cli.validate_config(config)
    objects = cli.build_objects(config)
    rule = objects.rule
    assert objects.potential is None
    for size_index, sigma in enumerate(objects.sigmas):
        rho = sample_configuration(
            objects.model, sigma, sample_rng(config["seed"], size_index, 0))
        op = cli.assemble_induced(rule, sigma, rho,
                                  cli.good_vertices(sigma, 2 * rule.hopping))
        w = np.linalg.eigh(op.to_dense())[0]
        curve = ids_curve(Spectrum(values=np.sort(w), residual=0.0),
                          cli._beta_grid(config))
        want = tmp_path / "want.csv"
        cli.write_csv(want, ["beta", "value"], list(zip(curve.xs, curve.ys)))
        got = tmp_path / "run" / f"ids_{sigma.n_vertices}.csv"
        assert got.read_bytes() == want.read_bytes()


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4),
                             st.sampled_from([1, 2, 3, 4, 6]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_punctured_bound_brute_force(data):
    # log(max(1, D*R))/log(1/(D*eps)) bounds the fraction of eigenvalues in
    # 0 < |lambda| < eps of a rational Hermitian matrix with D*H integral;
    # counted on the float spectrum, away from ties
    n = data.draw(st.integers(1, 6))
    hopping = data.draw(st.booleans())
    entries = {}
    for i in range(n):
        entries[(i, i)] = ComplexRational(data.draw(_SMALL_FRACTIONS))
        for j in range(i + 1, n):
            if hopping and data.draw(st.booleans()):
                v = ComplexRational(data.draw(_SMALL_FRACTIONS),
                                    data.draw(_SMALL_FRACTIONS))
                entries[(i, j)], entries[(j, i)] = v, v.conjugate()
    # shifting by a rational next to an eigenvalue makes a small one
    q = data.draw(st.sampled_from([None, 5, 7, 10, 16]))
    if q is not None:
        dense = InducedOperator.from_entries(n, entries).to_dense()
        lam = np.linalg.eigvalsh(dense)[data.draw(st.integers(0, n - 1))]
        shift = Fraction(round(lam * q), q)
        for i in range(n):
            entries[(i, i)] = entries[(i, i)] - ComplexRational(shift)
    op = InducedOperator.from_entries(n, entries)
    den = lcm(*(f.denominator for v in entries.values()
                for f in (v.re, v.im)))
    assert op.denominator() == den
    eps = data.draw(st.sampled_from([0.3, 0.1, 1e-2, 1e-3]))
    assume(den * eps < 1)
    d = np.abs(np.linalg.eigvalsh(op.to_dense()))
    assume(not np.any((d > 1e-12) & (d < 1e-7)))
    assume(not np.any(np.abs(d - eps) < 1e-7))
    mass = float(np.mean((d > 1e-12) & (d < eps)))
    bound = punctured_mass_bound(max(1.0, den * op.row_sum_bound()), eps,
                                 den)
    assert mass <= bound
