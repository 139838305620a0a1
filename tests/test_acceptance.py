"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Tolerances are pinned here, not configurable.  Operators on which a
diagonal-dominance certificate is issued during the suite are registered and
re-checked against the dense eigensolver by the final soundness criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import sofic_spectra as ss
from sofic_spectra.exact import CZERO, ComplexRational

from dense_operators import operator_of

# (label, certified operator) pairs accumulated across criteria
CERTIFIED = []


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _register_certified(label: str, op) -> None:
    CERTIFIED.append((label, op))


def _shifted(op, shift: float):
    """op + shift * I, exactly."""
    entries = dict(op.entries)
    for i in range(op.n):
        entries[i, i] = entries.get((i, i), CZERO) + \
            ComplexRational(Fraction(shift))
    return ss.InducedOperator.from_entries(op.n, entries)


Z1 = ss.lattice_group(1)
BIN = ss.binary_alphabet()
TRIV = ss.Alphabet(symbols=("0",))


def _zero_rho(n):
    return ss.Configuration(values=np.zeros(n, dtype=np.int64))


def test_criterion_1_arcsine_ids():
    t0 = time.monotonic()
    lap = ss.laplacian_rule(Z1)
    tolerances = {64: 0.05, 256: 0.02, 1024: 0.005}
    distances = {}
    for n, tol in tolerances.items():
        sigma = ss.torus_approximation(1, n)
        op = ss.assemble_induced(lap, sigma, _zero_rho(n))
        spec = ss.eigen_spectrum(op)
        # independent check of the eigensolve against the circulant formula
        circulant = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0)
        assert np.allclose(np.sort(spec.values), circulant, atol=1e-9)
        grid = np.union1d(np.linspace(-4.5, 0.5, 2001), spec.values)
        curve = ss.ids_curve(spec, grid)
        reference = ss.reference_ids("lattice_laplacian", 1, grid)
        distances[n] = ss.kolmogorov_distance(curve, reference)
        shifted = _shifted(op, op.row_sum_bound())
        if ss.gershgorin_psd(shifted).certified:
            _register_certified(f"c1 shifted laplacian n={n}", shifted)
    elapsed = time.monotonic() - t0
    ok = all(distances[n] <= tol for n, tol in tolerances.items())
    ok = ok and elapsed < 30.0
    _report("criterion 1 (arcsine IDS)", ok,
            ", ".join(f"n={n}: {distances[n]:.5f} <= {tolerances[n]}"
                      for n in sorted(distances)) + f"; {elapsed:.1f}s < 30s")


def test_criterion_2_moment_oracle():
    t0 = time.monotonic()
    n, k_max, n_samples = 512, 6, 20
    rule = ss.schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    model = ss.IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    oracle = {k: ss.expected_moment(rule, model, k) for k in range(1, k_max + 1)}
    sigma = ss.torus_approximation(1, n)
    goodness = ss.good_vertices(sigma, 2)
    assert goodness.fraction == 1.0
    empirical = {k: [] for k in range(1, k_max + 1)}
    first_rho = None
    for j in range(n_samples):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2024, spawn_key=(0, j)))
        rho = ss.sample_configuration(model, sigma, rng)
        if first_rho is None:
            first_rho = rho
        op = ss.assemble_induced(rule, sigma, rho, goodness)
        sparse = op.to_sparse()
        power = sparse.copy()
        for k in range(1, k_max + 1):
            if k > 1:
                power = power @ sparse
            empirical[k].append(power.diagonal().sum().real / n)
        if j == 0:
            shifted = _shifted(op, op.row_sum_bound())
            if ss.gershgorin_psd(shifted).certified:
                _register_certified("c2 shifted schrodinger", shifted)
    details = []
    ok = True
    for k in range(1, k_max + 1):
        arr = np.asarray(empirical[k])
        se = arr.std(ddof=1) / math.sqrt(n_samples)
        dev = abs(arr.mean() - oracle[k].value)
        ok &= dev <= 5 * se
        details.append(f"k={k}: |{arr.mean():.4f}-{oracle[k].value:.4f}|"
                       f" <= 5se={5 * se:.4f}")
    for k in range(1, k_max + 1):
        pd = ss.power_diagonal_check(rule, sigma, first_rho, k)
        ok &= pd.max_discrepancy == 0.0 and pd.fraction_tested == 1.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report("criterion 2 (moment oracle + exact powers)", ok,
            "; ".join(details) + f"; power diag exact k<=6; {elapsed:.1f}s < 120s")


def test_criterion_3_atom_convergence():
    t0 = time.monotonic()
    rule = ss.diagonal_rule(Z1, BIN, [Fraction(0), Fraction(1)])
    model = ss.IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    n_samples = 50
    details = []
    ok = True
    for size_index, n in enumerate((100, 400, 1600)):
        sigma = ss.torus_approximation(1, n)
        masses = []
        for j in range(n_samples):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=31, spawn_key=(size_index, j)))
            rho = ss.sample_configuration(model, sigma, rng)
            spec = ss.eigen_spectrum(ss.assemble_induced(rule, sigma, rho))
            assert spec.is_exact
            masses.append(ss.atom_mass(spec, Fraction(1)))
            ok &= ss.atom_mass(spec, Fraction(1, 2)) == 0.0
        mean = float(np.mean(masses))
        tol = 4.0 * math.sqrt(0.3 * 0.7 / (n_samples * n))
        ok &= abs(mean - 0.3) <= tol
        details.append(f"n={n}: |{mean:.5f}-0.3| <= {tol:.5f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report("criterion 3 (atom convergence)", ok,
            "; ".join(details) + f"; alpha=1/2 mass always 0; {elapsed:.1f}s < 60s")


def test_criterion_4_integer_punctured_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(4711)
    violations = 0
    checked = 0
    for _ in range(500):
        n = int(rng.integers(10, 101))
        raw = rng.integers(-1, 2, size=(n, n))
        h = np.triu(raw) + np.triu(raw, 1).T
        spec = ss.eigen_spectrum(operator_of(h))
        norm = max(1.0, float(np.max(np.abs(spec.values))))
        for eps in (1e-2, 1e-4):
            checked += 1
            mass = ss.punctured_mass(spec, 0.0, eps, cluster_tol=1e-9)
            if mass > ss.punctured_mass_bound(norm, eps):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 120.0
    _report("criterion 4 (integer punctured-interval law)", ok,
            f"{checked} checks over 500 matrices, {violations} violations; "
            f"{elapsed:.1f}s < 120s")


def test_criterion_5_free_group_kesten_moments():
    t0 = time.monotonic()
    f2 = ss.free_group(2)
    adjacency = ss.adjacency_rule(f2, TRIV)
    trivial = ss.IIDProduct(alphabet=TRIV, weights=(1.0,))
    # closed-tree-walk enumeration oracle, recomputed here
    oracle2 = ss.expected_moment(adjacency, trivial, 2).value
    oracle4 = ss.expected_moment(adjacency, trivial, 4).value
    n = 2000
    worst2 = worst4 = 0.0
    for seed_index in range(10):
        seed = int(np.random.SeedSequence(
            entropy=123, spawn_key=(seed_index,)).generate_state(1)[0])
        sigma = ss.random_permutation_approximation(2, n, seed)
        op = ss.assemble_graph_schrodinger(sigma, _zero_rho(n), TRIV,
                                           [Fraction(4)])
        sparse = op.to_sparse()
        sq = sparse @ sparse
        t2 = sq.diagonal().sum().real / n
        t4 = (sq @ sq).diagonal().sum().real / n
        worst2 = max(worst2, abs(t2 - oracle2) / oracle2)
        worst4 = max(worst4, abs(t4 - oracle4) / oracle4)
    elapsed = time.monotonic() - t0
    ok = (oracle2 == 4.0 and oracle4 == 28.0 and worst2 <= 0.02
          and worst4 <= 0.03 and elapsed < 180.0)
    _report("criterion 5 (free-group Kesten moments)", ok,
            f"oracle=({oracle2}, {oracle4}); worst rel dev "
            f"k=2: {worst2:.4f} <= 0.02, k=4: {worst4:.4f} <= 0.03; "
            f"{elapsed:.1f}s < 180s")


def test_criterion_6_monotone_schedule():
    t0 = time.monotonic()
    n = 256
    one = ss.Alphabet(symbols=("a",))
    rule = ss.schrodinger_rule(Z1, one, [math.sqrt(2)])
    sched = ss.build_schedule(ss.value_sets_of(rule), 8)
    sigma = ss.torus_approximation(1, n)
    rho = _zero_rho(n)
    grid = np.linspace(-5.0, 2.0, 401)
    # monotone_ids_report certifies every step strictly and raises on any
    # counting-function increase, so reaching the report means zero violations
    report = ss.monotone_ids_report(rule, sched, sigma, rho, grid)
    all_certified = all(s.certified for s in report.psd_steps)
    strict_numeric = all(s.min_eigenvalue > 0 for s in report.psd_steps)
    gap8 = report.max_gap_per_m[8]
    for m in range(1, 8):
        h_m = ss.assemble_induced(ss.apply_schedule(rule, sched, m), sigma, rho)
        h_next = ss.assemble_induced(ss.apply_schedule(rule, sched, m + 1),
                                     sigma, rho)
        from sofic_spectra.monotone import _difference
        diff = _difference(h_next, h_m)
        if ss.gershgorin_psd(diff, strict=True).certified:
            _register_certified(f"c6 schedule step {m}", diff)
    elapsed = time.monotonic() - t0
    ok = all_certified and strict_numeric and gap8 <= 0.02 and elapsed < 60.0
    _report("criterion 6 (monotone schedule)", ok,
            f"7/7 steps strictly certified; zero monotonicity violations on "
            f"401-point grid; max gap at m=8: {gap8:.5f} <= 0.02; "
            f"{elapsed:.1f}s < 60s")


def test_criterion_7_le_diagnostic_sanity():
    t0 = time.monotonic()
    sizes = (16, 64, 256)
    sigmas = [ss.torus_approximation(1, n) for n in sizes]
    for sigma in sigmas:
        assert ss.good_vertices(sigma, 2).fraction == 1.0
    iid = ss.IIDProduct(alphabet=BIN, weights=(0.99, 0.01))
    periodic = ss.lattice_periodic(BIN, [2], [0, 1])
    rows_iid = ss.le_diagnostic(iid, sigmas, 2, 0.05, sample_count=200, seed=77)
    rows_per = ss.le_diagnostic(periodic, sigmas, 2, 0.05, sample_count=200,
                                seed=78)
    lw_ok = all(r.lw_fraction == 1.0 for r in rows_iid + rows_per)
    le_256 = rows_iid[-1].le_fraction
    elapsed = time.monotonic() - t0
    ok = lw_ok and le_256 >= 0.9 and elapsed < 60.0
    _report("criterion 7 (le diagnostic sanity)", ok,
            f"lw* fraction = 1 exactly at n={sizes} for both models; IID le "
            f"fraction at n=256: {le_256:.3f} >= 0.9; {elapsed:.1f}s < 60s")


def test_criterion_8_certificate_soundness():
    if not CERTIFIED:
        pytest.skip("criteria 1-6 did not run in this session")
    worst = 0.0
    for label, op in CERTIFIED:
        spec = ss.eigen_spectrum(op)
        scale = max(1.0, float(np.max(np.abs(spec.values))))
        margin = float(spec.values[0]) / scale
        worst = min(worst, margin) if worst else margin
        assert spec.values[0] >= -1e-10 * scale, label
    _report("criterion 8 (certificate soundness)", True,
            f"{len(CERTIFIED)} certified operators from criteria 1-6, "
            f"worst normalized min eigenvalue {worst:.2e} >= -1e-10")
