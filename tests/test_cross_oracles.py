"""Independent-oracle cross checks for the load-bearing scans.

The goodness scan, the induced-row property and the exact certificates are
re-derived here with deliberately naive algorithms (backtracking isomorphism
search, direct formula evaluation) and compared against the fast paths.
"""

import math
from fractions import Fraction

import numpy as np

from sofic_spectra.exact import CZERO, ComplexRational
from sofic_spectra.groups import ball, free_group, lattice_group
from sofic_spectra.measures import (
    IIDProduct,
    binary_alphabet,
    sample_configuration,
)
from sofic_spectra.operators import (
    InducedOperator,
    assemble_induced,
    schrodinger_rule,
)
from sofic_spectra.monotone import gershgorin_psd
from sofic_spectra.sofic import (
    SoficApproximation,
    good_vertices,
    random_permutation_approximation,
    torus_approximation,
)
from sofic_spectra.spectral import (
    Spectrum,
    punctured_mass,
    punctured_mass_bound,
)

from window_references import pullback_window


# ---------------------------------------------------------------------------
# brute-force labeled-ball isomorphism
# ---------------------------------------------------------------------------


def _graph_ball(sigma, v, radius):
    """Vertices within graph distance radius of v, plus labeled adjacency:
    each vertex's (neighbour, generator) pairs read off the permutations,
    loops dropped and multi-edges collapsed."""
    adj = {}
    for lab, perm in enumerate(sigma.perms):
        for x, y in enumerate(perm.tolist()):
            if x != y:
                adj.setdefault(x, set()).add((y, lab))
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            if dist[x] == radius:
                continue
            for (y, _) in adj.get(x, ()):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    verts = sorted(dist)
    edges = {(x, y): set() for x in verts for (y, _) in adj.get(x, ())
             if y in dist}
    for x in verts:
        for (y, lab) in adj.get(x, ()):
            if y in dist:
                edges[(x, y)].add(lab)
    return verts, edges


def _cayley_ball_graph(group, radius):
    b = ball(group, radius)
    edges = {}
    for (i, j, s) in b.edges:
        edges.setdefault((i, j), set()).add(s)
    return list(range(len(b))), edges, b


def _brute_force_good(sigma, v, radius):
    """Backtracking search for a label-preserving isomorphism rooted at v."""
    gverts, gedges = _graph_ball(sigma, v, radius)
    cverts, cedges, b = _cayley_ball_graph(sigma.group, radius)
    if len(gverts) != len(cverts):
        return False
    e_idx = b.index(sigma.group.identity())

    gadj = {x: {} for x in gverts}
    for (x, y), labs in gedges.items():
        gadj[x][y] = labs
    cadj = {i: {} for i in cverts}
    for (i, j), labs in cedges.items():
        cadj[i][j] = labs

    assignment = {e_idx: v}
    used = {v}

    def backtrack(pending):
        if not pending:
            # full map found: check edge sets match exactly in both directions
            for (i, j), labs in cedges.items():
                if gadj[assignment[i]].get(assignment[j]) != labs:
                    return False
            inverse = {w: i for i, w in assignment.items()}
            for (x, y), labs in gedges.items():
                if cadj[inverse[x]].get(inverse[y]) != labs:
                    return False
            return True
        i = pending[0]
        # candidate images: follow one labeled edge from an assigned neighbor
        candidates = None
        for j, labs in cadj[i].items():
            if j in assignment:
                lab = next(iter(labs))
                inv = sigma.group.inverse_generator_index(lab)
                # edge i -> j labeled s means j = s.i, so i = s^-1 . j
                cands = {w for (w, l) in gadj[assignment[j]].items()
                         if l and inv in gadj[assignment[j]][w]}
                candidates = cands if candidates is None else candidates & cands
        if candidates is None:
            candidates = set(gverts)
        for w in sorted(candidates - used):
            assignment[i] = w
            used.add(w)
            if backtrack(pending[1:]):
                return True
            del assignment[i]
            used.discard(w)
        return False

    order = [i for i in cverts if i != e_idx]
    order.sort(key=lambda i: b.word_lengths[i])
    return backtrack(order)


def test_goodness_matches_brute_force_random_model():
    sigma = random_permutation_approximation(2, 40, seed=11)
    fast = good_vertices(sigma, 1).good
    for v in range(40):
        assert _brute_force_good(sigma, v, 1) == bool(fast[v]), f"vertex {v}"


def test_goodness_matches_brute_force_radius_2():
    sigma = random_permutation_approximation(2, 60, seed=2)
    fast = good_vertices(sigma, 2).good
    for v in range(0, 60, 3):
        assert _brute_force_good(sigma, v, 2) == bool(fast[v]), f"vertex {v}"


def test_goodness_matches_brute_force_wrapped_torus():
    for n, radius in ((7, 3), (8, 3), (6, 2), (5, 2)):
        sigma = torus_approximation(1, n)
        fast = good_vertices(sigma, radius).good
        for v in range(n):
            assert _brute_force_good(sigma, v, radius) == bool(fast[v])


def test_goodness_matches_brute_force_corrupted():
    sigma = torus_approximation(1, 10)
    perms = [p.copy() for p in sigma.perms]
    perms[0][[2, 7]] = perms[0][[7, 2]]
    perms[1] = np.empty(10, dtype=np.int64)
    perms[1][perms[0]] = np.arange(10)
    bad = SoficApproximation(group=sigma.group, n_vertices=10,
                             perms=tuple(perms))
    for radius in (1, 2):
        fast = good_vertices(bad, radius).good
        for v in range(10):
            assert _brute_force_good(bad, v, radius) == bool(fast[v]), \
                f"radius {radius} vertex {v}"


# ---------------------------------------------------------------------------
# one-sided row property at 4M-good vertices
# ---------------------------------------------------------------------------


def test_induced_rows_complete_at_4m_good_vertices():
    # even on a corrupted model, rows of 4M-good vertices carry the full
    # coefficient formula (their M-neighborhood is automatically 2M-good)
    z1 = lattice_group(1)
    rule = schrodinger_rule(z1, binary_alphabet(), [Fraction(0), Fraction(2)])
    sigma = torus_approximation(1, 16)
    perms = [p.copy() for p in sigma.perms]
    perms[0][[0, 5]] = perms[0][[5, 0]]   # corrupt two sites
    perms[1] = np.empty(16, dtype=np.int64)
    perms[1][perms[0]] = np.arange(16)
    bad = SoficApproximation(group=z1, n_vertices=16, perms=tuple(perms))
    rho = sample_configuration(
        IIDProduct(alphabet=binary_alphabet(), weights=(0.5, 0.5)), bad,
        np.random.default_rng(3))
    op = assemble_induced(rule, bad, rho)
    good4 = good_vertices(bad, 4).good
    assert good4.any() and not good4.all()
    assert len(rule.elements) == len(ball(z1, 1))
    for w in np.flatnonzero(good4).tolist():
        win = pullback_window(rho, bad, w, 1)
        code = sum(val * 2 ** i for i, val in enumerate(win.values))
        for g, row in zip(rule.elements, rule.codes):
            v = int(bad.perm_of(g)[w])
            assert op.entries.get((w, v), CZERO) == rule.values[row[code]]


# ---------------------------------------------------------------------------
# double limit along sizes and depths
# ---------------------------------------------------------------------------


def test_monotone_double_limit_stabilizes():
    from sofic_spectra.monotone import apply_schedule, build_schedule, \
        value_sets_of
    from sofic_spectra.spectral import counting_function, eigen_spectrum
    z1 = lattice_group(1)
    one = binary_alphabet()
    rule = schrodinger_rule(z1, one, [math.sqrt(2), math.sqrt(2)])
    sched = build_schedule(value_sets_of(rule), 6)
    grid = np.linspace(-5, 2, 31)
    per_m = {}
    for m in (2, 6):
        vals = {}
        for n in (32, 64, 128):
            sigma = torus_approximation(1, n)
            rho = np.zeros(n, dtype=np.int64)
            op = assemble_induced(apply_schedule(rule, sched, m), sigma, rho)
            spec = eigen_spectrum(op)
            vals[n] = np.array(counting_function(spec, grid)) / n
        # fixed depth: fractions stabilize in the volume
        assert np.max(np.abs(vals[128] - vals[64])) <= 0.05
        per_m[m] = vals[128]
    target = eigen_spectrum(assemble_induced(
        rule, torus_approximation(1, 128),
        np.zeros(128, dtype=np.int64)))
    tvals = np.array(counting_function(target, grid)) / 128
    # deeper schedule sits closer to the target, from above
    gap2 = np.max(per_m[2] - tvals)
    gap6 = np.max(per_m[6] - tvals)
    assert np.all(per_m[6] <= per_m[2])
    assert gap6 <= gap2
    assert np.all(per_m[6] + 1e-12 >= tvals)


# ---------------------------------------------------------------------------
# adversarial exact-arithmetic cases
# ---------------------------------------------------------------------------


def test_gershgorin_exact_beats_float_ties():
    # diagonal exceeds |3+4i| = 5 by 10^-30: exact path certifies strictly,
    # a float comparison cannot see the margin
    margin = Fraction(1, 10 ** 30)
    entries = {
        (0, 0): ComplexRational(Fraction(5) + margin),
        (1, 1): ComplexRational(Fraction(5) + margin),
        (0, 1): ComplexRational(Fraction(3), Fraction(4)),
        (1, 0): ComplexRational(Fraction(3), Fraction(-4)),
    }
    op = InducedOperator.from_entries(2, entries)
    assert gershgorin_psd(op, strict=True) is None
    float_diag = float(Fraction(5) + margin)
    assert not (float_diag > 5.0)         # the float tie the exact path avoids
    below = {
        (0, 0): ComplexRational(Fraction(5) - margin),
        (1, 1): ComplexRational(Fraction(5) - margin),
        (0, 1): ComplexRational(Fraction(3), Fraction(4)),
        (1, 0): ComplexRational(Fraction(3), Fraction(-4)),
    }
    op2 = InducedOperator.from_entries(2, below)
    assert gershgorin_psd(op2) == 0


def test_punctured_bound_has_teeth():
    # a non-integer matrix freely violates the integer-coefficient bound
    vals = np.array([1e-3] * 9 + [1.0])
    spec = Spectrum(values=np.sort(vals), residual=0.0)
    mass = punctured_mass(spec, 0.0, 1e-2)
    assert mass == 0.9
    assert mass > punctured_mass_bound(1.0, 1e-2, 1)
