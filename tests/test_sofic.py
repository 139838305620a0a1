import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sofic_spectra.measures as measures_module
import sofic_spectra.sofic as sofic_module
from sofic_spectra.groups import (
    BallCapacityError,
    ball,
    free_group,
    lattice_group,
)
from sofic_spectra.sofic import (
    FiniteQuotient,
    SoficApproximation,
    SoficCompatibilityError,
    edge_graph,
    good_vertices,
    lattice_quotient,
    product_with_quotient,
    random_permutation_approximation,
    sofic_defect,
    torus_approximation,
)


def test_torus_cycle_permutation():
    sig = torus_approximation(1, 4)
    assert sig.perms[0].tolist() == [1, 2, 3, 0]
    assert sig.perms[1].tolist() == [3, 0, 1, 2]
    # composed word: +2 steps
    assert sig.perm_of((2,)).tolist() == [2, 3, 0, 1]


def test_torus_exact_homomorphism():
    sig = torus_approximation(2, 3)
    rep = sofic_defect(sig, 2)
    assert rep.max_hom_defect == 0.0
    assert all(f == 0.0 for f in rep.hom_fractions.values())


def test_torus_goodness_thresholds():
    assert good_vertices(torus_approximation(1, 8), 3).fraction == 1.0
    assert good_vertices(torus_approximation(1, 7), 3).fraction == 0.0
    for radius in (1, 2, 3):
        n = 2 * radius + 2
        assert good_vertices(torus_approximation(1, n), radius).fraction == 1.0
        assert good_vertices(torus_approximation(2, n), radius).fraction == 1.0


def test_goodness_monotone_in_radius():
    sig = random_permutation_approximation(2, 300, seed=5)
    g1 = good_vertices(sig, 1)
    g2 = good_vertices(sig, 2)
    assert np.all(g1.good[g2.good])          # R+1-good set inside R-good set
    assert g2.fraction <= g1.fraction


def test_goodness_is_scanned_once_per_model_and_radius(monkeypatch):
    scans = []
    scan = sofic_module._scan_good

    def counted(sigma, b, images):
        scans.append(b.radius)
        return scan(sigma, b, images)
    monkeypatch.setattr(sofic_module, "_scan_good", counted)
    models = [lambda: random_permutation_approximation(2, 300, seed=5),
              lambda: torus_approximation(2, 6)]
    for make in models:
        sig = make()
        for radius in (2, 1, 2, 1, 3):
            cached = good_vertices(sig, radius)
            fresh = good_vertices(make(), radius)
            assert cached.radius == fresh.radius == radius
            assert np.array_equal(cached.good, fresh.good)
            assert not cached.good.flags.writeable
            with pytest.raises(ValueError):
                cached.good[0] = not cached.good[0]
    # each radius once on the kept model, and once per fresh model
    assert scans == [2, 2, 1, 1, 2, 1, 3, 3] * 2


def test_goodness_budget_is_checked_on_a_cached_radius():
    sig = random_permutation_approximation(2, 300, seed=5)
    need = len(ball(sig.group, 2)) * sig.n_vertices
    first = good_vertices(sig, 2, budget=need)
    with pytest.raises(BallCapacityError, match="exceeds budget"):
        good_vertices(sig, 2, budget=need - 1)
    assert good_vertices(sig, 2, budget=need).good is first.good


def test_goodness_radius_zero_trivial():
    sig = torus_approximation(1, 4)
    assert good_vertices(sig, 0).fraction == 1.0


def test_random_permutation_determinism_and_degenerate():
    a = random_permutation_approximation(2, 50, seed=7)
    b = random_permutation_approximation(2, 50, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.perms, b.perms))
    single = random_permutation_approximation(2, 1, seed=0)
    rep = sofic_defect(single, 1)
    assert rep.max_fix_defect == 1.0          # everything fixes the one point


def test_random_permutation_good_fraction_at_2000():
    sig = random_permutation_approximation(2, 2000, seed=7)
    frac = good_vertices(sig, 2).fraction
    # short relations knock out a visible share of vertices at this size
    assert 0.8 < frac < 0.95
    rep = sofic_defect(sig, 2)
    assert rep.max_hom_defect == 0.0          # word extension is a homomorphism
    assert rep.max_fix_defect <= 0.05


def test_defect_small_across_seeds():
    for seed in range(10):
        sig = random_permutation_approximation(2, 2000, seed=seed)
        rep = sofic_defect(sig, 2)
        assert rep.max_hom_defect == 0.0
        assert rep.max_fix_defect <= 0.05


def test_torus_fixed_point_fractions():
    sig = torus_approximation(1, 4)
    rep = sofic_defect(sig, 2)
    assert rep.fix_fractions[(2,)] == 0.0
    assert rep.fix_fractions[(1,)] == 0.0


def _distinct_degrees(graph) -> np.ndarray:
    """Number of distinct neighbours per vertex, multi-labels coalesced."""
    neighbours = [set() for _ in range(graph.n_vertices)]
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        neighbours[s].add(d)
    return np.array([len(x) for x in neighbours])


def test_edge_graph_examples():
    g = edge_graph(torus_approximation(1, 4))
    assert g.n_vertices == 4
    assert np.all(_distinct_degrees(g) == 2)
    g2 = edge_graph(torus_approximation(2, 3))
    assert g2.n_vertices == 9
    assert np.all(_distinct_degrees(g2) == 4)


def test_edge_graph_identity_perms_empty():
    sig = torus_approximation(1, 4)
    ident = np.arange(4)
    trivial = SoficApproximation(group=sig.group, n_vertices=4,
                                 perms=(ident, ident))
    g = edge_graph(trivial)
    assert len(g.src) == 0
    assert np.all(_distinct_degrees(g) == 0)


def test_degree_at_one_good_vertices():
    sig = random_permutation_approximation(2, 500, seed=3)
    graph = edge_graph(sig)
    deg = _distinct_degrees(graph)
    assert deg.max() <= 4
    good = good_vertices(sig, 1).good
    assert np.all(deg[good] == 4)


def test_corrupted_torus_loses_goodness():
    sig = torus_approximation(1, 12)
    perms = [p.copy() for p in sig.perms]
    # break the +1 permutation at vertices 0,1 (swap their images)
    perms[0][[0, 1]] = perms[0][[1, 0]]
    perms[1] = np.empty(12, dtype=np.int64)
    perms[1][perms[0]] = np.arange(12)
    bad = SoficApproximation(group=sig.group, n_vertices=12,
                             perms=tuple(perms))
    rep = good_vertices(bad, 1)
    assert rep.fraction < 1.0
    assert good_vertices(bad, 2).fraction <= rep.fraction


def test_product_with_quotient_formula():
    base = torus_approximation(1, 4)
    quot = lattice_quotient(1, [2])
    prod = product_with_quotient(base, quot)
    assert prod.n_vertices == 8
    # sigma^{+1}(v, c) = (v+1 mod 4, c+1 mod 2), flattened v*2+c
    expect = [(((v + 1) % 4) * 2 + (c + 1) % 2) for v in range(4)
              for c in range(2)]
    assert prod.perms[0].tolist() == expect


def test_product_with_trivial_quotient_is_base():
    base = torus_approximation(1, 4)
    quot = lattice_quotient(1, [1])
    prod = product_with_quotient(base, quot)
    assert prod.n_vertices == 4
    assert all(np.array_equal(p, q) for p, q in zip(prod.perms, base.perms))


def test_product_preserves_defect():
    # a Z^2 model whose two generator permutations do not commute
    free = random_permutation_approximation(2, 200, seed=1)
    base = SoficApproximation(group=lattice_group(2), n_vertices=200,
                              perms=free.perms)
    prod = product_with_quotient(base, lattice_quotient(2, [2, 3]))
    base_rep = sofic_defect(base, 2)
    prod_rep = sofic_defect(prod, 2)
    assert base_rep.max_hom_defect > 0
    assert base_rep.max_hom_defect == prod_rep.max_hom_defect
    for g_el, frac in base_rep.fix_fractions.items():
        # freeness can only improve in the product
        assert prod_rep.fix_fractions[g_el] <= frac + 1e-12


@pytest.mark.parametrize("moduli, match", [
    ([2.9], "modulus 2.9 is not an integer"),
    ([2.0], "modulus 2.0 is not an integer"),
    ([True], "modulus True is not an integer"),
    ([0], re.escape("one modulus >= 1 per coordinate of the lattice, not (0,)")),
    ([2, 2], re.escape("one modulus >= 1 per coordinate of the lattice, "
                       "not (2, 2)")),
])
def test_lattice_quotient_refuses_moduli_by_value(moduli, match):
    with pytest.raises(ValueError, match=match):
        lattice_quotient(1, moduli)


def test_models_name_their_lattice_box():
    assert torus_approximation(2, 6).box == (6, 6)
    quot = lattice_quotient(2, [2, 3])
    assert quot.size == 6 and quot.moduli == (2, 3)
    assert quot.coordinates.tolist() == [[0, 1, 0, 1, 0, 1],
                                         [0, 0, 1, 1, 2, 2]]
    assert not quot.coordinates.flags.writeable
    assert quot.act_perm((1, 0)).tolist() == [1, 0, 3, 2, 5, 4]
    assert quot.act_perm((0, -1)).tolist() == [4, 5, 0, 1, 2, 3]
    assert product_with_quotient(torus_approximation(2, 4), quot).box == (2, 3)
    assert random_permutation_approximation(2, 8, seed=0).box is None
    with pytest.raises(ValueError, match="of the lattice"):
        FiniteQuotient(group=free_group(1), moduli=(2,))


def test_a_named_box_is_checked_against_the_permutations():
    def with_box(model, box):
        return SoficApproximation(group=model.group,
                                  n_vertices=model.n_vertices,
                                  perms=model.perms, box=box)

    cycle = torus_approximation(1, 6)
    for box in [(3,), (6,), (1,)]:
        assert with_box(cycle, box).box == box
    square = torus_approximation(2, 4)
    for box in [(4, 4), (4, 2), (4, 1)]:
        assert with_box(square, box).box == box
    free = random_permutation_approximation(1, 6, seed=0)
    # (4,): 6 is no multiple of 4; (2, 3): one side per coordinate of Z;
    # (2, 2) on the 4x4 torus: the second generator moves vertex v by 4,
    # which keeps its box point v mod 4 fixed; (0,): no box is empty; a
    # free group has no lattice box
    for model, box in [(cycle, (4,)), (cycle, (2, 3)), (square, (2, 2)),
                       (cycle, (0,)), (free, (6,))]:
        with pytest.raises(SoficCompatibilityError,
                           match=re.escape(f"box {box} is not a lattice box")):
            with_box(model, box)


@st.composite
def _lattice_models(draw):
    """(moduli, a torus or product model whose box sides the moduli divide)."""
    d = draw(st.integers(1, 3))
    moduli = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    if draw(st.booleans()):
        side = max(2, math.lcm(*moduli) * draw(st.integers(1, 2)))
        return moduli, torus_approximation(d, side)
    multiples = [m * draw(st.integers(1, 2)) for m in moduli]
    base = torus_approximation(d, draw(st.integers(2, 3)))
    return moduli, product_with_quotient(base, lattice_quotient(d, multiples))


_VECTORS = st.lists(st.integers(-5, 5), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_lattice_models(), _VECTORS, _VECTORS)
def test_quotient_action_is_a_homomorphism_the_box_carries(model, g, h):
    moduli, sigma = model
    d = len(moduli)
    quot = lattice_quotient(d, moduli)
    cos = measures_module._cosets(quot, sigma)
    for i in range(sigma.group.n_generators):
        act = quot.act_perm(sigma.group.generator(i))
        assert np.array_equal(cos[sigma.perms[i]], act[cos])
    g, h = tuple(g[:d]), tuple(h[:d])
    gh = tuple(a + b for a, b in zip(g, h))
    assert np.array_equal(quot.act_perm(g)[quot.act_perm(h)],
                          quot.act_perm(gh))
