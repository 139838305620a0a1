import numpy as np
import pytest

from sofic_spectra.groups import ball, lattice_group
from sofic_spectra.measures import (
    Alphabet,
    Configuration,
    EnumerationBudgetError,
    IIDProduct,
    Mixture,
    binary_alphabet,
    empirical_window_distribution,
    lattice_periodic,
    le_diagnostic,
    pullback_window,
    pushforward_window_distribution,
    sample_configuration,
    target_marginal_on,
)
from sofic_spectra.sofic import (
    SoficCompatibilityError,
    lattice_quotient,
    product_with_quotient,
    torus_approximation,
)

Z1 = lattice_group(1)
BIN = binary_alphabet()


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(symbols=())
    with pytest.raises(ValueError):
        Alphabet(symbols=("a", "a"))
    with pytest.raises(ValueError):
        IIDProduct(alphabet=BIN, weights=(0.7, 0.2))


def test_iid_point_mass_sample():
    sig = torus_approximation(1, 16)
    model = IIDProduct(alphabet=BIN, weights=(1.0, 0.0))
    rho = sample_configuration(model, sig, 3)
    assert np.all(rho.values == 0)


def test_periodic_sample_translates():
    model = lattice_periodic(BIN, [2], [0, 1])
    sig = torus_approximation(1, 6)
    seen = set()
    for seed in range(40):
        rho = sample_configuration(model, sig, seed)
        seen.add(tuple(rho.values.tolist()))
    assert seen == {(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)}


def test_periodic_orbit_uniformity():
    # each translate within 5 binomial standard deviations of 1/orbit
    model = lattice_periodic(BIN, [2], [0, 1])
    sig = torus_approximation(1, 4)
    n_samples = 2000
    counts = {}
    for seed in range(n_samples):
        rho = sample_configuration(model, sig, seed)
        key = tuple(rho.values.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 2
    sd = (n_samples * 0.5 * 0.5) ** 0.5
    for c in counts.values():
        assert abs(c - n_samples / 2) <= 5 * sd


def test_periodic_incompatible_torus():
    model = lattice_periodic(BIN, [2], [0, 1])
    with pytest.raises(SoficCompatibilityError):
        sample_configuration(model, torus_approximation(1, 5), 0)


def test_mixture_of_constants():
    model = Mixture(
        components=(IIDProduct(alphabet=BIN, weights=(1.0, 0.0)),
                    IIDProduct(alphabet=BIN, weights=(0.0, 1.0))),
        weights=(0.5, 0.5))
    sig = torus_approximation(1, 8)
    seen = set()
    for seed in range(30):
        rho = sample_configuration(model, sig, seed)
        assert len(set(rho.values.tolist())) == 1
        seen.add(int(rho.values[0]))
    assert seen == {0, 1}


def test_pullback_window_examples():
    sig = torus_approximation(1, 8)
    rho = Configuration(values=np.arange(8) % 2)
    w = pullback_window(rho, sig, 0, 2)
    assert w.values == (0, 1, 0, 1, 0)    # positions -2..2
    const = Configuration(values=np.zeros(8, dtype=np.int64))
    assert set(pullback_window(const, sig, 3, 2).values) == {0}
    assert pullback_window(rho, sig, 5, 0).values == (1,)


def test_empirical_distribution_examples():
    sig = torus_approximation(1, 4)
    rho = Configuration(values=np.array([0, 1, 0, 1]))
    dist = empirical_window_distribution(rho, sig, 1)
    assert dist.probs == {(1, 0, 1): 0.5, (0, 1, 0): 0.5}
    assert sum(dist.counts.values()) == 4
    const = Configuration(values=np.zeros(4, dtype=np.int64))
    point = empirical_window_distribution(const, sig, 1)
    assert point.probs == {(0, 0, 0): 1.0}


def test_target_marginal_iid_uniform():
    model = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    dist = target_marginal_on(model, Z1, 1)
    assert len(dist.probs) == 8
    assert all(abs(p - 0.125) < 1e-15 for p in dist.probs.values())


def test_target_marginal_periodic():
    model = lattice_periodic(BIN, [2], [0, 1])
    dist = target_marginal_on(model, Z1, 1)
    assert dist.probs == {(0, 1, 0): 0.5, (1, 0, 1): 0.5}
    point = lattice_periodic(BIN, [1], [1])
    d2 = target_marginal_on(point, Z1, 1)
    assert d2.probs == {(1, 1, 1): 1.0}


def test_marginal_coherence_shell_sum():
    model = IIDProduct(alphabet=BIN, weights=(0.3, 0.7))
    per = lattice_periodic(BIN, [3], [0, 1, 1])
    mix = Mixture(components=(model, per), weights=(0.25, 0.75))
    for m in (model, per, mix):
        big = target_marginal_on(m, Z1, 2)
        small = target_marginal_on(m, Z1, 1)
        restricted = big.restrict(ball(Z1, 2), ball(Z1, 1))
        assert restricted.tv(small) < 1e-12


def test_pushforward_at_good_vertices_equals_target():
    model = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    sig = torus_approximation(1, 16)
    target = target_marginal_on(model, Z1, 2)
    for v in (0, 5, 11):
        push = pushforward_window_distribution(model, sig, v, 2)
        assert push.tv(target) == 0.0


def test_pushforward_collision_identification():
    # torus(1,2): sigma^{+1}(v) = sigma^{-1}(v), so the two outer window
    # coordinates collide and only patterns with w(-1) == w(+1) survive
    model = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    sig = torus_approximation(1, 2)
    push = pushforward_window_distribution(model, sig, 0, 1)
    assert set(push.probs) == {(a, b, a) for a in (0, 1) for b in (0, 1)}
    assert abs(push.probs[(1, 0, 1)] - 0.3 * 0.7) < 1e-15
    assert abs(sum(push.probs.values()) - 1.0) < 1e-12


def test_le_diagnostic_exact_cases():
    per = lattice_periodic(BIN, [2], [0, 1])
    sigmas = [torus_approximation(1, n) for n in (4, 8, 16)]
    rows = le_diagnostic(per, sigmas, 1, 0.01, sample_count=40, seed=5)
    for row in rows:
        assert row.lw_fraction == 1.0
        assert row.le_fraction == 1.0
    point = IIDProduct(alphabet=BIN, weights=(1.0, 0.0))
    rows = le_diagnostic(point, sigmas[:1], 1, 1e-9, sample_count=10, seed=1)
    assert rows[0].lw_fraction == 1.0 and rows[0].le_fraction == 1.0


def test_le_diagnostic_distinct_finite_model():
    # finite law differs from the target: lw* fraction collapses to 0
    target = IIDProduct(alphabet=BIN, weights=(1.0, 0.0))
    finite = IIDProduct(alphabet=BIN, weights=(0.0, 1.0))
    rows = le_diagnostic(target, [torus_approximation(1, 8)], 1, 0.5,
                         sample_count=5, seed=0, finite_model=finite)
    assert rows[0].lw_fraction == 0.0
    assert rows[0].le_fraction == 0.0


def test_lift_configuration():
    const = lattice_periodic(BIN, [1], [1])
    assert target_marginal_on(const, Z1, 1).probs == {(1, 1, 1): 1.0}
    period2 = lattice_periodic(BIN, [2], [0, 1])
    assert target_marginal_on(period2, Z1, 1).probs == \
        {(0, 1, 0): 0.5, (1, 0, 1): 0.5}
    checker = lattice_periodic(BIN, [2, 2], [0, 1, 1, 0])
    assert len(checker.orbit()) == 2


def test_enumeration_budget_error():
    model = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    with pytest.raises(EnumerationBudgetError):
        target_marginal_on(model, Z1, 3, budget=10)


def test_quotient_product_periodic_sampling():
    # periodic sampling on an explicit product-with-quotient model
    base = torus_approximation(1, 4)
    quot = lattice_quotient(1, [2])
    prod = product_with_quotient(base, quot)
    from sofic_spectra.measures import PeriodicOrbit
    model = PeriodicOrbit(alphabet=BIN, quotient=quot, pattern=(0, 1))
    seen = set()
    for seed in range(20):
        rho = sample_configuration(model, prod, seed)
        seen.add(tuple(rho.values.tolist()))
    assert seen == {(0, 1) * 4, (1, 0) * 4}
    target = target_marginal_on(model, Z1, 1)
    push = pushforward_window_distribution(model, prod, 0, 1)
    assert push.tv(target) == 0.0
