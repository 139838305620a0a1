import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sofic_spectra.measures as measures_module
import sofic_spectra.sofic as sofic_module
from sofic_spectra.groups import ball, free_group, lattice_group
from sofic_spectra.measures import (
    Alphabet,
    EnumerationBudgetError,
    IIDProduct,
    Mixture,
    PeriodicOrbit,
    binary_alphabet,
    check_fits,
    lattice_periodic,
    le_diagnostic,
    sample_configuration,
    sample_ensemble,
    sample_rng,
    site_law,
    target_marginal_on,
    total_variation,
)
from sofic_spectra.sofic import (
    SoficCompatibilityError,
    lattice_quotient,
    product_with_quotient,
    torus_approximation,
)

from window_references import (
    decode,
    empirical_window_distribution,
    pullback_window,
    pushforward_on,
    pushforward_window_distribution,
    window_counts,
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_are_refused(bad):
    # NaN passes both w < 0 and the sum check, and numpy refused it only
    # when sampling
    with pytest.raises(ValueError, match="weights must be finite"):
        IIDProduct(alphabet=BIN, weights=(bad, 0.3))
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="mixture weights must be finite"):
        Mixture(components=(iid, iid), weights=(bad, 0.3))


def test_iid_point_mass_sample():
    sig = torus_approximation(1, 16)
    model = IIDProduct(alphabet=BIN, weights=(1.0, 0.0))
    rho = sample_configuration(model, sig, np.random.default_rng(3))
    assert np.all(rho == 0)


def test_periodic_sample_translates():
    model = lattice_periodic(BIN, [2], [0, 1])
    sig = torus_approximation(1, 6)
    seen = set()
    for seed in range(40):
        rho = sample_configuration(model, sig, np.random.default_rng(seed))
        seen.add(tuple(rho.tolist()))
    assert seen == {(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)}


def test_periodic_orbit_uniformity():
    # each translate within 5 binomial standard deviations of 1/orbit
    model = lattice_periodic(BIN, [2], [0, 1])
    sig = torus_approximation(1, 4)
    n_samples = 2000
    counts = {}
    for seed in range(n_samples):
        rho = sample_configuration(model, sig, np.random.default_rng(seed))
        key = tuple(rho.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 2
    sd = (n_samples * 0.5 * 0.5) ** 0.5
    for c in counts.values():
        assert abs(c - n_samples / 2) <= 5 * sd


def test_periodic_incompatible_torus():
    model = lattice_periodic(BIN, [2], [0, 1])
    with pytest.raises(SoficCompatibilityError):
        sample_configuration(model, torus_approximation(1, 5),
                             np.random.default_rng(0))


def test_periodic_law_needs_a_model_with_a_lattice_box():
    from sofic_spectra.groups import free_group
    from sofic_spectra.sofic import SoficApproximation, \
        random_permutation_approximation
    model = lattice_periodic(BIN, [2], [0, 1])
    torus = torus_approximation(1, 4)
    explicit = SoficApproximation(group=Z1, n_vertices=4, perms=torus.perms)
    free = random_permutation_approximation(1, 4, seed=0)
    assert free.group == free_group(1)
    for sigma in (explicit, free):
        with pytest.raises(SoficCompatibilityError, match="lattice box"):
            check_fits(model, sigma)
        with pytest.raises(SoficCompatibilityError, match="lattice box"):
            sample_configuration(model, sigma, np.random.default_rng(0))
    product = product_with_quotient(torus, lattice_quotient(1, [3]))
    with pytest.raises(SoficCompatibilityError, match=re.escape(
            "torus side 3 is not a multiple of the periods (2,)")):
        check_fits(model, product)


@pytest.mark.parametrize("pattern, match", [
    ((0, 1.5), re.escape("pattern symbol 1.5 is not an integer in 0..1")),
    ((0, 1.7), "pattern symbol 1.7 is not an integer"),
    ((True, 0), "pattern symbol True is not an integer"),
    ((0, 2), "pattern symbol 2 is not an integer in"),
    ((-1, 0), "pattern symbol -1 is not an integer in"),
])
def test_periodic_pattern_refuses_symbols_by_value(pattern, match):
    with pytest.raises(ValueError, match=match):
        PeriodicOrbit(alphabet=BIN, quotient=lattice_quotient(1, [2]),
                      pattern=pattern)
    with pytest.raises(ValueError, match=match):
        lattice_periodic(BIN, [2], list(pattern))


def test_mixture_of_constants():
    model = Mixture(
        components=(IIDProduct(alphabet=BIN, weights=(1.0, 0.0)),
                    IIDProduct(alphabet=BIN, weights=(0.0, 1.0))),
        weights=(0.5, 0.5))
    sig = torus_approximation(1, 8)
    seen = set()
    for seed in range(30):
        rho = sample_configuration(model, sig, np.random.default_rng(seed))
        assert len(set(rho.tolist())) == 1
        seen.add(int(rho[0]))
    assert seen == {0, 1}


def test_pullback_window_examples():
    sig = torus_approximation(1, 8)
    rho = np.arange(8) % 2
    w = pullback_window(rho, sig, 0, 2)
    assert w.values == (0, 1, 0, 1, 0)    # positions -2..2
    const = np.zeros(8, dtype=np.int64)
    assert set(pullback_window(const, sig, 3, 2).values) == {0}
    assert pullback_window(rho, sig, 5, 0).values == (1,)


def test_empirical_distribution_examples():
    sig = torus_approximation(1, 4)
    rho = np.array([0, 1, 0, 1])
    dist = empirical_window_distribution(rho, sig, 1)
    assert dist == {(1, 0, 1): 0.5, (0, 1, 0): 0.5}
    assert sum(window_counts(rho, sig, 1).values()) == 4
    const = np.zeros(4, dtype=np.int64)
    point = empirical_window_distribution(const, sig, 1)
    assert point == {(0, 0, 0): 1.0}


def test_target_marginal_iid_uniform():
    model = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    dist = target_marginal_on(model, Z1, 1)
    assert len(dist) == 8
    assert all(abs(p - 0.125) < 1e-15 for p in dist.values())


def test_target_marginal_periodic():
    model = lattice_periodic(BIN, [2], [0, 1])
    dist = target_marginal_on(model, Z1, 1)
    assert dist == {(0, 1, 0): 0.5, (1, 0, 1): 0.5}
    point = lattice_periodic(BIN, [1], [1])
    d2 = target_marginal_on(point, Z1, 1)
    assert d2 == {(1, 1, 1): 1.0}


def _target_marginal_cases():
    coin = IIDProduct(alphabet=BIN, weights=(0.3, 0.7))
    fair = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    per1 = lattice_periodic(BIN, [3], [0, 1, 1])
    per2 = lattice_periodic(BIN, [2, 2], [0, 1, 1, 0])
    # periodic laws factor through a lattice quotient, so F2 gets none
    return [
        (coin, lattice_group(1), 2), (per1, lattice_group(1), 2),
        (Mixture(components=(coin, per1), weights=(0.25, 0.75)),
         lattice_group(1), 2),
        (coin, lattice_group(2), 1), (per2, lattice_group(2), 1),
        (Mixture(components=(per2, fair), weights=(0.4, 0.6)),
         lattice_group(2), 1),
        (coin, free_group(2), 1),
        (Mixture(components=(coin, fair), weights=(0.5, 0.5)),
         free_group(2), 1),
    ]


@pytest.mark.parametrize("model, group, radius", _target_marginal_cases())
def test_target_marginal_is_a_law_on_the_ball_patterns(model, group, radius):
    law = target_marginal_on(model, group, radius)
    assert type(law) is dict
    assert all(len(pat) == len(ball(group, radius)) for pat in law)
    assert abs(sum(law.values()) - 1.0) < 1e-12


def _law(draw, patterns):
    weights = draw(st.lists(st.integers(1, 9), min_size=len(patterns),
                            max_size=len(patterns)))
    return {pat: w / sum(weights) for pat, w in zip(patterns, weights)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_total_variation_is_a_metric_on_window_laws(data):
    pool = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              min_size=2, max_size=9, unique=True))
    # three laws on overlapping subsets of one pool of patterns
    p, q, r = (_law(data.draw, data.draw(st.lists(
        st.sampled_from(pool), min_size=1, unique=True))) for _ in range(3))
    for a, b in ((p, q), (q, r), (p, r)):
        assert -1e-12 <= total_variation(a, b) <= 1 + 1e-12
        assert abs(total_variation(a, b) - total_variation(b, a)) < 1e-12
    assert total_variation(p, dict(p)) == 0.0
    assert total_variation(p, r) <= \
        total_variation(p, q) + total_variation(q, r) + 1e-12
    # laws on disjoint pattern sets are at distance 1
    cut = data.draw(st.integers(1, len(pool) - 1))
    left, right = _law(data.draw, pool[:cut]), _law(data.draw, pool[cut:])
    assert abs(total_variation(left, right) - 1.0) < 1e-12


def test_marginal_coherence_shell_sum():
    model = IIDProduct(alphabet=BIN, weights=(0.3, 0.7))
    per = lattice_periodic(BIN, [3], [0, 1, 1])
    mix = Mixture(components=(model, per), weights=(0.25, 0.75))
    for m in (model, per, mix):
        big = target_marginal_on(m, Z1, 2)
        small = target_marginal_on(m, Z1, 1)
        # marginal on the radius-1 positions, summing over the outer shell
        take = [ball(Z1, 2).index(g) for g in ball(Z1, 1).elements]
        marginal: dict = {}
        for pat, p in big.items():
            sub = tuple(pat[i] for i in take)
            marginal[sub] = marginal.get(sub, 0.0) + p
        assert total_variation(marginal, small) < 1e-12


def test_pushforward_at_good_vertices_equals_target():
    model = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    sig = torus_approximation(1, 16)
    target = target_marginal_on(model, Z1, 2)
    for v in (0, 5, 11):
        push = pushforward_window_distribution(model, sig, v, 2)
        assert total_variation(push, target) == 0.0


def test_pushforward_collision_identification():
    # torus(1,2): sigma^{+1}(v) = sigma^{-1}(v), so the two outer window
    # coordinates collide and only patterns with w(-1) == w(+1) survive
    model = IIDProduct(alphabet=BIN, weights=(0.7, 0.3))
    sig = torus_approximation(1, 2)
    push = pushforward_window_distribution(model, sig, 0, 1)
    assert set(push) == {(a, b, a) for a in (0, 1) for b in (0, 1)}
    assert abs(push[(1, 0, 1)] - 0.3 * 0.7) < 1e-15
    assert abs(sum(push.values()) - 1.0) < 1e-12


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


@pytest.mark.parametrize("model", [
    IIDProduct(alphabet=BIN, weights=(0.3, 0.7)),
    lattice_periodic(BIN, [4], [0, 0, 1, 0]),
    Mixture(components=(IIDProduct(alphabet=BIN, weights=(0.5, 0.5)),
                        lattice_periodic(BIN, [2], [0, 1])),
            weights=(0.4, 0.6))], ids=["iid", "periodic", "mixture"])
def test_sample_ensemble_draws_sample_j_of_size_i_from_its_stream(model):
    sigmas = [torus_approximation(1, n) for n in (8, 16, 32)]
    got = [(sigma, [rho.tolist() for rho in samples])
           for sigma, samples in sample_ensemble(model, sigmas, 11, 6)]
    assert len(got) == len(sigmas)
    for i, (sigma, values) in enumerate(got):
        assert sigma is sigmas[i]
        assert values == [sample_configuration(
            model, sigma, sample_rng(11, i, j)).tolist()
            for j in range(6)]


def test_lift_configuration():
    const = lattice_periodic(BIN, [1], [1])
    assert target_marginal_on(const, Z1, 1) == {(1, 1, 1): 1.0}
    period2 = lattice_periodic(BIN, [2], [0, 1])
    assert target_marginal_on(period2, Z1, 1) == \
        {(0, 1, 0): 0.5, (1, 0, 1): 0.5}
    checker = lattice_periodic(BIN, [2, 2], [0, 1, 1, 0])
    assert len({tuple(row) for row in checker.translate_table.tolist()}) == 2


def test_enumeration_budget_error(monkeypatch):
    model = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    monkeypatch.setattr(measures_module, "DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(EnumerationBudgetError):
        target_marginal_on(model, Z1, 3)


def test_quotient_product_periodic_sampling():
    # periodic sampling on an explicit product-with-quotient model
    base = torus_approximation(1, 4)
    quot = lattice_quotient(1, [2])
    prod = product_with_quotient(base, quot)
    from sofic_spectra.measures import PeriodicOrbit
    model = PeriodicOrbit(alphabet=BIN, quotient=quot, pattern=(0, 1))
    seen = set()
    for seed in range(20):
        rho = sample_configuration(model, prod, np.random.default_rng(seed))
        seen.add(tuple(rho.tolist()))
    assert seen == {(0, 1) * 4, (1, 0) * 4}
    target = target_marginal_on(model, Z1, 1)
    push = pushforward_window_distribution(model, prod, 0, 1)
    assert total_variation(push, target) == 0.0


# ---------------------------------------------------------------------------
# site_law and target_marginal_on against their former separate copies
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _unit_shifts(moduli):
    return [p.tolist() for p in sofic_module._box_shifts(moduli)]


def _walk(moduli, g, start=0):
    """The coset reached from coset start along the canonical word of the
    lattice vector g, one unit shift of the box prod Z/m_i at a time."""
    shifts = _unit_shifts(tuple(moduli))
    c = start
    for letter in reversed(lattice_group(len(moduli)).canonical_word(g)):
        c = shifts[letter][c]
    return c


def _mixed_radix(c, sides):
    """The point of the box with the given sides whose index is c,
    coordinate 0 least significant."""
    point = []
    for m in sides:
        point.append(c % m)
        c //= m
    return tuple(point)


def _old_target_marginal_on(model, b, budget):
    """The cylinder marginal as computed before it was a merge of site_law."""
    if isinstance(model, IIDProduct):
        A = model.alphabet.size
        if A ** len(b) > budget:
            raise EnumerationBudgetError(
                f"{A}^{len(b)} window patterns exceed budget {budget}; "
                "lower the radius")
        probs = {}
        for code in range(A ** len(b)):
            pat = []
            c = code
            for _ in range(len(b)):
                pat.append(c % A)
                c //= A
            p = 1.0
            for s in pat:
                p *= model.weights[s]
            if p > 0:
                probs[tuple(pat)] = p
        return probs
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        probs = {}
        for t in range(q):
            pat = tuple(model.pattern[_walk(model.quotient.moduli, g, t)]
                        for g in b.elements)
            probs[pat] = probs.get(pat, 0.0) + 1.0 / q
        return probs
    probs = {}
    for comp, w in zip(model.components, model.weights):
        for pat, p in _old_target_marginal_on(comp, b, budget).items():
            probs[pat] = probs.get(pat, 0.0) + w * p
    return probs


def _old_assignment_law(model, sites):
    """The site enumeration as the moment oracle ran it before the move."""
    if isinstance(model, IIDProduct):
        A = model.alphabet.size
        n = len(sites)
        for code in range(A ** n):
            assign = []
            c = code
            p = 1.0
            for _ in range(n):
                s = c % A
                c //= A
                assign.append(s)
                p *= model.weights[s]
            if p > 0:
                yield tuple(assign), p
        return
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        for t in range(q):
            assign = tuple(model.pattern[_walk(model.quotient.moduli, g, t)]
                           for g in sites)
            yield assign, 1.0 / q
        return
    for comp, w in zip(model.components, model.weights):
        for assign, p in _old_assignment_law(comp, sites):
            yield assign, w * p


ALPHABETS = [Alphabet(symbols=tuple(str(s) for s in range(a)))
             for a in (1, 2, 3)]


@st.composite
def _weights(draw, size, positive=False):
    raw = draw(st.lists(st.integers(1 if positive else 0, 5),
                        min_size=size, max_size=size).filter(any))
    return tuple(r / sum(raw) for r in raw)


@st.composite
def _site_models(draw, d, depth=2):
    alphabet = draw(st.sampled_from(ALPHABETS))
    kind = draw(st.sampled_from(["iid", "periodic", "mixture"]
                                if depth else ["iid", "periodic"]))
    if kind == "iid":
        return IIDProduct(alphabet=alphabet,
                          weights=draw(_weights(alphabet.size)))
    if kind == "periodic":
        periods = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        pattern = draw(st.lists(st.integers(0, alphabet.size - 1),
                                min_size=int(np.prod(periods)),
                                max_size=int(np.prod(periods))))
        return lattice_periodic(alphabet, periods, pattern)
    comps = draw(st.lists(_site_models(d, depth - 1), min_size=1, max_size=3))
    return Mixture(components=tuple(comps),
                   weights=draw(_weights(len(comps), positive=True)))


def _outcome(fn):
    try:
        return fn()
    except EnumerationBudgetError as err:
        return ("budget", str(err))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]),
       budget=st.sampled_from([10, 100, 5000]))
def test_site_law_merge_matches_the_former_marginal(data, d, budget):
    group = lattice_group(d)
    model = data.draw(_site_models(d))
    radius = data.draw(st.integers(0, 3 if d == 1 else 2))
    b = ball(group, radius)
    old = _outcome(lambda: _old_target_marginal_on(model, b, budget))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures_module, "DEFAULT_ENUM_BUDGET", budget)
        new = _outcome(lambda: target_marginal_on(model, group, radius))
    # == on every probability and the same insertion order
    assert new == old
    assert not isinstance(old, dict) or list(new) == list(old)
    sites = data.draw(st.lists(st.sampled_from(b.elements), max_size=6))
    assert list(site_law(model, sites)) == list(
        _old_assignment_law(model, sites))


def test_site_law_keeps_repeated_translates():
    # period 4 with pattern 0101: translates t and t+2 coincide, and both
    # are yielded, each with weight 1/4
    model = lattice_periodic(BIN, [4], [0, 1, 0, 1])
    sites = ball(Z1, 1).elements
    law = list(site_law(model, sites))
    assert law == list(_old_assignment_law(model, sites))
    assert [p for _, p in law] == [0.25] * 4
    assert target_marginal_on(model, Z1, 1) == \
        {(1, 0, 1): 0.5, (0, 1, 0): 0.5}


def _per_code_iid_law(model, sites):
    """The i.i.d. branch of site_law as a per-code loop."""
    A = model.alphabet.size
    for code in range(A ** len(sites)):
        assign = decode(code, A, len(sites))
        p = 1.0
        for s in assign:
            p *= model.weights[s]
        if p > 0:
            yield assign, p


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alphabet=st.sampled_from(ALPHABETS),
       n_sites=st.integers(0, 7), chunk=st.sampled_from([1 << 16, 1, 5]))
def test_iid_site_law_matches_the_per_code_loop(data, alphabet, n_sites,
                                                chunk):
    # weights with zeros and with sums that round, so any change in the
    # order of the products would show in the last bits
    raw = data.draw(st.lists(st.sampled_from([0, 1, 3, 7, 10]),
                             min_size=alphabet.size, max_size=alphabet.size
                             ).filter(any))
    model = IIDProduct(alphabet=alphabet,
                       weights=tuple(r / sum(raw) for r in raw))
    sites = ball(Z1, 3).elements[:n_sites]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures_module, "_LAW_CHUNK", chunk)
        got = list(site_law(model, sites))
    want = list(_per_code_iid_law(model, sites))
    assert [(a, p.hex()) for a, p in got] == [(a, p.hex()) for a, p in want]
    assert all(type(s) is int for a, _ in got for s in a)


def test_target_marginal_budget_error_is_the_former_one(monkeypatch):
    iid = IIDProduct(alphabet=BIN, weights=(0.5, 0.5))
    per = lattice_periodic(BIN, [2], [0, 1])
    mix = Mixture(components=(per, iid), weights=(0.5, 0.5))
    b = ball(Z1, 3)
    monkeypatch.setattr(measures_module, "DEFAULT_ENUM_BUDGET", 100)
    for model in (iid, mix):
        with pytest.raises(EnumerationBudgetError) as err:
            target_marginal_on(model, Z1, 3)
        assert _outcome(lambda: _old_target_marginal_on(model, b, 100)) == \
            ("budget", str(err.value)) == \
            ("budget", "2^7 window patterns exceed budget 100; "
                       "lower the radius")
    # a periodic law is never over budget
    monkeypatch.setattr(measures_module, "DEFAULT_ENUM_BUDGET", 1)
    assert target_marginal_on(per, Z1, 3) == \
        _old_target_marginal_on(per, b, 1)


# ---------------------------------------------------------------------------
# le_diagnostic against a copy of its former per-vertex and per-sample loops
# ---------------------------------------------------------------------------


def _former_pushforward_key(model, image):
    if isinstance(model, IIDProduct):
        first = {}
        return ("iid", tuple(first.setdefault(u, len(first)) for u in image))
    if isinstance(model, PeriodicOrbit):
        return ("periodic", image)
    return ("mix", tuple(_former_pushforward_key(c, image)
                         for c in model.components))


def _former_le_diagnostic(model, sigmas, radius, eps, sample_count, seed):
    import math

    from sofic_spectra.measures import LeDiagnosticRow, sample_rng
    rows = []
    for size_index, sigma in enumerate(sigmas):
        target = target_marginal_on(model, sigma.group, radius)
        b = ball(sigma.group, radius)
        images = sigma.ball_images(b)
        cache = {}
        good_hits = 0
        n = sigma.n_vertices
        for v in range(n):
            image = tuple(int(images[i, v]) for i in range(len(b)))
            key = _former_pushforward_key(model, image)
            tv = cache.get(key)
            if tv is None:
                push = pushforward_on(model, sigma, b, list(image))
                tv = total_variation(push, target)
                cache[key] = tv
            if tv < eps:
                good_hits += 1
        hits = 0
        for j in range(sample_count):
            rho = sample_configuration(model, sigma,
                                       sample_rng(seed, size_index, j))
            if total_variation(
                    empirical_window_distribution(rho, sigma, radius),
                    target) < eps:
                hits += 1
        f = hits / sample_count
        half = 1.96 * math.sqrt(max(f * (1 - f), 1e-12) / sample_count)
        rows.append(LeDiagnosticRow(lw_fraction=good_hits / n,
                                    le_fraction=f, le_halfwidth=half))
    return rows


def _le_cases():
    from sofic_spectra.groups import free_group
    from sofic_spectra.sofic import random_permutation_approximation
    tri = Alphabet(symbols=("0", "1", "2"))
    iid = IIDProduct(alphabet=tri, weights=(0.5, 0.3, 0.2))
    per = lattice_periodic(tri, [3], [0, 1, 2])
    tori = [torus_approximation(1, n) for n in (3, 6, 12)]
    quot = lattice_quotient(1, [3])
    products = [product_with_quotient(torus_approximation(1, n), quot)
                for n in (2, 4)]
    on_quot = PeriodicOrbit(alphabet=tri, quotient=quot, pattern=(2, 0, 2))
    checker = lattice_periodic(BIN, [2, 2], [0, 1, 1, 0])
    coin = IIDProduct(alphabet=BIN, weights=(0.6, 0.4))
    both = (1, 2)
    cyclic = (0, 1, 2, 1, 2, 2, 2, 0, 0)
    return [
        (per, tori, both), (iid, tori, both),
        (Mixture(components=(iid, per, per), weights=(0.5, 0.25, 0.25)),
         tori, both),
        (on_quot, products, both), (iid, products, both),
        (Mixture(components=(on_quot, iid), weights=(0.7, 0.3)), products,
         both),
        (Mixture(components=(checker, coin), weights=(0.5, 0.5)),
         [torus_approximation(2, n) for n in (2, 4)], both),
        (coin, [torus_approximation(1, n) for n in (16, 48)], both),
        # the free-group ball of radius 2 has 17 elements, too many to
        # enumerate the target marginal quickly
        (coin, [random_permutation_approximation(2, n, seed=n)
                for n in (5, 9)], (1,)),
        # Z^2 balls of 41 and 61 elements on 3 symbols: 3^|B| > 2^62, so
        # the window codes are rank-compressed on the way
        (Mixture(components=(lattice_periodic(tri, [3, 3], cyclic),
                             lattice_periodic(tri, [3, 3], cyclic[::-1])),
                 weights=(0.8, 0.2)),
         [torus_approximation(2, n) for n in (3, 6)], (4, 5)),
    ]


@pytest.mark.parametrize("case", range(10))
def test_le_diagnostic_matches_the_former_loops(case):
    model, sigmas, radii = _le_cases()[case]
    for radius in radii:
        for eps in (0.05, 0.15, 0.3):
            args = (model, sigmas, radius, eps)
            assert le_diagnostic(*args, sample_count=24, seed=4) == \
                _former_le_diagnostic(*args, sample_count=24, seed=4)


@settings(max_examples=60, deadline=None)
@example(rows=80, n=40, top=2, seed=0)
@given(rows=st.integers(0, 80), n=st.integers(1, 40),
       top=st.sampled_from([0, 1, 2, 6, 2**20]), seed=st.integers(0, 2**16))
def test_distinct_columns_match_a_dict_of_tuples(rows, n, top, seed):
    # 3^80 and (2^20 + 1)^4 exceed 2^62, so those codes are rank-compressed
    from sofic_spectra.measures import _distinct_columns
    rng = np.random.default_rng(seed)
    # columns drawn from a small pool, so most of them repeat
    pool = rng.integers(0, top + 1, size=(rows, 6))
    vals = pool[:, rng.integers(6, size=n)]
    first, counts = _distinct_columns(vals)
    ref: dict = {}
    for v, col in enumerate(map(tuple, vals.T.tolist())):
        ref.setdefault(col, [v, 0])[1] += 1
    # code order, row 0 least significant: the reversed columns ascending
    order = sorted(ref, key=lambda col: col[::-1])
    assert first.tolist() == [ref[col][0] for col in order]
    assert counts.tolist() == [ref[col][1] for col in order]


# ---------------------------------------------------------------------------
# the translate table of a periodic law against the former per-call code
# ---------------------------------------------------------------------------


def _former_translate_pattern(model, t):
    moduli = model.quotient.moduli
    return tuple(model.pattern[_walk(moduli, _mixed_radix(c, moduli), t)]
                 for c in range(model.quotient.size))


def _former_cosets(model, box, n_vertices):
    """The coset of each vertex of a model whose vertex v carries the point
    of the given box with index v mod |box|, reached along the canonical
    word of that point."""
    size = math.prod(box)
    return [_walk(model.quotient.moduli, _mixed_radix(v % size, box))
            for v in range(n_vertices)]


@pytest.mark.parametrize("periods, pattern", [
    ((2,), (0, 1)), ((3,), (1, 0, 2)), ((2, 3), (0, 1, 1, 2, 0, 0)),
    ((5,), (2, 0, 1, 1, 0)), ((3, 2), (2, 1, 0, 0, 1, 1)),
    ((2, 2, 3), (0, 1, 2, 2, 1, 0, 0, 0, 1, 2, 2, 1))])
def test_translate_table_matches_the_former_per_call_code(periods, pattern):
    from sofic_spectra.measures import _periodic_base_values, \
        _periodic_translates
    model = lattice_periodic(Alphabet(symbols=("a", "b", "c")), periods,
                             pattern)
    q = model.quotient.size
    table = model.translate_table
    assert table is model.translate_table and not table.flags.writeable
    assert table.shape == (q, q)
    former = [_former_translate_pattern(model, t) for t in range(q)]
    assert table.tolist() == [list(p) for p in former]
    d = len(periods)
    sides = [n for n in ((5, 6, 10, 12) if d == 1 else (6,))
             if all(n % m == 0 for m in periods)]
    # a product whose moduli are the periods or multiples of them
    cases = [((n,) * d, torus_approximation(d, n)) for n in sides] + \
        [(moduli, product_with_quotient(torus_approximation(d, n),
                                        lattice_quotient(d, moduli)))
         for n in sides[:1] + [2]
         for moduli in (periods, tuple(2 * m for m in periods))]
    for box, sigma in cases:
        assert sigma.box == box
        cosets = _former_cosets(model, box, sigma.n_vertices)
        rows = _periodic_translates(model, sigma)[id(model)]
        for t in range(q):
            want = np.array(former[t], dtype=np.int64)[cosets]
            got = _periodic_base_values(model, sigma, t)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(rows[t], want)
