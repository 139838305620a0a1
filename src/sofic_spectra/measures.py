"""Invariant laws on configuration spaces and their finite-volume counterparts.

Three model families: i.i.d. product laws, periodic-orbit laws (uniform on
the orbit of a pattern that factors through a finite quotient) and convex
mixtures.  Each model knows how to sample finite configurations on a
compatible sofic approximation, how to compute exact radius-R cylinder
marginals, and how to push a finite-model law forward through a vertex map
while identifying collided coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .groups import CayleyBall, GroupSpec, PatternWindow, ball
from .sofic import (
    FiniteQuotient,
    SoficApproximation,
    SoficCompatibilityError,
    lattice_quotient,
)

DEFAULT_ENUM_BUDGET = 10**6
# codes per block of an i.i.d. site-law enumeration
_LAW_CHUNK = 1 << 16

WEIGHT_TOL = 1e-12


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget.

    Callers that can tolerate sampling error should retry in Monte Carlo mode.
    """


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


def binary_alphabet() -> Alphabet:
    return Alphabet(symbols=("0", "1"))


@dataclass
class Configuration:
    """Symbol indices per vertex of a finite model."""

    values: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IIDProduct:
    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.alphabet.size:
            raise ValueError("one weight per symbol required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class PeriodicOrbit:
    """Uniform law on the orbit of a pattern factoring through G -> G/N.

    ``pattern[c]`` is the symbol index on coset c of the quotient.  For
    lattices the quotient is the box (Z/m_1) x ... x (Z/m_d) with coordinate 0
    least significant in the coset index.
    """

    alphabet: Alphabet
    quotient: FiniteQuotient
    pattern: tuple
    periods: Optional[tuple] = None   # set for lattice models

    def __post_init__(self):
        if len(self.pattern) != self.quotient.size:
            raise ValueError("pattern must cover every coset")
        if any(not (0 <= int(p) < self.alphabet.size) for p in self.pattern):
            raise ValueError("pattern symbols out of alphabet range")

    @functools.cached_property
    def translate_table(self) -> np.ndarray:
        """Read-only (q, q) array whose row t is the pattern of the
        t-translate: its value at coset c is pattern[q^rep_c(t)]."""
        perms = np.asarray(self.quotient.perms, dtype=np.int64)
        act = []                                # act[c][t] = q^rep_c(t)
        for word in self.quotient.representative_words():
            perm = np.arange(self.quotient.size)
            for letter in reversed(word):
                perm = perms[letter][perm]
            act.append(perm)
        table = np.asarray(self.pattern, dtype=np.int64)[np.array(act).T]
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class Mixture:
    components: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError("mixture weights must sum to 1")


MeasureModel = Union[IIDProduct, PeriodicOrbit, Mixture]


def lattice_periodic(alphabet: Alphabet, periods: Sequence[int],
                     pattern: Sequence[int]) -> PeriodicOrbit:
    """Periodic model on Z^d with a diagonal period lattice."""
    d = len(periods)
    quotient = lattice_quotient(d, periods)
    return PeriodicOrbit(alphabet=alphabet, quotient=quotient,
                         pattern=tuple(int(p) for p in pattern),
                         periods=tuple(int(m) for m in periods))


def model_alphabet(model: MeasureModel) -> Alphabet:
    if isinstance(model, Mixture):
        alpha = model_alphabet(model.components[0])
        if any(model_alphabet(c) != alpha for c in model.components):
            raise ValueError("mixture components disagree on the alphabet")
        return alpha
    return model.alphabet


def _periodic_parts(model: MeasureModel) -> list:
    """The periodic laws a model is made of, mixture components unfolded."""
    if isinstance(model, Mixture):
        return [p for c in model.components for p in _periodic_parts(c)]
    return [model] if isinstance(model, PeriodicOrbit) else []


def periodic_groups(model: MeasureModel) -> list:
    """Groups of the finite quotients that the periodic parts of a model use."""
    return [p.quotient.group for p in _periodic_parts(model)]


# ---------------------------------------------------------------------------
# Site laws and sampling
# ---------------------------------------------------------------------------


def site_law(model: MeasureModel, sites: list):
    """Yield (symbol assignment tuple, probability) of the infinite-volume law
    on the given sites: i.i.d. assignments in base-A code order, site 0 least
    significant; one per periodic translate, repeats included."""
    if isinstance(model, IIDProduct):
        A = model.alphabet.size
        weights = np.asarray(model.weights, dtype=float)
        n_codes = A ** len(sites)
        for lo in range(0, n_codes, _LAW_CHUNK):
            digits = _digits(np.arange(lo, min(lo + _LAW_CHUNK, n_codes)), A,
                             len(sites))
            # site by site, so each product rounds as 1.0 * w_0 * w_1 * ...
            probs = np.ones(digits.shape[1])
            for row in digits:
                probs *= weights[row]
            keep = probs > 0
            yield from zip(map(tuple, digits[:, keep].T.tolist()),
                           probs[keep].tolist())
        return
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        # value of the t-translate at site g is pattern[q^g(t)]
        perms = [model.quotient.act_perm(g) for g in sites]
        for t in range(q):
            yield tuple(model.pattern[perm[t]] for perm in perms), 1.0 / q
        return
    if isinstance(model, Mixture):
        for comp, w in zip(model.components, model.weights):
            for assign, p in site_law(comp, sites):
                yield assign, w * p
        return
    raise TypeError(f"unknown model {type(model)!r}")


def site_law_size(model: MeasureModel, n_sites: int) -> int:
    """How many assignments site_law enumerates on n_sites sites: A^sites
    for an i.i.d. law, q translates for a periodic one, summed over the
    components of a mixture."""
    if isinstance(model, Mixture):
        return sum(site_law_size(c, n_sites) for c in model.components)
    if isinstance(model, PeriodicOrbit):
        return model.quotient.size
    return model.alphabet.size ** n_sites


def sample_sites(model: MeasureModel, sites: list,
                 rng: np.random.Generator) -> tuple:
    """One assignment over the given sites drawn from site_law's law."""
    if isinstance(model, IIDProduct):
        return tuple(rng.choice(model.alphabet.size, size=len(sites),
                                p=np.asarray(model.weights)).tolist())
    if isinstance(model, PeriodicOrbit):
        t = int(rng.integers(model.quotient.size))
        return tuple(model.pattern[model.quotient.act_perm(g)[t]]
                     for g in sites)
    if isinstance(model, Mixture):
        kk = rng.choice(len(model.components), p=np.asarray(model.weights))
        return sample_sites(model.components[kk], sites, rng)
    raise TypeError(f"unknown model {type(model)!r}")


def sample_rng(master_seed: int, size_index: int,
               sample_index: int) -> np.random.Generator:
    """The stream of sample j at size i: every sampled run draws from it."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(size_index, sample_index)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_configuration(model: MeasureModel, sigma: SoficApproximation,
                         seed) -> Configuration:
    """One configuration of the finite-model law on sigma's vertex set."""
    rng = _as_rng(seed)
    return Configuration(values=_sample_values(model, sigma, rng))


def _sample_values(model: MeasureModel, sigma: SoficApproximation,
                   rng: np.random.Generator) -> np.ndarray:
    n = sigma.n_vertices
    if isinstance(model, IIDProduct):
        return rng.choice(model.alphabet.size, size=n, p=np.asarray(model.weights))
    if isinstance(model, Mixture):
        k = rng.choice(len(model.components), p=np.asarray(model.weights))
        return _sample_values(model.components[k], sigma, rng)
    # periodic: uniformly random translate of the fundamental pattern
    t = int(rng.integers(model.quotient.size))
    return _periodic_base_values(model, sigma, t)


def _periodic_translates(model: MeasureModel,
                         sigma: SoficApproximation) -> dict:
    """id(part) -> (q, n) array whose row t is the t-translate on sigma, for
    each periodic part of the model."""
    return {id(p): p.translate_table[:, _cosets(p, sigma)]
            for p in _periodic_parts(model)}


def _periodic_base_values(model: PeriodicOrbit, sigma: SoficApproximation,
                          t: int) -> np.ndarray:
    """Configuration of the t-translate of the periodic pattern on sigma."""
    return model.translate_table[t][_cosets(model, sigma)]


def _cosets(model: PeriodicOrbit, sigma: SoficApproximation) -> np.ndarray:
    """The quotient coset of each vertex of sigma."""
    if sigma.provenance == "torus" and model.periods is not None:
        d = sigma.meta["d"]
        n = sigma.meta["n"]
        if len(model.periods) != d:
            raise SoficCompatibilityError("period dimension mismatch")
        if any(n % m != 0 for m in model.periods):
            raise SoficCompatibilityError(
                f"torus side {n} is not a multiple of the periods {model.periods}")
        # coordinate 0 is the least significant, of vertices and of cosets
        coords = np.unravel_index(np.arange(sigma.n_vertices), (n,) * d,
                                  order="F")
        return np.ravel_multi_index(
            [c % m for c, m in zip(coords, model.periods)], model.periods,
            order="F")
    if sigma.provenance == "product_with_quotient":
        if sigma.meta.get("quotient") != model.quotient:
            raise SoficCompatibilityError(
                "sofic model was built with a different quotient than the measure")
        # vertex (v, c) is v * q + c
        return np.arange(sigma.n_vertices) % model.quotient.size
    raise SoficCompatibilityError(
        f"periodic model incompatible with sofic approximation "
        f"of provenance {sigma.provenance!r}")


# ---------------------------------------------------------------------------
# Windows and distributions
# ---------------------------------------------------------------------------


def pullback_window(rho: Configuration, sigma: SoficApproximation, v: int,
                    radius: int) -> PatternWindow:
    """Window g -> rho(sigma^g(v)) on the Cayley ball, canonical order."""
    b = ball(sigma.group, radius)
    vals = tuple(int(rho.values[sigma.perm_of(g)[v]]) for g in b.elements)
    return PatternWindow(radius=radius, values=vals)


@dataclass
class WindowDistribution:
    """Probabilities over radius-R patterns (tuples of symbol indices)."""

    radius: int
    probs: dict
    counts: Optional[dict] = None

    def tv(self, other: "WindowDistribution") -> float:
        keys = set(self.probs) | set(other.probs)
        return 0.5 * sum(abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0))
                         for k in keys)


def empirical_window_distribution(rho: Configuration, sigma: SoficApproximation,
                                  radius: int) -> WindowDistribution:
    """Frequencies of the vertex-rooted pullback windows (exact counts)."""
    vals = rho.values[sigma.ball_images(ball(sigma.group, radius))]
    return _window_distribution(vals, radius, _window_histogram(vals))


def _window_histogram(vals: np.ndarray):
    """(base, distinct window codes ascending, their counts) of the window
    columns of vals (|B|, n), in base max value + 1; None when a code could
    reach 2^62."""
    base = int(vals.max()) + 1 if vals.size else 1
    if base ** len(vals) >= 2**62:
        return None
    weights = base ** np.arange(len(vals), dtype=np.int64)
    codes = (vals.astype(np.int64) * weights[:, None]).sum(axis=0)
    return (base, *np.unique(codes, return_counts=True))


def _window_distribution(vals: np.ndarray, radius: int,
                         histogram) -> WindowDistribution:
    size, n = vals.shape
    counts: dict = {}
    if histogram is not None:
        base, uniq, cnt = histogram
        counts = dict(zip(map(tuple, _digits(uniq, base, size).T.tolist()),
                          cnt.tolist()))
    else:
        for v in range(n):
            pat = tuple(int(x) for x in vals[:, v])
            counts[pat] = counts.get(pat, 0) + 1
    probs = {pat: c / n for pat, c in counts.items()}
    return WindowDistribution(radius=radius, probs=probs, counts=counts)


def target_marginal_on(model: MeasureModel, group: GroupSpec, radius: int,
                       budget: int = DEFAULT_ENUM_BUDGET) -> WindowDistribution:
    """Exact radius-R cylinder marginal of the infinite-volume law: site_law
    merged per pattern over the ball, a mixture weighting the merged
    marginals of its components."""
    b = ball(group, radius)
    probs: dict = {}
    if isinstance(model, Mixture):
        for comp, w in zip(model.components, model.weights):
            sub = target_marginal_on(comp, group, radius, budget)
            for pat, p in sub.probs.items():
                probs[pat] = probs.get(pat, 0.0) + w * p
        return WindowDistribution(radius=b.radius, probs=probs)
    A = model.alphabet.size
    if isinstance(model, IIDProduct) and A ** len(b) > budget:
        raise EnumerationBudgetError(
            f"{A}^{len(b)} patterns exceed budget {budget}; "
            "use Monte Carlo estimation instead")
    for pat, p in site_law(model, b.elements):
        probs[pat] = probs.get(pat, 0.0) + p
    return WindowDistribution(radius=b.radius, probs=probs)


def _digits(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """Digit matrix D[pos, code] of base-`base` expansions."""
    out = np.empty((length, len(codes)), dtype=np.int64)
    c = codes.copy()
    for pos in range(length):
        out[pos] = c % base
        c //= base
    return out


# ---------------------------------------------------------------------------
# Pushforward of the finite-model law through a vertex map
# ---------------------------------------------------------------------------


def pushforward_window_distribution(model: MeasureModel,
                                    sigma: SoficApproximation, v: int,
                                    radius: int,
                                    budget: int = DEFAULT_ENUM_BUDGET
                                    ) -> WindowDistribution:
    """Exact law of the radius-R window of Pi_v under the finite-model law.

    Collisions sigma^g(v) = sigma^h(v) identify the coordinates g and h, so
    the pushforward is supported on patterns constant on collision classes.
    """
    b = ball(sigma.group, radius)
    image = [int(sigma.perm_of(g)[v]) for g in b.elements]
    return _pushforward_on(model, b, image, budget,
                           _periodic_translates(model, sigma))


def _pushforward_on(model: MeasureModel, b: CayleyBall, image: list[int],
                    budget: int, translates: dict) -> WindowDistribution:
    """translates is _periodic_translates of the model on the finite model."""
    if isinstance(model, IIDProduct):
        classes: dict[int, list[int]] = {}
        for pos, u in enumerate(image):
            classes.setdefault(u, []).append(pos)
        reps = list(classes.values())
        A = model.alphabet.size
        if A ** len(reps) > budget:
            raise EnumerationBudgetError("pushforward enumeration over budget")
        probs: dict = {}
        pat = [0] * len(b)
        # one i.i.d. symbol per collision class
        for assign, p in site_law(model, reps):
            for cls, s in zip(reps, assign):
                for pos in cls:
                    pat[pos] = s
            key = tuple(pat)
            probs[key] = probs.get(key, 0.0) + p
        return WindowDistribution(radius=b.radius, probs=probs)
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        probs = {}
        for pat in translates[id(model)][:, image].tolist():
            pat = tuple(pat)
            probs[pat] = probs.get(pat, 0.0) + 1.0 / q
        return WindowDistribution(radius=b.radius, probs=probs)
    if isinstance(model, Mixture):
        probs = {}
        for comp, w in zip(model.components, model.weights):
            sub = _pushforward_on(comp, b, image, budget, translates)
            for pat, p in sub.probs.items():
                probs[pat] = probs.get(pat, 0.0) + w * p
        return WindowDistribution(radius=b.radius, probs=probs)
    raise TypeError(f"unknown model {type(model)!r}")


# ---------------------------------------------------------------------------
# lw*/le diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LeDiagnosticRow:
    n: int
    radius: int
    eps: float
    lw_fraction: float
    le_fraction: float
    le_halfwidth: float


def le_diagnostic(target_model: MeasureModel,
                  sigmas: Sequence[SoficApproximation],
                  radius: int, eps: float, sample_count: int = 200,
                  seed: int = 0,
                  finite_model: Optional[MeasureModel] = None,
                  budget: int = DEFAULT_ENUM_BUDGET) -> list[LeDiagnosticRow]:
    """Locally-weak* and local-empirical convergence statistics per size.

    lw*: exact fraction of vertices whose pushforward marginal (of the finite
    law, collisions identified) is within eps in total variation of the
    target marginal.  le: Monte Carlo fraction of sampled configurations
    whose empirical window distribution is within eps of the target, with a
    95% binomial half-width.  ``finite_model`` defaults to the target law.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if finite_model is None:
        finite_model = target_model
    rows = []
    for size_index, sigma in enumerate(sigmas):
        target = target_marginal_on(target_model, sigma.group, radius, budget)
        b = ball(sigma.group, radius)
        images = sigma.ball_images(b)
        translates = _periodic_translates(finite_model, sigma)
        n = sigma.n_vertices
        # the pushforward at v is a function of its key column, so it is
        # computed once per distinct column, at the column's first vertex
        keys = _pushforward_keys(finite_model, images, translates)
        _, first, mult = np.unique(keys.T, axis=0, return_index=True,
                                   return_counts=True)
        good_hits = 0
        for v, m in zip(first.tolist(), mult.tolist()):
            push = _pushforward_on(finite_model, b, images[:, v].tolist(),
                                   budget, translates)
            if push.tv(target) < eps:
                good_hits += m
        lw_fraction = good_hits / n
        # the window distribution is a function of the window-code
        # histogram, so samples with equal histograms share one TV
        tv_of: dict = {}
        hits = 0
        for j in range(sample_count):
            rho = sample_configuration(finite_model, sigma,
                                       sample_rng(seed, size_index, j))
            vals = rho.values[images]
            histogram = _window_histogram(vals)
            key = None if histogram is None else (
                histogram[0], histogram[1].tobytes(), histogram[2].tobytes())
            tv = tv_of.get(key)
            if tv is None:
                tv = _window_distribution(vals, radius, histogram).tv(target)
                if key is not None:
                    tv_of[key] = tv
            if tv < eps:
                hits += 1
        f = hits / sample_count
        half = 1.96 * math.sqrt(max(f * (1 - f), 1e-12) / sample_count)
        rows.append(LeDiagnosticRow(n=n, radius=radius, eps=eps,
                                    lw_fraction=lw_fraction,
                                    le_fraction=f, le_halfwidth=half))
    return rows


def _pushforward_keys(model: MeasureModel, images: np.ndarray,
                      translates: dict) -> np.ndarray:
    """Rows whose column v determines the pushforward at vertex v: for an
    i.i.d. law the collision partition of the ball image (row i holds the
    first ball position with the same image as position i), for a periodic
    law the window of every translate, for a mixture its components' rows."""
    if isinstance(model, IIDProduct):
        first = np.empty_like(images)
        for i in range(len(images)):
            first[i] = np.argmax(images[:i + 1] == images[i], axis=0)
        return first
    if isinstance(model, PeriodicOrbit):
        return translates[id(model)][:, images].reshape(-1, images.shape[1])
    if isinstance(model, Mixture):
        return np.vstack([_pushforward_keys(c, images, translates)
                          for c in model.components])
    raise TypeError(f"unknown model {type(model)!r}")
