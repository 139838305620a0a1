"""Invariant laws on configuration spaces and their finite-volume counterparts.

Three model families: i.i.d. product laws, periodic-orbit laws (uniform on
the orbit of a pattern that factors through a finite quotient of Z^d) and
convex mixtures.  A finite configuration is an integer array of symbol
indices, one per vertex.  Each model samples configurations on a compatible
sofic approximation (one whose lattice box the periods divide) from a numpy
Generator, and pushes its law forward through a map of ball positions to
sites, positions with one image collided.  The exact radius-R
cylinder marginal of the infinite-volume law is that pushforward onto the
ball's own sites, which never collide; the finite-model law is pushed
through each vertex's ball image.  An i.i.d. pushforward enumerates at most
DEFAULT_ENUM_BUDGET window patterns.  A window law is a dict from pattern
(the tuple of symbol indices in ball order) to probability, and
``total_variation`` is the distance the lw*/le diagnostic compares.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .groups import GroupSpec, ball
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

    Every oracle here is exact, so the caller must ask for less: a smaller
    radius or moment order, or a law with fewer assignments.
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


def binary_alphabet() -> Alphabet:
    return Alphabet(symbols=("0", "1"))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IIDProduct:
    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        # a tuple keeps the model hashable: the moment oracle caches by model
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.alphabet.size:
            raise ValueError("one weight per symbol required")
        # NaN would pass both checks below
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class PeriodicOrbit:
    """Uniform law on the orbit of a pattern factoring through Z^d -> Z^d/L:
    ``pattern[c]`` is the symbol index on coset c of the quotient's box."""

    alphabet: Alphabet
    quotient: FiniteQuotient
    pattern: tuple

    def __post_init__(self):
        for p in self.pattern:
            if (isinstance(p, bool) or not isinstance(p, numbers.Integral)
                    or not 0 <= p < self.alphabet.size):
                raise ValueError(f"pattern symbol {p!r} is not an integer "
                                 f"in 0..{self.alphabet.size - 1}")
        object.__setattr__(self, "pattern", tuple(int(p) for p in self.pattern))
        if len(self.pattern) != self.quotient.size:
            raise ValueError("pattern must cover every coset")

    @functools.cached_property
    def translate_table(self) -> np.ndarray:
        """Read-only (q, q) array whose row t is the pattern of the
        t-translate: its value at coset c is pattern[coset of t + c]."""
        x = self.quotient.coordinates
        table = np.asarray(self.pattern, dtype=np.int64)[
            self.quotient.coset_of(x[:, :, None] + x[:, None, :])]
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class Mixture:
    components: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("mixture weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError("mixture weights must sum to 1")


MeasureModel = Union[IIDProduct, PeriodicOrbit, Mixture]


def lattice_periodic(alphabet: Alphabet, periods: Sequence[int],
                     pattern: Sequence[int]) -> PeriodicOrbit:
    """Periodic model on Z^d with a diagonal period lattice."""
    return PeriodicOrbit(alphabet, lattice_quotient(len(periods), periods),
                         tuple(pattern))


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


def sample_rng(master_seed: int, size_index: int,
               sample_index: int) -> np.random.Generator:
    """The stream of sample j at size i: every sampled run draws from it."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(size_index, sample_index)))


def sample_configuration(model: MeasureModel, sigma: SoficApproximation,
                         rng: np.random.Generator) -> np.ndarray:
    """One configuration of the finite-model law on sigma's vertex set, the
    symbol index of each vertex, drawn from rng (sample_ensemble passes
    sample_rng of its sample): a mixture draws its component first."""
    while isinstance(model, Mixture):
        model = model.components[
            rng.choice(len(model.components), p=np.asarray(model.weights))]
    if isinstance(model, IIDProduct):
        return rng.choice(model.alphabet.size, size=sigma.n_vertices,
                          p=np.asarray(model.weights))
    # periodic: uniformly random translate of the fundamental pattern
    return _periodic_base_values(model, sigma,
                                 int(rng.integers(model.quotient.size)))


def sample_ensemble(model: MeasureModel, sigmas: Sequence[SoficApproximation],
                    seed: int, count: int):
    """Per size i, sigma and a generator of its count configurations, sample j
    drawn from sample_rng(seed, i, j): the one loop of every sampled run."""
    def samples(size_index, sigma):
        for j in range(count):
            yield sample_configuration(model, sigma,
                                       sample_rng(seed, size_index, j))
    return ((sigma, samples(i, sigma)) for i, sigma in enumerate(sigmas))


def _periodic_translates(model: MeasureModel,
                         sigma: SoficApproximation) -> dict:
    """id(part) -> (q, n) array whose row t is the t-translate on sigma, for
    each periodic part of the model."""
    return {id(p): p.translate_table[:, _cosets(p.quotient, sigma)]
            for p in _periodic_parts(model)}


def _periodic_base_values(model: PeriodicOrbit, sigma: SoficApproximation,
                          t: int) -> np.ndarray:
    """The configuration of the t-translate of the periodic pattern on sigma."""
    return model.translate_table[t][_cosets(model.quotient, sigma)]


def check_fits(model: MeasureModel, sigma: SoficApproximation) -> None:
    """Raise SoficCompatibilityError unless every periodic part of the model
    factors through sigma's vertices, as sampling on sigma needs."""
    for part in _periodic_parts(model):
        _cosets(part.quotient, sigma)


def _cosets(quotient: FiniteQuotient,
            sigma: SoficApproximation) -> np.ndarray:
    """The quotient coset of each vertex of sigma: the point of sigma's box
    that the vertex carries, reduced mod the periods."""
    box, periods = sigma.box, quotient.moduli
    if box is None or len(box) != len(periods):
        raise SoficCompatibilityError(f"periods {periods} need a sofic model "
                                      f"with a lattice box, not box {box}")
    for side, m in zip(box, periods):
        if side % m:
            raise SoficCompatibilityError(
                f"torus side {side} is not a multiple of the periods {periods}")
    return quotient.coset_of(np.unravel_index(
        np.arange(sigma.n_vertices) % math.prod(box), box, order="F"))


# ---------------------------------------------------------------------------
# Windows and distributions
# ---------------------------------------------------------------------------


def total_variation(p: dict, q: dict) -> float:
    """Total variation distance of two window laws (pattern -> probability)."""
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0))
                     for k in set(p) | set(q))


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


def _window_distribution(vals: np.ndarray, histogram) -> dict:
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
    return {pat: c / n for pat, c in counts.items()}


def target_marginal_on(model: MeasureModel, group: GroupSpec,
                       radius: int) -> dict:
    """Exact radius-R cylinder marginal of the infinite-volume law: the
    pushforward onto the ball's own sites, where no two positions collide;
    a periodic part reads its translates at the cosets of the ball points."""
    b = ball(group, radius)
    translates = {id(p): p.translate_table[
        :, p.quotient.coset_of(np.array(b.elements, dtype=np.int64).T)]
        for p in _periodic_parts(model)}
    return _pushforward_on(model, list(range(len(b))), translates)


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


def _pushforward_on(model: MeasureModel, image: list[int],
                    translates: dict) -> dict:
    """Law of the pattern whose ball position i reads site image[i]:
    positions with one image collide.  translates maps each periodic part
    to its (q, sites) array of translates (_periodic_translates)."""
    if isinstance(model, IIDProduct):
        classes: dict[int, list[int]] = {}
        for pos, u in enumerate(image):
            classes.setdefault(u, []).append(pos)
        reps = list(classes.values())
        A = model.alphabet.size
        if A ** len(reps) > DEFAULT_ENUM_BUDGET:
            raise EnumerationBudgetError(
                f"{A}^{len(reps)} window patterns exceed budget "
                f"{DEFAULT_ENUM_BUDGET}; lower the radius")
        probs: dict = {}
        pat = [0] * len(image)
        # one i.i.d. symbol per collision class
        for assign, p in site_law(model, reps):
            for cls, s in zip(reps, assign):
                for pos in cls:
                    pat[pos] = s
            key = tuple(pat)
            probs[key] = probs.get(key, 0.0) + p
        return probs
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        probs = {}
        for pat in translates[id(model)][:, image].tolist():
            pat = tuple(pat)
            probs[pat] = probs.get(pat, 0.0) + 1.0 / q
        return probs
    if isinstance(model, Mixture):
        probs = {}
        for comp, w in zip(model.components, model.weights):
            sub = _pushforward_on(comp, image, translates)
            for pat, p in sub.items():
                probs[pat] = probs.get(pat, 0.0) + w * p
        return probs
    raise TypeError(f"unknown model {type(model)!r}")


# ---------------------------------------------------------------------------
# lw*/le diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LeDiagnosticRow:
    lw_fraction: float
    le_fraction: float
    le_halfwidth: float


def le_diagnostic(target_model: MeasureModel,
                  sigmas: Sequence[SoficApproximation],
                  radius: int, eps: float, sample_count: int, seed: int,
                  finite_model: Optional[MeasureModel] = None
                  ) -> list[LeDiagnosticRow]:
    """Locally-weak* and local-empirical convergence statistics per size.

    lw*: exact fraction of vertices whose pushforward marginal (of the finite
    law, collisions identified) is within eps in total variation of the
    target marginal.  le: Monte Carlo fraction of sample_ensemble draws
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
    for sigma, samples in sample_ensemble(finite_model, sigmas, seed,
                                          sample_count):
        target = target_marginal_on(target_model, sigma.group, radius)
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
            push = _pushforward_on(finite_model, images[:, v].tolist(),
                                   translates)
            if total_variation(push, target) < eps:
                good_hits += m
        lw_fraction = good_hits / n
        # the window distribution is a function of the window-code
        # histogram, so samples with equal histograms share one TV
        tv_of: dict = {}
        hits = 0
        for rho in samples:
            vals = rho[images]
            histogram = _window_histogram(vals)
            key = None if histogram is None else (
                histogram[0], histogram[1].tobytes(), histogram[2].tobytes())
            tv = tv_of.get(key)
            if tv is None:
                tv = total_variation(_window_distribution(vals, histogram),
                                     target)
                if key is not None:
                    tv_of[key] = tv
            if tv < eps:
                hits += 1
        f = hits / sample_count
        half = 1.96 * math.sqrt(max(f * (1 - f), 1e-12) / sample_count)
        rows.append(LeDiagnosticRow(lw_fraction=lw_fraction,
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
