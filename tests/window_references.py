"""Dict-based references for windows and window laws, one vertex at a time.

Not a test module; the test modules import it by name.  The vectorized
paths of ``measures.le_diagnostic`` are checked against these, so nothing
here calls a private helper of ``le_diagnostic``.
"""

from collections import Counter
from dataclasses import dataclass

from sofic_spectra.groups import ball
from sofic_spectra.measures import (
    DEFAULT_ENUM_BUDGET,
    EnumerationBudgetError,
    IIDProduct,
    PeriodicOrbit,
    WindowDistribution,
    _periodic_base_values,
)


@dataclass(frozen=True)
class PatternWindow:
    """Symbols on a Cayley ball, stored in the canonical ball order."""

    radius: int
    values: tuple


def translate_window(group, g, window: PatternWindow,
                     radius: int) -> PatternWindow:
    """Restrict the shifted configuration g.w to B_S(e, radius).

    The input window must live on B_S(e, radius + |g|); the result value at h
    is the input value at h*g, matching the right-translation shift action.
    """
    need = radius + group.word_length(g)
    if window.radius < need:
        raise ValueError(
            f"window radius {window.radius} insufficient, need {need}")
    big = ball(group, window.radius)
    small = ball(group, radius)
    vals = tuple(window.values[big.index(group.multiply(h, g))]
                 for h in small.elements)
    return PatternWindow(radius=radius, values=vals)


def pullback_window(rho, sigma, v: int, radius: int) -> PatternWindow:
    """Window g -> rho(sigma^g(v)) on the Cayley ball, canonical order."""
    b = ball(sigma.group, radius)
    vals = tuple(int(rho.values[sigma.perm_of(g)[v]]) for g in b.elements)
    return PatternWindow(radius=radius, values=vals)


def window_counts(rho, sigma, radius: int) -> Counter:
    """How many vertices root each pullback window."""
    return Counter(pullback_window(rho, sigma, v, radius).values
                   for v in range(sigma.n_vertices))


def empirical_window_distribution(rho, sigma,
                                  radius: int) -> WindowDistribution:
    """Frequencies of the vertex-rooted pullback windows."""
    n = sigma.n_vertices
    return WindowDistribution(radius=radius, probs={
        pat: c / n for pat, c in window_counts(rho, sigma, radius).items()})


def decode(code: int, base: int, length: int) -> tuple:
    """Base-`base` digits of code, least significant first."""
    out = []
    for _ in range(length):
        out.append(code % base)
        code //= base
    return tuple(out)


def pushforward_on(model, sigma, b, image: list,
                   budget: int = DEFAULT_ENUM_BUDGET) -> WindowDistribution:
    """Law of the pattern u -> rho(image[u]) on the ball b under the
    finite-model law on sigma: one i.i.d. symbol per collision class, or one
    periodic translate at a time."""
    if isinstance(model, IIDProduct):
        classes = {}
        for pos, u in enumerate(image):
            classes.setdefault(u, []).append(pos)
        reps = list(classes.values())
        A = model.alphabet.size
        if A ** len(reps) > budget:
            raise EnumerationBudgetError("pushforward enumeration over budget")
        probs = {}
        pat = [0] * len(b)
        for code in range(A ** len(reps)):
            assign = decode(code, A, len(reps))
            p = 1.0
            for s in assign:
                p *= model.weights[s]
            if p == 0:
                continue
            for cls, s in zip(reps, assign):
                for pos in cls:
                    pat[pos] = s
            key = tuple(pat)
            probs[key] = probs.get(key, 0.0) + p
        return WindowDistribution(radius=b.radius, probs=probs)
    if isinstance(model, PeriodicOrbit):
        q = model.quotient.size
        probs = {}
        for t in range(q):
            rho = _periodic_base_values(model, sigma, t)
            pat = tuple(int(rho[u]) for u in image)
            probs[pat] = probs.get(pat, 0.0) + 1.0 / q
        return WindowDistribution(radius=b.radius, probs=probs)
    probs = {}
    for comp, w in zip(model.components, model.weights):
        sub = pushforward_on(comp, sigma, b, image, budget)
        for pat, p in sub.probs.items():
            probs[pat] = probs.get(pat, 0.0) + w * p
    return WindowDistribution(radius=b.radius, probs=probs)


def pushforward_window_distribution(model, sigma, v: int,
                                    radius: int) -> WindowDistribution:
    """Exact law of the radius-R window of Pi_v under the finite-model law.

    Collisions sigma^g(v) = sigma^h(v) identify the coordinates g and h, so
    the pushforward is supported on patterns constant on collision classes.
    """
    b = ball(sigma.group, radius)
    image = [int(sigma.perm_of(g)[v]) for g in b.elements]
    return pushforward_on(model, sigma, b, image)
