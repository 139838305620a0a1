"""Sofic approximations: permutation models, goodness, defects.

A sofic approximation stores one permutation of the vertex set per generator,
whose arrows v -> sigma^s(v) are the edges of its labeled graph, and extends
to arbitrary group elements along canonical words; a model of Z^d may name the
lattice box its vertices map onto.  A finite quotient of Z^d is such a box,
acted on by coordinate arithmetic.  The R-good vertex scan (labeled-ball
isomorphism onto the Cayley ball) and the homomorphism/freeness defect
statistics operate on permutation arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .groups import (
    BallCapacityError,
    CayleyBall,
    Element,
    GroupSpec,
    ball,
    lattice_group,
    free_group,
)

# |ball| * n_vertices guard for the image matrices used by goodness scans
DEFAULT_IMAGE_BUDGET = 5 * 10**7
TORUS_VERTEX_BUDGET = 10**7     # vertex guard for torus_approximation


class SoficCompatibilityError(ValueError):
    """A sofic approximation does not match what an operation requires."""


@dataclass
class SoficApproximation:
    """(V_n, sigma_n): one permutation per generator, canonical-word extension.

    ``perms[i]`` maps vertex v to sigma^{s_i}(v).  The inverse pairing
    perms[inv(i)] = perms[i]^{-1} holds exactly, so the extension along any
    word is consistent under free cancellation.  Word permutations and
    goodness masks are cached on the model, so perms must not change.

    ``box`` (models of Z^d) names sides b_i: vertex v carries the point of
    prod Z/b_i with index v mod prod(box), coordinate 0 least significant,
    and sigma^g moves it by g.  None means that no box is known.  A box is
    checked: n_vertices must be a multiple of prod(box), and each generator
    must move every vertex's box point by its unit vector.
    """

    group: GroupSpec
    n_vertices: int
    perms: tuple
    box: Optional[tuple] = None

    _word_cache: dict = field(default_factory=dict, init=False, repr=False)
    _good_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.n_vertices
        ident = np.arange(n)
        if len(self.perms) != self.group.n_generators:
            raise SoficCompatibilityError("one permutation per generator required")
        for i, p in enumerate(self.perms):
            if p.shape != (n,) or not np.array_equal(np.sort(p), ident):
                raise SoficCompatibilityError(f"perm for generator {i} is not a bijection")
        for i in range(self.group.n_generators):
            j = self.group.inverse_generator_index(i)
            if not np.array_equal(self.perms[i][self.perms[j]], ident):
                raise SoficCompatibilityError(
                    f"perm({j}) is not the exact inverse of perm({i})")
        if self.box is not None:
            side = math.prod(self.box)
            if (self.group.kind != "lattice" or len(self.box) != self.group.d
                    or min(self.box) < 1 or n % side
                    or any(not np.array_equal(p % side, shift[ident % side])
                           for p, shift in zip(self.perms,
                                               _box_shifts(self.box)))):
                raise SoficCompatibilityError(
                    f"box {self.box} is not a lattice box of this model")

    def perm_of(self, g: Element) -> np.ndarray:
        """sigma^g as an index array, composed along the canonical word of g."""
        cached = self._word_cache.get(g)
        if cached is not None:
            return cached
        word = self.group.canonical_word(g)
        arr = np.arange(self.n_vertices)
        # sigma^{w_1 ... w_k} = perm(w_1) o ... o perm(w_k): apply w_k first
        for letter in reversed(word):
            arr = self.perms[letter][arr]
        self._word_cache[g] = arr
        return arr

    def ball_images(self, b: CayleyBall) -> np.ndarray:
        """Matrix images[i, v] = sigma^{g_i}(v) over the ball elements."""
        _check_image_budget(len(b), self.n_vertices)
        return np.stack([self.perm_of(g) for g in b.elements])


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def torus_approximation(d: int, n: int) -> SoficApproximation:
    """Quotient Z^d -> (Z/nZ)^d: coordinate shifts on the n^d torus."""
    if n < 2:
        raise ValueError("torus side must be >= 2")
    if n**d > TORUS_VERTEX_BUDGET:
        raise BallCapacityError(
            f"torus has {n**d} vertices, budget {TORUS_VERTEX_BUDGET}")
    return SoficApproximation(
        group=lattice_group(d), n_vertices=n**d,
        perms=tuple(_box_shifts([n] * d)), box=(n,) * d)


def _box_shifts(moduli: Sequence[int]) -> list[np.ndarray]:
    """Unit shifts up and down each coordinate of the box prod Z/m_i, in the
    generator order of lattice_group: index c encodes the coordinates in
    mixed radix, coordinate 0 least significant."""
    idx = np.arange(math.prod(moduli))
    perms = []
    stride = 1
    for m in moduli:
        block = stride * m
        base = idx - (idx % block)
        offset = idx % block
        perms += [base + (offset + stride) % block,
                  base + (offset - stride) % block]
        stride = block
    return perms


def random_permutation_approximation(rank: int, n: int,
                                     seed: int) -> SoficApproximation:
    """Independent uniform permutations per free generator; exact inverses."""
    if n < 1:
        raise ValueError("need at least one vertex")
    group = free_group(rank)
    rng = np.random.default_rng(seed)
    perms = []
    for _ in range(rank):
        p = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[p] = np.arange(n)
        perms.extend([p, inv])
    return SoficApproximation(group=group, n_vertices=n, perms=tuple(perms))


@dataclass(frozen=True)
class FiniteQuotient:
    """The quotient Z^d -> prod Z/m_i by the diagonal lattice of the moduli:
    coset c is the point of the box prod Z/m_i whose mixed-radix index is c,
    coordinate 0 least significant, so coset 0 is the identity coset."""

    group: GroupSpec
    moduli: tuple

    def __post_init__(self):
        for m in self.moduli:
            if isinstance(m, bool) or not isinstance(m, numbers.Integral):
                raise ValueError(f"modulus {m!r} is not an integer")
        moduli = tuple(int(m) for m in self.moduli)
        if (self.group.kind != "lattice" or len(moduli) != self.group.d
                or any(m < 1 for m in moduli)):
            raise ValueError(f"need one modulus >= 1 per coordinate of the "
                             f"lattice, not {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    @functools.cached_property
    def coordinates(self) -> np.ndarray:
        """Read-only (d, size) array: column c is the box point of coset c."""
        coords = np.array(np.unravel_index(np.arange(self.size), self.moduli,
                                           order="F"), dtype=np.int64)
        coords.setflags(write=False)
        return coords

    def coset_of(self, points) -> np.ndarray:
        """The coset of each lattice point, coordinate i in row i of points."""
        return np.ravel_multi_index(
            [x % m for x, m in zip(points, self.moduli)], self.moduli, order="F")

    def act_perm(self, g: Element) -> np.ndarray:
        """Index array mapping coset c to the coset of g + c."""
        return self.coset_of([x + a for x, a in zip(self.coordinates, g)])


def lattice_quotient(d: int, moduli: Sequence[int]) -> FiniteQuotient:
    """The quotient Z^d -> prod Z/m_i Z as a FiniteQuotient."""
    return FiniteQuotient(group=lattice_group(d), moduli=tuple(moduli))


def product_with_quotient(base: SoficApproximation,
                          quotient: FiniteQuotient) -> SoficApproximation:
    """Product model sigma^g(v, c) = (sigma_base^g(v), g + c); vertex (v, c)
    is flattened as v * |G/N| + c, so the model's box is the quotient's."""
    if base.group != quotient.group:
        raise SoficCompatibilityError("base and quotient live over different groups")
    q = quotient.size
    perms = tuple(
        (p[:, None] * q + quotient.act_perm(base.group.generator(i))).ravel()
        for i, p in enumerate(base.perms))
    return SoficApproximation(group=base.group, n_vertices=base.n_vertices * q,
                              perms=perms, box=quotient.moduli)


# ---------------------------------------------------------------------------
# Goodness
# ---------------------------------------------------------------------------


@dataclass
class GoodnessReport:
    radius: int
    good: np.ndarray  # boolean mask over vertices

    @property
    def fraction(self) -> float:
        return float(self.good.mean()) if len(self.good) else 0.0


def good_vertices(sigma: SoficApproximation, radius: int) -> GoodnessReport:
    """Mark v good iff g -> sigma^g(v) is a labeled-ball isomorphism.

    Three vectorized stages: (1) every labeled Cayley-ball edge must commute
    with the generator permutations (this makes the map a label-preserving
    graph morphism and forces its image to exhaust the graph ball), (2) the
    |B| images must be pairwise distinct, (3) no graph edge may leave the
    sphere and re-enter the image (no chords absent from the Cayley ball).
    At radius 0 the ball is {e}, with no edges and no chords, so every
    vertex is good.  The read-only mask is scanned once per model and
    radius; DEFAULT_IMAGE_BUDGET is checked on every call.
    """
    b = ball(sigma.group, radius)
    _check_image_budget(len(b), sigma.n_vertices)
    cached = sigma._good_cache.get(radius)
    if cached is None:
        cached = _scan_good(sigma, b, sigma.ball_images(b))
        cached.setflags(write=False)
        sigma._good_cache[radius] = cached
    return GoodnessReport(radius=radius, good=cached)


def _check_image_budget(size: int, n: int) -> None:
    if size * n > DEFAULT_IMAGE_BUDGET:
        raise BallCapacityError(f"image matrix {size}x{n} exceeds budget "
                                f"{DEFAULT_IMAGE_BUDGET}")


def _scan_good(sigma: SoficApproximation, b: CayleyBall,
               images: np.ndarray) -> np.ndarray:
    """The goodness mask over the ball b from its image matrix."""
    n = sigma.n_vertices
    ok = np.ones(n, dtype=bool)
    # (1) edge consistency between canonical-word extensions
    for (i, j, s) in b.edges:
        ok &= sigma.perms[s][images[i]] == images[j]
    # (2) injectivity
    srt = np.sort(images, axis=0)
    ok &= np.all(srt[1:] != srt[:-1], axis=0)
    # (3) no extra boundary edges: for g on the sphere and s*g outside the
    # ball, sigma^s(image of g) must avoid the image set; a fixed point
    # (sigma^s fixes the image) is a loop, not an edge, and is fine
    cols = np.arange(n, dtype=np.int64)
    image_keys = (images.astype(np.int64) * n + cols[None, :]).ravel()
    image_keys.sort()
    for i in b.sphere_indices(b.radius):
        g = b.elements[i]
        for s in range(sigma.group.n_generators):
            sg = sigma.group.multiply(sigma.group.generator(s), g)
            if sg in b:
                continue
            stepped = sigma.perms[s][images[i]]
            cand = stepped.astype(np.int64) * n + cols
            pos = np.searchsorted(image_keys, cand)
            pos = np.minimum(pos, len(image_keys) - 1)
            hit = (image_keys[pos] == cand) & (stepped != images[i])
            ok &= ~hit
    return ok


# ---------------------------------------------------------------------------
# Defect statistics
# ---------------------------------------------------------------------------


@dataclass
class SoficDefectReport:
    max_hom_defect: float   # max over g, h of the fraction of v with
                            # sigma^g sigma^h (v) != sigma^{gh} (v)
    max_fix_defect: float   # max over g != e of the fraction of v with
                            # sigma^g(v) == v


def sofic_defect(sigma: SoficApproximation, radius: int) -> SoficDefectReport:
    """Homomorphism and freeness defects over the ball B_S(e, radius)."""
    if radius < 1:
        raise ValueError("defect radius must be >= 1")
    b = ball(sigma.group, radius)
    perm, multiply = sigma.perm_of, sigma.group.multiply
    hom = [float(np.mean(perm(g)[perm(h)] != perm(multiply(g, h))))
           for g in b.elements for h in b.elements]
    ident = np.arange(sigma.n_vertices)
    e = sigma.group.identity()
    fix = [float(np.mean(perm(g) == ident)) for g in b.elements if g != e]
    return SoficDefectReport(max_hom_defect=max(hom),
                             max_fix_defect=max(fix, default=0.0))

