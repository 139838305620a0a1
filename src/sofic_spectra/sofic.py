"""Sofic approximations: permutation models, labeled graphs, goodness, defects.

A sofic approximation stores one permutation of the vertex set per generator
and extends to arbitrary group elements along canonical words.  The induced
labeled graph, the R-good vertex scan (labeled-ball isomorphism onto the
Cayley ball) and the homomorphism/freeness defect statistics all operate on
vectorized permutation arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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


class SoficCompatibilityError(ValueError):
    """A sofic approximation does not match what an operation requires."""


@dataclass
class SoficApproximation:
    """(V_n, sigma_n): one permutation per generator, canonical-word extension.

    ``perms[i]`` maps vertex v to sigma^{s_i}(v).  The inverse pairing
    perms[inv(i)] = perms[i]^{-1} holds exactly, so the extension along any
    word is consistent under free cancellation.  Word permutations and
    goodness masks are cached on the model, so perms must not change.
    """

    group: GroupSpec
    n_vertices: int
    perms: tuple
    provenance: str = "explicit"
    meta: dict = field(default_factory=dict)

    _word_cache: dict = field(default_factory=dict, repr=False)
    _good_cache: dict = field(default_factory=dict, repr=False)

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

    def ball_images(self, b: CayleyBall,
                    budget: int = DEFAULT_IMAGE_BUDGET) -> np.ndarray:
        """Matrix images[i, v] = sigma^{g_i}(v) over the ball elements."""
        if len(b) * self.n_vertices > budget:
            raise BallCapacityError(
                f"image matrix {len(b)}x{self.n_vertices} exceeds budget {budget}")
        return np.stack([self.perm_of(g) for g in b.elements])


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def torus_approximation(d: int, n: int,
                        vertex_budget: int = 10**7) -> SoficApproximation:
    """Quotient Z^d -> (Z/nZ)^d: coordinate shifts on the n^d torus."""
    if n < 2:
        raise ValueError("torus side must be >= 2")
    if n**d > vertex_budget:
        raise BallCapacityError(f"torus has {n**d} vertices, budget {vertex_budget}")
    return SoficApproximation(
        group=lattice_group(d), n_vertices=n**d,
        perms=tuple(_box_shifts([n] * d)),
        provenance="torus", meta={"d": d, "n": n})


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
    return SoficApproximation(
        group=group, n_vertices=n, perms=tuple(perms),
        provenance="random_permutation", meta={"rank": rank, "n": n, "seed": seed})


@dataclass(frozen=True)
class FiniteQuotient:
    """Action of G on a finite coset space G/N by left multiplication.

    ``perms[i]`` is the permutation of coset indices induced by generator i;
    index 0 is the identity coset.  The action must be a genuine homomorphism
    and is checked on generator pairs (and exhaustively for finite groups).
    """

    group: GroupSpec
    size: int
    perms: tuple

    def __post_init__(self):
        ident = tuple(range(self.size))
        for i, p in enumerate(self.perms):
            if tuple(sorted(p)) != ident:
                raise SoficCompatibilityError(f"quotient perm {i} is not a bijection")
        for i in range(self.group.n_generators):
            j = self.group.inverse_generator_index(i)
            pi, pj = self.perms[i], self.perms[j]
            if any(pi[pj[c]] != c for c in range(self.size)):
                raise SoficCompatibilityError("quotient inverse pairing broken")
        self._check_homomorphism()

    def _check_homomorphism(self):
        gens = self.group.generators()
        for i, s in enumerate(gens):
            for j, t in enumerate(gens):
                st = self.group.multiply(s, t)
                composed = tuple(self.perms[i][self.perms[j][c]]
                                 for c in range(self.size))
                if composed != tuple(self.act_perm(st)):
                    raise SoficCompatibilityError(
                        f"quotient action fails homomorphism check on pair ({i},{j})")

    def act_perm(self, g: Element) -> list[int]:
        word = self.group.canonical_word(g)
        out = list(range(self.size))
        for letter in reversed(word):
            out = [self.perms[letter][c] for c in out]
        return out

    def representative_words(self) -> list[tuple]:
        """One geodesic word per coset index, by BFS from the identity coset."""
        words: dict[int, tuple] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for i in range(self.group.n_generators):
                    c2 = self.perms[i][c]
                    if c2 not in words:
                        words[c2] = (i,) + words[c]
                        nxt.append(c2)
            frontier = nxt
        if len(words) != self.size:
            raise SoficCompatibilityError("quotient action is not transitive")
        return [words[c] for c in range(self.size)]


def lattice_quotient(d: int, moduli: Sequence[int]) -> FiniteQuotient:
    """The quotient Z^d -> prod Z/m_i Z as a FiniteQuotient."""
    if len(moduli) != d or any(m < 1 for m in moduli):
        raise ValueError("need one modulus >= 1 per coordinate")
    return FiniteQuotient(group=lattice_group(d), size=int(math.prod(moduli)),
                          perms=tuple(tuple(p.tolist())
                                      for p in _box_shifts(moduli)))


def product_with_quotient(base: SoficApproximation,
                          quotient: FiniteQuotient) -> SoficApproximation:
    """Product model sigma^g(v, hN) = (sigma_base^g(v), g.hN).

    Vertex (v, c) is flattened as v * |G/N| + c.
    """
    if base.group != quotient.group:
        raise SoficCompatibilityError("base and quotient live over different groups")
    q = quotient.size
    n = base.n_vertices * q
    cos = np.arange(q)
    perms = []
    for i in range(base.group.n_generators):
        qp = np.asarray(quotient.perms[i])
        new = (base.perms[i][:, None] * q + qp[None, :]).reshape(n)
        perms.append(new)
    return SoficApproximation(
        group=base.group, n_vertices=n, perms=tuple(perms),
        provenance="product_with_quotient",
        meta={"base": base.provenance, "base_meta": dict(base.meta),
              "quotient_size": q, "quotient": quotient})


# ---------------------------------------------------------------------------
# Labeled graph
# ---------------------------------------------------------------------------


@dataclass
class LabeledFiniteGraph:
    """Symmetric loop-free edge list with generator labels."""

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray


def edge_graph(sigma: SoficApproximation) -> LabeledFiniteGraph:
    """Edges {(v, sigma^s(v))} for all generators, loops removed."""
    srcs, dsts, labs = [], [], []
    n = sigma.n_vertices
    verts = np.arange(n)
    for i in range(sigma.group.n_generators):
        img = sigma.perms[i]
        keep = img != verts
        srcs.append(verts[keep])
        dsts.append(img[keep])
        labs.append(np.full(keep.sum(), i, dtype=np.int64))
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    lab = np.concatenate(labs) if labs else np.empty(0, dtype=np.int64)
    return LabeledFiniteGraph(n_vertices=n, src=src, dst=dst, labels=lab)


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


def good_vertices(sigma: SoficApproximation, radius: int,
                  budget: int = DEFAULT_IMAGE_BUDGET) -> GoodnessReport:
    """Mark v good iff g -> sigma^g(v) is a labeled-ball isomorphism.

    Three vectorized stages: (1) every labeled Cayley-ball edge must commute
    with the generator permutations (this makes the map a label-preserving
    graph morphism and forces its image to exhaust the graph ball), (2) the
    |B| images must be pairwise distinct, (3) no graph edge may leave the
    sphere and re-enter the image (no chords absent from the Cayley ball).
    Radius 0 is trivially good everywhere.  The read-only mask is scanned
    once per model and radius; the image budget is checked on every call.
    """
    n = sigma.n_vertices
    if radius == 0:
        return GoodnessReport(radius=0, good=np.ones(n, dtype=bool))
    b = ball(sigma.group, radius)
    cached = sigma._good_cache.get(radius)
    if cached is None:
        cached = _scan_good(sigma, b, sigma.ball_images(b, budget=budget))
        cached.setflags(write=False)
        sigma._good_cache[radius] = cached
    elif len(b) * n > budget:
        raise BallCapacityError(
            f"image matrix {len(b)}x{n} exceeds budget {budget}")
    return GoodnessReport(radius=radius, good=cached)


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
    radius: int
    hom_fractions: dict     # (g, h) -> fraction of v with sigma^g sigma^h != sigma^{gh}
    fix_fractions: dict     # g -> fraction of v with sigma^g(v) == v
    max_hom_defect: float
    max_fix_defect: float


def sofic_defect(sigma: SoficApproximation, radius: int) -> SoficDefectReport:
    """Homomorphism and freeness defects over the ball B_S(e, radius)."""
    if radius < 1:
        raise ValueError("defect radius must be >= 1")
    b = ball(sigma.group, radius)
    hom = {}
    for g in b.elements:
        pg = sigma.perm_of(g)
        for h in b.elements:
            ph = sigma.perm_of(h)
            pgh = sigma.perm_of(sigma.group.multiply(g, h))
            hom[(g, h)] = float(np.mean(pg[ph] != pgh))
    ident = np.arange(sigma.n_vertices)
    e = sigma.group.identity()
    fix = {}
    for g in b.elements:
        if g == e:
            continue
        fix[g] = float(np.mean(sigma.perm_of(g) == ident))
    return SoficDefectReport(
        radius=radius,
        hom_fractions=hom,
        fix_fractions=fix,
        max_hom_defect=max(hom.values()) if hom else 0.0,
        max_fix_defect=max(fix.values()) if fix else 0.0,
    )


def goodness_defect_bound(sigma: SoficApproximation, radius: int) -> float:
    """Lower bound on the R-good fraction from defect statistics.

    A vertex that fails the R-good scan witnesses either a homomorphism
    failure of some pair (s, g), s in S, g in B(e, 2R+1), at a vertex of the
    form sigma^h(v) with h in B(e, 2R+1), or a freeness failure of some
    g in B(e, 2R+2) at v itself.  Union-bounding over pulled-back events
    (permutations preserve counts) gives the bound; it is loose but sound.
    """
    b_pairs = ball(sigma.group, 2 * radius + 1)
    b_free = ball(sigma.group, 2 * radius + 2)
    e = sigma.group.identity()
    hom_sum = 0.0
    for s_idx in range(sigma.group.n_generators):
        s = sigma.group.generator(s_idx)
        ps = sigma.perms[s_idx]
        for g in b_pairs.elements:
            pg = sigma.perm_of(g)
            psg = sigma.perm_of(sigma.group.multiply(s, g))
            hom_sum += float(np.mean(ps[pg] != psg))
    ident = np.arange(sigma.n_vertices)
    fix_sum = 0.0
    for g in b_free.elements:
        if g == e:
            continue
        fix_sum += float(np.mean(sigma.perm_of(g) == ident))
    penalty = len(b_pairs) * hom_sum + fix_sum
    return max(0.0, 1.0 - penalty)
