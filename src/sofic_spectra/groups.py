"""Finitely generated groups with fixed symmetric generators and their Cayley balls.

Two group families ship: integer lattices Z^d and free groups F_r.  Elements
use canonical forms (lattice vector, reduced word over generator letters) so
that equality, hashing and deterministic ordering are structural.  Canonical
words over the generator alphabet drive the extension of sofic permutation
actions from generators to arbitrary elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

# Canonical element forms:
#   lattice: tuple[int, ...] of length d
#   free:    tuple[int, ...] of reduced letters in 0..2r-1, inverse = letter ^ 1
Element = tuple

DEFAULT_BALL_CAPACITY = 10**6


class BallCapacityError(RuntimeError):
    """Cayley ball would exceed the configured element budget."""


class GroupValidationError(ValueError):
    """Unknown group kind, or a lattice dimension or free rank below 1."""


@dataclass(frozen=True)
class GroupSpec:
    """A group with an ordered symmetric generating set S.

    ``kind`` is "lattice" or "free".  Generators come in adjacent
    (s, s^-1) pairs, so ``inverse_generator_index(i)`` is ``i ^ 1``; S never
    contains the identity.
    """

    kind: str
    d: int = 0                     # lattice dimension
    rank: int = 0                  # free rank

    # -- construction -----------------------------------------------------

    def __post_init__(self):
        if self.kind not in ("lattice", "free"):
            raise GroupValidationError(f"unknown group kind {self.kind!r}")
        if self.kind == "lattice" and self.d < 1:
            raise GroupValidationError("lattice dimension must be >= 1")
        if self.kind == "free" and self.rank < 1:
            raise GroupValidationError("free rank must be >= 1")

    # -- generating set ----------------------------------------------------

    @property
    def n_generators(self) -> int:
        return 2 * (self.d if self.kind == "lattice" else self.rank)

    def generator(self, i: int) -> Element:
        """Canonical element of the i-th generator.

        Lattice and free generators come in adjacent (s, s^-1) pairs:
        [+e1, -e1, +e2, -e2, ...] and [a1, a1^-1, a2, a2^-1, ...].
        """
        if self.kind == "lattice":
            vec = [0] * self.d
            vec[i // 2] = 1 if i % 2 == 0 else -1
            return tuple(vec)
        return (i,)

    def inverse_generator_index(self, i: int) -> int:
        return i ^ 1

    # -- group law ---------------------------------------------------------

    def identity(self) -> Element:
        return (0,) * self.d if self.kind == "lattice" else ()

    def multiply(self, g: Element, h: Element) -> Element:
        if self.kind == "lattice":
            return tuple(a + b for a, b in zip(g, h))
        return _reduce_concat(g, h)

    def inverse(self, g: Element) -> Element:
        if self.kind == "lattice":
            return tuple(-a for a in g)
        return tuple(a ^ 1 for a in reversed(g))

    def canonical_word(self, g: Element) -> tuple[int, ...]:
        """Generator indices (w_1, ..., w_k) whose product w_1 w_2 ... w_k = g.

        Lattice words spell generator powers in coordinate order; free words
        are the reduced letters themselves.
        """
        if self.kind == "lattice":
            word = []
            for coord, a in enumerate(g):
                letter = 2 * coord + (0 if a > 0 else 1)
                word.extend([letter] * abs(a))
            return tuple(word)
        return g


def lattice_group(d: int) -> GroupSpec:
    return GroupSpec(kind="lattice", d=d)


def free_group(rank: int) -> GroupSpec:
    return GroupSpec(kind="free", rank=rank)


def _reduce_concat(g: tuple, h: tuple) -> tuple:
    # both inputs reduced, so cancellation only happens at the seam
    i = len(g)
    j = 0
    while i > 0 and j < len(h) and g[i - 1] == (h[j] ^ 1):
        i -= 1
        j += 1
    return g[:i] + h[j:]


# ---------------------------------------------------------------------------
# Cayley balls and pattern windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CayleyBall:
    """The ball B_S(e, R) with its labeled internal edges.

    ``elements`` are sorted by canonical form, so every downstream encoding
    of ball-indexed data is reproducible.  ``edges`` lists (i, j, s) for every
    ordered pair with elements[j] = s * elements[i].
    """

    radius: int
    elements: tuple
    edges: tuple  # (src_index, dst_index, generator_index)
    word_lengths: tuple

    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {g: i for i, g in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, g: Element) -> int:
        return self._index[g]

    def __contains__(self, g: Element) -> bool:
        return g in self._index

    def sphere_indices(self, radius: int) -> list[int]:
        return [i for i, L in enumerate(self.word_lengths) if L == radius]


@lru_cache(maxsize=None)
def _ball_cached(group: GroupSpec, radius: int) -> CayleyBall:
    e = group.identity()
    dist = {e: 0}
    frontier = [e]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for i in range(group.n_generators):
                h = group.multiply(group.generator(i), g)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
                    if len(dist) > DEFAULT_BALL_CAPACITY:
                        raise BallCapacityError(
                            f"ball B(e,{radius}) exceeds capacity "
                            f"{DEFAULT_BALL_CAPACITY}")
        frontier = nxt
    elements = tuple(sorted(dist.keys()))
    index = {g: i for i, g in enumerate(elements)}
    edges = []
    for g in elements:
        for i in range(group.n_generators):
            h = group.multiply(group.generator(i), g)
            if h in index:
                edges.append((index[g], index[h], i))
    lengths = tuple(dist[g] for g in elements)
    return CayleyBall(radius=radius, elements=elements, edges=tuple(edges),
                      word_lengths=lengths)


def ball(group: GroupSpec, radius: int) -> CayleyBall:
    """Cayley ball B_S(e, R) with deterministic element order, refused
    once it holds more than DEFAULT_BALL_CAPACITY elements."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _ball_cached(group, radius)
