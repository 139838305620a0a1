"""Finitely generated groups with fixed symmetric generators and their Cayley balls.

Three group families ship: integer lattices Z^d, free groups F_r and explicit
finite groups given by a multiplication table.  Elements use canonical forms
(lattice vector, reduced word over generator letters, table index) so that
equality, hashing and deterministic ordering are structural.  Canonical words
over the generator alphabet drive the extension of sofic permutation actions
from generators to arbitrary elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

# Canonical element forms:
#   lattice: tuple[int, ...] of length d
#   free:    tuple[int, ...] of reduced letters in 0..2r-1, inverse = letter ^ 1
#   finite:  int index into the multiplication table
Element = tuple | int

DEFAULT_BALL_CAPACITY = 10**6


class BallCapacityError(RuntimeError):
    """Cayley ball would exceed the configured element budget."""


class GroupValidationError(ValueError):
    """Multiplication table or generating set fails a group axiom."""


@dataclass(frozen=True)
class GroupSpec:
    """A group with an ordered symmetric generating set S.

    ``kind`` is one of "lattice", "free", "finite".  ``inverse_index[i]`` is
    the position of the inverse of generator i inside S; the pairing is an
    involution and S never contains the identity.
    """

    kind: str
    d: int = 0                     # lattice dimension
    rank: int = 0                  # free rank
    table: tuple = ()              # finite multiplication table (row-major)
    finite_generators: tuple = ()  # element indices chosen as S for "finite"

    # -- construction -----------------------------------------------------

    def __post_init__(self):
        if self.kind not in ("lattice", "free", "finite"):
            raise GroupValidationError(f"unknown group kind {self.kind!r}")
        if self.kind == "lattice" and self.d < 1:
            raise GroupValidationError("lattice dimension must be >= 1")
        if self.kind == "free" and self.rank < 1:
            raise GroupValidationError("free rank must be >= 1")
        if self.kind == "finite":
            _validate_table(self.table, self.finite_generators)

    # -- generating set ----------------------------------------------------

    @property
    def n_generators(self) -> int:
        if self.kind == "lattice":
            return 2 * self.d
        if self.kind == "free":
            return 2 * self.rank
        return len(self.finite_generators)

    def generator(self, i: int) -> Element:
        """Canonical element of the i-th generator.

        Lattice and free generators come in adjacent (s, s^-1) pairs:
        [+e1, -e1, +e2, -e2, ...] and [a1, a1^-1, a2, a2^-1, ...].
        """
        if self.kind == "lattice":
            vec = [0] * self.d
            vec[i // 2] = 1 if i % 2 == 0 else -1
            return tuple(vec)
        if self.kind == "free":
            return (i,)
        return self.finite_generators[i]

    def generators(self) -> list[Element]:
        return [self.generator(i) for i in range(self.n_generators)]

    def inverse_generator_index(self, i: int) -> int:
        if self.kind in ("lattice", "free"):
            return i ^ 1
        inv = self.inverse(self.finite_generators[i])
        try:
            return self.finite_generators.index(inv)
        except ValueError:
            raise GroupValidationError(
                "generating set is not symmetric") from None

    # -- group law ---------------------------------------------------------

    def identity(self) -> Element:
        if self.kind == "lattice":
            return (0,) * self.d
        if self.kind == "free":
            return ()
        return _table_identity(self.table)

    def multiply(self, g: Element, h: Element) -> Element:
        if self.kind == "lattice":
            return tuple(a + b for a, b in zip(g, h))
        if self.kind == "free":
            return _reduce_concat(g, h)
        size = math.isqrt(len(self.table))
        return self.table[g * size + h]

    def inverse(self, g: Element) -> Element:
        if self.kind == "lattice":
            return tuple(-a for a in g)
        if self.kind == "free":
            return tuple(a ^ 1 for a in reversed(g))
        size = math.isqrt(len(self.table))
        e = self.identity()
        for h in range(size):
            if self.table[g * size + h] == e:
                return h
        raise GroupValidationError(f"element {g} has no inverse")

    def word_length(self, g: Element) -> int:
        if self.kind == "lattice":
            return sum(abs(a) for a in g)
        if self.kind == "free":
            return len(g)
        return len(self.canonical_word(g))

    def canonical_word(self, g: Element) -> tuple[int, ...]:
        """Generator indices (w_1, ..., w_k) whose product w_1 w_2 ... w_k = g.

        Lattice words spell generator powers in coordinate order; free words
        are the reduced letters themselves; finite-group words are geodesics
        fixed once by a deterministic BFS.
        """
        if self.kind == "lattice":
            word = []
            for coord, a in enumerate(g):
                letter = 2 * coord + (0 if a > 0 else 1)
                word.extend([letter] * abs(a))
            return tuple(word)
        if self.kind == "free":
            return g
        return _finite_words(self)[g]

    # -- misc ----------------------------------------------------------------

    def check_symmetric_generators(self) -> None:
        e = self.identity()
        gens = self.generators()
        for i, s in enumerate(gens):
            if s == e:
                raise GroupValidationError("generating set contains identity")
            j = self.inverse_generator_index(i)
            if self.multiply(s, gens[j]) != e:
                raise GroupValidationError("generator inverse pairing broken")


def lattice_group(d: int) -> GroupSpec:
    return GroupSpec(kind="lattice", d=d)


def free_group(rank: int) -> GroupSpec:
    return GroupSpec(kind="free", rank=rank)


def finite_group(table: Sequence[Sequence[int]],
                 generators: Sequence[int]) -> GroupSpec:
    """Explicit finite group; ``table[a][b]`` is the product a*b."""
    size = len(table)
    flat = tuple(table[a][b] for a in range(size) for b in range(size))
    spec = GroupSpec(kind="finite", table=flat,
                     finite_generators=tuple(generators))
    spec.check_symmetric_generators()
    _finite_words(spec)  # verifies S generates the group
    return spec


def _reduce_concat(g: tuple, h: tuple) -> tuple:
    # both inputs reduced, so cancellation only happens at the seam
    i = len(g)
    j = 0
    while i > 0 and j < len(h) and g[i - 1] == (h[j] ^ 1):
        i -= 1
        j += 1
    return g[:i] + h[j:]


def _validate_table(flat: tuple, generators: tuple) -> None:
    size_sq = len(flat)
    size = math_isqrt_exact(size_sq)
    if size < 1:
        raise GroupValidationError("empty multiplication table")
    if any(not (0 <= x < size) for x in flat):
        raise GroupValidationError("table entries out of range")
    e = _table_identity(flat)
    if e is None:
        raise GroupValidationError("table has no identity element")
    for a in range(size):
        if all(flat[a * size + b] != e for b in range(size)):
            raise GroupValidationError(f"element {a} has no inverse")
    for a in range(size):
        for b in range(size):
            ab = flat[a * size + b]
            for c in range(size):
                if flat[ab * size + c] != flat[a * size + flat[b * size + c]]:
                    raise GroupValidationError(
                        f"associativity fails on triple ({a},{b},{c})")
    if not generators:
        raise GroupValidationError("finite group needs a generating set")
    gset = set(generators)
    if len(gset) != len(generators):
        raise GroupValidationError("duplicate generators")


def math_isqrt_exact(n: int) -> int:
    r = math.isqrt(n)
    if r * r != n:
        raise GroupValidationError("multiplication table is not square")
    return r


def _table_identity(flat: tuple):
    size = math.isqrt(len(flat))
    for e in range(size):
        if all(flat[e * size + b] == b and flat[b * size + e] == b
               for b in range(size)):
            return e
    return None


@lru_cache(maxsize=None)
def _finite_words(group: GroupSpec) -> dict:
    """Geodesic canonical words for every element of a finite group (BFS)."""
    e = group.identity()
    words = {e: ()}
    frontier = [e]
    gens = group.generators()
    while frontier:
        nxt = []
        for g in frontier:
            for i in sorted(range(group.n_generators),
                            key=lambda i: gens[i]):
                h = group.multiply(gens[i], g)  # prepend: word (i,) + word(g)
                if h not in words:
                    words[h] = (i,) + words[g]
                    nxt.append(h)
        frontier = nxt
    size = math.isqrt(len(group.table))
    if len(words) != size:
        raise GroupValidationError("generating set does not generate the group")
    return words


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

    group: GroupSpec
    radius: int
    elements: tuple
    edges: tuple  # (src_index, dst_index, generator_index)
    word_lengths: tuple

    _index: dict = field(default_factory=dict, repr=False, compare=False)

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
def _ball_cached(group: GroupSpec, radius: int, capacity: int) -> CayleyBall:
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
                    if len(dist) > capacity:
                        raise BallCapacityError(
                            f"ball B(e,{radius}) exceeds capacity {capacity}")
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
    return CayleyBall(group=group, radius=radius, elements=elements,
                      edges=tuple(edges), word_lengths=lengths)


def ball(group: GroupSpec, radius: int,
         capacity: int = DEFAULT_BALL_CAPACITY) -> CayleyBall:
    """Cayley ball B_S(e, R) with deterministic element order."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _ball_cached(group, radius, capacity)


@dataclass(frozen=True)
class PatternWindow:
    """Symbols on a Cayley ball, stored in the canonical ball order."""

    radius: int
    values: tuple


def translate_window(group: GroupSpec, g: Element, window: PatternWindow,
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
