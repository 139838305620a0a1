"""Local rules, their validation, induced finite-volume operators, moment oracles.

A local rule is the coefficient table of an equivariant finite-hopping-range
operator family: c(g, w) gives the matrix entry H^w(e, g) as a function of the
configuration window w on the hopping ball.  Every rule and every operator
is exact: its entries are Gaussian rationals, and a float or complex
coefficient is taken at its exact binary value (a dyadic rational), as the
paper reaches real coefficients through rational approximants.

``validate_local_rule`` returns the witnesses of a rule that is not
self-adjoint, none for one that is.  Two finite-volume constructions ship,
both reading a configuration as the integer array of symbol indices per
vertex that ``sample_configuration`` draws.  ``assemble_induced`` copies
coefficients between pairs of 2M-good vertices and zeroes everything else
(the strict existence construction).  ``assemble_graph_schrodinger`` builds
the graph Laplacian of the sofic graph plus a diagonal potential, the
classical Schrodinger finite-volume analog; both agree wherever every vertex
is 2M-good.

Rules and the operators they assemble take a handful of distinct values in
many cells, so both are stored value-coded, as codes into those values: a
rule as one row of codes per ball element, by window code (only _coded_rule
makes its values exact), an operator as row, column and code arrays
in row-major order, built once at assembly.  Every consumer reads the codes,
so exact Gaussian-rational work runs once per distinct value and the rest is
numpy.  Values are interned, so equal codes are equal values and cells are
compared by their codes.  An operator's ``entries`` is a read-only
(row, col) -> value dict built once from its arrays; a rule's cell
c(elements[i], w) is values[codes[i][w]].  A rule is that table over its
group, alphabet and hopping range, and carries nothing else.  The
closed-walk oracles walk in a Cayley ball and index their sites in the
ball's order, reading element indices and word lengths off the ball.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import CZERO, ComplexRational
from .groups import CayleyBall, Element, GroupSpec, ball
from .measures import (
    Alphabet,
    DEFAULT_ENUM_BUDGET,
    EnumerationBudgetError,
    MeasureModel,
    _digits,
    model_alphabet,
    periodic_groups,
    site_law,
    site_law_size,
)
from .sofic import GoodnessReport, SoficApproximation, good_vertices

# int64 runs a k-step kernel only while every partial sum stays below this
_INT64_SAFE = 2 ** 62
# cells per array in one batch of the power and walk kernels
_BATCH_CELLS = 1 << 17


class RuleValidationError(ValueError):
    """A local rule violates self-adjointness or typing constraints."""


class AssemblyError(RuntimeError):
    """Induced-operator assembly failed an internal consistency assertion."""


# ---------------------------------------------------------------------------
# Local rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalRule:
    """Coefficient table c(g, window) over the hopping ball B_S(e, M):
    c(elements[i], w) = values[codes[i, w]], elements in ball order.

    values holds the rule's distinct ComplexRationals once, as a tuple (a
    float given to a constructor is there at its exact binary value; see
    _coded_rule).  Frozen, with read-only arrays, so what the moment oracles
    derive from a rule is built once per rule (see _walk_setup).
    """

    group: GroupSpec
    alphabet: Alphabet
    hopping: int
    elements: tuple
    codes: np.ndarray       # (len(elements), n_window_codes) value codes
    values: tuple
    # reach -> _walk_setup; (model, reach) -> _exact_law
    _walks: dict = field(default_factory=dict, init=False, repr=False)
    _laws: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.codes.setflags(write=False)

    @functools.cached_property
    def _rows(self) -> dict:
        """Ball element -> its row of value codes."""
        return dict(zip(self.elements, self.codes))

    @functools.cached_property
    def _zeros(self) -> np.ndarray:
        """Whether each value is zero, by code."""
        return np.array([v.is_zero() for v in self.values], dtype=bool)

    @functools.cached_property
    def influential_positions(self) -> list[int]:
        """Ball positions that can change any coefficient of the rule;
        codes are compared, as equal codes are equal values."""
        A, K = self.alphabet.size, len(self.window_ball())
        cells = self.codes.reshape(-1, *[A] * K)
        # after the axis of elements, numpy axes index window positions in
        # reverse code order
        return [pos for pos in range(K) if np.any(
            np.take(cells, range(1, A), axis=K - pos)
            != np.take(cells, [0], axis=K - pos))]

    @functools.cached_property
    def _numerators(self) -> tuple[int, dict, object, bool]:
        """(den, {g: (re, im)}, R, real): den*c(g, .) by window code for the
        tables that are not identically zero, den their common denominator
        (see _scaled_numerators), R the largest row sum of |den*re| +
        |den*im|, and whether every coefficient is real.  The closed-walk
        kernel reads it, once per rule."""
        den, re, im = _scaled_numerators(self.values)
        re, im = re[self.codes], im[self.codes]
        bound = (np.abs(re) + np.abs(im)).sum(axis=0).max()
        return den, {g: (re[i], im[i]) for i, g in enumerate(self.elements)
                     if re[i].any() or im[i].any()}, bound, not im.any()

    def window_ball(self) -> CayleyBall:
        return ball(self.group, self.hopping)

    @property
    def n_window_codes(self) -> int:
        return self.alphabet.size ** len(self.window_ball())

    def realized_value_sets(self) -> tuple[set, set]:
        """(diagonal values, off-diagonal values), zeros excluded."""
        e = self.group.identity()
        sets: tuple = (set(), set())
        for g, row in self._rows.items():
            used = np.unique(row)
            sets[g != e].update(self.values[c]
                                for c in used[~self._zeros[used]])
        return sets


def _magnitudes(values) -> np.ndarray:
    """|v| per value, as a float."""
    return np.array([float(v.abs2()) ** 0.5 for v in values], dtype=float)


def _value_key(v: ComplexRational) -> tuple:
    """Hashable key equal exactly when the values are: a Gaussian rational by
    its lowest-terms integers, which hash far faster than Fractions."""
    return (v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)


def _conjugate_codes(values) -> np.ndarray:
    """The code of each distinct value's conjugate, -1 if absent."""
    index = {_value_key(v): c for c, v in enumerate(values)}
    return np.array([index.get(_value_key(v.conjugate()), -1)
                     for v in values], dtype=np.int64)


def _intern(values: list) -> tuple[np.ndarray, list]:
    """(codes, distinct) with values[t] == distinct[codes[t]], values keyed
    by value and codes numbered by first appearance."""
    index: dict = {}
    codes = np.array([index.setdefault(_value_key(v), len(index))
                      for v in values], dtype=np.int64)
    _, first = np.unique(codes, return_index=True)
    return codes, [values[t] for t in first.tolist()]


def _compact(codes: np.ndarray, values: list) -> tuple[np.ndarray, list]:
    """Codes renumbered by first appearance, values cut to the codes used.

    The first appearance of each code is one np.minimum.at pass, which is
    far cheaper than sorting the codes.
    """
    first = np.full(len(values), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    used = np.flatnonzero(first < len(codes))
    used = used[np.argsort(first[used])]
    rank = np.empty(len(values), dtype=np.int64)
    rank[used] = np.arange(len(used))
    return rank[codes], [values[u] for u in used.tolist()]


def _as_exact(x) -> ComplexRational:
    """x as a Gaussian rational: an int, Fraction or ComplexRational as it
    is, a float or complex at its exact binary value.  NaN and infinities
    are refused."""
    if isinstance(x, ComplexRational):
        return x
    if not isinstance(x, numbers.Complex):
        raise RuleValidationError(f"coefficient {x!r} is not a number")
    try:
        return ComplexRational(Fraction(x.real), Fraction(x.imag))
    except (ValueError, OverflowError):
        raise RuleValidationError(f"coefficient {x!r} is not finite") from None


def _coded_rule(group: GroupSpec, alphabet: Alphabet, hopping: int,
                picks: dict, candidates: list) -> LocalRule:
    """The rule with c(g, w) = candidates[picks[g][w]].

    The one place rule values become exact (see _as_exact): the rule keeps
    the distinct values its cells pick, numbered by first appearance in
    row-major order.
    """
    b = ball(group, hopping)
    elements = sorted(picks, key=b.index)
    codes = np.array([picks[g] for g in elements], dtype=np.int64).reshape(
        len(elements), alphabet.size ** len(b))
    cand_codes, distinct = _intern([_as_exact(v) for v in candidates])
    flat, values = _compact(cand_codes[codes.ravel()], distinct)
    return LocalRule(group=group, alphabet=alphabet, hopping=hopping,
                     elements=tuple(elements), codes=flat.reshape(codes.shape),
                     values=tuple(values))


def schrodinger_rule(group: GroupSpec, alphabet: Alphabet,
                     potential: Sequence) -> LocalRule:
    """Graph Laplacian plus diagonal potential F: c(e,w) = -|S| + F(w(e)).

    ``potential[i]`` is F on symbol i, a float at its exact binary value.
    """
    if len(potential) != alphabet.size:
        raise RuleValidationError("one potential value per symbol required")
    b = ball(group, 1)
    A = alphabet.size
    e = group.identity()
    deg = group.n_generators
    # candidate s is -|S| + F(s), picked by the symbol at e; candidate A is
    # the hopping 1, once per generator (an involutive one is its inverse)
    picks = {e: np.arange(A ** len(b)) // A ** b.index(e) % A}
    for i in range(deg):
        picks.setdefault(group.generator(i), np.full(A ** len(b), A))
    shift = ComplexRational(Fraction(-deg))
    return _coded_rule(group, alphabet, 1, picks,
                       [shift + _as_exact(x) for x in potential] + [1])


def laplacian_rule(group: GroupSpec, alphabet: Alphabet) -> LocalRule:
    """Combinatorial graph Laplacian as a rule (potential identically zero)."""
    return schrodinger_rule(group, alphabet, [Fraction(0)] * alphabet.size)


def adjacency_rule(group: GroupSpec, alphabet: Alphabet) -> LocalRule:
    """Cayley-graph adjacency: the Laplacian shifted by +|S| I."""
    deg = group.n_generators
    return schrodinger_rule(group, alphabet, [Fraction(deg)] * alphabet.size)


def diagonal_rule(group: GroupSpec, alphabet: Alphabet,
                  values: Sequence) -> LocalRule:
    """Hopping-range-0 rule c(e, w) = F(w(e))."""
    if len(values) != alphabet.size:
        raise RuleValidationError("one value per symbol required")
    return _coded_rule(group, alphabet, 0,
                       {group.identity(): np.arange(alphabet.size)},
                       list(values))


def table_rule(group: GroupSpec, alphabet: Alphabet, hopping: int,
               entries: Sequence[tuple]) -> LocalRule:
    """Explicit rule from (ball element, window tuple, value) triples, each
    (element, window) at most once."""
    b = ball(group, hopping)
    A = alphabet.size
    candidates: list = [0]      # the coefficient of every cell no entry sets
    picks: dict = {}
    for g, window, value in entries:
        if g not in b:
            raise RuleValidationError(f"element {g} outside the hopping ball")
        if len(window) != len(b):
            raise RuleValidationError("window length must match the ball")
        if not all(s in range(A) for s in window):
            raise RuleValidationError(
                f"window {tuple(window)} has a symbol outside 0..{A - 1}")
        code = sum(int(s) * A ** pos for pos, s in enumerate(window))
        row = picks.setdefault(g, np.zeros(A ** len(b), dtype=np.int64))
        if row[code]:
            raise RuleValidationError(
                f"element {g}, window {tuple(window)} is given twice")
        row[code] = len(candidates)
        candidates.append(value)
    return _coded_rule(group, alphabet, hopping, picks, candidates)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_local_rule(rule: LocalRule) -> list:
    """Finite self-adjointness certificate: the offending (g, window tuple)
    pairs, none when the rule passes.

    Checks, for every g in the hopping ball and every window w on B(e, 2M),
    that c(g, w|_M) equals the conjugate of c(g^{-1}, (g.w)|_M), and that the
    diagonal is real.  Passing makes every assembled operator Hermitian.
    Both sides are arrays of value codes over w, mapped to the code of the
    conjugate on the right as in check_hermitian.
    """
    group = rule.group
    M = rule.hopping
    A = rule.alphabet.size
    small = ball(group, M)
    big = ball(group, 2 * M)
    n_big = A ** len(big)
    if n_big > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"validation needs {A}^{len(big)} window evaluations")
    digits = _digits(np.arange(n_big), A, len(big))
    weights = A ** np.arange(len(small), dtype=np.int64)

    def subcode(position_map: list[int]) -> np.ndarray:
        return (digits[position_map] * weights[:, None]).sum(axis=0)

    restricted = subcode([big.index(h) for h in small.elements])
    # a cell of a missing table reads code `absent`, which stands for 0
    absent = len(rule.values)
    # codes of distinct values, so that both zeros share one
    same, distinct = _intern(list(rule.values) + [CZERO])
    conj = _conjugate_codes(distinct)[same]
    real = np.array([v.is_real() for v in distinct], dtype=bool)[same]
    no_table = np.full(rule.n_window_codes, absent)

    e = group.identity()
    witnesses = []
    for g in small.elements:
        # (g.w)(h) = w(h*g), so the translated window gathers digits at h*g
        translated = subcode([big.index(group.multiply(h, g))
                              for h in small.elements])
        lhs = same[rule._rows.get(g, no_table)[restricted]]
        rhs = conj[rule._rows.get(group.inverse(g), no_table)[translated]]
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            witnesses.append((g, tuple(digits[:, bad[0]].tolist())))
        if g == e and not real[rule._rows.get(e, no_table)].all():
            witnesses.append((e, "non-real diagonal value"))
    return witnesses


# ---------------------------------------------------------------------------
# Induced operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InducedOperator:
    """Sparse Hermitian finite-volume operator, stored value-coded.

    Entry t sits at (rows[t], cols[t]) and holds values[codes[t]].  The
    entries are in row-major order: the keys rows * n + cols strictly
    increase, so the arrays are the operator's CSR order and no (row, col)
    repeats.  Every operator is exact: it keeps its distinct ComplexRational
    values once, as a tuple (see _intern), so exact work runs once per
    distinct value.  Codes are numbered by first appearance in row-major
    order, and the arrays are read-only.  The constructor refuses any other
    order and, through check_hermitian, any operator that is not Hermitian,
    so every operator that exists is Hermitian and its consumers check
    nothing again.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    codes: np.ndarray
    values: tuple

    def __post_init__(self):
        for a in (self.rows, self.cols, self.codes):
            a.setflags(write=False)
        keys = self.rows * self.n + self.cols
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("operator entries must be in strictly "
                             "increasing row-major order, no (row, col) twice")
        self.check_hermitian()

    @classmethod
    def from_entries(cls, n: int, entries: dict) -> "InducedOperator":
        """The operator storing exactly these (row, col) -> value entries,
        zeros included, in row-major order; values become Gaussian
        rationals (see _as_exact)."""
        nnz = len(entries)
        rows, cols = np.array(list(entries), dtype=np.int64).reshape(nnz, 2).T
        order = np.argsort(rows * n + cols)
        values = list(entries.values())
        codes, values = _intern([_as_exact(values[t]) for t in order.tolist()])
        return cls(n, rows[order], cols[order], codes, tuple(values))

    @functools.cached_property
    def entries(self) -> types.MappingProxyType:
        """Read-only (row, col) -> value dict in row-major order, built from
        the arrays on the first read; its length is nnz."""
        values = self.values
        return types.MappingProxyType(dict(zip(
            zip(self.rows.tolist(), self.cols.tolist()),
            [values[c] for c in self.codes.tolist()])))

    def is_diagonal(self) -> bool:
        return bool(np.array_equal(self.rows, self.cols))

    def _float_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals): float64 vals if every entry is real, else complex."""
        values = np.array([v.to_complex() for v in self.values], dtype=complex)
        return self.rows, self.cols, (
            values.real if self.is_real() else values)[self.codes]

    def check_hermitian(self) -> None:
        """Every stored entry has a stored transpose equal to its conjugate,
        so the diagonal is real; the constructor calls it once.

        Values are compared as codes: each distinct value maps to the code
        of its conjugate (-1 if absent).  The first bad pair in row-major
        order is named.
        """
        rows, cols, codes = self.rows, self.cols, self.codes
        keys = rows * self.n + cols
        transposed = cols * self.n + rows
        partner = np.minimum(np.searchsorted(keys, transposed),
                             max(len(keys) - 1, 0))
        found = keys[partner] == transposed
        match = _conjugate_codes(self.values)[codes[partner]] == codes
        bad = np.flatnonzero(~(found & match))
        if len(bad):
            i, j = rows[bad[0]], cols[bad[0]]
            raise AssemblyError(
                f"Hermitian symmetry violated at entry pair ({i},{j})")

    def denominator(self) -> int:
        """Least common denominator of the stored values, so that
        denominator * H has Gaussian-integer entries."""
        return _common_denominator(self.values)

    def row_sum_bound(self) -> float:
        mags = _magnitudes(self.values)
        sums = np.bincount(self.rows, weights=mags[self.codes],
                           minlength=self.n)
        return float(sums.max()) if self.n else 0.0

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.values)

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self._float_coo()
        out = np.zeros((self.n, self.n), dtype=vals.dtype, order="F")
        out[rows, cols] = vals
        return out

    def to_sparse(self):
        """The CSR matrix, read off the row-major arrays without a sort."""
        import scipy.sparse as sp
        rows, cols, vals = self._float_coo()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return sp.csr_matrix((vals, cols, indptr), shape=(self.n, self.n))


def _value_coded(n: int, keys: np.ndarray, pick: np.ndarray,
                 candidates) -> InducedOperator:
    """The operator with entry t = candidates[pick[t]] at row-major key
    keys[t] = row * n + col, zero entries left out; keys must strictly
    increase.  The ComplexRational candidates are interned once, not per
    entry.
    """
    cand_codes, distinct = _intern(list(candidates))
    codes = cand_codes[pick]
    keep = np.array([not v.is_zero() for v in distinct], dtype=bool)[codes]
    codes, values = _compact(codes[keep], distinct)
    rows, cols = np.divmod(keys[keep], n)
    return InducedOperator(n, rows, cols, codes, tuple(values))


def window_codes(rule: LocalRule, sigma: SoficApproximation,
                 rho: np.ndarray) -> np.ndarray:
    """Window code at every vertex: code_v = sum_i rho(sigma^{g_i}(v)) A^i."""
    b = rule.window_ball()
    A = rule.alphabet.size
    images = sigma.ball_images(b)
    vals = rho[images].astype(np.int64)
    weights = A ** np.arange(len(b), dtype=np.int64)
    return (vals * weights[:, None]).sum(axis=0)


def assemble_induced(rule: LocalRule, sigma: SoficApproximation,
                     rho: np.ndarray,
                     goodness: Optional[GoodnessReport] = None) -> InducedOperator:
    """Strict finite-volume assembly: entries only between 2M-good vertices.

    H(w, v) = c(g, window at w) for v = sigma^g(w) with |g| <= M and both
    endpoints 2M-good; zero otherwise.  Rule validation guarantees Hermitian
    symmetry, and the InducedOperator constructor checks it.

    This is the one place that picks the goodness radius 2M: package callers
    pass no report, and ``good_vertices`` scans each model and radius once.
    ``goodness`` stays for callers that hold a report already (the benchmark
    worker, ``perfbench/worker.py``, passes one); its radius must be 2M.
    """
    M = rule.hopping
    if goodness is None:
        goodness = good_vertices(sigma, 2 * M)
    if goodness.radius != 2 * M:
        raise AssemblyError(
            f"assembly needs goodness at radius {2*M}, got {goodness.radius}")
    if len(rho) != sigma.n_vertices:
        raise AssemblyError("configuration size does not match the model")
    windows = window_codes(rule, sigma, rho)
    good = goodness.good
    # an entry of ball element g takes g's value code of its row's window;
    # good vertices have injective balls, so no (row, col) repeats
    n = sigma.n_vertices
    parts = [(np.empty(0, dtype=np.int64),) * 2]
    for g, codes in zip(rule.elements, rule.codes):
        img = sigma.perm_of(g)
        r = np.flatnonzero(good & good[img])
        parts.append((r * n + img[r], codes[windows[r]]))
    keys, pick = map(np.concatenate, zip(*parts))
    # each part is a sorted run, which a stable (merging) sort joins fast
    order = np.argsort(keys, kind="stable")
    return _value_coded(n, keys[order], pick[order], rule.values)


def assemble_graph_schrodinger(sigma: SoficApproximation, rho: np.ndarray,
                               alphabet: Alphabet,
                               potential: Sequence) -> InducedOperator:
    """Graph Laplacian of (V_n, E_n) plus the diagonal potential F(rho(v)).

    This is the classical finite-volume Schrodinger analog defined directly
    on the sofic graph; it coincides with the strict assembly of the
    corresponding rule wherever all vertices are 2-good.  The entries are
    the distinct-neighbour edges and the nonzero diagonal; a float potential
    is taken at its exact binary value.
    """
    if len(potential) != alphabet.size:
        raise RuleValidationError("one potential value per symbol required")
    potential = [_as_exact(x) for x in potential]
    n = sigma.n_vertices
    verts = np.arange(n, dtype=np.int64)
    # each edge (v, sigma^s(v)) once, loops dropped
    keys = np.unique(np.concatenate(
        [(verts * n + p)[p != verts] for p in sigma.perms]))
    deg = np.bincount(keys // n, minlength=n)
    # the diagonal -deg(v) + F(rho(v)), made once per (degree, symbol) pair
    pairs, pair_of = np.unique(deg * alphabet.size + rho,
                               return_inverse=True)
    degs, syms = np.divmod(pairs, alphabet.size)
    diag = [ComplexRational(Fraction(-d)) + potential[s]
            for d, s in zip(degs.tolist(), syms.tolist())]
    # the edge keys are sorted and hold no loop: merge the diagonal in
    diag_keys = np.arange(n) * (n + 1)
    slots = np.searchsorted(keys, diag_keys)
    return _value_coded(n, np.insert(keys, slots, diag_keys),
                        np.insert(np.zeros(len(keys), dtype=np.int64), slots,
                                  1 + pair_of),
                        [ComplexRational(Fraction(1))] + diag)


# ---------------------------------------------------------------------------
# Power / moment oracles
# ---------------------------------------------------------------------------


@dataclass
class PowerDiagonalReport:
    """A power-diagonal check, always decided in exact arithmetic."""

    k: int
    max_discrepancy: float
    fraction_tested: float
    n_tested: int

    def to_json(self) -> dict:
        return {"k": self.k, "max_discrepancy": self.max_discrepancy,
                "fraction_tested": self.fraction_tested,
                "exact": True, "n_tested": self.n_tested}


def _common_denominator(values) -> int:
    return math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))


def _scaled_numerators(values) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, den*re, den*im) of a sequence of ComplexRationals: the values
    over their least common denominator, as object arrays of Python ints."""
    den = _common_denominator(values)
    re = np.empty(len(values), dtype=object)
    im = np.empty(len(values), dtype=object)
    re[:] = [v.re.numerator * (den // v.re.denominator) for v in values]
    im[:] = [v.im.numerator * (den // v.im.denominator) for v in values]
    return den, re, im


def _kernel_dtype(row_bound, k: int):
    """Array dtype for a k-step product of numerators with this row bound.

    row_bound is R, the largest row sum of |den*re| + |den*im|.  Row sums of
    entrywise magnitudes are submultiplicative, and so is the l1 norm
    |re| + |im| of a Gaussian integer, so every entry of |den*H|^j, and
    every partial sum of a j-step product or of a dot of an r-step row with
    a conjugated c-step row (r + c = j), is at most R^j in each of its real
    and imaginary parts.  int64 is therefore safe while R^k < 2^62, and
    anything larger, such as the numerators of a float's dyadic value, runs
    on Python ints (object arrays).
    """
    return np.int64 if row_bound ** k < _INT64_SAFE else object


def _line_starts(lines: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array: the first
    entry of each nonempty line when lines[t] is the line of entry t."""
    new = np.ones(len(lines), dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=new[1:])
    return np.flatnonzero(new)


def _longest_line(lines: np.ndarray) -> int:
    return int(np.diff(_line_starts(lines), append=len(lines)).max(initial=0))


def _propagate(rows: np.ndarray, cols: np.ndarray, ent_re: np.ndarray,
               ent_im: np.ndarray, real: bool, n: int, s: np.ndarray,
               w: np.ndarray, x_re: np.ndarray, x_im: np.ndarray, steps: int):
    """`steps` row-frontier steps through an operator's row-major entries.

    The frontier holds (s, w, re, im) sorted by the key s*n + w: x(s, w) is
    entry w of row s of a power of the operator.  A step searches the rows
    w (binary search, so no array of length n is built), expands each
    triple through its row, multiplies by the entry numerators and merges
    equal (s, col) keys with a stable sort and np.add.reduceat, so each sum
    takes its terms in ascending w order.  A step costs O(entries in the
    frontier's rows).
    """
    for _ in range(steps):
        first = np.searchsorted(rows, w)
        deg = np.searchsorted(rows, w, side="right") - first
        src = np.repeat(np.arange(len(deg)), deg)
        ent = np.arange(len(src)) + np.repeat(first - np.cumsum(deg) + deg,
                                              deg)
        g_re, e_re = x_re[src], ent_re[ent]
        t_re = g_re * e_re
        if not real:
            g_im, e_im = x_im[src], ent_im[ent]
            t_re -= g_im * e_im
            t_im = g_re * e_im + g_im * e_re
        # a stable argsort of the (s, col) keys: tagged with the term index
        # they are distinct, and a value sort is far faster.  s is sorted, so
        # the keys are below width*n for width = s[-1] + 1 and the tagged
        # keys below width*n*len(src), which must fit int64
        if len(src) and (int(s[-1]) + 1) * n * len(src) > 2 ** 63:
            raise OverflowError(
                f"frontier keys of {int(s[-1]) + 1} sources x {n} vertices "
                f"x {len(src)} terms overflow int64")
        tagged = s[src] * n + cols[ent]
        tagged = np.sort(tagged * len(tagged) + np.arange(len(tagged)))
        key, order = np.divmod(tagged, len(tagged))
        merged = _line_starts(key)
        s, w = np.divmod(key[merged], n)
        x_re = np.add.reduceat(t_re[order], merged)
        if not real:
            x_im = np.add.reduceat(t_im[order], merged)
    return s, w, x_re, x_im


def _matrix_power_diagonal(op: InducedOperator, k: int, vertices: np.ndarray
                           ) -> tuple[int, np.ndarray, np.ndarray]:
    """diag((den*H)^k) at the given vertices, den from the operator's entries.

    Returns (den, re, im) with length-len(vertices) numerator arrays.  It
    meets in the middle: with c = floor(k/2) and r = k - c, and H Hermitian
    (as every InducedOperator is),

        (den*H)^k(v, v) = sum_w (den*H)^r(v, w) * conj((den*H)^c(v, w)).

    By finite propagation both factors live on the vertices a few steps from
    v, so one row frontier (v's row of (den*H)^j, through the row-major
    storage; see _propagate) walks c steps and then r - c more.  Each source
    then takes one dot product over the keys the two frontiers share, its
    terms in ascending w order.  With dmax the largest row count, a source's
    frontier expands to at most min(nnz, dmax^r) terms in a step, so sources
    run in chunks of B = _BATCH_CELLS // min(nnz, dmax^r) and a step holds
    at most _BATCH_CELLS terms (one source per chunk when the bound is
    larger).  Nothing of length n is built, only arrays over entries and
    sources.
    """
    n = op.n
    rows, cols, codes = op.rows, op.cols, op.codes
    den, val_re, val_im = _scaled_numerators(op.values)
    dmax = _longest_line(rows)
    # a row sum of magnitudes is at most dmax times the largest, so it adds
    # up on int64 when that fits
    mags = np.abs(val_re) + np.abs(val_im)
    mags = mags.astype(_kernel_dtype(mags.max(initial=0) * dmax, 1))
    bound = max(np.add.reduceat(mags[codes], _line_starts(rows)).tolist(),
                default=0)
    dtype = _kernel_dtype(bound, k)
    ent_re, ent_im = val_re.astype(dtype)[codes], val_im.astype(dtype)[codes]
    real = not ent_im.any()
    entries = (rows, cols, ent_re, ent_im, real, n)
    c = k // 2
    r = k - c
    chunk = max(1, _BATCH_CELLS // max(1, min(len(rows), dmax ** r)))
    re = np.zeros(len(vertices), dtype=dtype)
    im = np.zeros(len(vertices), dtype=dtype)
    for lo in range(0, len(vertices), chunk):
        block = vertices[lo:lo + chunk]
        # one unit triple per source, already sorted by s*n + w
        unit = (np.arange(len(block)), block,
                np.ones(len(block), dtype=dtype),
                np.zeros(len(block), dtype=dtype))
        s_c, w_c, c_re, c_im = half = _propagate(*entries, *unit, c)
        s_r, w_r, r_re, r_im = _propagate(*entries, *half, r - c)
        # the shared keys: the c-step frontier's keys looked up in the r-step
        key_r = s_r * n + w_r
        key_c = s_c * n + w_c
        pos = np.searchsorted(key_r, key_c)
        ic = np.flatnonzero(pos < len(key_r))
        ic = ic[key_r[pos[ic]] == key_c[ic]]
        if not len(ic):
            continue
        ir = pos[ic]
        p_re = r_re[ir] * c_re[ic]
        if not real:
            p_re += r_im[ir] * c_im[ic]
            p_im = r_im[ir] * c_re[ic] - r_re[ir] * c_im[ic]
        src = s_c[ic]
        first = _line_starts(src)
        re[lo + src[first]] = np.add.reduceat(p_re, first)
        if not real:
            im[lo + src[first]] = np.add.reduceat(p_im, first)
    return den, re, im


def trace_moments(op: InducedOperator, k_max: int) -> list[Fraction]:
    """tr(H^k) / n for k = 1..k_max, exactly: the sum of diag((den*H)^k)
    over every vertex, in Python ints since n int64 terms can overflow, over
    den**k * n.  H is Hermitian, so a nonzero imaginary part of the diagonal
    is a kernel fault."""
    moments = []
    for k in range(1, k_max + 1):
        den, re, im = _matrix_power_diagonal(op, k, np.arange(op.n))
        if im.any():
            raise ArithmeticError(f"diag(H^{k}) has a nonzero imaginary part")
        moments.append(Fraction(sum(re.tolist()), den ** k * op.n))
    return moments


@dataclass
class _WalkSpace:
    """Static closed-walk structure on the Cayley ball B(e, floor(k/2) M):
    the walk sites are the elements of ``ball``, indexed in its order."""

    ball: CayleyBall
    transitions: list            # per site: list of (dst_index, step element)
    window_positions: list       # per site: big-ball index of h*site per h in B(M)


def _walk_space(group: GroupSpec, M: int, k: int) -> _WalkSpace:
    reach = (k // 2) * M
    walk_ball = ball(group, reach)
    big = ball(group, reach + M)
    step_ball = ball(group, M)
    transitions = []
    window_positions = []
    for x in walk_ball.elements:
        trans = []
        for u in step_ball.elements:
            y = group.multiply(u, x)
            if y in walk_ball:
                trans.append((walk_ball.index(y), u))
        transitions.append(trans)
        window_positions.append([big.index(group.multiply(h, x))
                                 for h in step_ball.elements])
    return _WalkSpace(ball=walk_ball, transitions=transitions,
                      window_positions=window_positions)


def _walk_setup(rule: LocalRule, k: int
                ) -> tuple[_WalkSpace, CayleyBall, list]:
    """(walk space, big ball B(e, reach + M), read sites) of the rule's
    k-step closed walks, reach = floor(k/2) M.

    The read sites are the sites that feed some influential window digit of
    some walk site.  All three are built once per rule and reach, so k = 2j
    and 2j + 1 share them.
    """
    M = rule.hopping
    reach = (k // 2) * M
    setup = rule._walks.get(reach)
    if setup is None:
        group = rule.group
        space = _walk_space(group, M, k)
        step_ball = ball(group, M)
        read_sites: list[Element] = []
        seen: set = set()
        for x in space.ball.elements:
            for pos in rule.influential_positions:
                site = group.multiply(step_ball.elements[pos], x)
                if site not in seen:
                    seen.add(site)
                    read_sites.append(site)
        setup = (space, ball(group, reach + M), read_sites)
        rule._walks[reach] = setup
    return setup


def _rule_numerators(rule: LocalRule, k: int) -> tuple[int, dict, bool, object]:
    """Rule tables as den*c numerator arrays indexed by window code.

    Returns (den, {g: (re, im)}, real, dtype) for a k-step walk; tables that
    are identically zero are left out.
    """
    den, tables, bound, real = rule._numerators
    dtype = _kernel_dtype(bound, k)
    return den, {g: (re.astype(dtype), im.astype(dtype))
                 for g, (re, im) in tables.items()}, real, dtype


def _walk_values(rule: LocalRule, space: _WalkSpace, big_vals: np.ndarray,
                 k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Closed-walk values (H^w)^k(e, e) inside the walk ball for B windows w.

    big_vals[i, b] is the symbol of window b at element i of B(e, kM/2+M).
    Returns (den, re, im) with length-B numerator arrays over den**k, den
    being the common denominator of the rule tables.  The state is one
    length-B vector per walk site; Python loops run only over steps, sites
    and transitions, in batches of at most _BATCH_CELLS cells.
    """
    den, tables, real, dtype = _rule_numerators(rule, k)
    A = rule.alphabet.size
    M = rule.hopping
    e_idx = space.ball.index(rule.group.identity())
    n_sites = len(space.ball)
    lengths = space.ball.word_lengths
    B = big_vals.shape[1]
    re = np.zeros(B, dtype=dtype)
    im = np.zeros(B, dtype=dtype)
    batch = max(1, _BATCH_CELLS // n_sites)
    for lo in range(0, B, batch):
        block = big_vals[:, lo:lo + batch].astype(np.int64)
        width = block.shape[1]
        codes = [sum(block[p] * A ** i for i, p in enumerate(positions))
                 for positions in space.window_positions]
        state: list = [None] * n_sites
        state[e_idx] = [np.ones(width, dtype=dtype), np.zeros(width, dtype=dtype)]
        for step in range(1, k + 1):
            limit = min(step, k - step) * M
            nxt: list = [None] * n_sites
            for x, a in enumerate(state):
                if a is None:
                    continue
                a_re, a_im = a
                for y, u in space.transitions[x]:
                    table = tables.get(u)
                    if table is None or lengths[y] > limit:
                        continue
                    # H(x, u x) = c(u, window at x)
                    c_re = table[0][codes[x]]
                    t_re = a_re * c_re
                    if real:
                        t_im = a_im     # the shared zero vector
                    else:
                        c_im = table[1][codes[x]]
                        t_re -= a_im * c_im
                        t_im = a_re * c_im + a_im * c_re
                    if nxt[y] is None:
                        nxt[y] = [t_re, t_im]
                    else:
                        nxt[y][0] += t_re
                        if not real:
                            nxt[y][1] += t_im
            state = nxt
        if state[e_idx] is not None:
            re[lo:lo + width], im[lo:lo + width] = state[e_idx]
    return den, re, im


def power_diagonal_check(rule: LocalRule, sigma: SoficApproximation,
                         rho: np.ndarray, k: int) -> PowerDiagonalReport:
    """Compare (H_n^rho)^k(v,v) with the closed-walk value of the pulled-back
    operator at every (floor(k/2) + 2)M-good vertex.

    That radius suffices.  If v is R-good, every vertex at distance d from v
    is (R - d)-good.  A closed k-walk from v stays within floor(k/2)M of v,
    since each entry moves at most M, so every entry it uses joins two
    2M-good vertices (which assembly keeps) and every window it reads lies
    in B(v, (floor(k/2) + 1)M), inside v's isomorphic ball.  So the matrix
    side sums exactly the walks the walk side sums, with the same
    coefficients.

    The two sides are independent kernels on integer numerator arrays, real
    and imaginary parts apart: the matrix side propagates a sparse frontier
    of den_op*H_n applied k times to the unit vectors of the tested vertices
    (den_op from the assembled entries), at a cost per step proportional to
    the entries the frontier touches; the walk side propagates den_rule*c
    along closed walks in the Cayley ball.  Each side runs on int64 when its
    largest row sum R has R^k < 2^62, and on Python ints otherwise.  Every
    rule is exact, a float coefficient at its binary value, so the sides are
    compared exactly, as num_m * den_w^k == num_w * den_m^k; only differing
    pairs get a float discrepancy.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    M = rule.hopping
    op = assemble_induced(rule, sigma, rho)
    vertices = np.flatnonzero(good_vertices(sigma, (k // 2 + 2) * M).good)
    den_m, m_re, m_im = _matrix_power_diagonal(op, k, vertices)
    space, big, _ = _walk_setup(rule, k)
    big_vals = rho[sigma.ball_images(big)[:, vertices]]
    den_w, w_re, w_im = _walk_values(rule, space, big_vals, k)
    scale_m, scale_w = den_m ** k, den_w ** k
    max_disc = 0.0
    for got_re, got_im, want_re, want_im in zip(
            m_re.tolist(), m_im.tolist(), w_re.tolist(), w_im.tolist()):
        if (got_re * scale_w == want_re * scale_m
                and got_im * scale_w == want_im * scale_m):
            continue
        diff = (complex(got_re / scale_m, got_im / scale_m)
                - complex(want_re / scale_w, want_im / scale_w))
        max_disc = max(max_disc, abs(diff))
    return PowerDiagonalReport(
        k=k, max_discrepancy=max_disc,
        fraction_tested=len(vertices) / sigma.n_vertices,
        n_tested=len(vertices))


# ---------------------------------------------------------------------------
# Expected moments
# ---------------------------------------------------------------------------


@dataclass
class ExpectedMomentResult:
    value: float


def expected_moment(rule: LocalRule, model: MeasureModel,
                    k: int) -> ExpectedMomentResult:
    """E[ (H^w)^k(e,e) ] over the model: the k-th density-of-states moment.

    The joint law of the window on the sites the walk can read is
    enumerated exactly, and every window goes through one batched
    closed-walk kernel on integer numerator arrays over the rule tables'
    common denominator den (int64 when the largest row sum R of den*c has
    R^k < 2^62, Python ints otherwise).
    It shares no code with the matrix powers it checks.  Each value is the
    exact numerator divided by den**k in Python ints, i.e. correctly rounded.
    The walk structures and the enumerated law are built once per rule,
    model and reach floor(k/2) M (see _walk_setup and _exact_law).
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    _check_model_group(model, rule)
    space, _, read_sites = _walk_setup(rule, k)
    n_assign = site_law_size(model, len(read_sites))
    if n_assign > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"{n_assign} window assignments exceed budget "
            f"{DEFAULT_ENUM_BUDGET}; lower the moment order")
    which, probs, big_vals = _exact_law(rule, model, k)
    values = _moment_values(rule, space, big_vals, k)
    total = 0.0
    for j, prob in zip(which.tolist(), probs.tolist()):
        total += prob * values[j]
    return ExpectedMomentResult(value=total)


def _exact_law(rule: LocalRule, model: MeasureModel, k: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(which, probs, big_vals): the model's law on the read sites of k-step
    walks, in site_law order.  Assignment t has probability probs[t] and is
    distinct assignment which[t], numbered by first appearance; big_vals
    holds the distinct assignments' windows (see _window_symbols).  Built
    once per rule, model and reach."""
    reach = (k // 2) * rule.hopping
    cached = rule._laws.get((model, reach))
    if cached is None:
        _, big, read_sites = _walk_setup(rule, k)
        index: dict = {}
        which, probs = [], []
        for assignment, prob in site_law(model, read_sites):
            which.append(index.setdefault(assignment, len(index)))
            probs.append(prob)
        cached = (np.array(which, dtype=np.int64), np.array(probs),
                  _window_symbols(rule, big, read_sites, list(index)))
        rule._laws[(model, reach)] = cached
    return cached


def _window_symbols(rule: LocalRule, big: CayleyBall, read_sites: list,
                    assignments: list) -> np.ndarray:
    """big_vals[i, j]: the symbol at element i of the big ball under
    assignment j of symbols to the read sites; every other site holds 0."""
    symbols = np.array(assignments, dtype=np.int64).reshape(
        len(assignments), len(read_sites))
    big_vals = np.zeros((len(big), len(assignments)),
                        dtype=np.min_scalar_type(rule.alphabet.size - 1))
    big_vals[[big.index(site) for site in read_sites]] = symbols.T
    big_vals.setflags(write=False)
    return big_vals


def _moment_values(rule: LocalRule, space: _WalkSpace, big_vals: np.ndarray,
                   k: int) -> list:
    """Closed-walk value as a float for each window column of big_vals."""
    den, re, _ = _walk_values(rule, space, big_vals, k)
    scale = den ** k
    return [num / scale for num in re.tolist()]


def _check_model_group(model: MeasureModel, rule: LocalRule) -> None:
    if model_alphabet(model).size != rule.alphabet.size:
        raise RuleValidationError("model and rule alphabets disagree")
    if any(g != rule.group for g in periodic_groups(model)):
        raise RuleValidationError("periodic model lives over a different group")
