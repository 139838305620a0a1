"""Local rules, their validation, induced finite-volume operators, moment oracles.

A local rule is the coefficient table of an equivariant finite-hopping-range
operator family: c(g, w) gives the matrix entry H^w(e, g) as a function of the
configuration window w on the hopping ball.  Entries are exact Gaussian
rationals whenever the rule is rational-valued, floats otherwise.

Two finite-volume constructions ship.  ``assemble_induced`` copies
coefficients between pairs of 2M-good vertices and zeroes everything else
(the strict existence construction).  ``assemble_graph_schrodinger`` builds
the graph Laplacian of the sofic graph plus a diagonal potential, the
classical Schrodinger finite-volume analog; both agree wherever every vertex
is 2M-good.

An assembled operator takes a handful of distinct values in thousands of
entries, so it is stored value-coded, once, at assembly: row and column
arrays plus a code per entry into the distinct values.  Its methods
(Hermitian check, row sums, dense and sparse forms, matrix powers) read
those arrays, so exact Gaussian-rational work runs once per distinct value
and the rest is numpy on codes.  ``entries`` is a read-only mapping derived
from the arrays.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exact import CZERO, ComplexRational
from .groups import CayleyBall, Element, GroupSpec, ball
from .measures import (
    Alphabet,
    Configuration,
    DEFAULT_ENUM_BUDGET,
    EnumerationBudgetError,
    MeasureModel,
    _digits,
    model_alphabet,
    periodic_groups,
    sample_sites,
    site_law,
    site_law_size,
)
from .sofic import GoodnessReport, SoficApproximation, good_vertices

Value = Union[ComplexRational, complex]

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


@dataclass
class LocalRule:
    """Coefficient table c(g, window) over the hopping ball B_S(e, M)."""

    group: GroupSpec
    alphabet: Alphabet
    hopping: int
    tables: dict            # ball element -> np.ndarray indexed by window code
    exact: bool
    name: str = "rule"

    def window_ball(self) -> CayleyBall:
        return ball(self.group, self.hopping)

    @property
    def n_window_codes(self) -> int:
        return self.alphabet.size ** len(self.window_ball())

    def zero_value(self) -> Value:
        return CZERO if self.exact else 0j

    def realized_value_sets(self) -> tuple[set, set]:
        """(diagonal values, off-diagonal values), zeros excluded."""
        e = self.group.identity()
        f1: set = set()
        f2: set = set()
        for g, table in self.tables.items():
            vals = {v for v in table.tolist() if not _is_zero(v)}
            if g == e:
                f1 |= vals
            else:
                f2 |= vals
        return f1, f2


def _is_zero(v: Value) -> bool:
    if isinstance(v, ComplexRational):
        return v.is_zero()
    return v == 0


def _abs(v: Value) -> float:
    if isinstance(v, ComplexRational):
        return float(v.abs2()) ** 0.5
    return abs(v)


def _value_key(v: ComplexRational) -> tuple:
    """Hashable key equal exactly when the values are: a Gaussian rational by
    its lowest-terms integers, which hash far faster than Fractions."""
    return (v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)


def _intern(values: list) -> tuple[np.ndarray, list]:
    """(codes, distinct) with values[t] == distinct[codes[t]].

    Objects are grouped by identity first, which is cheap because assembly
    copies the same table objects; then one representative per object is
    keyed by value, and equal representatives share a code.  Codes follow
    first appearance (see _compact).
    """
    ids = np.fromiter(map(id, values), dtype=np.uintp, count=len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    reps = [values[t] for t in first.tolist()]
    index: dict = {}
    by_value = np.array([index.setdefault(_value_key(v), r)
                         for r, v in enumerate(reps)], dtype=np.int64)
    return _compact(by_value[inverse], reps)


def _compact(codes: np.ndarray, values: list) -> tuple[np.ndarray, list]:
    """Codes renumbered by first appearance, values cut to the codes used."""
    used, first, inverse = np.unique(codes, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(used), dtype=np.int64)
    rank[order] = np.arange(len(used))
    return rank[inverse], [values[u] for u in used[order].tolist()]


def _as_exact(x) -> ComplexRational:
    if isinstance(x, ComplexRational):
        return x
    return ComplexRational(Fraction(x))


def _make_table(size: int, exact: bool) -> np.ndarray:
    if exact:
        t = np.empty(size, dtype=object)
        t[:] = CZERO
        return t
    return np.zeros(size, dtype=complex)


def schrodinger_rule(group: GroupSpec, alphabet: Alphabet,
                     potential: Sequence) -> LocalRule:
    """Graph Laplacian plus diagonal potential F: c(e,w) = -|S| + F(w(e)).

    ``potential[i]`` is F on symbol i; Fractions/ints keep the rule exact.
    """
    if len(potential) != alphabet.size:
        raise RuleValidationError("one potential value per symbol required")
    exact = all(isinstance(x, (int, Fraction)) for x in potential)
    b = ball(group, 1)
    A = alphabet.size
    e = group.identity()
    e_pos = b.index(e)
    n_codes = A ** len(b)
    codes = np.arange(n_codes)
    digits = _digits(codes, A, len(b))
    tables: dict = {}
    deg = group.n_generators
    diag = _make_table(n_codes, exact)
    for code in codes:
        sym = int(digits[e_pos, code])
        if exact:
            diag[code] = ComplexRational(Fraction(-deg) + Fraction(potential[sym]))
        else:
            diag[code] = complex(-deg + potential[sym])
    tables[e] = diag
    one = ComplexRational(Fraction(1)) if exact else 1 + 0j
    for i in range(group.n_generators):
        s = group.generator(i)
        if s in tables:
            continue  # involutive generator already covered
        t = _make_table(n_codes, exact)
        t[:] = one
        tables[s] = t
    return LocalRule(group=group, alphabet=alphabet, hopping=1, tables=tables,
                     exact=exact, name="schrodinger")


def laplacian_rule(group: GroupSpec,
                   alphabet: Optional[Alphabet] = None) -> LocalRule:
    """Combinatorial graph Laplacian as a rule (potential identically zero)."""
    if alphabet is None:
        alphabet = Alphabet(symbols=("0",))
    rule = schrodinger_rule(group, alphabet, [Fraction(0)] * alphabet.size)
    rule.name = "laplacian"
    return rule


def adjacency_rule(group: GroupSpec,
                   alphabet: Optional[Alphabet] = None) -> LocalRule:
    """Cayley-graph adjacency: the Laplacian shifted by +|S| I."""
    if alphabet is None:
        alphabet = Alphabet(symbols=("0",))
    deg = group.n_generators
    rule = schrodinger_rule(group, alphabet, [Fraction(deg)] * alphabet.size)
    rule.name = "adjacency"
    return rule


def diagonal_rule(group: GroupSpec, alphabet: Alphabet,
                  values: Sequence) -> LocalRule:
    """Hopping-range-0 rule c(e, w) = F(w(e))."""
    if len(values) != alphabet.size:
        raise RuleValidationError("one value per symbol required")
    exact = all(isinstance(x, (int, Fraction)) for x in values)
    e = group.identity()
    table = _make_table(alphabet.size, exact)
    for sym in range(alphabet.size):
        table[sym] = (_as_exact(values[sym]) if exact
                      else complex(values[sym]))
    return LocalRule(group=group, alphabet=alphabet, hopping=0,
                     tables={e: table}, exact=exact, name="diagonal")


def table_rule(group: GroupSpec, alphabet: Alphabet, hopping: int,
               entries: Sequence[tuple]) -> LocalRule:
    """Explicit rule from (ball element, window tuple, value) triples."""
    b = ball(group, hopping)
    A = alphabet.size
    n_codes = A ** len(b)
    exact = all(isinstance(v, (int, Fraction, ComplexRational))
                for (_, _, v) in entries)
    tables: dict = {}
    for g, window, value in entries:
        if g not in b:
            raise RuleValidationError(f"element {g} outside the hopping ball")
        if len(window) != len(b):
            raise RuleValidationError("window length must match the ball")
        code = 0
        for pos in reversed(range(len(b))):
            code = code * A + int(window[pos])
        if g not in tables:
            tables[g] = _make_table(n_codes, exact)
        tables[g][code] = _as_exact(value) if exact else complex(value)
    return LocalRule(group=group, alphabet=alphabet, hopping=hopping,
                     tables=tables, exact=exact, name="table")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class RuleValidationReport:
    ok: bool
    witnesses: list            # offending (g, window tuple) pairs
    diagonal_values: set       # realized F1 (zeros excluded)
    offdiagonal_values: set    # realized F2 (zeros excluded)
    row_sum_bound: float


def validate_local_rule(rule: LocalRule,
                        budget: int = DEFAULT_ENUM_BUDGET) -> RuleValidationReport:
    """Finite self-adjointness certificate plus realized value sets.

    Checks, for every g in the hopping ball and every window w on B(e, 2M),
    that c(g, w|_M) equals the conjugate of c(g^{-1}, (g.w)|_M), and that the
    diagonal is real.  Passing makes every assembled operator Hermitian.
    """
    group = rule.group
    M = rule.hopping
    A = rule.alphabet.size
    small = ball(group, M)
    big = ball(group, 2 * M)
    n_big = A ** len(big)
    if n_big > budget:
        raise EnumerationBudgetError(
            f"validation needs {A}^{len(big)} window evaluations")
    codes = np.arange(n_big)
    digits = _digits(codes, A, len(big))
    weights = A ** np.arange(len(small), dtype=np.int64)

    def subcode(position_map: list[int]) -> np.ndarray:
        gathered = digits[position_map, :]
        return (gathered * weights[:, None]).sum(axis=0)

    restrict_map = [big.index(h) for h in small.elements]
    restricted = subcode(restrict_map)

    e = group.identity()
    witnesses = []
    for g in small.elements:
        ginv = group.inverse(g)
        # (g.w)(h) = w(h*g), so the translated window gathers digits at h*g
        translate_map = [big.index(group.multiply(h, g)) for h in small.elements]
        translated = subcode(translate_map)
        tg = rule.tables.get(g)
        tginv = rule.tables.get(ginv)
        for code in codes:
            lhs = tg[restricted[code]] if tg is not None else rule.zero_value()
            rhs = (tginv[translated[code]] if tginv is not None
                   else rule.zero_value())
            if lhs != rhs.conjugate():
                witnesses.append((g, tuple(int(digits[big.index(h), code])
                                           for h in big.elements)))
                break  # one witness per g is enough
        if g == e and tg is not None:
            for v in tg.tolist():
                real = v.is_real() if isinstance(v, ComplexRational) else v.imag == 0
                if not real:
                    witnesses.append((e, "non-real diagonal value"))
                    break

    f1, f2 = rule.realized_value_sets()
    small_codes = np.arange(A ** len(small))
    row_sums = np.zeros(len(small_codes))
    for g in small.elements:
        tg = rule.tables.get(g)
        if tg is None:
            continue
        row_sums += np.array([_abs(v) for v in tg.tolist()])
    bound = float(row_sums.max()) if len(row_sums) else 0.0
    return RuleValidationReport(ok=not witnesses, witnesses=witnesses,
                                diagonal_values=f1, offdiagonal_values=f2,
                                row_sum_bound=bound)


# ---------------------------------------------------------------------------
# Induced operators
# ---------------------------------------------------------------------------


class _Entries(Mapping):
    """Read-only (row, col) -> value view of an operator, in entry order."""

    def __init__(self, op: "InducedOperator"):
        self._op = op

    def __len__(self) -> int:
        return len(self._op.rows)

    def __iter__(self):
        return zip(self._op.rows.tolist(), self._op.cols.tolist())

    def __getitem__(self, key) -> Value:
        return self._op._value(self._op._index[key])


@dataclass(frozen=True, eq=False)
class InducedOperator:
    """Sparse Hermitian finite-volume operator, stored value-coded.

    Entry t sits at (rows[t], cols[t]) and holds values[codes[t]].  Exact
    operators keep their distinct ComplexRational values once, as a tuple
    (see _intern), so exact work runs once per distinct value.  Float
    operators are not interned, so +-0.0 and NaN are never merged: values is
    their complex array and codes is arange(nnz).  Codes are numbered by
    first appearance, and the arrays are read-only.
    """

    n: int
    exact: bool
    rows: np.ndarray
    cols: np.ndarray
    codes: np.ndarray
    values: Union[tuple, np.ndarray]

    def __post_init__(self):
        for a in (self.rows, self.cols, self.codes, self.values):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @classmethod
    def from_entries(cls, n: int, entries: dict,
                     exact: bool) -> "InducedOperator":
        """The operator storing exactly these (row, col) -> value entries,
        zeros included; exact values become Gaussian rationals."""
        nnz = len(entries)
        rows, cols = np.array(list(entries), dtype=np.int64).reshape(nnz, 2).T
        if exact:
            codes, values = _intern([_as_exact(v) for v in entries.values()])
            values = tuple(values)
        else:
            values = np.fromiter(entries.values(), dtype=complex, count=nnz)
            codes = np.arange(nnz)
        return cls(n, exact, rows.copy(), cols.copy(), codes, values)

    @property
    def entries(self) -> Mapping:
        """(row, col) -> value, derived from the arrays; its length is nnz."""
        return _Entries(self)

    @functools.cached_property
    def _index(self) -> dict:
        """Entry number of each (row, col), built on the first lookup."""
        return dict(zip(self.entries, range(len(self.rows))))

    @functools.cached_property
    def _complex_values(self) -> np.ndarray:
        """One complex per code: the float images of exact values."""
        if not self.exact:
            return self.values
        return np.array([v.to_complex() for v in self.values], dtype=complex)

    def _value(self, t: int) -> Value:
        v = self.values[self.codes[t]]
        return v if self.exact else complex(v)

    def entry(self, i: int, j: int) -> Value:
        t = self._index.get((i, j))
        return (CZERO if self.exact else 0j) if t is None else self._value(t)

    def is_diagonal(self) -> bool:
        return bool(np.array_equal(self.rows, self.cols))

    def diagonal(self) -> list:
        return [self.entry(i, i) for i in range(self.n)]

    def _float_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals): float64 vals if every entry is real, else complex."""
        values = self._complex_values
        return self.rows, self.cols, (
            values.real if self.is_real() else values)[self.codes]

    def check_hermitian(self) -> None:
        """Every stored entry has a stored transpose equal to its conjugate.

        Exact values are compared as codes: each distinct value maps to the
        code of its conjugate (-1 if absent).  The first bad pair in entry
        order is named.
        """
        rows, cols, codes, values = self.rows, self.cols, self.codes, self.values
        keys = rows * self.n + cols
        transposed = cols * self.n + rows
        order = np.argsort(keys)
        slot = np.searchsorted(keys, transposed, sorter=order)
        partner = order[np.minimum(slot, max(len(keys) - 1, 0))]
        found = keys[partner] == transposed
        if self.exact:
            index = {_value_key(v): c for c, v in enumerate(values)}
            conj = np.array([index.get(_value_key(v.conjugate()), -1)
                             for v in values], dtype=np.int64)
            match = conj[codes[partner]] == codes
        else:
            match = values[partner].conj() == values
        bad = np.flatnonzero(~(found & match))
        if len(bad):
            i, j = rows[bad[0]], cols[bad[0]]
            raise AssemblyError(
                f"Hermitian symmetry violated at entry pair ({i},{j})")

    def denominator(self) -> Optional[int]:
        """Least common denominator of the stored values, so that
        denominator * H has Gaussian-integer entries; None when not exact."""
        return _common_denominator(self.values) if self.exact else None

    def row_sum_bound(self) -> float:
        # np.hypot rounds like abs(complex); np.abs does not
        values = self.values
        mags = (np.array([_abs(v) for v in values], dtype=float) if self.exact
                else np.hypot(values.real, values.imag))
        sums = np.bincount(self.rows, weights=mags[self.codes],
                           minlength=self.n)
        return float(sums.max()) if self.n else 0.0

    def is_real(self) -> bool:
        if self.exact:
            return all(v.is_real() for v in self.values)
        return bool((self.values.imag == 0).all())

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self._float_coo()
        out = np.zeros((self.n, self.n), dtype=vals.dtype)
        out[rows, cols] = vals
        return out

    def to_sparse(self):
        import scipy.sparse as sp
        rows, cols, vals = self._float_coo()
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


def _value_coded(n: int, rows: np.ndarray, cols: np.ndarray, pick: np.ndarray,
                 candidates, exact: bool) -> InducedOperator:
    """The operator with entry t = candidates[pick[t]] at (rows[t], cols[t]),
    zero entries left out.

    Exact candidates are interned once, not per entry; float ones are
    copied per entry.
    """
    if exact:
        cand_codes, distinct = _intern(list(candidates))
        codes = cand_codes[pick]
        keep = np.array([not v.is_zero() for v in distinct],
                        dtype=bool)[codes]
        codes, values = _compact(codes[keep], distinct)
        values = tuple(values)
    else:
        values = np.asarray(candidates, dtype=complex)[pick]
        keep = values != 0
        values = values[keep]
        codes = np.arange(len(values))
    return InducedOperator(n, exact, rows[keep], cols[keep], codes, values)


def window_codes(rule: LocalRule, sigma: SoficApproximation,
                 rho: Configuration) -> np.ndarray:
    """Window code at every vertex: code_v = sum_i rho(sigma^{g_i}(v)) A^i."""
    b = rule.window_ball()
    A = rule.alphabet.size
    images = sigma.ball_images(b)
    vals = rho.values[images].astype(np.int64)
    weights = A ** np.arange(len(b), dtype=np.int64)
    return (vals * weights[:, None]).sum(axis=0)


def assemble_induced(rule: LocalRule, sigma: SoficApproximation,
                     rho: Configuration,
                     goodness: Optional[GoodnessReport] = None) -> InducedOperator:
    """Strict finite-volume assembly: entries only between 2M-good vertices.

    H(w, v) = c(g, window at w) for v = sigma^g(w) with |g| <= M and both
    endpoints 2M-good; zero otherwise.  Hermitian symmetry is asserted after
    assembly (it is guaranteed by rule validation).

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
    if rho.n_vertices != sigma.n_vertices:
        raise AssemblyError("configuration size does not match the model")
    codes = window_codes(rule, sigma, rho)
    good = goodness.good
    elements = [g for g in rule.window_ball().elements if g in rule.tables]
    # an entry of ball element i takes candidate i * n_window_codes + code;
    # good vertices have injective balls, so no (row, col) repeats
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    for i, g in enumerate(elements):
        img = sigma.perm_of(g)
        r = np.flatnonzero(good & good[img])
        parts.append((r, img[r], i * rule.n_window_codes + codes[r]))
    rows, cols, pick = map(np.concatenate, zip(*parts))
    candidates = np.concatenate([rule.tables[g] for g in elements]
                                + [_make_table(0, rule.exact)])
    op = _value_coded(sigma.n_vertices, rows, cols, pick, candidates,
                      rule.exact)
    op.check_hermitian()
    return op


def assemble_graph_schrodinger(sigma: SoficApproximation, rho: Configuration,
                               alphabet: Alphabet,
                               potential: Sequence) -> InducedOperator:
    """Graph Laplacian of (V_n, E_n) plus the diagonal potential F(rho(v)).

    This is the classical finite-volume Schrodinger analog defined directly
    on the sofic graph; it coincides with the strict assembly of the
    corresponding rule wherever all vertices are 2-good.  The entries are
    the distinct-neighbour edges in ascending (row, col) order, then the
    nonzero diagonal in vertex order.
    """
    from .sofic import edge_graph
    if len(potential) != alphabet.size:
        raise RuleValidationError("one potential value per symbol required")
    exact = all(isinstance(x, (int, Fraction)) for x in potential)
    graph = edge_graph(sigma)
    n = sigma.n_vertices
    keys = np.unique(graph.src.astype(np.int64) * n + graph.dst)
    deg = np.bincount(keys // n, minlength=n)
    # the diagonal -deg(v) + F(rho(v)), made once per (degree, symbol) pair
    pairs, pair_of = np.unique(deg * alphabet.size + rho.values,
                               return_inverse=True)
    degs, syms = np.divmod(pairs, alphabet.size)
    diag = [ComplexRational(Fraction(-d) + Fraction(potential[s])) if exact
            else complex(-d + potential[s])
            for d, s in zip(degs.tolist(), syms.tolist())]
    one = ComplexRational(Fraction(1)) if exact else 1 + 0j
    vertices = np.arange(n)
    op = _value_coded(n, np.concatenate([keys // n, vertices]),
                      np.concatenate([keys % n, vertices]),
                      np.concatenate([np.zeros(len(keys), dtype=np.int64),
                                      1 + pair_of]),
                      [one] + diag, exact)
    op.check_hermitian()
    return op


# ---------------------------------------------------------------------------
# Power / moment oracles
# ---------------------------------------------------------------------------


@dataclass
class PowerDiagonalReport:
    k: int
    max_discrepancy: float
    fraction_tested: float
    exact: bool
    n_tested: int

    def to_json(self) -> dict:
        return {"k": self.k, "max_discrepancy": self.max_discrepancy,
                "fraction_tested": self.fraction_tested,
                "exact": self.exact, "n_tested": self.n_tested}


def _common_denominator(values) -> int:
    return math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))


def _scaled_numerators(values: list, exact: bool
                       ) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, den*re, den*im) of a list of values.

    Exact values go over their least common denominator as object arrays of
    Python ints; float values come back as float64 arrays with den = 1.
    """
    if not exact:
        c = np.asarray(values, dtype=complex).reshape(-1)
        return 1, c.real.copy(), c.imag.copy()
    den = _common_denominator(values)
    re = np.empty(len(values), dtype=object)
    im = np.empty(len(values), dtype=object)
    re[:] = [v.re.numerator * (den // v.re.denominator) for v in values]
    im[:] = [v.im.numerator * (den // v.im.denominator) for v in values]
    return den, re, im


def _kernel_dtype(exact: bool, row_bound, k: int):
    """Array dtype for a k-step product of numerators with this row bound.

    row_bound is R, the largest row sum of |den*re| + |den*im|.  Row sums of
    entrywise magnitudes are submultiplicative, and so is the l1 norm
    |re| + |im| of a Gaussian integer, so every entry of |den*H|^j, and
    every partial sum of a j-step product or of a dot of an r-step row with
    a c-step column (r + c = j), is at most R^j in each of its real and
    imaginary parts.  int64 is therefore safe while R^k < 2^62, and anything
    larger runs on Python ints (object arrays).  Float values always run on
    float64.
    """
    if not exact:
        return np.float64
    return np.int64 if row_bound ** k < _INT64_SAFE else object


def _propagate(ptr: np.ndarray, other: np.ndarray, ent_re: np.ndarray,
               ent_im: np.ndarray, real: bool, n: int, s: np.ndarray,
               w: np.ndarray, x_re: np.ndarray, x_im: np.ndarray, steps: int):
    """`steps` frontier steps through a compressed operator.

    The entries of line w (a row in CSR order, a column in CSC order) are
    ptr[w]..ptr[w+1]-1, with other[t] the index at the other end of entry t.
    The frontier holds (s, w, re, im) sorted by the key s*n + w.  A step
    expands each triple through its line, multiplies by the entry numerators
    and merges equal (s, other) keys with a stable sort and np.add.reduceat,
    so each sum takes its terms in ascending w order.  It costs O(entries in
    the frontier's lines).
    """
    for _ in range(steps):
        first, deg = ptr[w], ptr[w + 1] - ptr[w]
        src = np.repeat(np.arange(len(w)), deg)
        ent = np.arange(len(src)) + np.repeat(first - np.cumsum(deg) + deg,
                                              deg)
        g_re, e_re = x_re[src], ent_re[ent]
        t_re = g_re * e_re
        if not real:
            g_im, e_im = x_im[src], ent_im[ent]
            t_re -= g_im * e_im
            t_im = g_re * e_im + g_im * e_re
        # a stable argsort of the (s, other) keys: tagged with the term index
        # they are distinct, and a value sort is far faster; keys stay below
        # width*n and terms below width*bound (see _matrix_power_diagonal),
        # so the tagged keys fit int64 for n < 2^29
        tagged = s[src] * n + other[ent]
        tagged = np.sort(tagged * len(tagged) + np.arange(len(tagged)))
        key, order = np.divmod(tagged, len(tagged))
        merged = np.flatnonzero(np.diff(key, prepend=-1))
        s, w = np.divmod(key[merged], n)
        x_re = np.add.reduceat(t_re[order], merged)
        if not real:
            x_im = np.add.reduceat(t_im[order], merged)
    return s, w, x_re, x_im


def _matrix_power_diagonal(op: InducedOperator, k: int, vertices: np.ndarray
                           ) -> tuple[int, np.ndarray, np.ndarray]:
    """diag((den*H)^k) at the given vertices, den from the operator's entries.

    Returns (den, re, im) with length-len(vertices) numerator arrays.  It
    meets in the middle: with c = floor(k/2) and r = k - c,

        (den*H)^k(v, v) = sum_w (den*H)^r(v, w) * (den*H)^c(w, v).

    By finite propagation both factors live on the vertices a few steps from
    v, so a row frontier (v's row of (den*H)^j, through CSR order) walks r
    steps and a column frontier (v's column, through CSC order) walks c
    steps from the same sources (see _propagate).  Each source then takes
    one dot product over the keys the two frontiers share, its terms in
    ascending w order.  No symmetry of H is assumed.  With dmax the largest
    row or column count, a source's frontier expands to at most
    min(nnz, dmax^r) terms in a step, so sources run in chunks of
    B = _BATCH_CELLS // min(nnz, dmax^r) and a step holds at most
    _BATCH_CELLS terms (one source per chunk when the bound is larger).
    """
    n = op.n
    rows, cols, codes = op.rows, op.cols, op.codes
    den, val_re, val_im = _scaled_numerators(op.values, op.exact)
    csr = np.lexsort((cols, rows))
    csc = np.lexsort((rows, cols))
    row_ptr = np.searchsorted(rows[csr], np.arange(n + 1))
    col_ptr = np.searchsorted(cols[csc], np.arange(n + 1))
    row_mags = (np.abs(val_re) + np.abs(val_im))[codes[csr]]
    starts = np.flatnonzero(np.diff(rows[csr], prepend=-1))
    bound = np.add.reduceat(row_mags, starts).max() if len(rows) else 0
    dtype = _kernel_dtype(op.exact, bound, k)
    ent_re, ent_im = val_re.astype(dtype)[codes], val_im.astype(dtype)[codes]
    real = not ent_im.any()
    c = k // 2
    r = k - c
    # (ptr, other end, entry numerators) of a row and of a column frontier
    row_side = (row_ptr, cols[csr], ent_re[csr], ent_im[csr], real, n)
    col_side = (col_ptr, rows[csc], ent_re[csc], ent_im[csc], real, n)
    dmax = int(max(np.diff(row_ptr).max(initial=0),
                   np.diff(col_ptr).max(initial=0)))
    chunk = max(1, _BATCH_CELLS // max(1, min(len(rows), dmax ** r)))
    re = np.zeros(len(vertices), dtype=dtype)
    im = np.zeros(len(vertices), dtype=dtype)
    for lo in range(0, len(vertices), chunk):
        block = vertices[lo:lo + chunk]
        # one unit triple per source, already sorted by s*n + w
        unit = (np.arange(len(block)), block,
                np.ones(len(block), dtype=dtype),
                np.zeros(len(block), dtype=dtype))
        s_r, w_r, r_re, r_im = _propagate(*row_side, *unit, r)
        s_c, w_c, c_re, c_im = _propagate(*col_side, *unit, c)
        # the shared keys: the column frontier's keys looked up in the row's
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
            p_re -= r_im[ir] * c_im[ic]
            p_im = r_re[ir] * c_im[ic] + r_im[ir] * c_re[ic]
        src = s_c[ic]
        first = np.flatnonzero(np.diff(src, prepend=-1))
        re[lo + src[first]] = np.add.reduceat(p_re, first)
        if not real:
            im[lo + src[first]] = np.add.reduceat(p_im, first)
    return den, re, im


@dataclass
class _WalkSpace:
    """Static closed-walk structure on the Cayley ball B(e, floor(k/2) M)."""

    sites: list                  # ball elements
    site_index: dict
    max_len: list                # word length per site
    transitions: list            # per site: list of (dst_index, step element)
    window_positions: list       # per site: big-ball index of h*site per h in B(M)


def _walk_space(group: GroupSpec, M: int, k: int) -> _WalkSpace:
    reach = (k // 2) * M
    walk_ball = ball(group, reach)
    big = ball(group, reach + M)
    step_ball = ball(group, M)
    sites = list(walk_ball.elements)
    site_index = {g: i for i, g in enumerate(sites)}
    transitions = []
    window_positions = []
    for x in sites:
        trans = []
        for u in step_ball.elements:
            y = group.multiply(u, x)
            j = site_index.get(y)
            if j is not None:
                trans.append((j, u))
        transitions.append(trans)
        window_positions.append([big.index(group.multiply(h, x))
                                 for h in step_ball.elements])
    return _WalkSpace(sites=sites, site_index=site_index,
                      max_len=[group.word_length(g) for g in sites],
                      transitions=transitions,
                      window_positions=window_positions)


def _rule_numerators(rule: LocalRule, k: int) -> tuple[int, dict, bool, object]:
    """Rule tables as den*c numerator arrays indexed by window code.

    Returns (den, {g: (re, im)}, real, dtype) for a k-step walk; tables that
    are identically zero are left out.
    """
    elements = list(rule.tables)
    den, re, im = _scaled_numerators(
        [v for g in elements for v in rule.tables[g].tolist()], rule.exact)
    re = re.reshape(len(elements), rule.n_window_codes)
    im = im.reshape(len(elements), rule.n_window_codes)
    bound = (np.abs(re) + np.abs(im)).sum(axis=0).max()
    dtype = _kernel_dtype(rule.exact, bound, k)
    tables = {g: (re[i].astype(dtype), im[i].astype(dtype))
              for i, g in enumerate(elements) if re[i].any() or im[i].any()}
    return den, tables, not im.any(), dtype


def _walk_values(rule: LocalRule, space: _WalkSpace, big_vals: np.ndarray,
                 k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Closed-walk values (H^w)^k(e, e) inside the walk ball for B windows w.

    big_vals[i, b] is the symbol of window b at element i of B(e, kM/2+M).
    Returns (den, re, im) with length-B numerator arrays over den**k, den
    being the common denominator of the rule tables (1 for float rules).  The
    state is one length-B vector per walk site; Python loops run only over
    steps, sites and transitions, in batches of at most _BATCH_CELLS cells.
    """
    den, tables, real, dtype = _rule_numerators(rule, k)
    A = rule.alphabet.size
    M = rule.hopping
    e_idx = space.site_index[rule.group.identity()]
    n_sites = len(space.sites)
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
                    if table is None or space.max_len[y] > limit:
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
                         rho: Configuration, k: int) -> PowerDiagonalReport:
    """Compare (H_n^rho)^k(v,v) with the closed-walk value of the pulled-back
    operator at every 4kM-good vertex.

    The two sides are independent kernels on integer numerator arrays, real
    and imaginary parts apart: the matrix side propagates a sparse frontier
    of den_op*H_n applied k times to the unit vectors of the tested vertices
    (den_op from the assembled entries), at a cost per step proportional to
    the entries the frontier touches; the walk side propagates den_rule*c
    along closed walks in the Cayley ball.  Each side runs on
    int64 when its largest row sum R has R^k < 2^62, on Python ints
    otherwise, and on float64 for float rules.  Exact values are compared as
    num_m * den_w^k == num_w * den_m^k; only differing pairs get a float
    discrepancy.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    M = rule.hopping
    op = assemble_induced(rule, sigma, rho)
    vertices = np.flatnonzero(good_vertices(sigma, 4 * k * M).good)
    den_m, m_re, m_im = _matrix_power_diagonal(op, k, vertices)
    space = _walk_space(rule.group, M, k)
    big = ball(rule.group, (k // 2) * M + M)
    big_vals = rho.values[sigma.ball_images(big)[:, vertices]]
    den_w, w_re, w_im = _walk_values(rule, space, big_vals, k)
    scale_m, scale_w = den_m ** k, den_w ** k
    max_disc = 0.0
    exact_ok = rule.exact
    for got_re, got_im, want_re, want_im in zip(
            m_re.tolist(), m_im.tolist(), w_re.tolist(), w_im.tolist()):
        if (exact_ok and got_re * scale_w == want_re * scale_m
                and got_im * scale_w == want_im * scale_m):
            continue
        diff = (complex(got_re / scale_m, got_im / scale_m)
                - complex(want_re / scale_w, want_im / scale_w))
        max_disc = max(max_disc, abs(diff))
    return PowerDiagonalReport(
        k=k, max_discrepancy=max_disc,
        fraction_tested=len(vertices) / sigma.n_vertices,
        exact=exact_ok, n_tested=len(vertices))


# ---------------------------------------------------------------------------
# Expected moments
# ---------------------------------------------------------------------------


@dataclass
class ExpectedMomentResult:
    k: int
    value: float
    standard_error: float
    mode: str


def _influential_positions(rule: LocalRule) -> list[int]:
    """Ball positions that can change any coefficient of the rule."""
    A = rule.alphabet.size
    K = len(rule.window_ball())
    influential = set()
    for table in rule.tables.values():
        arr = table.reshape([A] * K) if K else table
        for pos in range(K):
            if pos in influential:
                continue
            # numpy axes index window positions in reverse code order
            axis = K - 1 - pos
            first = np.take(arr, 0, axis=axis)
            for s in range(1, A):
                if np.any(np.take(arr, s, axis=axis) != first):
                    influential.add(pos)
                    break
    return sorted(influential)


def expected_moment(rule: LocalRule, model: MeasureModel, k: int,
                    mode: str = "exact", samples: int = 200, seed: int = 0,
                    budget: int = DEFAULT_ENUM_BUDGET) -> ExpectedMomentResult:
    """E[ (H^w)^k(e,e) ] over the model: the k-th density-of-states moment.

    Exact mode enumerates the joint law of the window on the sites the walk
    can read; Monte Carlo mode averages the closed-walk value over sampled
    windows and reports a standard error.  Either way every window goes
    through one batched closed-walk kernel on integer numerator arrays over
    the rule tables' common denominator den (int64 when the largest row sum R
    of den*c has R^k < 2^62, Python ints otherwise, float64 for float rules).
    It shares no code with the matrix powers it checks.  Each value is the
    exact numerator divided by den**k in Python ints, i.e. correctly rounded.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    group = rule.group
    _check_model_group(model, rule)
    M = rule.hopping
    space = _walk_space(group, M, k)
    big = ball(group, (k // 2) * M + M)
    step_ball = ball(group, M)
    infl = _influential_positions(rule)
    # sites that feed some influential window digit of some walk site
    read_sites: list[Element] = []
    read_index: dict = {}
    for x in space.sites:
        for pos in infl:
            site = group.multiply(step_ball.elements[pos], x)
            if site not in read_index:
                read_index[site] = len(read_sites)
                read_sites.append(site)
    if mode == "exact":
        n_assign = site_law_size(model, len(read_sites))
        if n_assign > budget:
            raise EnumerationBudgetError(
                f"{n_assign} window assignments exceed budget; "
                "retry with mode='mc'")
        index: dict = {}
        law = [(index.setdefault(assignment, len(index)), prob)
               for assignment, prob in site_law(model, read_sites)]
        values = _moment_values(rule, space, big, read_sites, list(index), k)
        total = 0.0
        for j, prob in law:
            total += prob * values[j]
        return ExpectedMomentResult(k=k, value=total, standard_error=0.0,
                                    mode="exact")
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    assignments = [
        sample_sites(model, read_sites, np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(j,))))
        for j in range(samples)]
    arr = np.asarray(_moment_values(rule, space, big, read_sites,
                                    assignments, k))
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return ExpectedMomentResult(k=k, value=float(arr.mean()),
                                standard_error=se, mode="mc")


def _moment_values(rule: LocalRule, space: _WalkSpace, big: CayleyBall,
                   read_sites: list, assignments: list, k: int) -> list:
    """Closed-walk value as a float for each assignment of symbols to read
    sites; every other site of the big ball holds symbol 0."""
    symbols = np.array(assignments, dtype=np.int64).reshape(
        len(assignments), len(read_sites))
    big_vals = np.zeros((len(big), len(assignments)),
                        dtype=np.min_scalar_type(rule.alphabet.size - 1))
    big_vals[[big.index(site) for site in read_sites]] = symbols.T
    den, re, _ = _walk_values(rule, space, big_vals, k)
    scale = den ** k
    return [num / scale for num in re.tolist()]


def _check_model_group(model: MeasureModel, rule: LocalRule) -> None:
    if model_alphabet(model).size != rule.alphabet.size:
        raise RuleValidationError("model and rule alphabets disagree")
    if any(g != rule.group for g in periodic_groups(model)):
        raise RuleValidationError("periodic model lives over a different group")
