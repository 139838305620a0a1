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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
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
    IIDProduct,
    MeasureModel,
    Mixture,
    PeriodicOrbit,
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


def _digits(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """Digit matrix D[pos, code] of base-`base` expansions."""
    out = np.empty((length, len(codes)), dtype=np.int64)
    c = codes.copy()
    for pos in range(length):
        out[pos] = c % base
        c //= base
    return out


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

    def coefficient(self, g: Element, code: int) -> Value:
        table = self.tables.get(g)
        if table is None:
            return CZERO if self.exact else 0j
        return table[code]

    def zero_value(self) -> Value:
        return CZERO if self.exact else 0j

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        for g in sorted(self.tables.keys()):
            h.update(repr(g).encode())
            for v in self.tables[g]:
                h.update(repr(v).encode())
        return h.hexdigest()[:16]

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


def _conj(v: Value) -> Value:
    if isinstance(v, ComplexRational):
        return v.conjugate()
    return v.conjugate()


def _abs(v: Value) -> float:
    if isinstance(v, ComplexRational):
        return float(v.abs2()) ** 0.5
    return abs(v)


def _to_complex(v: Value) -> complex:
    if isinstance(v, ComplexRational):
        return v.to_complex()
    return complex(v)


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

    def to_json(self) -> dict:
        return {"ok": self.ok, "n_witnesses": len(self.witnesses),
                "row_sum_bound": self.row_sum_bound,
                "n_diagonal_values": len(self.diagonal_values),
                "n_offdiagonal_values": len(self.offdiagonal_values)}


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
            if lhs != _conj(rhs):
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


@dataclass
class InducedOperator:
    """Sparse Hermitian finite-volume operator with provenance."""

    n: int
    entries: dict               # (row, col) -> nonzero Value
    exact: bool
    hopping: int
    goodness_radius: int
    provenance: dict = field(default_factory=dict)

    def entry(self, i: int, j: int) -> Value:
        return self.entries.get((i, j), CZERO if self.exact else 0j)

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def diagonal(self) -> list:
        return [self.entry(i, i) for i in range(self.n)]

    def check_hermitian(self) -> None:
        for (i, j), v in self.entries.items():
            w = self.entries.get((j, i))
            if w is None or _conj(w) != v:
                raise AssemblyError(
                    f"Hermitian symmetry violated at entry pair ({i},{j})")

    def row_sum_bound(self) -> float:
        sums = np.zeros(self.n)
        for (i, _), v in self.entries.items():
            sums[i] += _abs(v)
        return float(sums.max()) if self.n else 0.0

    def is_real(self) -> bool:
        return all(
            v.is_real() if isinstance(v, ComplexRational) else v.imag == 0
            for v in self.entries.values())

    def to_dense(self) -> np.ndarray:
        real = self.is_real()
        out = np.zeros((self.n, self.n), dtype=float if real else complex)
        for (i, j), v in self.entries.items():
            c = _to_complex(v)
            out[i, j] = c.real if real else c
        return out

    def to_sparse(self):
        import scipy.sparse as sp
        if not self.entries:
            return sp.csr_matrix((self.n, self.n))
        rows, cols, vals = zip(*[(i, j, _to_complex(v))
                                 for (i, j), v in self.entries.items()])
        vals = np.asarray(vals)
        if self.is_real():
            vals = vals.real
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.entries.keys()):
            h.update(repr(key).encode())
            h.update(repr(self.entries[key]).encode())
        return h.hexdigest()[:16]


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
    b = rule.window_ball()
    entries: dict = {}
    verts = np.arange(sigma.n_vertices)
    for g in b.elements:
        table = rule.tables.get(g)
        if table is None:
            continue
        img = sigma.perm_of(g)
        mask = good & good[img]
        rows = verts[mask]
        vals = table[codes[mask]]
        cols = img[mask]
        for w, v, val in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            if _is_zero(val):
                continue
            entries[(w, v)] = val
    op = InducedOperator(
        n=sigma.n_vertices, entries=entries, exact=rule.exact,
        hopping=M, goodness_radius=2 * M,
        provenance={"rule": rule.fingerprint(), "sigma": sigma.fingerprint(),
                    "rho": hashlib.sha256(
                        np.ascontiguousarray(rho.values).tobytes()).hexdigest()[:16],
                    "mode": "induced"})
    op.check_hermitian()
    return op


def assemble_graph_schrodinger(sigma: SoficApproximation, rho: Configuration,
                               alphabet: Alphabet,
                               potential: Sequence) -> InducedOperator:
    """Graph Laplacian of (V_n, E_n) plus the diagonal potential F(rho(v)).

    This is the classical finite-volume Schrodinger analog defined directly
    on the sofic graph; it coincides with the strict assembly of the
    corresponding rule wherever all vertices are 2-good.
    """
    from .sofic import edge_graph
    if len(potential) != alphabet.size:
        raise RuleValidationError("one potential value per symbol required")
    exact = all(isinstance(x, (int, Fraction)) for x in potential)
    graph = edge_graph(sigma)
    n = sigma.n_vertices
    keys = np.unique(graph.src.astype(np.int64) * n + graph.dst)
    entries: dict = {}
    one = ComplexRational(Fraction(1)) if exact else 1 + 0j
    deg = np.zeros(n, dtype=np.int64)
    for key in keys.tolist():
        i, j = divmod(key, n)
        entries[(i, j)] = one
        deg[i] += 1
    for v in range(n):
        if exact:
            val = ComplexRational(Fraction(int(-deg[v]))
                                  + Fraction(potential[int(rho.values[v])]))
        else:
            val = complex(-int(deg[v]) + potential[int(rho.values[v])])
        if not _is_zero(val):
            entries[(v, v)] = val
    op = InducedOperator(
        n=n, entries=entries, exact=exact, hopping=1, goodness_radius=0,
        provenance={"sigma": sigma.fingerprint(), "mode": "graph_schrodinger",
                    "rho": hashlib.sha256(
                        np.ascontiguousarray(rho.values).tobytes()).hexdigest()[:16]})
    op.check_hermitian()
    return op


def export_matrix_market(op: InducedOperator, path) -> None:
    import scipy.io
    scipy.io.mmwrite(str(path), op.to_sparse())


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


def _scaled_numerators(values: list, exact: bool
                       ) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, den*re, den*im) of a list of values.

    Exact values go over their least common denominator as object arrays of
    Python ints; float values come back as float64 arrays with den = 1.
    """
    if not exact:
        c = np.asarray(values, dtype=complex).reshape(-1)
        return 1, c.real.copy(), c.imag.copy()
    den = math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))
    re = np.empty(len(values), dtype=object)
    im = np.empty(len(values), dtype=object)
    re[:] = [v.re.numerator * (den // v.re.denominator) for v in values]
    im[:] = [v.im.numerator * (den // v.im.denominator) for v in values]
    return den, re, im


def _kernel_dtype(exact: bool, row_bound, k: int):
    """Array dtype for a k-step product of numerators with this row bound.

    row_bound is the largest row sum of |den*re| + |den*im|, so every entry
    and every partial sum of a k-step product is at most row_bound^k in
    magnitude: int64 is safe below 2^62 and anything larger runs on Python
    ints (object arrays).  Float values always run on float64.
    """
    if not exact:
        return np.float64
    return np.int64 if row_bound ** k < _INT64_SAFE else object


def _matrix_power_diagonal(op: InducedOperator, k: int, vertices: np.ndarray
                           ) -> tuple[int, np.ndarray, np.ndarray]:
    """diag((den*H)^k) at the given vertices, den from the operator's entries.

    Returns (den, re, im) with length-len(vertices) numerator arrays.  A block
    of unit columns goes through k CSR matvecs: gather the block at the
    column indices, multiply by the entries, sum each row with
    np.add.reduceat over the row pointers.  Vertices are processed in chunks
    of at most _BATCH_CELLS cells per array.
    """
    n = op.n
    keys = sorted(op.entries)
    den, val_re, val_im = _scaled_numerators(
        [op.entries[key] for key in keys], op.exact)
    rows = np.array([i for i, _ in keys], dtype=np.int64)
    cols = np.array([j for _, j in keys], dtype=np.int64)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    filled = np.diff(indptr) > 0
    starts = indptr[:-1][filled]
    bound = (np.add.reduceat(np.abs(val_re) + np.abs(val_im), starts).max()
             if keys else 0)
    dtype = _kernel_dtype(op.exact, bound, k)
    val_re = val_re.astype(dtype)[:, None]
    val_im = val_im.astype(dtype)[:, None]
    real = not val_im.any()
    re = np.zeros(len(vertices), dtype=dtype)
    im = np.zeros(len(vertices), dtype=dtype)
    chunk = max(1, _BATCH_CELLS // max(n, len(keys), 1))
    for lo in range(0, len(vertices), chunk):
        block = vertices[lo:lo + chunk]
        unit = (block, np.arange(len(block)))
        x_re = np.zeros((n, len(block)), dtype=dtype)
        x_re[unit] = 1
        x_im = np.zeros_like(x_re)
        for _ in range(k):
            g_re = x_re[cols]
            p_re = g_re * val_re
            x_re = np.zeros_like(x_re)
            if not real:
                g_im = x_im[cols]
                p_re -= g_im * val_im
                p_im = g_re * val_im + g_im * val_re
                x_im = np.zeros_like(x_im)
            if len(starts):
                x_re[filled] = np.add.reduceat(p_re, starts, axis=0)
                if not real:
                    x_im[filled] = np.add.reduceat(p_im, starts, axis=0)
        re[lo:lo + len(block)] = x_re[unit]
        im[lo:lo + len(block)] = x_im[unit]
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
                         rho: Configuration, k: int,
                         goodness: Optional[GoodnessReport] = None
                         ) -> PowerDiagonalReport:
    """Compare (H_n^rho)^k(v,v) with the closed-walk value of the pulled-back
    operator at every 4kM-good vertex.

    The two sides are independent kernels on integer numerator arrays, real
    and imaginary parts apart: the matrix side takes k CSR matvecs of
    den_op*H_n (den_op from the assembled entries), the walk side propagates
    den_rule*c along closed walks in the Cayley ball.  Each side runs on
    int64 when its largest row sum R has R^k < 2^62, on Python ints
    otherwise, and on float64 for float rules.  Exact values are compared as
    num_m * den_w^k == num_w * den_m^k; only differing pairs get a float
    discrepancy.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    M = rule.hopping
    radius = 4 * k * M
    if goodness is None:
        goodness = good_vertices(sigma, radius)
    if goodness.radius != radius:
        raise AssemblyError(f"need goodness at radius {radius}")
    op = assemble_induced(rule, sigma, rho)
    vertices = np.flatnonzero(goodness.good)
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

    def to_json(self) -> dict:
        return {"k": self.k, "value": self.value,
            "standard_error": self.standard_error, "mode": self.mode}


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
    A = rule.alphabet.size
    if mode == "exact":
        n_assign = A ** len(read_sites)
        if n_assign > budget:
            raise EnumerationBudgetError(
                f"{A}^{len(read_sites)} window assignments exceed budget; "
                "retry with mode='mc'")
        index: dict = {}
        law = [(index.setdefault(assignment, len(index)), prob)
               for assignment, prob in _assignment_law(model, read_sites)]
        values = _moment_values(rule, space, big, read_sites, list(index), k)
        total = 0.0
        for j, prob in law:
            total += prob * values[j]
        return ExpectedMomentResult(k=k, value=total, standard_error=0.0,
                                    mode="exact")
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    assignments = [
        _sample_assignment(model, read_sites, np.random.default_rng(
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
    if isinstance(model, Mixture):
        for comp in model.components:
            _check_model_group(comp, rule)
        return
    if model.alphabet.size != rule.alphabet.size:
        raise RuleValidationError("model and rule alphabets disagree")
    if isinstance(model, PeriodicOrbit) and model.quotient.group != rule.group:
        raise RuleValidationError("periodic model lives over a different group")


def _assignment_law(model: MeasureModel, sites: list):
    """Yield (symbol assignment tuple, probability) over the given sites."""
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
            assign = tuple(model.pattern[model.quotient.act_perm(g)[t]]
                           for g in sites)
            yield assign, 1.0 / q
        return
    if isinstance(model, Mixture):
        for comp, w in zip(model.components, model.weights):
            for assign, p in _assignment_law(comp, sites):
                yield assign, w * p
        return
    raise TypeError(f"unknown model {type(model)!r}")


def _sample_assignment(model: MeasureModel, sites: list,
                       rng: np.random.Generator) -> tuple:
    if isinstance(model, IIDProduct):
        return tuple(rng.choice(model.alphabet.size, size=len(sites),
                                p=np.asarray(model.weights)).tolist())
    if isinstance(model, PeriodicOrbit):
        t = int(rng.integers(model.quotient.size))
        return tuple(model.pattern[model.quotient.act_perm(g)[t]]
                     for g in sites)
    if isinstance(model, Mixture):
        kk = rng.choice(len(model.components), p=np.asarray(model.weights))
        return _sample_assignment(model.components[kk], sites, rng)
    raise TypeError(f"unknown model {type(model)!r}")
