"""Adapted rational coefficient schedules and Gershgorin PSD certificates.

A schedule replaces every realized coefficient value of a rule by a rational
approximant, depth by depth: diagonal values increase strictly from below,
off-diagonal values approach componentwise from above, and the diagonal gap
between consecutive depths strictly dominates twice the accumulated
off-diagonal drift per row.  That last inequality is exactly row-wise strict
diagonal dominance of the difference operator, so consecutive induced
operators increase in the positive-semidefinite order and their eigenvalue
counting functions decrease pointwise (Weyl monotonicity).

All schedule inequalities, and every Gershgorin certificate (its one input
is an exact InducedOperator), are verified in exact rational arithmetic;
magnitude sums are decided square-root-free.  Operators are compared on
their value-coded arrays: a difference merges the sorted row * n + col keys
of both operators and subtracts once per distinct pair of value codes, and
one step certificate (strict Gershgorin on the difference's support block,
plus its least eigenvalue) proves each step of ``monotone_ids_report``.
Every depth is assembled by ``assemble_induced`` without a goodness report:
it alone picks the radius 2M, and the model's goodness cache scans it once
for all depths.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import CZERO, ComplexRational, sum_abs_le
from .groups import ball
from .measures import Configuration
from .operators import (
    AssemblyError,
    InducedOperator,
    LocalRule,
    _coded_rule,
    _value_coded,
    assemble_induced,
)
from .sofic import SoficApproximation
from .spectral import Spectrum, counting_function, eigen_spectrum


class ScheduleError(ValueError):
    """Schedule construction or application failed a contract."""


class MonotonicityError(RuntimeError):
    """Counting functions increased along a certified monotone schedule."""


@dataclass(frozen=True)
class ValueSets:
    """Realized coefficient values of a rule, plus row width D: nonzero
    values, and 0 on the diagonal when it has hopping to absorb."""

    f1: tuple          # diagonal values as they appear in the rule tables
    f2: tuple          # off-diagonal values, closed under conjugation
    max_offdiag_per_row: int    # D = |B_S(e, M)| - 1

    def __post_init__(self):
        for v in self.f1:
            if not v.is_real():
                raise ScheduleError("diagonal values must be real")
            if v.is_zero() and not self.f2:
                raise ScheduleError("0 is in the diagonal value set only "
                                    "beside off-diagonal values")
        for v in self.f2:
            if v.is_zero():
                raise ScheduleError("0 is not allowed in the off-diagonal value set")
            if v.conjugate() not in self.f2:
                raise ScheduleError("off-diagonal value set must be conjugation-closed")

    def positive_representatives(self) -> list:
        """One value per conjugate pair: Im > 0 member, or the real value."""
        reps = []
        for v in self.f2:
            if v.im >= 0:
                reps.append(v)
        return reps


def value_sets_of(rule: LocalRule) -> ValueSets:
    """The rule's value sets.  A diagonal 0 beside hopping is scheduled like
    any other diagonal value: kept at 0, its row's off-diagonal drift would
    break the positive step H_{m+1} - H_m."""
    f1, f2 = rule.realized_value_sets()
    diagonal = rule._rows.get(rule.group.identity())
    if f2 and (diagonal is None or rule._zeros[diagonal].any()):
        f1.add(CZERO)
    d = len(ball(rule.group, rule.hopping)) - 1
    parts = operator.attrgetter("re", "im")
    return ValueSets(f1=tuple(sorted(f1, key=parts)),
                     f2=tuple(sorted(f2, key=parts)),
                     max_offdiag_per_row=d)


@dataclass
class RationalSchedule:
    """Dyadic rational approximants a(m, f), b(m, h) for m = 1..m_max."""

    m_max: int
    values: ValueSets
    gap_constant: Fraction                  # c in the diagonal offset 2c 4^-m
    a: dict = field(default_factory=dict)   # (m, f) -> Fraction
    b: dict = field(default_factory=dict)   # (m, h) -> ComplexRational

    def diagonal(self, m: int, f) -> Fraction:
        try:
            return self.a[(m, f)]
        except KeyError:
            raise ScheduleError(f"diagonal value {f!r} not in schedule") from None

    def offdiagonal(self, m: int, h) -> ComplexRational:
        try:
            return self.b[(m, h)]
        except KeyError:
            raise ScheduleError(f"off-diagonal value {h!r} not in schedule") from None


def build_schedule(values: ValueSets, m_max: int) -> RationalSchedule:
    """Deterministic dyadic schedule; every invariant re-verified exactly.

    With q = 4^m: b(m,h) approaches h componentwise from above through
    (ceil(x q) + 1)/q (imaginary part 0 for real h, which keeps the rule
    self-adjoint), and a(m,f) = floor(f q)/q - 2c/q with the gap constant
    c = 1 + 6 D |F2+| sized so the depth-m diagonal gap strictly dominates
    2 D sum |b(m,h) - h|.  Values landing exactly on 0 are nudged by
    -4^-(m+1).
    """
    if m_max < 1:
        raise ScheduleError("schedule depth must be >= 1")
    reps = values.positive_representatives()
    if not values.f1 and values.f2:
        raise ScheduleError(
            "schedules need at least one diagonal value to absorb "
            "off-diagonal drift; this rule has an identically zero diagonal")
    d = values.max_offdiag_per_row
    c = Fraction(1) + 6 * d * len(reps)
    sched = RationalSchedule(m_max=m_max, values=values, gap_constant=c)
    for m in range(1, m_max + 1):
        q = Fraction(4) ** m
        nudge = Fraction(1, 4 ** (m + 1))
        for f in values.f1:
            a = Fraction(math.floor(f.re * q)) / q - 2 * c / q
            if a == 0:
                a -= nudge
            sched.a[(m, f)] = a
        for h in reps:
            bre = Fraction(math.ceil(h.re * q) + 1) / q
            if h.im > 0:
                bim = Fraction(math.ceil(h.im * q) + 1) / q
            else:
                bim = Fraction(0)
            if bre == 0 and bim == 0:
                bre -= nudge
            bb = ComplexRational(bre, bim)
            sched.b[(m, h)] = bb
            if h.im != 0:
                sched.b[(m, h.conjugate())] = bb.conjugate()
    _verify_schedule(sched)
    return sched


def _verify_schedule(sched: RationalSchedule) -> None:
    vs = sched.values
    d = vs.max_offdiag_per_row
    reps = vs.positive_representatives()
    for f in vs.f1:
        fr = f.re
        for m in range(1, sched.m_max + 1):
            a = sched.a[(m, f)]
            if a == 0:
                raise ScheduleError("schedule produced a zero diagonal value")
            if not a < fr:
                raise ScheduleError("diagonal approximant not below its target")
            if abs(fr - a) > Fraction(2 * sched.gap_constant + 2, 4 ** m):
                raise ScheduleError("diagonal approximant drifted out of range")
    for h in vs.f2:
        for m in range(1, sched.m_max + 1):
            b = sched.b[(m, h)]
            if b.is_zero():
                raise ScheduleError("schedule produced a zero off-diagonal value")
            if sched.b[(m, h.conjugate())] != b.conjugate():
                raise ScheduleError("conjugation symmetry broken")
            drift = b - h
            if h.im >= 0:
                if drift.re < 0 or drift.im < 0:
                    raise ScheduleError("off-diagonal approach must be from above")
            # |b - h| < 3 * 4^-m, compared on squared magnitudes
            if drift.abs2() >= Fraction(9, 16 ** m):
                raise ScheduleError("off-diagonal drift exceeds 3 * 4^-m")
            if m < sched.m_max:
                nxt = sched.b[(m + 1, h)]
                dre = nxt.re - b.re
                dim = nxt.im - b.im
                if h.im >= 0 and (dre > 0 or dim > 0):
                    raise ScheduleError("off-diagonal parts must be nonincreasing")
    for f in vs.f1:
        for m in range(1, sched.m_max):
            gap = sched.a[(m + 1, f)] - sched.a[(m, f)]
            if gap <= 0:
                raise ScheduleError("diagonal approximants must strictly increase")
            drifts = []
            for h in reps:
                z = sched.b[(m, h)] - h
                if not z.is_zero():
                    drifts.append(ComplexRational(2 * d * z.re, 2 * d * z.im))
            if drifts and not sum_abs_le(drifts, gap, strict=True):
                raise ScheduleError(
                    f"gap inequality fails at depth {m}: "
                    f"a({m+1})-a({m}) must dominate the off-diagonal drift")


def apply_schedule(rule: LocalRule, sched: RationalSchedule, m: int) -> LocalRule:
    """Replace every realized value by its depth-m approximant (zeros stay,
    but for a zero diagonal beside hopping: see value_sets_of).

    The result is an exact rational rule, adapted to the input by
    construction: equal values map to equal values and the off-diagonal
    zero pattern is untouched.
    """
    if not 1 <= m <= sched.m_max:
        raise ScheduleError(f"depth {m} outside schedule range 1..{sched.m_max}")
    rule_sets = value_sets_of(rule)
    if (set(rule_sets.f1) != set(sched.values.f1)
            or set(rule_sets.f2) != set(sched.values.f2)):
        raise ScheduleError("rule value sets do not match the schedule")
    e = rule.group.identity()
    zero_scheduled = CZERO in rule_sets.f1
    # the last code is the 0 of an identity table added for a scheduled 0
    values = [*rule.values, CZERO]
    zeros = np.append(rule._zeros, True)
    rows = dict(rule._rows)
    if zero_scheduled:
        rows.setdefault(e, np.full(rule.n_window_codes, len(values) - 1))
    # one approximant per distinct (on the diagonal, value code) pair
    keys = np.array([row + len(values) * (g == e) for g, row in rows.items()],
                    dtype=np.int64).reshape(len(rows), rule.n_window_codes)
    pairs, picks = np.unique(keys, return_inverse=True)
    candidates = []
    for on_diagonal, c in (divmod(p, len(values)) for p in pairs.tolist()):
        if on_diagonal and (zero_scheduled or not zeros[c]):
            candidates.append(sched.diagonal(m, values[c]))
        else:
            candidates.append(0 if zeros[c]
                              else sched.offdiagonal(m, values[c]))
    return _coded_rule(rule.group, rule.alphabet, rule.hopping,
                       dict(zip(rows, picks.reshape(keys.shape))),
                       candidates, f"{rule.name}@m{m}")


# ---------------------------------------------------------------------------
# Gershgorin certificates
# ---------------------------------------------------------------------------


@dataclass
class GershgorinCertificate:
    certified: bool
    strict: bool
    witness_row: Optional[int] = None

    def __bool__(self) -> bool:
        return self.certified


def gershgorin_psd(op: InducedOperator,
                   strict: bool = False) -> GershgorinCertificate:
    """Diagonal-dominance certificate for positive (semi-)definiteness,
    decided exactly and square-root-free, row by row.  Certified (non-strict)
    implies min eigenvalue >= 0; strict implies > 0.

    Rows repeat a handful of value patterns, so each row is keyed on
    (diagonal code, sorted off-diagonal codes) and each key is decided once;
    codes are equal exactly when values are.  The operator is Hermitian, so
    its diagonal is real, as its constructor checks.
    """
    on_diag = op.rows == op.cols
    diag = np.full(op.n, -1)            # -1: no stored diagonal, i.e. 0
    diag[op.rows[on_diag]] = op.codes[on_diag]
    off = np.flatnonzero(~on_diag)
    off = off[np.lexsort((op.codes[off], op.rows[off]))]
    bounds = np.searchsorted(op.rows[off], np.arange(op.n + 1)).tolist()
    off_codes = op.codes[off].tolist()
    verdicts: dict = {}
    for i, d in enumerate(diag.tolist()):
        key = (d, tuple(off_codes[bounds[i]:bounds[i + 1]]))
        if key not in verdicts:
            verdicts[key] = sum_abs_le(
                [op.values[c] for c in key[1]],
                op.values[d].re if d >= 0 else Fraction(0), strict=strict)
        if not verdicts[key]:
            return GershgorinCertificate(certified=False, strict=strict,
                                         witness_row=i)
    return GershgorinCertificate(certified=True, strict=strict)


def _difference(a: InducedOperator, b: InducedOperator) -> InducedOperator:
    """a - b, entries in ascending (row, col) order.

    The sorted row * n + col keys of both supports are merged, each
    operator coded len(its values) where it stores no entry, and one
    subtraction runs per distinct pair of codes; entries that cancel are
    left out.
    """
    if a.n != b.n:
        raise AssemblyError("difference needs two operators of equal size")
    key_a = a.rows * a.n + a.cols
    keys, where = np.unique(np.concatenate([key_a, b.rows * b.n + b.cols]),
                            return_inverse=True)
    code_a = np.full(len(keys), len(a.values))
    code_a[where[:len(key_a)]] = a.codes
    code_b = np.full(len(keys), len(b.values))
    code_b[where[len(key_a):]] = b.codes
    width = len(b.values) + 1
    pairs, pick = np.unique(code_a * width + code_b, return_inverse=True)
    a_values, b_values = a.values + (CZERO,), b.values + (CZERO,)
    diffs = [a_values[p // width] - b_values[p % width]
             for p in pairs.tolist()]
    return _value_coded(a.n, keys, pick, diffs)


@dataclass
class SchedulePsdStep:
    m: int
    certified: bool
    min_eigenvalue: float
    n_zero_rows: int


def _psd_step(m: int, h_m: InducedOperator,
              h_next: InducedOperator) -> SchedulePsdStep:
    """Certify h_next - h_m >= 0 by strict dominance on the support block of
    the difference, and record the difference's least eigenvalue."""
    diff = _difference(h_next, h_m)
    nnz = len(diff.rows)
    support, inverse = np.unique(np.concatenate([diff.rows, diff.cols]),
                                 return_inverse=True)
    if nnz:
        # the relabelling increases, so the block keeps row-major order
        block = InducedOperator(len(support), inverse[:nnz],
                                inverse[nnz:], diff.codes, diff.values)
        cert = gershgorin_psd(block, strict=True)
        if not cert.certified:
            raise ScheduleError(
                f"schedule step {m}->{m+1} failed strict certification at "
                f"row {cert.witness_row}; this indicates a schedule bug")
    min_eig = float(eigen_spectrum(diff).values[0]) if nnz else 0.0
    return SchedulePsdStep(m=m, certified=True, min_eigenvalue=min_eig,
                           n_zero_rows=diff.n - len(support))


# ---------------------------------------------------------------------------
# Monotone IDS report
# ---------------------------------------------------------------------------


@dataclass
class MonotoneReportRow:
    m: int
    beta: float
    count_m: int
    count_target: int
    psd_certified: bool


@dataclass
class MonotoneIDSReport:
    n: int
    rows: list
    max_gap_per_m: dict         # m -> max_beta (N_m - N_target)/n
    norm_gap_per_m: dict        # m -> row-sum norm of H_m - H_target
    norm_bound_per_m: dict      # m -> proven dyadic bound on that norm
    psd_steps: list


def monotone_ids_report(rule: LocalRule, sched: RationalSchedule,
                        sigma: SoficApproximation, rho: Configuration,
                        beta_grid: Sequence[float]) -> MonotoneIDSReport:
    """Counting functions at depths 1..sched.m_max of the schedule, with
    certified Weyl direction.

    Asserts N_m(beta) nonincreasing in m at every grid point (hard failure
    otherwise: it would contradict the certified PSD steps) and reports the
    decay of max_beta (N_m - N_target) together with exact operator-norm
    gaps and their proven dyadic bounds.
    """
    m_max = sched.m_max
    target_op = assemble_induced(rule, sigma, rho)
    target_spec = eigen_spectrum(target_op)
    grid = [float(b) for b in beta_grid]
    target_counts = counting_function(target_spec, grid)

    ops: dict[int, InducedOperator] = {}
    specs: dict[int, Spectrum] = {}
    for m in range(1, m_max + 1):
        ops[m] = assemble_induced(apply_schedule(rule, sched, m), sigma, rho)
        specs[m] = eigen_spectrum(ops[m])

    psd_steps = [_psd_step(m, ops[m], ops[m + 1]) for m in range(1, m_max)]

    rows = []
    max_gap: dict[int, float] = {}
    norm_gap: dict[int, float] = {}
    norm_bound: dict[int, float] = {}
    prev_counts = None
    n = sigma.n_vertices
    d = sched.values.max_offdiag_per_row
    c = sched.gap_constant
    for m in range(1, m_max + 1):
        counts = counting_function(specs[m], grid)
        if prev_counts is not None:
            for b, now, before in zip(grid, counts, prev_counts):
                if now > before:
                    raise MonotonicityError(
                        f"N_{m}({b}) = {now} > N_{m-1}({b}) = {before} "
                        "despite certified PSD steps")
        prev_counts = counts
        for b, cm, ct in zip(grid, counts, target_counts):
            rows.append(MonotoneReportRow(m=m, beta=b, count_m=cm,
                                          count_target=ct,
                                          psd_certified=True))
        max_gap[m] = max((cm - ct) for cm, ct in zip(counts, target_counts)) / n
        gap_op = _difference(ops[m], target_op).row_sum_bound()
        norm_gap[m] = gap_op
        norm_bound[m] = float((2 * c + 2) + 3 * d) * 4.0 ** (-m)
        if gap_op > norm_bound[m] + 1e-12:
            raise ScheduleError(
                f"operator-norm gap {gap_op:.3e} exceeds the dyadic bound "
                f"{norm_bound[m]:.3e} at depth {m}")
    return MonotoneIDSReport(n=n, rows=rows, max_gap_per_m=max_gap,
                             norm_gap_per_m=norm_gap,
                             norm_bound_per_m=norm_bound, psd_steps=psd_steps)

