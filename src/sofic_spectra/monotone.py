"""Adapted rational coefficient schedules and Gershgorin PSD certificates.

A schedule replaces every realized coefficient value of a rule by a rational
approximant, depth by depth: diagonal values increase strictly from below,
off-diagonal values approach componentwise from above, and the diagonal gap
between consecutive depths strictly dominates twice the accumulated
off-diagonal drift per row.  That last inequality is exactly row-wise strict
diagonal dominance of the difference operator, so consecutive induced
operators increase in the positive-semidefinite order and their eigenvalue
counting functions decrease pointwise (Weyl monotonicity).

All schedule inequalities are verified in exact rational arithmetic;
magnitude sums are decided square-root-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exact import CZERO, ComplexRational, sum_abs_le
from .groups import ball
from .measures import Configuration
from .operators import (
    AssemblyError,
    InducedOperator,
    LocalRule,
    Value,
    _as_exact,
    _is_zero,
    _make_table,
    _value_key,
    assemble_induced,
)
from .sofic import GoodnessReport, SoficApproximation, good_vertices
from .spectral import Spectrum, counting_function, eigen_spectrum


class ScheduleError(ValueError):
    """Schedule construction or application failed a contract."""


class MonotonicityError(RuntimeError):
    """Counting functions increased along a certified monotone schedule."""


def _parts(v: Value) -> tuple[Fraction, Fraction]:
    if isinstance(v, ComplexRational):
        return v.re, v.im
    c = complex(v)
    return Fraction(c.real), Fraction(c.imag)


@dataclass(frozen=True)
class ValueSets:
    """Realized nonzero coefficient values of a rule, plus row width D."""

    f1: tuple          # diagonal values as they appear in the rule tables
    f2: tuple          # off-diagonal values, closed under conjugation
    max_offdiag_per_row: int    # D = |B_S(e, M)| - 1

    def __post_init__(self):
        for v in self.f1:
            re, im = _parts(v)
            if im != 0:
                raise ScheduleError("diagonal values must be real")
            if re == 0:
                raise ScheduleError("0 is not allowed in the diagonal value set")
        f2_parts = {_parts(v) for v in self.f2}
        for re, im in f2_parts:
            if re == 0 and im == 0:
                raise ScheduleError("0 is not allowed in the off-diagonal value set")
            if (re, -im) not in f2_parts:
                raise ScheduleError("off-diagonal value set must be conjugation-closed")

    def positive_representatives(self) -> list:
        """One value per conjugate pair: Im > 0 member, or the real value."""
        reps = []
        for v in self.f2:
            _, im = _parts(v)
            if im >= 0:
                reps.append(v)
        return reps


def value_sets_of(rule: LocalRule) -> ValueSets:
    f1, f2 = rule.realized_value_sets()
    d = len(ball(rule.group, rule.hopping)) - 1
    return ValueSets(f1=tuple(sorted(f1, key=_parts)),
                     f2=tuple(sorted(f2, key=_parts)),
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
            fr, _ = _parts(f)
            a = Fraction(math.floor(fr * q)) / q - 2 * c / q
            if a == 0:
                a -= nudge
            sched.a[(m, f)] = a
        for h in reps:
            hre, him = _parts(h)
            bre = Fraction(math.ceil(hre * q) + 1) / q
            if him > 0:
                bim = Fraction(math.ceil(him * q) + 1) / q
            else:
                bim = Fraction(0)
            if bre == 0 and bim == 0:
                bre -= nudge
            bb = ComplexRational(bre, bim)
            sched.b[(m, h)] = bb
            conj_h = _conj_value(h)
            if conj_h != h:
                sched.b[(m, conj_h)] = bb.conjugate()
    _verify_schedule(sched)
    return sched


def _conj_value(v: Value):
    if isinstance(v, ComplexRational):
        return v.conjugate()
    return complex(v).conjugate()


def _verify_schedule(sched: RationalSchedule) -> None:
    vs = sched.values
    d = vs.max_offdiag_per_row
    reps = vs.positive_representatives()
    for f in vs.f1:
        fr, _ = _parts(f)
        for m in range(1, sched.m_max + 1):
            a = sched.a[(m, f)]
            if a == 0:
                raise ScheduleError("schedule produced a zero diagonal value")
            if not a < fr:
                raise ScheduleError("diagonal approximant not below its target")
            if abs(fr - a) > Fraction(2 * sched.gap_constant + 2, 4 ** m):
                raise ScheduleError("diagonal approximant drifted out of range")
    for h in vs.f2:
        hre, him = _parts(h)
        for m in range(1, sched.m_max + 1):
            b = sched.b[(m, h)]
            if b.is_zero():
                raise ScheduleError("schedule produced a zero off-diagonal value")
            if sched.b[(m, _conj_value(h))] != b.conjugate():
                raise ScheduleError("conjugation symmetry broken")
            drift = b - ComplexRational(hre, him)
            if him >= 0:
                if drift.re < 0 or drift.im < 0:
                    raise ScheduleError("off-diagonal approach must be from above")
            # |b - h| < 3 * 4^-m, compared on squared magnitudes
            if drift.abs2() >= Fraction(9, 16 ** m):
                raise ScheduleError("off-diagonal drift exceeds 3 * 4^-m")
            if m < sched.m_max:
                nxt = sched.b[(m + 1, h)]
                dre = nxt.re - b.re
                dim = nxt.im - b.im
                if him >= 0 and (dre > 0 or dim > 0):
                    raise ScheduleError("off-diagonal parts must be nonincreasing")
    for f in vs.f1:
        for m in range(1, sched.m_max):
            gap = sched.a[(m + 1, f)] - sched.a[(m, f)]
            if gap <= 0:
                raise ScheduleError("diagonal approximants must strictly increase")
            drifts = []
            for h in reps:
                hre, him = _parts(h)
                z = sched.b[(m, h)] - ComplexRational(hre, him)
                if not z.is_zero():
                    drifts.append(ComplexRational(2 * d * z.re, 2 * d * z.im))
            if drifts and not sum_abs_le(drifts, gap, strict=True):
                raise ScheduleError(
                    f"gap inequality fails at depth {m}: "
                    f"a({m+1})-a({m}) must dominate the off-diagonal drift")


def apply_schedule(rule: LocalRule, sched: RationalSchedule, m: int) -> LocalRule:
    """Replace every realized value by its depth-m approximant (zeros stay).

    The result is an exact rational rule, adapted to the input by
    construction: equal values map to equal values and the zero pattern is
    untouched.
    """
    if not 1 <= m <= sched.m_max:
        raise ScheduleError(f"depth {m} outside schedule range 1..{sched.m_max}")
    rule_sets = value_sets_of(rule)
    if (set(rule_sets.f1) != set(sched.values.f1)
            or set(rule_sets.f2) != set(sched.values.f2)):
        raise ScheduleError("rule value sets do not match the schedule")
    e = rule.group.identity()
    tables: dict = {}
    for g, table in rule.tables.items():
        new = _make_table(len(table), exact=True)
        for code, v in enumerate(table.tolist()):
            if _is_zero(v):
                continue
            if g == e:
                new[code] = ComplexRational(sched.diagonal(m, v))
            else:
                new[code] = sched.offdiagonal(m, v)
        tables[g] = new
    return LocalRule(group=rule.group, alphabet=rule.alphabet,
                     hopping=rule.hopping, tables=tables, exact=True,
                     name=f"{rule.name}@m{m}")


# ---------------------------------------------------------------------------
# Gershgorin certificates
# ---------------------------------------------------------------------------


@dataclass
class GershgorinCertificate:
    certified: bool
    strict: bool
    witness_row: Optional[int] = None
    exact: bool = True

    def __bool__(self) -> bool:
        return self.certified


def gershgorin_psd(op: Union[InducedOperator, np.ndarray],
                   strict: bool = False) -> GershgorinCertificate:
    """Diagonal-dominance certificate for positive (semi-)definiteness.

    Exact-rational operators are decided square-root-free; float matrices
    fall back to floating-point comparisons.  Certified (non-strict) implies
    min eigenvalue >= 0; strict implies > 0.
    """
    if isinstance(op, InducedOperator):
        op.check_hermitian()
        if op.exact:
            rows: dict[int, list] = {i: [] for i in range(op.n)}
            diag = [Fraction(0)] * op.n
            for (i, j), v in op.entries.items():
                if i == j:
                    if isinstance(v, ComplexRational):
                        if v.im != 0:
                            raise AssemblyError("non-real diagonal entry")
                        diag[i] = v.re
                    else:
                        diag[i] = Fraction(v)
                else:
                    rows[i].append(v)
            # rows repeat a handful of value patterns: decide each once
            verdicts: dict = {}
            for i in range(op.n):
                key = (diag[i], tuple(sorted(map(_value_key, rows[i]))))
                if key not in verdicts:
                    verdicts[key] = sum_abs_le(rows[i], diag[i], strict=strict)
                if not verdicts[key]:
                    return GershgorinCertificate(certified=False, strict=strict,
                                                 witness_row=i, exact=True)
            return GershgorinCertificate(certified=True, strict=strict, exact=True)
        dense = op.to_dense()
    else:
        dense = np.asarray(op)
        if not np.array_equal(dense, dense.conj().T):
            raise AssemblyError("gershgorin_psd needs a Hermitian matrix")
    diag = np.real(np.diag(dense)).astype(float)
    if np.any(np.abs(np.imag(np.diag(dense))) > 0):
        raise AssemblyError("non-real diagonal entry")
    offsum = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
    okay = diag > offsum if strict else diag >= offsum
    if not np.all(okay):
        return GershgorinCertificate(certified=False, strict=strict,
                                     witness_row=int(np.argmin(okay)), exact=False)
    return GershgorinCertificate(certified=True, strict=strict, exact=False)


def _difference(a: InducedOperator, b: InducedOperator) -> InducedOperator:
    """a - b as an exact sparse operator."""
    if a.n != b.n or not (a.exact and b.exact):
        raise AssemblyError("difference needs two exact operators of equal size")
    entries: dict = {}
    # entries share the rule's value objects, so one subtraction per pair of
    # objects; equal pairs then share their difference object as well
    memo: dict = {}
    keys = set(a.entries) | set(b.entries)
    for key in keys:
        av = a.entries.get(key, CZERO)
        bv = b.entries.get(key, CZERO)
        dv = memo.get((id(av), id(bv)))
        if dv is None:
            dv = memo[id(av), id(bv)] = _as_exact(av) - _as_exact(bv)
        if not dv.is_zero():
            entries[key] = dv
    return InducedOperator(n=a.n, entries=entries, exact=True,
                           hopping=max(a.hopping, b.hopping),
                           goodness_radius=a.goodness_radius,
                           provenance={"mode": "difference"})


@dataclass
class SchedulePsdStep:
    m: int
    certified: bool
    min_eigenvalue: float
    n_zero_rows: int

    def to_json(self) -> dict:
        return {"m": self.m, "certified": self.certified,
                "min_eigenvalue": self.min_eigenvalue,
                "n_zero_rows": self.n_zero_rows}


def schedule_step_psd_check(rule: LocalRule, sched: RationalSchedule, m: int,
                            sigma: SoficApproximation, rho: Configuration,
                            goodness: Optional[GoodnessReport] = None
                            ) -> SchedulePsdStep:
    """Certify H_{m+1} - H_m >= 0: strict dominance on every nonzero row.

    Rows zeroed by the goodness fallback stay identically zero in the
    difference (the schedule preserves zero patterns), so the difference is
    strictly positive definite on its support and positive semi-definite
    overall; a certification failure indicates a schedule bug.
    """
    if m + 1 > sched.m_max:
        raise ScheduleError("step m+1 exceeds the schedule depth")
    if goodness is None:
        goodness = good_vertices(sigma, 2 * rule.hopping)
    h_m = assemble_induced(apply_schedule(rule, sched, m), sigma, rho, goodness)
    h_next = assemble_induced(apply_schedule(rule, sched, m + 1), sigma, rho,
                              goodness)
    diff = _difference(h_next, h_m)
    rows_with_entries = {i for (i, _) in diff.entries}
    zero_rows = diff.n - len(rows_with_entries)
    sub = diff
    if zero_rows:
        # strict dominance is checked on the support block only
        index = sorted(rows_with_entries)
        remap = {v: k for k, v in enumerate(index)}
        sub = InducedOperator(
            n=len(index),
            entries={(remap[i], remap[j]): v for (i, j), v in diff.entries.items()},
            exact=True, hopping=diff.hopping, goodness_radius=diff.goodness_radius)
    cert = gershgorin_psd(sub, strict=True) if sub.n else \
        GershgorinCertificate(certified=True, strict=True)
    if not cert.certified:
        raise ScheduleError(
            f"schedule step {m}->{m+1} failed strict certification at row "
            f"{cert.witness_row}; this indicates a schedule bug")
    min_eig = float(eigen_spectrum(diff).values[0]) if diff.n else 0.0
    return SchedulePsdStep(m=m, certified=True, min_eigenvalue=min_eig,
                           n_zero_rows=zero_rows)


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

    def to_json(self) -> dict:
        return {"m": self.m, "beta": self.beta, "N_m": self.count_m,
                "N_target": self.count_target,
                "psd_certified": self.psd_certified}


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
                        beta_grid: Sequence[float], m_max: Optional[int] = None
                        ) -> MonotoneIDSReport:
    """Counting functions along the schedule, with certified Weyl direction.

    Asserts N_m(beta) nonincreasing in m at every grid point (hard failure
    otherwise: it would contradict the certified PSD steps) and reports the
    decay of max_beta (N_m - N_target) together with exact operator-norm
    gaps and their proven dyadic bounds.
    """
    if m_max is None:
        m_max = sched.m_max
    goodness = good_vertices(sigma, 2 * rule.hopping)
    target_op = assemble_induced(rule, sigma, rho, goodness)
    target_spec = eigen_spectrum(target_op)
    grid = [float(b) for b in beta_grid]
    target_counts = counting_function(target_spec, grid)

    ops: dict[int, InducedOperator] = {}
    specs: dict[int, Spectrum] = {}
    for m in range(1, m_max + 1):
        ops[m] = assemble_induced(apply_schedule(rule, sched, m), sigma, rho,
                                  goodness)
        specs[m] = eigen_spectrum(ops[m])

    psd_steps = []
    for m in range(1, m_max):
        diff = _difference(ops[m + 1], ops[m])
        rows_with_entries = {i for (i, _) in diff.entries}
        if rows_with_entries:
            index = sorted(rows_with_entries)
            remap = {v: k for k, v in enumerate(index)}
            sub = InducedOperator(
                n=len(index),
                entries={(remap[i], remap[j]): v
                         for (i, j), v in diff.entries.items()},
                exact=True, hopping=diff.hopping,
                goodness_radius=diff.goodness_radius)
            cert = gershgorin_psd(sub, strict=True)
        else:
            cert = GershgorinCertificate(certified=True, strict=True)
        if not cert.certified:
            raise ScheduleError(
                f"monotone step {m}->{m+1} failed strict certification")
        min_eig = float(eigen_spectrum(diff).values[0]) if diff.entries else 0.0
        psd_steps.append(SchedulePsdStep(m=m, certified=True,
                                         min_eigenvalue=min_eig,
                                         n_zero_rows=diff.n - len(rows_with_entries)))

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
        gap_op = _float_difference_norm(ops[m], target_op)
        norm_gap[m] = gap_op
        norm_bound[m] = float((2 * c + 2) + 3 * d) * 4.0 ** (-m)
        if gap_op > norm_bound[m] + 1e-12:
            raise ScheduleError(
                f"operator-norm gap {gap_op:.3e} exceeds the dyadic bound "
                f"{norm_bound[m]:.3e} at depth {m}")
    return MonotoneIDSReport(n=n, rows=rows, max_gap_per_m=max_gap,
                             norm_gap_per_m=norm_gap,
                             norm_bound_per_m=norm_bound, psd_steps=psd_steps)


def _float_difference_norm(a: InducedOperator, b: InducedOperator) -> float:
    """Row-sum norm of a - b (float; b may be a float-valued operator)."""
    sums = np.zeros(a.n)
    keys = set(a.entries) | set(b.entries)
    for (i, j) in keys:
        av = a.entries.get((i, j))
        bv = b.entries.get((i, j))
        fa = av.to_complex() if isinstance(av, ComplexRational) else complex(av or 0)
        fb = bv.to_complex() if isinstance(bv, ComplexRational) else complex(bv or 0)
        sums[i] += abs(fa - fb)
    return float(sums.max()) if a.n else 0.0
