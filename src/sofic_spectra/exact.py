"""Exact Gaussian-rational scalars and square-root-free magnitude comparisons.

Operator coefficients that are rational (or Gaussian rational) are kept exact
so that eigenvalue atoms, matrix powers and diagonal-dominance certificates
can be decided without floating point.  Magnitudes |z| of Gaussian rationals
are irrational in general; inequalities of the form

    sum_j sqrt(q_j)  <  t        (q_j, t rational, q_j >= 0)

are decided by splitting off terms whose square root is rational and refining
dyadic interval bounds for the rest.  Refinement always terminates: positive
square roots of rationals sum to a rational only if every summand is rational
(linear independence of square roots of distinct squarefree integers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ComplexRational:
    """A + Bi with exact rational A, B."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"CRat({self.re})"
        return f"CRat({self.re} + {self.im}i)"


CZERO = ComplexRational(Fraction(0))


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on sqrt(q) with gap <= 2^-bits-ish."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    # sqrt(n/d) = sqrt(n*d)/d; scale by 4^bits so isqrt carries the precision
    m = q.numerator * q.denominator << (2 * bits)
    r = math.isqrt(m)
    den = q.denominator << bits
    lo = Fraction(r, den)
    hi = Fraction(r + 1, den)
    return lo, hi


def compare_sum_sqrt(radicands: Sequence[Fraction], threshold: Fraction,
                     strict: bool) -> bool:
    """Decide sum_j sqrt(q_j) < t (strict) or <= t exactly.

    All q_j must be nonnegative rationals.  Terminates for every input.
    """
    exact_part = Fraction(0)
    irrational: list[Fraction] = []
    for q in radicands:
        r = rational_sqrt(q)
        if r is not None:
            exact_part += r
        else:
            irrational.append(q)
    if not irrational:
        return exact_part < threshold if strict else exact_part <= threshold
    # The full sum is irrational, so it differs from the rational threshold
    # and < / <= coincide; refine until the interval separates from it.
    target = threshold - exact_part
    bits = 16
    while True:
        lo = Fraction(0)
        hi = Fraction(0)
        for q in irrational:
            a, b = sqrt_bounds(q, bits)
            lo += a
            hi += b
        if hi < target:
            return True
        if lo > target:
            return False
        bits *= 2


def sum_abs_le(values: Iterable[ComplexRational], threshold: Fraction,
               strict: bool = False) -> bool:
    """Decide sum |z_j| < t (strict) or <= t for Gaussian rationals z_j."""
    rads = [z.abs2() for z in values if not z.is_zero()]
    return compare_sum_sqrt(rads, Fraction(threshold), strict)
