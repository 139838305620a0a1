from fractions import Fraction

import numpy as np

from sofic_spectra.exact import (
    ComplexRational,
    compare_sum_sqrt,
    rational_sqrt,
    sqrt_bounds,
    sum_abs_le,
)


def crat(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def test_arithmetic():
    a = crat(1, 2)
    b = crat(3, -1)
    assert a + b == crat(4, 1)
    assert a - b == crat(-2, 3)
    assert a.conjugate() == crat(1, -2)
    assert a.abs2() == Fraction(5)
    assert (-a) == crat(-1, -2)
    assert crat(0).is_zero() and not a.is_zero()
    assert crat(7).is_real() and not a.is_real()
    assert a.to_complex() == 1 + 2j


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(2, 9)) is None


def test_sqrt_bounds_bracket():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = Fraction(int(rng.integers(0, 1000)), int(rng.integers(1, 100)))
        lo, hi = sqrt_bounds(q, 40)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 2**39)


def test_compare_sum_sqrt_rational_cases():
    # 3/2 + 5/2 = 4: boundary decided exactly
    rads = [Fraction(9, 4), Fraction(25, 4)]
    assert compare_sum_sqrt(rads, Fraction(4), strict=False)
    assert not compare_sum_sqrt(rads, Fraction(4), strict=True)
    assert compare_sum_sqrt(rads, Fraction(5), strict=True)
    assert not compare_sum_sqrt(rads, Fraction(3), strict=False)


def test_compare_sum_sqrt_irrational_cases():
    assert compare_sum_sqrt([Fraction(2)], Fraction(3, 2), strict=True)
    # sqrt(2) + sqrt(3) = 3.1462... straddles pi-ish thresholds
    two_three = [Fraction(2), Fraction(3)]
    assert not compare_sum_sqrt(two_three, Fraction(314, 100), strict=False)
    assert compare_sum_sqrt(two_three, Fraction(315, 100), strict=True)
    # mixed rational + irrational part
    assert compare_sum_sqrt([Fraction(4), Fraction(2)], Fraction(7, 2), strict=True)


def test_compare_sum_sqrt_tight_refinement():
    # thresholds within 1e-25 of sqrt(2) force precision escalation;
    # decisions must stay monotone in the threshold
    import math
    lo = Fraction(math.sqrt(2)) - Fraction(1, 10**25)
    hi = Fraction(math.sqrt(2)) + Fraction(1, 10**25)
    below = compare_sum_sqrt([Fraction(2)], lo, strict=True)
    above = compare_sum_sqrt([Fraction(2)], hi, strict=True)
    if below:
        assert above
    # squared comparison pins the truth exactly
    assert below == (Fraction(2) < lo * lo)
    assert above == (Fraction(2) < hi * hi)


def test_sum_abs_le_gaussian():
    # |3+4i| = 5 exactly
    z = crat(3, 4)
    assert sum_abs_le([z], Fraction(5))
    assert not sum_abs_le([z], Fraction(5), strict=True)
    assert sum_abs_le([z, crat(0)], Fraction(5))
    # |1+i| = sqrt2, twice: 2 sqrt2 < 2.9
    zz = [crat(1, 1), crat(1, -1)]
    assert sum_abs_le(zz, Fraction(29, 10), strict=True)
    assert not sum_abs_le(zz, Fraction(28, 10))


def test_sum_abs_matches_float(seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        zs = [crat(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
              for _ in range(4)]
        total = sum(abs(z.to_complex()) for z in zs)
        t = Fraction(int(rng.integers(0, 40)))
        got = sum_abs_le(zs, t)
        if abs(total - float(t)) > 1e-9:
            assert got == (total <= float(t))
