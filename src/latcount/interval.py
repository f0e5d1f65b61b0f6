"""Certified interval arithmetic over dyadic endpoints.

The enclosure discipline used throughout the package:

* endpoints are ``fractions.Fraction`` values; every interval returned by a
  public operation at precision ``prec`` has endpoints on the grid
  ``Z * 2**-prec`` (dyadic rationals),
* addition, subtraction, multiplication and nonnegative integer powers are
  exact (dyadics are closed under them; transient non-dyadic endpoints from
  scaling by a rational are allowed inside a computation and removed by the
  final ``round_out``),
* everything else (division, roots, exp, log, pi, ...) rounds outward only,
  so the returned interval always contains the exact result.

The exp, ln, atan and atanh series behind the transcendental kernels are
summed in fixed-point integers scaled by 2^F, with F a few guard bits above
the working precision: floor-rounded terms give the lower end, ceil-rounded
terms plus an explicit truncation bound the upper end (Brent & Zimmermann,
Modern Computer Arithmetic, section 4.4).  The constants pi, ln 2 and e are
kept per precision in small LRU caches.

Nothing in here consults floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rat = Union[int, Fraction]

_GUARD = 16  # extra working bits ahead of a final outward rounding


def round_down(x: Fraction, prec: int) -> Fraction:
    """Largest multiple of 2^-prec that is <= x."""
    return Fraction((x.numerator << prec) // x.denominator, 1 << prec)


def round_up(x: Fraction, prec: int) -> Fraction:
    """Smallest multiple of 2^-prec that is >= x."""
    return Fraction(-((-x.numerator << prec) // x.denominator), 1 << prec)


def iroot_floor(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, k >= 1 (integer Newton, exact)."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # seed >= true root: 2^ceil(bitlength/k)
    x = 1 << -((-n.bit_length()) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def iroot_ceil(n: int, k: int) -> int:
    r = iroot_floor(n, k)
    return r if r ** k == n else r + 1


class RealInterval:
    """Closed interval [lo, hi] certified to contain one real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, q: Rat) -> "RealInterval":
        q = Fraction(q)
        return cls(q, q)

    # -- exact arithmetic ---------------------------------------------

    def __add__(self, other):
        if isinstance(other, RealInterval):
            return RealInterval(self.lo + other.lo, self.hi + other.hi)
        if isinstance(other, (int, Fraction)):
            return RealInterval(self.lo + other, self.hi + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RealInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, RealInterval):
            return RealInterval(self.lo - other.hi, self.hi - other.lo)
        if isinstance(other, (int, Fraction)):
            return RealInterval(self.lo - other, self.hi - other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, RealInterval):
            c = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return RealInterval(min(c), max(c))
        if isinstance(other, (int, Fraction)):
            if other >= 0:
                return RealInterval(self.lo * other, self.hi * other)
            return RealInterval(self.hi * other, self.lo * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RealInterval":
        """self**n for an integer n >= 0; even powers of an interval that
        straddles 0 start at 0."""
        if n < 0:
            raise ValueError("exact powers need n >= 0")
        lo, hi = sorted((self.lo ** n, self.hi ** n))
        if n and n % 2 == 0 and self.lo < 0 < self.hi:
            lo = 0
        return RealInterval(lo, hi)

    # -- rounded arithmetic -------------------------------------------

    def round_out(self, prec: int) -> "RealInterval":
        return RealInterval(round_down(self.lo, prec), round_up(self.hi, prec))

    def recip(self, prec: int) -> "RealInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RealInterval(
            round_down(1 / self.hi, prec), round_up(1 / self.lo, prec)
        )

    def div(self, other: "RealInterval", prec: int) -> "RealInterval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval straddles zero")
        c = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RealInterval(round_down(min(c), prec), round_up(max(c), prec))

    def sqrt(self, prec: int) -> "RealInterval":
        if self.lo < 0:
            raise ValueError("sqrt of an interval with negative lower bound")
        return self.nth_root(2, prec)

    def nth_root(self, n: int, prec: int) -> "RealInterval":
        if self.lo < 0:
            raise ValueError("nth_root needs a nonnegative interval")
        lo = self.lo
        hi = self.hi
        # floor((lo * 2^(n*prec))^(1/n)) / 2^prec  <=  lo^(1/n)
        lon, lod = lo.numerator, lo.denominator
        v = iroot_floor((lon << (n * prec)) // lod, n)
        hin, hid = hi.numerator, hi.denominator
        w = iroot_ceil(-((-hin << (n * prec)) // hid), n)
        return RealInterval(Fraction(v, 1 << prec), Fraction(w, 1 << prec))

    def pow_int(self, n: int, prec: int) -> "RealInterval":
        """self**n with outward rounding; n may be negative if 0 is excluded."""
        if n < 0:
            return (self ** -n).recip(prec)
        return (self ** n).round_out(prec)

    def exp(self, prec: int) -> "RealInterval":
        return RealInterval(
            exp_fraction(self.lo, prec).lo, exp_fraction(self.hi, prec).hi
        )

    def ln(self, prec: int) -> "RealInterval":
        if self.lo <= 0:
            raise ValueError("ln needs a strictly positive interval")
        return RealInterval(
            ln_fraction(self.lo, prec).lo, ln_fraction(self.hi, prec).hi
        )

    def log2(self, prec: int) -> "RealInterval":
        wp = prec + _GUARD
        return self.ln(wp).div(ln2_interval(wp), prec)

    def pow_frac(self, e: Rat, prec: int) -> "RealInterval":
        """self**e for rational e; requires a strictly positive interval."""
        e = Fraction(e)
        if e == 0:
            return RealInterval.point(1)
        if e.denominator == 1:
            return self.pow_int(e.numerator, prec)
        if e.denominator <= 64 and e.numerator >= 0:
            wp = prec + _GUARD
            return self.pow_int(e.numerator, wp).nth_root(e.denominator, prec)
        wp = prec + _GUARD
        return (self.ln(wp) * e).exp(prec)

    def pow_interval(self, e: "RealInterval", prec: int) -> "RealInterval":
        """self**e with an interval exponent; strictly positive base."""
        wp = prec + _GUARD
        return (self.ln(wp) * e).exp(prec)

    # -- queries -------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Rat) -> bool:
        return self.lo <= q <= self.hi

    def encloses(self, other: "RealInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "RealInterval"):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RealInterval(lo, hi) if lo <= hi else None

    def hull(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def abs(self) -> "RealInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RealInterval(0, max(-self.lo, self.hi))

    def __repr__(self):
        return f"RealInterval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, RealInterval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))


# ---------------------------------------------------------------- series
#
# In the fixed-point sums below an integer x stands for x / 2^F (see the
# module docstring).  The guard bits of F absorb one unit of rounding per
# term.


def _series_bits(prec: int) -> int:
    """Fixed-point scale F for a series whose sum must be good to 2^-prec."""
    return prec + 8 + prec.bit_length()


def _from_fixed(lo: int, hi: int, F: int) -> RealInterval:
    return RealInterval(Fraction(lo, 1 << F), Fraction(hi, 1 << F))


@lru_cache(maxsize=32)
def pi_interval(prec: int) -> RealInterval:
    """Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239), from fixed-point series."""
    wp = prec + _GUARD
    s = 16 * _atan_inv(5, wp) - 4 * _atan_inv(239, wp)
    return s.round_out(prec)


def _atan_inv(m: int, prec: int) -> RealInterval:
    # atan(1/m) = sum (-1)^k / ((2k+1) m^(2k+1)); alternating, so the
    # truncation error is bounded by the first omitted term.  p_lo and p_hi
    # are exactly floor and ceil of 2^F / m^(2k+1), because repeated floor
    # (ceil) division equals one floor (ceil) division by the product.
    F = _series_bits(prec)
    cut = 1 << (F - prec - 4)  # 2^-(prec+4) at scale 2^F
    m2 = m * m
    p_lo = (1 << F) // m
    p_hi = -(-(1 << F) // m)
    lo = hi = 0
    k = 0
    while True:
        t_lo = p_lo // (2 * k + 1)
        t_hi = -(-p_hi // (2 * k + 1))
        if t_hi < cut:
            return _from_fixed(lo - t_hi, hi + t_hi, F)
        if k % 2 == 0:
            lo += t_lo
            hi += t_hi
        else:
            lo -= t_hi
            hi -= t_lo
        k += 1
        p_lo //= m2
        p_hi = -(-p_hi // m2)


@lru_cache(maxsize=32)
def ln2_interval(prec: int) -> RealInterval:
    return _atanh_series(Fraction(1, 3), prec + _GUARD).round_out(prec)


def _atanh_fixed(a: int, b: int, prec: int) -> tuple:
    """(lo, hi) with [lo, hi] / 2^_series_bits(prec) enclosing 2 atanh(a/b).

    2 atanh(z) = ln((1+z)/(1-z)) for 0 <= z = a/b < 1; a monotone series
    with the geometric tail bound z^(2N+1) / ((2N+1)(1-z^2)).
    """
    F = _series_bits(prec)
    cut = 1 << (F - prec - 4)
    z_lo = (a << F) // b
    z_hi = -(-(a << F) // b)
    z2_lo = (z_lo * z_lo) >> F
    z2_hi = -(-(z_hi * z_hi) >> F)
    one_minus_z2 = (1 << F) - z2_hi  # <= (1 - z^2) 2^F
    p_lo, p_hi = z_lo, z_hi  # z^(2k+1) 2^F, rounded down and up
    lo = hi = 0
    k = 0
    while True:
        lo += p_lo // (2 * k + 1)
        hi += -(-p_hi // (2 * k + 1))
        p_lo = (p_lo * z2_lo) >> F
        p_hi = -(-(p_hi * z2_hi) >> F)
        k += 1
        tail = -(-(p_hi << F) // ((2 * k + 1) * one_minus_z2))
        if tail < cut:
            return 2 * lo, 2 * (hi + tail)


def _atanh_series(z: Fraction, prec: int) -> RealInterval:
    assert 0 <= z < 1
    lo, hi = _atanh_fixed(z.numerator, z.denominator, prec)
    return _from_fixed(lo, hi, _series_bits(prec))


def _exp_series(r: int, d: int, prec: int, F: int) -> RealInterval:
    # e^f = sum f^k / k! for f = r / d in [0, 1], summed at scale 2^F >= 2^prec
    # until a term drops below 2^-(prec+4).  For f = 1, t_lo and t_hi are
    # exactly floor and ceil of 2^F / k!.
    cut = 1 << (F - prec - 4)
    f_lo = (r << F) // d
    f_hi = -(-(r << F) // d)
    lo = hi = 0
    t_lo = t_hi = 1 << F
    k = 0
    while t_hi >= cut:
        lo += t_lo
        hi += t_hi
        k += 1
        t_lo = (t_lo * f_lo) // (k << F)
        t_hi = -(-(t_hi * f_hi) // (k << F))
    # remaining tail < 2 * term since term ratios are <= 1/2 from here on
    return _from_fixed(lo, hi + 2 * t_hi, F)


@lru_cache(maxsize=32)
def exp1_interval(prec: int) -> RealInterval:
    wp = prec + _GUARD
    return _exp_series(1, 1, wp, _series_bits(wp)).round_out(prec)


def exp_fraction(q: Rat, prec: int) -> RealInterval:
    """Certified enclosure of e**q for rational q."""
    q = Fraction(q)
    if q == 0:
        return RealInterval.point(1)
    if q < 0:
        return exp_fraction(-q, prec + _GUARD).recip(prec)
    wp = prec + _GUARD
    n, r = divmod(q.numerator, q.denominator)
    acc = exp1_interval(wp + n.bit_length() + 4).pow_int(n, wp) if n else RealInterval.point(1)
    # Taylor sum for the fractional part; acc < 2^(3n/2) scales its
    # rounding error, which the extra 3n/2 bits of F cancel.
    frac_part = _exp_series(r, q.denominator, wp, _series_bits(wp) + 3 * n // 2)
    return (acc * frac_part).round_out(prec)


def ln_fraction(q: Rat, prec: int) -> RealInterval:
    """Certified enclosure of ln(q) for rational q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln of a nonpositive rational")
    if q == 1:
        return RealInterval.point(0)
    wp = prec + _GUARD
    # normalize q = m * 2^e with m = num / den, 1 <= m < 2; q / 2^e lies in
    # (1/2, 2) for this e, so at most one doubling is needed
    num, den = q.numerator, q.denominator
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    if num < den:
        num <<= 1
        e -= 1
    # ln m = 2 atanh(z) with z = (m - 1) / (m + 1)
    lo, hi = _atanh_fixed(num - den, num + den, wp)
    lnm = _from_fixed(lo, hi, _series_bits(wp))
    return (lnm + e * ln2_interval(wp + abs(e).bit_length() + 2)).round_out(prec)


def log2_fraction(q: Rat, prec: int) -> RealInterval:
    wp = prec + _GUARD
    return ln_fraction(q, wp).div(ln2_interval(wp), prec)


# ---------------------------------------------------------------- boxes

class ComplexBox:
    """Axis-aligned rectangle certified to contain one complex value."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        self.re = re
        self.im = im

    def __add__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return ComplexBox(self.re + other, self.im)
        if isinstance(other, RealInterval):
            return ComplexBox(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ComplexBox(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction, RealInterval)):
            return ComplexBox(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def round_out(self, prec: int) -> "ComplexBox":
        return ComplexBox(self.re.round_out(prec), self.im.round_out(prec))

    def abs_sq(self) -> RealInterval:
        lo2 = self.re.abs()
        hi2 = self.im.abs()
        return lo2 * lo2 + hi2 * hi2

    def disjoint(self, other: "ComplexBox") -> bool:
        return (
            self.re.hi < other.re.lo
            or other.re.hi < self.re.lo
            or self.im.hi < other.im.lo
            or other.im.hi < self.im.lo
        )

    def __repr__(self):
        return f"ComplexBox({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------- rendering

def decimal_str(q: Fraction, digits: int, direction: str) -> str:
    """Exact decimal rendering of q, rounded toward the stated direction.

    direction is "down" (floor) or "up" (ceil); the printed value therefore
    keeps enclosure semantics when used for interval endpoints.
    """
    scale = 10 ** digits
    n = q.numerator * scale
    d = q.denominator
    if direction == "down":
        v = n // d
    elif direction == "up":
        v = -((-n) // d)
    else:
        raise ValueError("direction must be 'down' or 'up'")
    sign = "-" if v < 0 else ""
    v = abs(v)
    whole, frac = divmod(v, scale)
    if frac == 0:
        return f"{sign}{whole}"
    text = f"{frac:0{digits}d}".rstrip("0")
    return f"{sign}{whole}.{text}"


def interval_strs(iv: RealInterval, digits: int) -> list:
    return [decimal_str(iv.lo, digits, "down"), decimal_str(iv.hi, digits, "up")]
