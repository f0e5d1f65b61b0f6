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

The transcendental kernels rest on two series, exp's Taylor series and one
arctangent-family series (atan for pi by Machin's formula, atanh for ln 2
and ln), summed in fixed-point integers scaled by 2^F, with F a few guard
bits above the working precision: floor-rounded terms give the lower end,
ceil-rounded terms plus an explicit truncation bound the upper end (Brent &
Zimmermann, Modern Computer Arithmetic, section 4.4).  The constants pi, ln 2
and e are kept per precision in small LRU caches.  zeta(s) at integers s >= 2
is summed the same way from P. Borwein's alternating series, whose integer
coefficients are kept per length in a small LRU cache as well, and one chain
of its terms gives zeta(m) at every m of one parity at once.  The Dedekind
zeta of a quadratic or cyclic cubic field is zeta(s) times the L-values of
the field's character of order d = 2 or 3: at even s over a real field an
exact rational times pi^(d s)/sqrt(d_K), from generalized Bernoulli numbers,
and at every other s a Hurwitz zeta series in the values zeta(s + k).

Nothing in here consults floating point.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import LatcountError
from .polymod import is_prime, kronecker, prime_list

_GUARD = 16  # extra working bits ahead of a final outward rounding


def round_down(x: Fraction, prec: int) -> Fraction:
    """Largest multiple of 2^-prec that is <= x."""
    return Fraction((x.numerator << prec) // x.denominator, 1 << prec)


def round_up(x: Fraction, prec: int) -> Fraction:
    """Smallest multiple of 2^-prec that is >= x."""
    return Fraction(-((-x.numerator << prec) // x.denominator), 1 << prec)


def iroot_floor(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, k >= 1 (integer Newton, exact).

    Newton's integer step from any seed x >= r = floor(n**(1/k)) falls
    strictly until it reaches r, and the first step that does not fall
    returns it.  A root of more than 64 bits is seeded from the root of the
    radicand's top half: with n >> (k j) = t, (r_t + 1)^k > t gives the seed
    (r_t + 1) 2^j >= r, good to about half of r's bits, so a few full-width
    steps remain where a power-of-two seed, up to twice r, would first creep
    down by factors near (k-1)/k.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    j = n.bit_length() // (2 * k)
    if j > 32:
        x = (iroot_floor(n >> (k * j), k) + 1) << j
    else:  # 2^ceil(bitlength/k) >= r
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

    def __init__(self, lo: int | Fraction, hi: int | Fraction):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, q: int | Fraction) -> "RealInterval":
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

    def pow_frac(self, e: int | Fraction, prec: int) -> "RealInterval":
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

    def contains(self, q: int | Fraction) -> bool:
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
    s = 16 * _arctan_fixed(1, 5, -1, wp) - 4 * _arctan_fixed(1, 239, -1, wp)
    return s.round_out(prec)


@lru_cache(maxsize=32)
def ln2_interval(prec: int) -> RealInterval:
    return (2 * _arctan_fixed(1, 3, 1, prec + _GUARD)).round_out(prec)


def _arctan_fixed(a: int, b: int, sign: int, prec: int) -> RealInterval:
    """sum_k sign^k z^(2k+1) / (2k+1) for 0 <= z = a/b < 1, to 2^-(prec+2):
    atan(z) for sign = -1, atanh(z) for sign = +1.

    z^(2k+1) 2^F, F = _series_bits(prec), runs down a floor-rounded and a
    ceil-rounded chain, each step a product with z^2 = z2 / (b2 2^s).  For a
    short b that is a^2 / b^2 exactly, and as repeated floor (ceil) division
    is one by the product, for a = 1 the chains are exactly floor and ceil of
    2^F / b^(2k+1).  A b longer than F/4 bits, where dividing by b^2 costs more
    than a shift, gives way to z^2 2^F rounded down and up (b2 = 1, s = F).

    The rest after the terms summed is at most the next term t for atan
    (alternating, decreasing) and at most t / (1 - z2_hi / (b2 2^s)) for atanh
    (positive, ratios z^2 <= z2_hi / (b2 2^s)).  That last inequality is
    proof-only on the grid: z2_lo in its place moves the rest by under one
    unit of 2^-F, which no test can see.  The sum stops once the rest is below
    2^-(prec+4), that is once t <= t_max.
    """
    F = _series_bits(prec)
    cut = 1 << (F - prec - 4)
    p_lo, p_hi = (a << F) // b, -(-(a << F) // b)
    if 4 * b.bit_length() > F:
        z2_lo, z2_hi, b2, s = p_lo * p_lo >> F, -(-(p_hi * p_hi) >> F), 1, F
    else:
        z2_lo = z2_hi = a * a
        b2, s = b * b, 0
    one = b2 << s
    den = one if sign < 0 else one - z2_hi
    t_max = (cut - 1) * den // one  # the largest t whose rest t one / den is below cut
    lo = hi = k = 0
    while True:
        t_lo, t_hi = p_lo // (2 * k + 1), -(-p_hi // (2 * k + 1))
        if t_hi <= t_max:
            rest = -(-(t_hi * one) // den)
            return _from_fixed(lo - rest if sign < 0 else lo, hi + rest, F)
        if sign > 0 or k % 2 == 0:
            lo, hi = lo + t_lo, hi + t_hi
        else:
            lo, hi = lo - t_hi, hi - t_lo
        k += 1
        p_lo, p_hi = (p_lo * z2_lo >> s) // b2, -((-(p_hi * z2_hi) >> s) // b2)


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


def exp_fraction(q: int | Fraction, prec: int) -> RealInterval:
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


def ln_fraction(q: int | Fraction, prec: int) -> RealInterval:
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
    lnm = 2 * _arctan_fixed(num - den, num + den, 1, wp)
    return (lnm + e * ln2_interval(wp + abs(e).bit_length() + 2)).round_out(prec)


def log2_fraction(q: int | Fraction, prec: int) -> RealInterval:
    wp = prec + _GUARD
    return ln_fraction(q, wp).div(ln2_interval(wp), prec)


@lru_cache(maxsize=8)
def _borwein_d(n: int) -> tuple:
    """d_0, ..., d_n with d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!).

    The i-th term is n/(n+i) C(n+i, 2i) 4^i, a coefficient of the Chebyshev
    polynomial T_n, so each step of the term recurrence divides exactly, and
    d_n = T_n(3).
    """
    d = []
    acc = 0
    t = 1
    for i in range(n + 1):
        acc += t
        d.append(acc)
        t = t * 2 * (n + i) * (n - i) // ((i + 1) * (2 * i + 1))
    return tuple(d)


@lru_cache(maxsize=64)
def zeta_interval(s: int, prec: int) -> RealInterval:
    """Certified enclosure of zeta(s) for an integer s >= 2, of width <= 2^(2-prec).

    P. Borwein's Algorithm 2 (CMS Conf. Proc. 27, 2000):

        zeta(s) = sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s / (d_n (1 - 2^(1-s)))
                  + gamma_n(s),  |gamma_n(s)| <= 3 / ((3+sqrt 8)^n (1 - 2^(1-s))).

    d_n = ((3+sqrt 8)^n + (3-sqrt 8)^n) / 2 is at most (3+sqrt 8)^n, so the
    integer d_n is the rational lower bound that turns the error term into
    3 / (d_n (1 - 2^(1-s))).  The alternating sum is taken in fixed-point
    integers at scale 2^F d_n: floor-rounded terms give the lower end,
    ceil-rounded ones the upper end, and each end moves out by the error term
    (_zeta_chain, _borwein_ends).
    """
    if s < 2:
        raise ValueError("zeta_interval needs an integer s >= 2")
    lo, hi = _zeta_chain(s, s, prec)[s]
    return RealInterval(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec))


def _borwein_length(prec: int) -> tuple:
    """(n, (d_0, ..., d_n), F): the length of Borwein's sum for 2^-prec and
    the fixed-point bits that keep its n rounding units below 2^F / 16."""
    # d_n > (3+sqrt 8)^n / 2 >= 2^(2.54 n - 1) >= 2^(prec + 7)
    n = (prec + 8) * 50 // 127 + 1
    return n, _borwein_d(n), n.bit_length() + 4


def _borwein_ends(lo: int, hi: int, s: int, dn: int, F: int, prec: int) -> tuple:
    """The ends of zeta(s) 2^prec from the alternating sum's fixed-point ends
    lo <= hi, each moved out by the error term 3 (in units of 2^F) and rounded
    outward."""
    # zeta = sum / (2^F d_n (1 - 2^(1-s))) and 1 - 2^(1-s) = (2^(s-1) - 1) / 2^(s-1)
    denom = (dn * ((1 << (s - 1)) - 1)) << F
    lo = (lo - (3 << F)) << (s - 1 + prec)
    hi = (hi + (3 << F)) << (s - 1 + prec)
    return lo // denom, -(-hi // denom)


def _zeta_chain(m0: int, top: int, prec: int) -> dict:
    """m -> (lo, hi), the ends of zeta_interval(m, prec) times 2^prec, for m =
    m0, m0 + 2, ..., up to top, m0 >= 2, from one set of Borwein terms.

    Each term (d_n - d_k) 2^F / (k+1)^m is kept as its floor and a flag for a
    nonzero remainder, so its ceiling is the floor plus the flag.  The
    numerators do not depend on m, and floor(floor(x / a) / b) = floor(x /
    (a b)), so the floors at m + 2 are those at m divided by (k+1)^2, and a
    flag once set stays set (ceil likewise): one short division each, the
    same integers as divided afresh.  The terms fall in k and in m, so once
    the last term's floor is 0 (its ceiling 1), it stays so: it is counted,
    +1 on the upper end for even k and -1 on the lower for odd k, and
    dropped.  A large m then sums about 2^((prec + F + 8) / m) terms, as few
    as the Dirichlet series with an integral tail would.
    """
    n, d, F = _borwein_length(prec)
    floors, inexact = [], []
    for k in range(n):
        q, r = divmod((d[n] - d[k]) << F, (k + 1) ** m0)
        floors.append(q)
        inexact.append(r > 0)
    squares = None
    dropped = [0, 0]  # dropped terms of even and of odd k
    out = {}
    for m in range(m0, top + 1, 2):
        if m > m0:
            squares = squares or [(k + 1) ** 2 for k in range(n)]
            steps = list(map(divmod, floors, squares))
            floors = [q for q, _ in steps]
            inexact = [e or r > 0 for (_, r), e in zip(steps, inexact)]
        while len(floors) > 1 and floors[-1] == 0:
            dropped[(len(floors) - 1) % 2] += 1
            floors.pop()
            inexact.pop()
        even, odd = sum(floors[::2]), sum(floors[1::2])
        s_lo = even - odd - sum(inexact[1::2]) - dropped[1]
        s_hi = even + sum(inexact[::2]) - odd + dropped[0]
        out[m] = _borwein_ends(s_lo, s_hi, m, d[n], F, prec)
    return out


def _bernoulli_numbers(n: int) -> list:
    """B_0, ..., B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m) if b[k]) / (m + 1))
    return b


def _kronecker_table(f: int, size: int) -> list:
    """chi(a) = (f/a), the Kronecker symbol, for 0 <= a < size, where f is a
    fundamental discriminant, of either sign: chi is completely multiplicative."""
    chi = [1] * size
    chi[0] = 0
    for p in prime_list(size - 1):
        c = kronecker(f, p)
        if c == 0:
            chi[p::p] = [0] * len(range(p, size, p))
        elif c == -1:
            q = p
            while q < size:  # a gets (-1)^v_p(a): one sign flip per power of p dividing it
                chi[q::q] = [-x for x in chi[q::q]]
                q *= p
    return chi


def _cubic_table(f: int, size: int) -> list:
    """ind_g(a) mod 3 for 0 <= a < size, None where gcd(a, f) > 1, for the
    least generator g of the cyclic group (Z/f)^*, f = 9 or a prime = 1 mod 3:
    chi(a) = omega^ind_g(a), omega = exp(2 pi i / 3), is then a primitive
    cubic character mod f, and even: chi(-1)^2 = chi(-1)^3 = 1."""
    phi = 6 if f == 9 else f - 1
    if phi % 3 or not (f == 9 or is_prime(f)):
        raise ValueError(f"no cyclic cubic field has conductor {f}")
    factors = [q for q in prime_list(phi) if phi % q == 0]
    g = next(g for g in range(2, f) if math.gcd(g, f) == 1
             and all(pow(g, phi // q, f) != 1 for q in factors))
    table = [None] * f
    x = 1
    for i in range(phi):
        table[x] = i % 3
        x = x * g % f
    return table[:size]


def _character_classes(f: int, order: int) -> list:
    """members[c] = the a < |f|/2 with chi(a) = (-1)^c (order 2, chi = (f/.)
    for a fundamental discriminant f) or omega^c (order 3, f a conductor that
    _cubic_table takes)."""
    half = (abs(f) + 1) // 2
    if order == 2:
        table, labels = _kronecker_table(f, half), (1, -1)
    else:
        table, labels = _cubic_table(f, half), (0, 1, 2)
    return [[a for a in range(1, half) if table[a] == label] for label in labels]


def _power_sums(members: list, top: int) -> list:
    """sums[c][j] = the sum of a^j over members[c], j <= top, exact."""
    sums = []
    for group in members:
        row, powers = [], [1] * len(group)
        for j in range(top + 1):
            row.append(sum(powers))
            if j < top:
                powers = list(map(operator.mul, powers, group))
        sums.append(row)
    return sums


def _class_norm(parts: list):
    """prod_chi of sum_c chi(class c) parts[c] over chi^1, ..., chi^(d-1), d =
    len(parts): part[0] - part[1] for d = 2, and for d = 3 the norm U^2 - U V +
    V^2 of U + V omega, U = part[0] - part[2] and V = part[1] - part[2] (since
    1 + omega + omega^2 = 0).  Exact on rationals, sound on intervals."""
    if len(parts) == 2:
        return parts[0] - parts[1]
    u, v = parts[0] - parts[2], parts[1] - parts[2]
    return u ** 2 - u * v + v ** 2


def cyclic_zeta_intervals(f: int, order: int, s_values, prec: int) -> dict:
    """s -> enclosure of zeta_K(s), of width below 2^(2-prec), for integers s
    >= 2 and the cyclic field K of degree d = order (2 or 3) cut out by a
    primitive character chi of order d, no prime visited: the quadratic field
    of fundamental discriminant f (real for f > 0, imaginary for f < 0), chi =
    (f/.) of conductor |f|, or the cyclic cubic field of conductor f = 9 or a
    prime = 1 mod 3, chi = omega^(ind_g(a) mod 3) (see _cubic_table).

    zeta_K = zeta prod_chi L(., chi) over chi^1, ..., chi^(d-1).  At an even s
    over a real field (chi(-1) = (-1)^s = 1) the values are exact rationals
    times pi^(d s)/sqrt(d_K) (_bernoulli_zeta); every other s, and every s over
    an imaginary field, takes zeta(s) from zeta_interval and the L-values from
    the Hurwitz series of _hurwitz_l_values.
    """
    if order not in (2, 3) or abs(f) < 3 or (order == 3 and f < 0) or min(s_values) < 2:
        raise ValueError("cyclic_zeta_intervals needs order 2 or 3, a conductor of at least 3, "
                         "an odd character only of order 2, and s >= 2")
    members = _character_classes(f, order)
    s_values = set(s_values)
    even = sorted(n for n in s_values if f > 0 and n % 2 == 0)
    out = _bernoulli_zeta(f, members, even, prec) if even else {}
    rest = sorted(s_values.difference(even))
    if rest:
        wp = prec + 4
        for n, l_value in _hurwitz_l_values(f, members, rest, wp).items():
            out[n] = (zeta_interval(n, wp) * l_value).round_out(prec)
    return out


def _bernoulli_zeta(f: int, members: list, s_values: list, prec: int) -> dict:
    """s -> enclosure of zeta_K(s), of width below 2^(2-prec), for even s >=
    2 and the real field K of conductor f > 0 whose character classes are
    members (_character_classes), from exact generalized Bernoulli numbers.

    At even n every value at 1 - n is rational or in Z[omega] (Washington,
    GTM 83, Thm 4.2), zeta(1 - n) = -B_n/n and L(1 - n, chi) = -B_(n,chi)/n,
    with

        B_(n,chi) = f^(n-1) sum_(a<=f) chi(a) B_n(a/f)
                  = 2 sum_(k<=n) C(n,k) B_k f^(k-1) sum_(a<f/2) chi(a) a^(n-k),

    since chi(f - a) = chi(a), B_n(1 - x) = B_n(x) at even n and chi(f/2) = 0.
    The power sums are taken per value of chi, so B_(n,chi) = U + V omega is
    exact in Z[omega] for d = 3, and the conjugate pair chi, chi-bar gives
    |B_(n,chi)|^2 = U^2 - U V + V^2.  So zeta_K(1 - n) = (-B_n/n) prod_chi
    (-B_(n,chi)/n), and with d_K = f^(d-1) and the Gauss sums' product
    sqrt(d_K), the functional equation of zeta_K gives

        zeta_K(n) = zeta_K(1 - n) [(-1)^(n/2) (2 pi)^n / (2 (n-1)!)]^d d_K^(1/2-n).

    The rational part is exact; only pi^(d n) and, for d = 2, sqrt f are
    enclosed, at prec + 4 + bitlen(d max s) working bits, and the quotient
    is rounded outward.
    """
    d, top = len(members), max(s_values)
    sums = _power_sums(members, top)
    b = _bernoulli_numbers(top)
    wp = prec + 4 + (d * top).bit_length()
    pi = pi_interval(wp)
    root = RealInterval.point(f).sqrt(wp) if d == 2 else RealInterval.point(1)
    out = {}
    for n in s_values:
        # f B_(n,chi) / 2 = sum_c zeta_d^c part[c], zeta_d = -1 or omega
        part = [sum(math.comb(n, k) * b[k] * f ** k * row[n - k] for k in range(n + 1) if b[k])
                for row in sums]
        # prod_chi B_(n,chi) = norm (2/f)^(d-1), so zeta_K(1 - n) = (-1)^d B_n norm (2/f)^(d-1) / n^d
        zeta_neg = (-1) ** d * b[n] * _class_norm(part) * Fraction(2, f) ** (d - 1) / n ** d
        # times [(-1)^(n/2) 2^n / (2 (n-1)!)]^d / d_K^(n-1/2), less the pi^(d n) and sqrt f enclosed below
        scale = (zeta_neg * Fraction((-1) ** (n // 2) * 2 ** n, 2 * math.factorial(n - 1)) ** d
                 / f ** ((d - 1) * (2 * n - 1) // 2))
        out[n] = RealInterval(scale * pi.lo ** (d * n), scale * pi.hi ** (d * n)).div(root, prec)
    return out


def _hurwitz_l_values(f: int, members: list, s_values: list, prec: int) -> dict:
    """s -> enclosure of prod_chi L(s, chi), of width below 2^-prec, for
    integers s >= 2, over the characters chi^1, ..., chi^(d-1) of
    cyclic_zeta_intervals' field, whose classes are members
    (_character_classes), at any parity of s and of chi.

    L(s, chi) = F^-s sum_(0<a<F) chi(a) zeta(s, a/F), F = |f| the conductor.
    Hurwitz's zeta(s, x) = x^-s + sum_k (-1)^k C(s+k-1, k) zeta(s+k) x^k about
    0 for a < F/2, and zeta(s, 1 - y) = sum_k C(s+k-1, k) zeta(s+k) y^k about 1
    for a = F - b > F/2; chi(F - b) = eps chi(b), eps = chi(-1), folds the two
    halves into

        L(s, chi) = sum_(a<F/2) chi(a) a^-s
                    + 2 eps F^-s sum_(k = (1-eps)/2 mod 2) C(s+k-1, k) zeta(s+k) S_k / F^k,

    S_k = sum_(a<F/2) chi(a) a^k (chi(F/2) = 0).  Per class c the sums
    S_(k,c) over members[c] are positive integers, as in _bernoulli_zeta, so
    each class sum X_c is one positive series, summed in fixed point at scale
    2^G floor- and ceil-rounded, zeta(s+k) from one _zeta_chain per parity of s
    + k shared by every s, and L = sum_c chi(class c) X_c is combined by
    _class_norm.

    Tail: with n the number of a < F/2 and A = floor((F-1)/2) the largest,
    S_(k,c) <= n A^k and zeta(s+k) <= 2, so the k-th term of 2 F^-s X_c's
    series is at most B_k = 4 n C(s+k-1, k) A^k / F^(s+k), and B_(k+2) / B_k =
    rho_k = (s+k)(s+k+1) A^2 / ((k+1)(k+2) F^2) falls in k, below 1/4 from
    some k on, as A/F < 1/2.  The sum stops at the first k with rho_k <= 1/2
    and B_k below one unit of 2^-G, and the terms from k on, a geometric tail,
    add at most B_k / (1 - rho_k) <= 2 B_k to the upper end; B_k is carried as
    a ceiling chain.  Terms shrink like 2^-k, so about G terms are summed.
    """
    F = abs(f)
    eps, k0 = (1, 0) if f > 0 else (-1, 1)
    n, A = sum(map(len, members)), (F - 1) // 2
    G = prec + 12 + (F + prec).bit_length()
    one = 1 << G
    # stop index and tail bound per s: terms k0, k0 + 2, ..., stop - 2 are summed
    plan = {}
    for s in s_values:
        k = k0
        bound = -(-((4 * n * math.comb(s + k - 1, k) * A ** k) << G) // F ** (s + k))
        while True:
            num, den = (s + k) * (s + k + 1) * A * A, (k + 1) * (k + 2) * F * F
            if 2 * num <= den and bound <= 1:
                break
            bound = -(-(bound * num) // den)
            k += 2
        plan[s] = k, bound
    sums = _power_sums(members, max(stop for stop, _ in plan.values()))
    zeta = {}  # zeta(m) at scale 2^G, one chain per parity of m
    top = max(s + stop for s, (stop, _) in plan.items())
    for parity in {(s + k0) % 2 for s in s_values}:
        zeta.update(_zeta_chain(min(s + k0 for s in s_values if (s + k0) % 2 == parity), top, G))
    out = {}
    for s in s_values:
        stop, bound = plan[s]
        parts = []
        for c, group in enumerate(members):
            lo = hi = 0
            den = F ** (s + k0)
            for k in range(k0, stop, 2):
                z_lo, z_hi = zeta[s + k]
                t = 2 * math.comb(s + k - 1, k) * sums[c][k]
                lo += t * z_lo // den
                hi += -(-(t * z_hi) // den)
                den *= F * F
            hi += 2 * bound
            if eps < 0:
                lo, hi = -hi, -lo
            lo += sum(one // a ** s for a in group)
            hi += sum(-(-one // a ** s) for a in group)
            parts.append(RealInterval(Fraction(lo, one), Fraction(hi, one)))
        out[s] = _class_norm(parts)
    return out


# ---------------------------------------------------------------- boxes

class ComplexBox:
    """Axis-aligned rectangle certified to contain one complex root.

    A certificate, not a number: it has no arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        self.re = re
        self.im = im

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

_DIGIT_LIMIT = ("Exceeds the limit ({} digits) for integer string conversion{}; "
                "use sys.set_int_max_str_digits() to increase the limit")


def int_str(n: int) -> str:
    """str(n), failing on integers past the int->str digit limit with one text.

    Python 3.10 and 3.11 word their own ValueError differently; the report
    layer prints every integer that can grow that long through here.
    """
    try:
        return str(n)
    except ValueError:
        raise digit_limit_error() from None


def str_digit_limit() -> int:
    """Python's int<->str digit limit, 0 for none: Pythons before 3.10.7 have
    neither the limit nor sys.get_int_max_str_digits."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def digit_limit_error() -> LatcountError:
    """int_str's error, for a caller that can tell in advance that it would fail."""
    return LatcountError(_DIGIT_LIMIT.format(str_digit_limit(), ""))


def refuse_unprintable_power(base: int | Fraction, exponent: int) -> None:
    """Raise digit_limit_error() if base^exponent, base > 1, cannot be printed:
    it is at least 2^(b exponent), b = bitlen(numerator) - bitlen(denominator) - 1."""
    refuse_unprintable_bits((base.numerator.bit_length() - base.denominator.bit_length() - 1) * exponent)


def refuse_unprintable_bits(bits: int) -> None:
    """Raise digit_limit_error() if an integer >= 2^bits (of > 0.30102 bits digits) cannot print."""
    if bits * 30102 // 100000 >= str_digit_limit() > 0:
        raise digit_limit_error()


def parse_int(digits: str) -> int:
    """int(digits) for a string of decimal digits; past the digit limit, a
    ValueError with Python 3.11's text on every version."""
    try:
        return int(digits)
    except ValueError:
        detail = f": value has {len(digits)} digits"
        raise ValueError(_DIGIT_LIMIT.format(str_digit_limit(), detail)) from None


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
        return sign + int_str(whole)
    text = f"{frac:0{digits}d}".rstrip("0")
    return f"{sign}{int_str(whole)}.{text}"


def interval_strs(iv: RealInterval, digits: int) -> list:
    return [decimal_str(iv.lo, digits, "down"), decimal_str(iv.hi, digits, "up")]
