"""Covolume evaluation for principal arithmetic subgroups.

The pieces: exact orders of the finite groups of Lie type (hence local
factors), prime splitting (by the quadratic character of disc(f) wherever
that fixes the residue degrees; a cyclic cubic, whose disc(f) is a square
m^2, factors one prime per residue class mod m; distinct-degree
factorization for every other prime of a degree >= 3 field the character
leaves open), truncated Dedekind zeta Euler products with certified tail
bounds, and the assembly of the volume formula

    D^(dim/2) * (D_rel)^(s/2) * (prod_i m_i!/(2 pi)^(m_i+1))^d * E * Lambda.

Over Q each zeta(s) is enclosed to the working precision by P. Borwein's
alternating series with its explicit error bound (interval.zeta_interval),
so no prime is visited and the prime bound changes nothing.  The same holds
over a quadratic field and over a cyclic cubic field of one conductor f in
NumberField.conductors, 9 or a prime, for |f| up to CLOSED_FORM_MAX_CONDUCTOR
(interval.cyclic_zeta_intervals): at even zeta arguments over a real field
zeta_K(s) is a rational multiple of pi^(d s)/sqrt(d_K), from the generalized
Bernoulli numbers of the field's character of order d, and at every other
argument of an inner form zeta(s) times L-values from a Hurwitz series, while
that series' estimated work stays within SERIES_MAX_WORK.  Over every other
field of degree >= 2, and for an outer form that would need the series, the
truncated Euler products come from one pass over the primes that keeps
floor- and ceil-rounded fixed-point integers per zeta argument, so they
enclose the exact rational products; every transcendental enters as a
certified interval, so the reported covolume is a true enclosure.  D is d_K
over every quadratic field and every cubic of one conductor, and the hull
over the d_K of a cubic that allows several.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, isqrt

from .errors import LatcountError
from .interval import (
    RealInterval,
    cyclic_zeta_intervals,
    exp_fraction,
    pi_interval,
    refuse_unprintable_power,
    round_down,
    round_up,
    zeta_interval,
)
from .liedata import LieTypeData, outer2_signs, split_signs
from .numfield import NumberField
from .pisot_tower import QuadraticExtensionData
from .polymod import distinct_degree_degrees, is_prime, kronecker, prime_list

# ========================================================== finite group data

def finite_group_order(
    data: LieTypeData, q: int, signs: Sequence[int] | None = None
) -> int:
    """#M(F_q) = q^dim prod_i (1 + s_i q^-(m_i+1)), exact."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if signs is None:
        signs = split_signs(data)
    if len(signs) != data.rank or any(s not in (-1, 1) for s in signs):
        raise ValueError("sign vector must be +-1 of length rank")
    val = Fraction(q) ** data.dim
    for s, m in zip(signs, data.exponents):
        val *= 1 + Fraction(s, q ** (m + 1))
    if val.denominator != 1:
        raise LatcountError(
            f"sign vector {tuple(signs)} gives a non-integral order for {data.name}"
        )
    return int(val)


def local_factor(
    data: LieTypeData, q: int, signs: Sequence[int] | None = None
) -> Fraction:
    """e_v = q^dim / #M(F_q), exact rational."""
    return Fraction(q ** data.dim, finite_group_order(data, q, signs))


# ============================================================= prime splitting

# a quadratic field keeps (D/p) per class of p mod |D| only up to this |D|:
# past it the classes stop recurring below the prime bounds in use, and the
# kept classes would cost more memory (40 MB at |D| = 4 10^6 and a prime
# bound of 10^7) than the Legendre symbols they save
_MAX_CLASS_MODULUS = 1 << 16


def prime_splitting(k: NumberField, p: int) -> tuple[int, ...]:
    """Residue degrees of the primes above p, ascending, from the defining
    polynomial; () when p divides disc(Z[theta]).

    That is the Euler pass's one bad-prime test: at such p the splitting is
    unknown without the maximal order, whether p divides the field
    discriminant or only the index.

    At every other p, Stickelberger's theorem (Swan, Pacific J. Math. 12,
    1962) ties the number r of irreducible factors of f mod p to the
    quadratic character of D = disc(f) = disc(Z[theta]), never a supplied
    known_disc: (D/p) = (-1)^(d - r).  For p = 2 the symbol is Kronecker's,
    +1 iff D = 1 mod 8 (an odd D is 1 mod 4).  That settles degree 1 and 2
    outright and the (1, 2) pattern of a cubic.  D = 0, 1 mod 4, so (D/p) is
    a character of p mod |D|: over a quadratic field with |D| <=
    _MAX_CLASS_MODULUS it is computed once per class and kept in
    `k.frobenius_classes`.

    A cubic with D = m^2 is cyclic, and (D/p) = +1 at every unramified p.
    Its conductor f_K divides m (d_K = f_K^2 by the conductor-discriminant
    formula, and D = index^2 d_K), so p's Frobenius, hence its residue
    degrees, depend only on p mod m: they are factored once per class, at
    the first prime that falls in it, and kept in `k.frobenius_classes`
    (at most phi(m) entries).  "p splits iff p is a cube mod m" would be
    wrong for composite m.  The other cubics with (D/p) = +1 and every
    field of degree >= 4 (a square D does not make it abelian) reach the
    distinct-degree factorization at each prime.
    """
    disc = k.zk_disc
    if disc % p == 0:
        return ()
    d = k.degree
    if d == 1:
        return (1,)
    key = None
    if d == 3 and disc > 0 and (m := isqrt(disc)) * m == disc:
        key = p % m
    elif d == 2 and abs(disc) <= _MAX_CLASS_MODULUS:
        key = p % abs(disc)
    degs = k.frobenius_classes.get(key)
    if degs is not None:
        return degs
    if d <= 3 and kronecker(disc, p) == -1:
        degs = (1,) * (d - 2) + (2,)
    elif d == 2:
        degs = (1, 1)
    else:
        degs = distinct_degree_degrees(k.min_poly.coefficients, p)
        assert sum(degs) == d
    if key is not None:
        k.frobenius_classes[key] = degs
    return degs


# ======================================================== zeta Euler products

_GUARD = 64  # fixed-point bits below the output grid of the Euler pass
# the largest conductor whose zeta_K(s) comes from the closed form rather than
# the Euler pass (a quadratic field's conductor is |d_K|): there the closed
# form of zeta_K(2) costs about what the pass at the default prime bound does
CLOSED_FORM_MAX_CONDUCTOR = 10 ** 5
# the largest estimated work, conductor times working bits plus half the
# working bits squared (power sums and zeta(m) values), of the Hurwitz series
# that serves the zeta arguments the closed form misses; past it the series
# would cost more than the pass at the default prime bound, which runs instead
SERIES_MAX_WORK = 2 * 10 ** 5


def coarse_bound(prime_bound: int) -> int:
    """Prime bound of the snapshot that the nesting check compares against."""
    return max(100, prime_bound // 10)


def _zeta_pass(
    k: NumberField, s_values: Sequence[int], bounds: Sequence[int], precision: int
) -> list:
    """One pass over the primes <= bounds[-1] for every s in s_values.

    Per s, lo and hi are fixed-point integers scaled by 2^(precision + _GUARD):
    each factor q/(q-1), q = p^(f s), of a prime with known residue degrees
    is applied to lo rounded down and to hi rounded up, and a p whose
    splitting is unknown multiplies only hi, by the totally split factor
    (1-p^-s)^-d.  At each bound (ascending order) the tail
    sum_{p > bound} p^-s <= bound^(1-s)/(s-1) is applied to hi, and the result
    is a dict s -> enclosure on the 2^-precision grid.
    """
    if min(s_values) < 2:
        raise ValueError("zeta truncation needs s >= 2")
    if bounds[0] < 2:
        raise ValueError("prime_bound must be >= 2")
    d = k.degree
    split = (1,) * d
    s_values = sorted(set(s_values))
    one = 1 << (precision + _GUARD)
    lo = dict.fromkeys(s_values, one)
    hi = dict.fromkeys(s_values, one)
    primes = prime_list(bounds[-1])
    start = 0
    out = []
    for bound in bounds:
        stop = bisect_right(primes, bound)
        for p in primes[start:stop]:
            degs = prime_splitting(k, p)
            for s in s_values:
                for f in degs or split:
                    q1 = p ** (f * s) - 1
                    if degs:
                        lo[s] += lo[s] // q1
                    hi[s] += -(-hi[s] // q1)
        start = stop
        snapshot = {}
        for s in s_values:
            tail = exp_fraction(Fraction(2 * d, (s - 1) * bound ** (s - 1)), precision + 16)
            snapshot[s] = RealInterval(
                round_down(Fraction(lo[s], one), precision),
                round_up(Fraction(hi[s], one) * tail.hi, precision),
            )
        out.append(snapshot)
    return out


def dedekind_zeta_partial(k: NumberField, s: int, prime_bound: int) -> RealInterval:
    """Certified enclosure [P, P*R*T] of the degree-s zeta value of k, on
    the 2^-k.precision grid.

    P is the Euler product over unramified p <= prime_bound; R brackets the
    ramified factors by [1, (1-p^-s)^-d]; T bounds the tail via
    sum_{p > bound} p^-s <= bound^(1-s)/(s-1).  The truncated product is one
    pass of outward-rounded fixed-point integers (see _zeta_pass), so the
    result is deterministic and encloses the exact rational product.
    """
    return _zeta_pass(k, [s], [prime_bound], k.precision)[0][s]


def _closed_form_character(
    k: NumberField, s_values: Sequence[int], outer: bool, wp: int
) -> tuple[int, int] | None:
    """(f, order d) of the primitive character that cuts out k when
    interval.cyclic_zeta_intervals serves zeta_K at s_values, else None.

    k is a quadratic or a cubic field with one conductor f in k.conductors
    (f = d_K, negative for an imaginary quadratic field, whose character is
    odd), |f| <= CLOSED_FORM_MAX_CONDUCTOR, and for a cubic f = 9 or a prime:
    a composite f, 9 p or p q, is the conductor of two cyclic cubic fields,
    and f alone does not tell their characters apart.  The Bernoulli closed
    form serves when every s is even and the field real; the Hurwitz series
    serves every other s of an inner form whose estimated work is at most
    SERIES_MAX_WORK.
    """
    conductors = k.conductors
    if not conductors or len(conductors) > 1:
        return None
    (f,) = conductors
    if abs(f) > CLOSED_FORM_MAX_CONDUCTOR or k.degree == 3 and f != 9 and not is_prime(f):
        return None
    serves = (f > 0 and all(s % 2 == 0 for s in s_values)
              or not outer and abs(f) * wp + wp * wp // 2 <= SERIES_MAX_WORK)
    return (f, k.degree) if serves else None


def euler_product_E(
    k: NumberField, data: LieTypeData, bounds: Sequence[int], precision: int = 128
) -> list:
    """prod_i zeta_k(m_i + 1) as a certified interval at each ascending prime
    bound, from one pass over the primes.

    Over Q every zeta(s) comes from interval.zeta_interval instead.  Over a
    quadratic field with |d_K| <= CLOSED_FORM_MAX_CONDUCTOR or a cyclic cubic
    of one conductor, 9 or a prime up to that cap (_closed_form_character),
    zeta_k comes from interval.cyclic_zeta_intervals: at even s over a real
    field from the Bernoulli closed form, and at every other s of an inner
    form from the Hurwitz series while its estimated work stays within
    SERIES_MAX_WORK.  Neither depends on the bound, so each bound gets the
    same interval.  Every other field, and an outer form that needs the
    series, takes the pass.

    An outer form's factor at the exponents where outer2_signs is +1 is
    L(s, chi) for the quadratic character chi of the splitting field, s =
    m_i + 1.  Each of its local factors (1 - chi(P) q^-s)^-1 lies between
    (1 + q^-s)^-1 and (1 - q^-s)^-1, so L(s, chi) is enclosed by
    [zeta_k(2s)/zeta_k(s), zeta_k(s)], with zeta_k(2s) taken the same way.
    """
    wp = precision + 16
    signs = outer2_signs(data) if data.s_param else split_signs(data)
    twisted = [2 * m + 2 for m, sign in zip(data.exponents, signs) if sign == 1]
    s_values = [m + 1 for m in data.exponents] + twisted
    if k.degree == 1:
        passes = [{s: zeta_interval(s, wp) for s in set(s_values)}] * len(bounds)
    elif character := _closed_form_character(k, s_values, bool(data.s_param), wp):
        passes = [cyclic_zeta_intervals(*character, s_values, wp)] * len(bounds)
    else:
        passes = _zeta_pass(k, s_values, bounds, wp)
    out = []
    for zetas in passes:
        product = RealInterval.point(1)
        for m, sign in zip(data.exponents, signs):
            z = zetas[m + 1]
            if sign == 1:
                z = zetas[2 * m + 2].div(z, wp).hull(z)
            product = product * z
        out.append(product.round_out(precision))
    return out


# ================================================================= covolume

class CovolumeResult(namedtuple("CovolumeResult", [
    "value", "disc_factor", "arch_factor", "euler_factor", "lambda_bound", "prime_bound_used",
    # value at coarse_bound(prime_bound_used), when that bound is lower
    "coarse_value",
], defaults=(None,))):
    __slots__ = ()

    def factor_product(self) -> RealInterval:
        return (
            self.disc_factor * self.arch_factor * self.euler_factor * self.lambda_bound
        )


def _arch_unit(data: LieTypeData, wp: int) -> RealInterval:
    """prod_i m_i! / (2 pi)^(m_i+1), the per-degree archimedean factor."""
    two_pi = pi_interval(wp) * 2
    total_exp = sum(m + 1 for m in data.exponents)
    scale = 1
    for m in data.exponents:
        scale *= factorial(m)
    # divide last: (2 pi)^-N alone can sit below the 2^-wp grid (N = 128 for E8)
    return RealInterval.point(scale).div(two_pi ** total_exp, wp)


def covolume(
    k: NumberField,
    ext: QuadraticExtensionData | None,
    data: LieTypeData,
    p0: int | None = None,
    prime_bound: int = 100000,
) -> CovolumeResult:
    """Volume-formula enclosure for a concrete base field, worked at
    k.precision + 16 bits.

    D^(dim/2) is the hull over the |d_K| that k.conductors allows
    (k.abs_disc_range): |d_K| itself over Q, over a quadratic field (which
    refuses a disc(Z[theta]) it cannot factor) and over a cubic of one
    conductor f; the hull over f^2 for a cubic with disc(Z[theta]) = m^2
    that allows several; else D is |k.disc|.  The
    relative-discriminant factor (D_rel)^(s/2) is folded into
    disc_factor as the bracket [1, rel_bound^(s/2)], rel_bound =
    ceil(ext.disc_bound / |k.disc|^2) = 4^d N(alpha) c^(2d), the extension's
    own cap (dividing by d_K^2 instead would only widen it); lambda_bound is
    [1, p0^(d dim)] when a distinguished ramified place is declared.  The
    same Euler pass also yields coarse_value, the covolume truncated at
    coarse_bound(prime_bound), whenever that bound is below prime_bound;
    where no prime is visited, it equals value.
    """
    wp = k.precision + 16
    d = k.degree
    s = data.s_param
    least, greatest = k.abs_disc_range
    disc = RealInterval.point(least).pow_frac(Fraction(data.dim, 2), wp)
    if greatest > least:
        disc = disc.hull(RealInterval.point(greatest).pow_frac(Fraction(data.dim, 2), wp))
    if s:
        if ext is None:
            raise ValueError(
                "outer forms need quadratic extension data for the (D_rel)^(s/2) factor"
            )
        rel_int = ceil(Fraction(ext.disc_bound, k.abs_disc ** 2))
        disc = disc * RealInterval(1, 1).hull(
            RealInterval.point(rel_int).pow_frac(Fraction(s, 2), wp)
        )
    arch = _arch_unit(data, wp).pow_int(d, wp)
    # value.hi >= disc.hi arch.hi, since the Euler and lambda brackets reach 1:
    # refuse a value that cannot be printed before the Euler pass
    refuse_unprintable_power(disc.hi * arch.hi, 1)
    coarse = coarse_bound(prime_bound)
    bounds = [coarse, prime_bound] if coarse < prime_bound else [prime_bound]
    *coarse_euler, euler = euler_product_E(k, data, bounds, wp)
    lam = (
        RealInterval(1, Fraction(p0) ** (d * data.dim))
        if p0 is not None
        else RealInterval.point(1)
    )
    return CovolumeResult(
        value=disc * arch * euler * lam,
        disc_factor=disc,
        arch_factor=arch,
        euler_factor=euler,
        lambda_bound=lam,
        prime_bound_used=prime_bound,
        coarse_value=disc * arch * coarse_euler[0] * lam if coarse_euler else None,
    )


@lru_cache(maxsize=8)
def _c1_factors(
    c0: RealInterval, data: LieTypeData, p0: int, wp: int
) -> tuple[RealInterval, RealInterval, RealInterval, RealInterval]:
    """The per-degree factors (disc, arch, lambda, euler) of c1.

    The Euler factor is prod_i zeta(m_i + 1) from interval.zeta_interval: a
    degree-d field has zeta_K(s) <= zeta(s)^d for real s > 1, so the field's
    Euler product is at most this factor to the d-th power.  Cached, so that
    covolume_upper_c1 and covolume_synthetic on one tower level share them.
    """
    if data.s_param:
        raise ValueError("outer form needs the relative-discriminant constant c0'")
    disc = c0.pow_frac(Fraction(data.dim, 2), wp)
    lam = RealInterval.point(p0 ** data.dim)
    euler = RealInterval.point(1)
    for m in data.exponents:
        euler = euler * zeta_interval(m + 1, wp)
    return disc, _arch_unit(data, wp), lam, euler.round_out(wp)


def covolume_upper_c1(
    c0: RealInterval, data: LieTypeData, p0: int, precision: int = 128
) -> RealInterval:
    """c1 = c0^(dim/2) prod(m_i!/(2 pi)^(m_i+1)) p0^dim prod zeta(m_i+1) for an inner form.

    A degree-d field with rd <= c0 then has covolume at most c1^d.  The
    factors here are shared with covolume_synthetic so that the c1^d
    comparison is exact at the endpoint level.
    """
    disc, arch, lam, euler = _c1_factors(c0, data, p0, precision + 16)
    return disc * arch * lam * euler


def covolume_synthetic(
    rd_bound: RealInterval,
    degree: int,
    data: LieTypeData,
    p0: int,
    precision: int = 128,
) -> CovolumeResult:
    """Volume bracket for a tower level known only by its degree and rd bound.

    No splitting data exists, so the Euler product is bracketed by
    [1, (prod_i zeta(m_i+1))^d] and the distinguished place by [1, p0^(d dim)].
    Every per-degree factor of c1 is positive and these two brackets start
    at 1, so the value is assembled once from the per-degree ends; its upper
    endpoint is c1.hi^d exactly.
    """
    d = degree
    disc, arch, lam, euler = _c1_factors(rd_bound, data, p0, precision + 16)
    return CovolumeResult(
        value=RealInterval(
            (disc.lo * arch.lo) ** d, (disc.hi * arch.hi * lam.hi * euler.hi) ** d
        ),
        disc_factor=disc ** d,
        arch_factor=arch ** d,
        euler_factor=RealInterval(1, euler.hi ** d),
        lambda_bound=RealInterval(1, lam.hi ** d),
        prime_bound_used=0,
    )
