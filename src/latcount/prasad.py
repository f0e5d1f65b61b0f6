"""Covolume evaluation for principal arithmetic subgroups.

The pieces: exact orders of the finite groups of Lie type (hence local
factors), prime splitting from the defining polynomial, truncated Dedekind
zeta Euler products with certified tail bounds, and the assembly of the
volume formula

    D^(dim/2) * (D_rel)^(s/2) * (prod_i m_i!/(2 pi)^(m_i+1))^d * E * Lambda.

The truncated Euler products come from one pass over the primes that keeps
floor- and ceil-rounded fixed-point integers per zeta argument, so they
enclose the exact rational products; every transcendental enters as a
certified interval, so the reported covolume is a true enclosure.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, factorial
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import NonIntegralOrder
from .interval import RealInterval, exp_fraction, pi_interval, round_down, round_up
from .liedata import LieTypeData, split_signs
from .numfield import NumberField, element_norm
from .pisot_tower import QuadraticExtensionData
from .polymod import distinct_degree_degrees, prime_list

# ========================================================== finite group data

def finite_group_order(
    data: LieTypeData, q: int, signs: Optional[Sequence[int]] = None
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
        raise NonIntegralOrder(
            f"sign vector {tuple(signs)} gives a non-integral order for {data.name}"
        )
    return int(val)


def local_factor(
    data: LieTypeData, q: int, signs: Optional[Sequence[int]] = None
) -> Fraction:
    """e_v = q^dim / #M(F_q), exact rational."""
    return Fraction(q ** data.dim, finite_group_order(data, q, signs))


# ============================================================= prime splitting

class PrimeSplitting(NamedTuple):
    p: int
    residue_degrees: Tuple[int, ...]
    ramified: bool
    conservative: bool  # ramified verdict forced by disc(Z[theta]), not the field disc


def prime_splitting(k: NumberField, p: int) -> PrimeSplitting:
    """Residue degrees of p from the defining polynomial.

    The Euler pass's one bad-prime test: p | disc(Z[theta]) is reported
    ramified and only other p reach the distinct-degree factorization; if the
    field discriminant is prime to p, this is only an index obstruction, flagged
    `conservative` (the true splitting is unknown without the maximal order).
    """
    if k.zk_disc % p == 0:
        return PrimeSplitting(p, (), True, k.abs_disc % p != 0)
    degs = distinct_degree_degrees(k.min_poly.coefficients, p)
    assert sum(degs) == k.degree
    return PrimeSplitting(p, degs, False, False)


# ======================================================== zeta Euler products

_GUARD = 64  # fixed-point bits below the output grid of the Euler pass


def coarse_bound(prime_bound: int) -> int:
    """Prime bound of the snapshot that the nesting check compares against."""
    return max(100, prime_bound // 10)


def _zeta_pass(
    k: NumberField, s_values: Sequence[int], bounds: Sequence[int], precision: int
) -> list:
    """One pass over the primes <= bounds[-1] for every s in s_values.

    Per s, lo and hi are fixed-point integers scaled by 2^(precision + _GUARD):
    each unramified factor q/(q-1), q = p^(f s), is applied to lo rounded
    down and to hi rounded up, and a ramified p multiplies only hi, by
    (1-p^-s)^-d.  At each bound (ascending order) the tail
    sum_{p > bound} p^-s <= bound^(1-s)/(s-1) is applied to hi, and the result
    is a dict s -> enclosure on the 2^-precision grid.
    """
    if min(s_values) < 2:
        raise ValueError("zeta truncation needs s >= 2")
    if bounds[0] < 2:
        raise ValueError("prime_bound must be >= 2")
    d = k.degree
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
            sp = prime_splitting(k, p)
            for s in s_values:
                for f in sp.residue_degrees:
                    q1 = p ** (f * s) - 1
                    lo[s] += lo[s] // q1
                    hi[s] += -(-hi[s] // q1)
                if sp.ramified:
                    q1 = p ** s - 1
                    for _ in range(d):
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


def dedekind_zeta_partial(
    k: NumberField, s: int, prime_bound: int, precision: int = 128
) -> RealInterval:
    """Certified enclosure [P, P*R*T] of the degree-s zeta value of k.

    P is the Euler product over unramified p <= prime_bound; R brackets the
    ramified factors by [1, (1-p^-s)^-d]; T bounds the tail via
    sum_{p > bound} p^-s <= bound^(1-s)/(s-1).  The truncated product is one
    pass of outward-rounded fixed-point integers (see _zeta_pass), so the
    result is deterministic and encloses the exact rational product.
    """
    return _zeta_pass(k, [s], [prime_bound], precision)[0][s]


def euler_product_E(
    k: NumberField, data: LieTypeData, bounds: Sequence[int], precision: int = 128
) -> list:
    """prod_i zeta_k(m_i + 1) (split-form local factors) as a certified interval
    at each ascending prime bound, from one pass over the primes."""
    wp = precision + 16
    out = []
    for zetas in _zeta_pass(k, [m + 1 for m in data.exponents], bounds, wp):
        product = RealInterval.point(1)
        for m in data.exponents:
            product = product * zetas[m + 1]
        out.append(product.round_out(precision))
    return out


# ================================================================= covolume

class CovolumeResult(NamedTuple):
    value: RealInterval
    disc_factor: RealInterval
    arch_factor: RealInterval
    euler_factor: RealInterval
    lambda_bound: RealInterval
    prime_bound_used: int
    # value at coarse_bound(prime_bound_used), when that bound is lower
    coarse_value: Optional[RealInterval] = None

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
    ext: Optional[QuadraticExtensionData],
    data: LieTypeData,
    p0: Optional[int] = None,
    prime_bound: int = 100000,
    precision: int = 128,
) -> CovolumeResult:
    """Volume-formula enclosure for a concrete base field.

    The relative-discriminant factor (D_rel)^(s/2) is folded into
    disc_factor as the bracket [1, rel_bound^(s/2)]; lambda_bound is
    [1, p0^(d dim)] when a distinguished ramified place is declared.  The
    same Euler pass also yields coarse_value, the covolume truncated at
    coarse_bound(prime_bound), whenever that bound is below prime_bound.
    """
    wp = precision + 16
    d = k.degree
    s = data.s_param
    disc = RealInterval.point(k.abs_disc).pow_frac(Fraction(data.dim, 2), wp)
    if s:
        if ext is None:
            raise ValueError(
                "outer forms need quadratic extension data for the (D_rel)^(s/2) factor"
            )
        rel = Fraction(1 << (2 * d)) * abs_norm_bound(ext)
        rel_int = ceil(rel)
        disc = disc * RealInterval(1, 1).hull(
            RealInterval.point(rel_int).pow_frac(Fraction(s, 2), wp)
        )
    arch = _arch_unit(data, wp).pow_int(d, wp)
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


def abs_norm_bound(ext: QuadraticExtensionData) -> Fraction:
    return abs(element_norm(ext.alpha))


def _zeta2_unit(data: LieTypeData, wp: int) -> RealInterval:
    """(pi^2/6)^rank: the zeta(2)^d-style per-degree Euler upper bound."""
    z2 = (pi_interval(wp).pow_int(2, wp) * Fraction(1, 6)).round_out(wp)
    return z2.pow_int(data.rank, wp)


def _c1_factors(
    c0: RealInterval, data: LieTypeData, p0: int, wp: int
) -> Tuple[RealInterval, RealInterval, RealInterval, RealInterval]:
    """The per-degree factors (disc, arch, lambda, euler) of c1."""
    if data.s_param:
        raise ValueError("outer form needs the relative-discriminant constant c0'")
    disc = c0.pow_frac(Fraction(data.dim, 2), wp)
    lam = RealInterval.point(p0 ** data.dim)
    return disc, _arch_unit(data, wp), lam, _zeta2_unit(data, wp)


def covolume_upper_c1(
    c0: RealInterval, data: LieTypeData, p0: int, precision: int = 128
) -> RealInterval:
    """c1 = c0^(dim/2) prod(m_i!/(2 pi)^(m_i+1)) p0^dim (pi^2/6)^r for an inner form.

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
    [1, (pi^2/6)^(d r)] and the distinguished place by [1, p0^(d dim)].
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
