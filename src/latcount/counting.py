"""Subgroup-growth calculators.

Exact Gaussian-binomial subgroup counts for elementary abelian groups, the
parameterized bound formulas used along the counting chain (conjugate counts,
level-vs-index, rank and composition bounds), and the assembly of the lower
and upper growth constants from a tower of covolume bounds.

Every bound here is exact integer or rational arithmetic; the only interval
quantities are the growth constants themselves, which involve logarithms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import ceil, prod

from .errors import EmptyReport, ResidueBudgetExceeded
from .interval import RealInterval, log2_fraction, refuse_unprintable_power, str_digit_limit
from .liedata import LieTypeData
from .polymod import is_prime


# ===================================================== exact subgroup counts

def gaussian_binomial(n: int, j: int, p: int) -> int:
    """Number of j-dimensional subspaces of an n-dimensional space over F_p."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    num = 1
    den = 1
    for i in range(j):
        num *= p ** (n - i) - 1
        den *= p ** (j - i) - 1
    q, r = divmod(num, den)
    assert r == 0
    return q


def subgroup_count_elem_abelian(p: int, d: int) -> int:
    """Total number of subgroups of (Z/p)^d, all ranks summed.

    The count always dominates p^floor(d^2/4), the payload inequality behind
    the lower growth bound; the assertion keeps that contract executable.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    total = sum(gaussian_binomial(d, j, p) for j in range(d + 1))
    assert total >= p ** (d * d // 4)
    return total


# ================================================== chain bound calculators

def sn_composition_bound(sn_n: int, sn_q: int, n: int, rk_q: int) -> int:
    """Subgroup count of an extension: s_n(N) * s_n(Q) * n^rk(Q)."""
    if min(sn_n, sn_q, n) < 1 or rk_q < 0:
        raise ValueError("arguments must be positive (rank >= 0)")
    return sn_n * sn_q * n ** rk_q


def distinct_prime_count(n: int) -> int:
    """nu(n): number of distinct prime divisors, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        count += 1
    return count


def sn_rank_bound(n: int, r: int) -> int:
    """Index-n subgroup count of a rank-r group: n^(nu(n) + r + 1)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return n ** (distinct_prime_count(n) + r + 1)


def rank_bound_gl(s: int, f: int) -> int:
    """Strict upper bound 2*s^2*f for the rank of GL_s over F_(p^f)."""
    if s < 1 or f < 1:
        raise ValueError("need s >= 1 and f >= 1")
    return 2 * s * s * f


def read_rational(value, label: str) -> Fraction:
    """A rational from a JSON number or a string such as "1/2"; anything else,
    bools included, raises a ValueError that names label (a key or a flag)."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"{label} must be a rational number such as 1/2, got {value!r}")


def read_int(value, label: str) -> int:
    """An integer from an integral JSON number or a decimal string; anything
    else, bools included, raises a ValueError that names label."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{label} must be an integer, got {value!r}")


class BoundParams(namedtuple(
    "BoundParams", "C C1 C2 c4 f1 s_embed defaulted",
    defaults=(Fraction(1),) * 5 + (2, ("C", "C1", "C2", "c4", "f1", "s_embed")),
)):
    """Non-explicit constants of the counting chain, supplied not derived.

    The source arguments only prove these exist; every report echoes the
    values actually used so the output is an explicitly conditional bound.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # C1 = 0 (empty residue budget) and c4 = 0 (no conjugacy discount)
        # are meaningful degenerate settings; the rest must be positive.
        given = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, *map(Fraction, given[:5]), *given[5:])
        if self.C <= 0 or self.C2 <= 0 or self.f1 <= 0:
            raise ValueError("C, C2, f1 must be strictly positive")
        if self.C1 < 0 or self.c4 < 0:
            raise ValueError("C1 and c4 must be nonnegative")
        if not isinstance(self.s_embed, int) or self.s_embed < 1:
            raise ValueError("s_embed must be a positive integer")
        return self

    @classmethod
    def from_config(cls, block: dict) -> "BoundParams":
        """Build from a JSON config block; unknown keys are rejected."""
        known = {"C", "C1", "C2", "c4", "f1", "s_embed"}
        extra = set(block) - known
        if extra:
            raise ValueError(f"unknown bound parameter(s): {sorted(extra)}")
        kwargs = {}
        for key in sorted(known & set(block)):
            read = read_int if key == "s_embed" else read_rational
            kwargs[key] = read(block[key], f"invalid config value: {key}")
        defaulted = tuple(sorted(known - set(block)))
        return cls(defaulted=defaulted, **kwargs)

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "C1": self.C1,
            "C2": self.C2,
            "c4": self.c4,
            "f1": self.f1,
            "s_embed": self.s_embed,
        }


# =============================================== lower growth: tower report

class GrowthRow(namedtuple("GrowthRow", [
    "degree", "covolume_bound", "subgroup_exponent", "index_bound",
    "conjugacy_discount", "net_count_exponent", "included",
])):
    __slots__ = ()


class GrowthReport(namedtuple("GrowthReport", "rows c1 c2 c2_exponent c3 p_prime lie_name a")):
    __slots__ = ()

    def included_rows(self) -> tuple[GrowthRow, ...]:
        return tuple(r for r in self.rows if r.included)


def lower_growth_assemble(
    c1: RealInterval,
    data: LieTypeData,
    p_prime: int,
    c4: int | Fraction,
    degrees: Sequence[int],
    precision: int = 128,
) -> GrowthReport:
    """Per-degree lower-growth ledger and the constant a it certifies.

    Each tower level of degree d carries a lattice of covolume <= c1^d with
    at least p'^floor(d^2/4) subgroups of index <= c3^d = p'^(dim*d), less a
    conjugacy discount of ceil(c4*d) in the exponent.  c2 is the largest
    uniform base with p'^net >= c2^(d^2) over the surviving rows, and
    a = log c2 / (log c1 c3)^2.  Rows whose net exponent is not positive are
    flagged and excluded; if none survive the report is empty.
    """
    if not is_prime(p_prime):
        raise ValueError("p_prime must be prime")
    c4 = Fraction(c4)
    if c4 < 0:
        raise ValueError("c4 must be nonnegative")
    if not degrees:
        raise EmptyReport("no degrees supplied")
    if list(degrees) != sorted(set(degrees)) or degrees[0] < 1:
        raise ValueError("degrees must be strictly increasing and positive")
    if c1.lo <= 1:
        raise ValueError("c1 must exceed 1")
    wp = precision + 16
    c3 = p_prime ** data.dim
    refuse_unprintable_power(c3, degrees[-1])  # the last row's c3^d, the longest integer printed
    counts = [(d, d * d // 4, ceil(c4 * d)) for d in degrees]
    if all(sub <= discount for _, sub, discount in counts):
        raise EmptyReport("conjugacy discount eliminates every degree")
    # the last row's c1^d is printed too: refuse it before any row's power is
    # built, but after the empty report, which keeps its own exit code
    refuse_unprintable_power(c1.hi, degrees[-1])
    rows = [
        GrowthRow(
            degree=d,
            covolume_bound=c1.pow_int(d, precision),
            subgroup_exponent=sub,
            index_bound=c3 ** d,
            conjugacy_discount=discount,
            net_count_exponent=sub - discount,
            included=sub > discount,
        )
        for d, sub, discount in counts
    ]
    kept = [r for r in rows if r.included]
    expo = min(Fraction(r.net_count_exponent, r.degree ** 2) for r in kept)
    c2 = RealInterval.point(p_prime).pow_frac(expo, precision)
    log_c2 = log2_fraction(p_prime, wp) * expo
    denom = (c1 * RealInterval.point(c3)).log2(wp).pow_int(2, wp)
    a = log_c2.div(denom, precision)
    return GrowthReport(
        rows=tuple(rows),
        c1=c1,
        c2=c2,
        c2_exponent=expo,
        c3=c3,
        p_prime=p_prime,
        lie_name=data.name,
        a=a,
    )


# ============================================== upper growth: bound per x

class UpperGrowthBound(namedtuple("UpperGrowthBound", [
    "x", "nu", "rank_sum", "quotient_exponent", "composition_exponent", "B",
    "residue_data",
])):
    """Exponent B with its additive breakdown: the bound is x^B."""

    __slots__ = ()

    def breakdown(self) -> str:
        return (
            f"B = (nu + rank + 1) + rank = "
            f"({self.nu} + {self.rank_sum} + 1) + {self.composition_exponent} "
            f"= {self.B}"
        )


def _budget_exceeds(residue_data: Sequence[tuple[int, int]], x: int, C1: Fraction) -> bool:
    """prod p^f > x^C1, that is budget^b > x^a for C1 = a/b.

    Settled by bit lengths, then by enclosures of the logarithms, and only
    where those tie by the exact powers, so neither a large residue degree
    nor a large C1 builds a power it does not need.
    """
    a, b = C1.numerator, C1.denominator
    lx = x.bit_length()
    # 2^lo <= budget < 2^hi and 2^(lx - 1) <= x < 2^lx
    lo = sum(f * (p.bit_length() - 1) for p, f in residue_data)
    hi = sum(f * p.bit_length() for p, f in residue_data)
    if b * lo > a * lx:
        return True
    if b * hi <= a * (lx - 1):
        return False
    gap = log2_fraction(x, 64) * a  # a log2 x - b log2 budget
    for p, f in residue_data:
        gap = gap - log2_fraction(p, 64) * (b * f)
    if gap.hi < 0:
        return True
    if gap.lo > 0:
        return False
    return prod(p ** f for p, f in residue_data) ** b > x ** a


def _budget_text(residue_data: Sequence[tuple[int, int]]) -> str:
    """prod p^f in digits within the int->str digit limit (4300 digits where
    Python has none, so every version prints the same), else as the product
    of the powers, such as 3^1000000."""
    limit = str_digit_limit() or 4300
    # budget >= 2^lo, which has more than 0.30102 lo digits
    if sum(f * (p.bit_length() - 1) for p, f in residue_data) * 30102 // 100000 < limit:
        budget = prod(p ** f for p, f in residue_data)
        if budget < 10 ** limit:
            return str(budget)
    return " * ".join(f"{p}^{f}" for p, f in residue_data)


def upper_growth_assemble(
    x: int,
    params: BoundParams,
    residue_data: Sequence[tuple[int, int]],
) -> UpperGrowthBound:
    """Conditional bound x^B on the index-x subgroup count.

    The chain: each residue factor GL_s(F_(p^f)) contributes rank < 2s^2f,
    the quotient Q then has s_x(Q) <= x^(nu(x) + rank + 1), and composing
    over the congruence kernel (trivial under the congruence subgroup
    property) costs a further x^rank.  The residue budget prod p^f <= x^C1
    is validated exactly before anything is assembled.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    rank_sum = 0
    for p, f in residue_data:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("residue degree must be >= 1")
        rank_sum += rank_bound_gl(params.s_embed, f)
    if _budget_exceeds(residue_data, x, params.C1):
        raise ResidueBudgetExceeded(
            f"prod p^f = {_budget_text(residue_data)} exceeds x^C1 with x = {x}, C1 = {params.C1}"
        )
    nu = distinct_prime_count(x)
    quotient_exponent = nu + rank_sum + 1
    return UpperGrowthBound(
        x=x,
        nu=nu,
        rank_sum=rank_sum,
        quotient_exponent=quotient_exponent,
        composition_exponent=rank_sum,
        B=quotient_exponent + rank_sum,
        residue_data=tuple((p, f) for p, f in residue_data),
    )
