"""Static root-system data for the absolutely simple Lie types.

A type is its family, rank and Lie exponents m_i for A, B, C, D, E, F, G,
plus the s-parameter the covolume formula reads for an outer form; the
dimension sum(2 m_i + 1) and the Coxeter number m_r + 1 follow from the
exponents.  Everything here is exact integer data; the only numerics is
gamma_h, which returns a certified interval.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import LatcountError
from .interval import RealInterval

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# families with a diagram automorphism of order 2, at the ranks that have one
_OUTER2_OK = {"A": lambda r: r >= 2, "D": lambda r: r >= 4, "E": lambda r: r == 6}

# conservative default: the s-parameter of an outer form is only known to be >= 5
_OUTER_S_DEFAULT = 5

# the largest rank root_system and dump_table accept: a rank-32 covolume over
# a quartic field takes under 3 s at the default prime bound on a shared
# 2-core host
MAX_RANK = 32
# the largest s(G) of an outer form of rank <= MAX_RANK in Prasad's table
# (Publ. IHES 69, 1989, section 0.4).  s is r(r+3)/2 for 2A_r with r even,
# (r-1)(r+2)/2 for 2A_r with r odd, 2r-1 for 2D_r and 26 for 2E_6, so the
# largest is 2A_32's 560
MAX_S_PARAM = MAX_RANK * (MAX_RANK + 3) // 2


def _refuse_past_cap(rank: int) -> None:
    if rank > MAX_RANK:
        raise LatcountError(f"rank {rank} is past the cap: Lie type ranks run up to {MAX_RANK}")


class LieTypeData(namedtuple("LieTypeData", "family rank exponents s_param", defaults=(0,))):
    """s_param 0 is the inner split form; s_param >= 5 the quasi-split
    order-2 outer form with that s(G)."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return sum(2 * m + 1 for m in self.exponents)

    @property
    def coxeter(self) -> int:
        return self.exponents[-1] + 1

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _exponents(family: str, rank: int) -> tuple[int, ...] | None:
    r = rank
    if family == "A" and r >= 1:
        return tuple(range(1, r + 1))
    if family in ("B", "C") and r >= 2:
        return tuple(range(1, 2 * r, 2))
    if family == "D" and r >= 4:
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    if family == "E" and r in (6, 7, 8):
        return {
            6: (1, 4, 5, 7, 8, 11),
            7: (1, 5, 7, 9, 11, 13, 17),
            8: (1, 7, 11, 13, 17, 19, 23, 29),
        }[r]
    if family == "F" and r == 4:
        return (1, 5, 7, 11)
    if family == "G" and r == 2:
        return (1, 5)
    return None


def root_system(family: str, rank: int) -> LieTypeData:
    """Table lookup for the split simple type; raises LatcountError for a rank
    past MAX_RANK or any other missing type."""
    _refuse_past_cap(rank)
    exps = _exponents(family, rank)
    if exps is None:
        raise LatcountError(f"no simple type ({family}, {rank})")
    return LieTypeData(family, rank, exps)


def outer_form(data: LieTypeData, s: int | None = None) -> LieTypeData:
    """The quasi-split order-2 outer form of a split table entry, with s(G) = s
    (default 5, the least s of any outer form)."""
    if not _OUTER2_OK.get(data.family, lambda r: False)(data.rank):
        raise LatcountError(f"{data.name} has no order-2 diagram automorphism")
    s = _OUTER_S_DEFAULT if s is None else s
    if s > MAX_S_PARAM:
        raise LatcountError(f"s-parameter {s} is past the cap: outer forms of rank up to "
                            f"{MAX_RANK} have s up to {MAX_S_PARAM}")
    if s < 5:
        raise LatcountError(f"outer form needs s >= 5, got {s}")
    return data._replace(s_param=s)


def s_parameter(data: LieTypeData, override: int | None = None) -> int:
    """s from the type, or a validated override."""
    if override is None:
        return data.s_param
    if not data.s_param and override != 0:
        raise LatcountError(f"inner-split forms have s = 0, got override {override}")
    if data.s_param and override < 5:
        raise LatcountError(f"outer forms have s >= 5, got {override}")
    return override


def outer2_signs(data: LieTypeData) -> tuple[int, ...]:
    """Sign vector of the quasi-split order-2 outer form's point-count formula.

    Shipped for families A and D only; the D vector flips exactly one of the
    two exponent copies equal to rank-1.
    """
    if not data.s_param:
        raise LatcountError("sign table applies to outer-2 forms only")
    if data.family == "A":
        return tuple((-1) ** m for m in data.exponents)
    if data.family == "D":
        signs = [-1] * data.rank
        signs[data.exponents.index(data.rank - 1)] = 1
        return tuple(signs)
    raise LatcountError(f"no shipped sign table for outer {data.name}")


def split_signs(data: LieTypeData) -> tuple[int, ...]:
    return (-1,) * data.rank


def gamma_h(h: int, prec: int = 128) -> RealInterval:
    """(sqrt(h(h+2)) - h)^2 / (4 h^2), the previously conjectured growth rate."""
    if h < 2:
        raise ValueError("Coxeter numbers are >= 2")
    wp = prec + 16
    s = RealInterval.point(h * (h + 2)).sqrt(wp)
    return ((s - h).pow_int(2, wp) * Fraction(1, 4 * h * h)).round_out(prec)


def dump_table(max_rank: int = 12) -> list:
    """All valid (family, rank) entries with rank <= max_rank <= MAX_RANK, as dicts."""
    _refuse_past_cap(max_rank)
    rows = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            if _exponents(family, rank) is not None:
                data = root_system(family, rank)
                rows.append({"family": family, "rank": rank, "dim": data.dim,
                             "exponents": list(data.exponents), "coxeter": data.coxeter})
    return rows


def parse_type(text: str) -> LieTypeData:
    """Parse 'A1', 'C2', 'E8' style names."""
    name = text.strip().upper()
    if len(name) < 2 or name[0] not in FAMILIES:
        raise LatcountError(f"cannot parse Lie type {text!r}")
    try:
        rank = int(name[1:])
    except ValueError:
        raise LatcountError(f"cannot parse Lie type {text!r}") from None
    return root_system(name[0], rank)
