"""Static root-system data for the absolutely simple Lie types.

Tables carry the rank, dimension, Lie exponents and Coxeter number for
A, B, C, D, E, F, G, plus the inner/outer form tag and the s-parameter
used by the covolume formula.  Everything here is exact integer data;
the only numerics is gamma_h, which returns a certified interval.
"""

from fractions import Fraction

from typing import NamedTuple, Optional, Tuple

from .errors import InconsistentOverride, InvalidType
from .interval import RealInterval

INNER_SPLIT = "inner-split"
OUTER_2 = "outer-2"
OUTER_3 = "outer-3"

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# families with a diagram automorphism of order 2 (triality handled separately)
_OUTER2_OK = {
    "A": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r == 6,
}

# conservative default: the s-parameter of an outer form is only known to be >= 5
_OUTER_S_DEFAULT = 5


class _LieFields(NamedTuple):
    family: str
    rank: int
    dim: int
    exponents: Tuple[int, ...]
    coxeter: int
    form: str = INNER_SPLIT
    s_param: int = 0


class LieTypeData(_LieFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        r = self.rank
        assert self.dim == sum(2 * m + 1 for m in self.exponents)
        assert self.dim == r * (self.coxeter + 1)
        assert self.coxeter == self.exponents[-1] + 1
        assert len(self.exponents) == r
        if self.form == INNER_SPLIT:
            assert self.s_param == 0
        else:
            assert self.s_param >= 5
        return self

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _exponents(family: str, rank: int) -> Optional[Tuple[int, ...]]:
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
    """Table lookup for the split simple type; raises InvalidType otherwise."""
    exps = _exponents(family, rank)
    if exps is None:
        raise InvalidType(f"no simple type ({family}, {rank})")
    h = exps[-1] + 1
    dim = sum(2 * m + 1 for m in exps)
    return LieTypeData(family, rank, dim, exps, h)


def with_form(data: LieTypeData, form: str, s_param: Optional[int] = None) -> LieTypeData:
    """Re-tag a split table entry as an inner or outer form."""
    if form == INNER_SPLIT:
        return LieTypeData(**{**data._asdict(), "form": form, "s_param": 0})
    if form == OUTER_3:
        raise InvalidType("order-3 outer forms (triality) are out of scope")
    if form != OUTER_2:
        raise InvalidType(f"unknown form {form!r}")
    check = _OUTER2_OK.get(data.family)
    if check is None or not check(data.rank):
        raise InvalidType(f"{data.name} has no order-2 diagram automorphism")
    s = _OUTER_S_DEFAULT if s_param is None else s_param
    if s < 5:
        raise InconsistentOverride(f"outer form needs s >= 5, got {s}")
    return LieTypeData(**{**data._asdict(), "form": form, "s_param": s})


def s_parameter(data: LieTypeData, override: Optional[int] = None) -> int:
    """s from the type, or a validated override."""
    if override is None:
        return 0 if data.form == INNER_SPLIT else max(data.s_param, _OUTER_S_DEFAULT)
    if data.form == INNER_SPLIT:
        if override != 0:
            raise InconsistentOverride(
                f"inner-split forms have s = 0, got override {override}"
            )
        return 0
    if override < 5:
        raise InconsistentOverride(f"outer forms have s >= 5, got {override}")
    return override


def outer2_signs(data: LieTypeData) -> Tuple[int, ...]:
    """Sign vector of the quasi-split order-2 outer form's point-count formula.

    Shipped for families A and D only; the D vector flips exactly one of the
    two exponent copies equal to rank-1.
    """
    if data.form != OUTER_2:
        raise InvalidType("sign table applies to outer-2 forms only")
    if data.family == "A":
        return tuple((-1) ** m for m in data.exponents)
    if data.family == "D":
        signs = [-1] * data.rank
        signs[data.exponents.index(data.rank - 1)] = 1
        return tuple(signs)
    raise InvalidType(f"no shipped sign table for outer {data.name}")


def split_signs(data: LieTypeData) -> Tuple[int, ...]:
    return (-1,) * data.rank


def gamma_h(h: int, prec: int = 128) -> RealInterval:
    """(sqrt(h(h+2)) - h)^2 / (4 h^2), the previously conjectured growth rate."""
    if h < 2:
        raise ValueError("Coxeter numbers are >= 2")
    wp = prec + 16
    s = RealInterval.point(h * (h + 2)).sqrt(wp)
    return ((s - h).pow_int(2, wp) * Fraction(1, 4 * h * h)).round_out(prec)


def dump_table(max_rank: int = 12) -> list:
    """All valid (family, rank) entries with rank <= max_rank, as dicts."""
    rows = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            if _exponents(family, rank) is None:
                continue
            data = root_system(family, rank)
            rows.append(
                {
                    "family": family,
                    "rank": rank,
                    "dim": data.dim,
                    "exponents": list(data.exponents),
                    "coxeter": data.coxeter,
                }
            )
    return rows


def parse_type(text: str) -> LieTypeData:
    """Parse 'A1', 'C2', 'E8' style names."""
    name = text.strip().upper()
    if len(name) < 2 or name[0] not in FAMILIES:
        raise InvalidType(f"cannot parse Lie type {text!r}")
    try:
        rank = int(name[1:])
    except ValueError:
        raise InvalidType(f"cannot parse Lie type {text!r}") from None
    return root_system(name[0], rank)
