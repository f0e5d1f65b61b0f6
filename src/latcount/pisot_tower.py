"""Pisot elements, quadratic extensions, and bounded root-discriminant towers.

The pipeline: search a totally real field for an element that is > 1 at one
real place and inside the unit interval at the others (with interval proofs),
multiply t of them into a product that is negative at exactly t places, and
pass to k[sqrt(alpha)], whose discriminant and root discriminant admit the
explicit bounds implemented here.  Tower entries with bounded root
discriminant are catalog data, not constructions.

A Pisot certificate for theta in a degree-d field of |disc| D also caps the
big place, theta <= 2^(d-1) sqrt(D), and the norm, |N(1 - theta)| <= D^delta
with D^delta = 3^(d-1) sqrt(D) + (3/2)^(d-1).  Both caps are decided exactly
on rationals by comparing squares, so only the embeddings need interval
enclosures.  Their refinement, and every other interval escalation here,
doubles the start precision under numfield's refinement budget.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import ceil, isqrt
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import (
    AlphaPossiblySquare,
    AlphaZero,
    InvalidT,
    LatcountError,
    NotTotallyReal,
    PrecisionExhausted,
    SearchExhausted,
    SignUncertifiable,
)
from .counting import read_int
from .interval import RealInterval, log2_fraction
from .numfield import (
    FieldElement,
    NumberField,
    derived_minkowski_C,
    doublings,
    element_norm,
    evaluate_at_embeddings,
)

_PREFILTER_MARGIN = 1e-6


# ==================================================================== types

class PisotCertificate(NamedTuple):
    """An element with interval proofs of the one-big-place condition."""

    element: FieldElement
    place_index: int
    enclosures: Tuple[RealInterval, ...]
    norm_one_minus: Fraction      # exact N(1 - theta)
    delta_bound: RealInterval     # the norm cap D^delta; a point for square D
    precision: int

    @property
    def field(self) -> NumberField:
        return self.element.field


class QuadraticExtensionData(NamedTuple):
    base: NumberField
    alpha: FieldElement
    t: int
    disc_bound: int
    rd_bound: RealInterval
    sign_pattern: Tuple[int, ...]


class TowerEntry(NamedTuple):
    name: str
    base_degree: int
    degree_rule: str
    rd_constant: RealInterval
    total_real: bool
    source: str


class SyntheticField(NamedTuple):
    """Degree/signature/rd data without a defining polynomial."""

    degree: int
    r2: int
    rd_bound: RealInterval
    level: int


# ==================================================================== delta

def _norm_cap(d: int, D: int, prec: int) -> RealInterval:
    """3^(d-1) sqrt(D) + (3/2)^(d-1) on the 2^-prec grid, at most 2^(2-prec)
    wide; the exact point when D is a perfect square."""
    wp = prec + 2 * d  # then 3^(d-1) times sqrt's 2^-wp width is below 2^-(prec+2)
    cap = RealInterval.point(D).sqrt(wp) * 3 ** (d - 1) + Fraction(3, 2) ** (d - 1)
    return cap.round_out(prec)


def _within_norm_cap(n1: Fraction, d: int, D: int) -> bool:
    """Exactly whether n1 <= 3^(d-1) sqrt(D) + (3/2)^(d-1), for n1 >= 0."""
    r = n1 - Fraction(3, 2) ** (d - 1)
    return r <= 0 or r * r <= 9 ** (d - 1) * D


def delta_for_field(k: NumberField, prec: int = 64) -> RealInterval:
    """Smallest exponent with 3^(d-1) sqrt(D) + (3/2)^(d-1) <= D^delta."""
    d, D = k.degree, k.abs_disc
    if D < 2:
        raise ValueError("delta needs |disc| >= 2")
    wp = prec + 16
    return _norm_cap(d, D, wp).log2(wp).div(log2_fraction(D, wp), prec)


def delta_universal(prec: int = 64) -> RealInterval:
    """Field-independent delta = C log2(3) + 1/2, C the degree-bound constant.

    Dominates delta_for_field for every valid field: with d <= C log2 D,
    3^(d-1) sqrt(D) + (3/2)^(d-1) < D^(C log2 3) * sqrt(D).
    """
    wp = prec + 16
    c = derived_minkowski_C(wp)
    return (c * log2_fraction(3, wp) + Fraction(1, 2)).round_out(prec)


# =============================================================== pisot search

def _float_roots(k: NumberField) -> list:
    reals, _ = k.embeddings(64)
    return [float(r.mid()) for r in reals]


def _is_square_fraction(q: Fraction) -> bool:
    if q < 0:
        return False
    return (
        isqrt(q.numerator) ** 2 == q.numerator
        and isqrt(q.denominator) ** 2 == q.denominator
    )


def _certify_pisot(
    k: NumberField,
    element: FieldElement,
    place_index: int,
    start_prec: int,
):
    """Certified decision: Pisot at place_index within the proof bounds.

    Returns (enclosures, precision) on acceptance, None on rejection.  The
    norm cap is decided exactly before any embedding is evaluated; the v1
    cap is compared by squares.  No boundary case needs exact arithmetic:
    an embedding exactly +-1 makes the element +-1, and v1 exactly at its
    cap makes theta^2 rational, so every |theta_j| equals v1 > 1.
    """
    d, D = k.degree, k.abs_disc
    if not _within_norm_cap(abs(element_norm(1 - element)), d, D):
        return None
    v1_cap_sq = 4 ** (d - 1) * D
    exhausted = PrecisionExhausted(f"pisot certification of {element}")
    for prec in doublings(start_prec, exhausted):
        vals = evaluate_at_embeddings(element, prec)
        vp = vals[place_index]
        others = [v.abs() for j, v in enumerate(vals) if j != place_index]
        if (
            vp.hi <= 1
            or any(a.lo >= 1 for a in others)
            or (vp.lo > 0 and vp.lo * vp.lo > v1_cap_sq)
        ):
            return None
        if vp.lo > 1 and all(a.hi < 1 for a in others) and vp.hi * vp.hi <= v1_cap_sq:
            return vals, prec


def find_pisot(
    k: NumberField,
    place_index: int = 0,
    search_radius: int = 5,
    precision: int = 64,
) -> PisotCertificate:
    """Lexicographically first certified Pisot element with coordinates of
    sup-norm <= search_radius."""
    if k.r2 != 0 or k.degree < 2:
        raise NotTotallyReal(f"{k!r} is not totally real of degree >= 2")
    if not 0 <= place_index < k.r1:
        raise ValueError(f"place_index {place_index} out of range")
    d = k.degree
    roots = _float_roots(k)
    m = _PREFILTER_MARGIN
    unit = tuple([1] + [0] * (d - 1))
    for coords in itertools.product(range(-search_radius, search_radius + 1), repeat=d):
        if not any(coords):
            continue
        if coords == unit or coords == tuple(-c for c in unit):
            continue  # the elements +-1 sit exactly on the unit circle
        vals = [sum(c * r ** i for i, c in enumerate(coords)) for r in roots]
        if vals[place_index] <= 1 - m:
            continue
        if any(
            abs(v) >= 1 + m for j, v in enumerate(vals) if j != place_index
        ):
            continue
        element = k.element(coords)
        res = _certify_pisot(k, element, place_index, precision)
        if res is None:
            continue
        enclosures, used_prec = res
        return PisotCertificate(
            element=element,
            place_index=place_index,
            enclosures=enclosures,
            norm_one_minus=element_norm(1 - element),
            delta_bound=_norm_cap(d, k.abs_disc, used_prec),
            precision=used_prec,
        )
    raise SearchExhausted(
        f"no Pisot element at place {place_index} within radius {search_radius}"
    )


def reverify_certificate(cert: PisotCertificate) -> bool:
    """Re-run the certified checks at doubled precision."""
    try:
        res = _certify_pisot(
            cert.field, cert.element, cert.place_index, 2 * cert.precision
        )
    except PrecisionExhausted:
        return False
    if res is None:
        return False
    vals, _ = res
    # refined enclosures must sit inside the stored ones
    return all(old.encloses(new) for old, new in zip(cert.enclosures, vals))


# ============================================================= alpha products

def pisot_product_alpha(
    k: NumberField, t: int, search_radius: int = 5
) -> Tuple[FieldElement, Tuple[int, ...]]:
    """alpha = (1-theta_1)...(1-theta_t), negative at exactly the first t places."""
    if k.r2 != 0 or k.degree < 2:
        raise NotTotallyReal(f"{k!r} is not totally real of degree >= 2")
    if not 1 <= t <= k.degree:
        raise InvalidT(f"t must be in 1..{k.degree}, got {t}")
    certs = [find_pisot(k, i, search_radius) for i in range(t)]
    alpha = k.one()
    for cert in certs:
        alpha = alpha * (1 - cert.element)
    signs = certified_signs(k, alpha)
    if sum(1 for s in signs if s < 0) != t:
        raise AssertionError("sign pattern disagrees with the construction")
    return alpha, signs


def certified_signs(k: NumberField, element: FieldElement, precision: int = 64):
    """Sign of the element at every real place, certified."""
    if element.is_zero():
        raise AlphaZero("the zero element has no signs")
    exhausted = SignUncertifiable(f"sign of {element} straddles zero")
    for prec in doublings(precision, exhausted):
        vals = evaluate_at_embeddings(element, prec)[: k.r1]
        signs = tuple((v.lo > 0) - (v.hi < 0) for v in vals)
        if 0 not in signs:
            return signs


def splitting_pattern(k: NumberField, element: FieldElement) -> Tuple[str, ...]:
    """Per real place: 'split' where the element is positive, else 'nonsplit'."""
    return tuple(
        "split" if s > 0 else "nonsplit" for s in certified_signs(k, element)
    )


def quadratic_extension(
    k: NumberField,
    alpha: FieldElement,
    precision: int = 128,
) -> QuadraticExtensionData:
    """Bound data for l = k[sqrt(alpha)]: t complex places, disc and rd caps."""
    if alpha.is_zero():
        raise AlphaZero("alpha must be nonzero")
    signs = certified_signs(k, alpha)
    t = sum(1 for s in signs if s < 0)
    norm = abs(element_norm(alpha))
    if t == 0 and _is_square_fraction(norm):
        raise AlphaPossiblySquare(
            "totally positive alpha with square norm: cannot certify non-squareness"
        )
    d, D = k.degree, k.abs_disc
    scaled = D * D * (1 << (2 * d)) * norm
    disc_bound = ceil(scaled)
    # for |disc| = 1 the rd formula's D^expo factor is 1 whatever delta is
    delta = delta_for_field(k, precision) if D >= 2 else RealInterval.point(1)
    wp = precision + 16
    via_disc = RealInterval.point(disc_bound).nth_root(2 * d, wp)
    expo = (delta * t + 2) * Fraction(1, 2 * d)
    via_rd = RealInterval.point(D).pow_interval(expo, wp) * 2
    rd_bound = RealInterval(
        min(via_disc.lo, via_rd.lo), min(via_disc.hi, via_rd.hi)
    ).round_out(precision)
    return QuadraticExtensionData(
        base=k,
        alpha=alpha,
        t=t,
        disc_bound=disc_bound,
        rd_bound=rd_bound,
        sign_pattern=signs,
    )


# ================================================================== towers

def _entry_from_row(row, where: str) -> TowerEntry:
    """One catalog row; a malformed row raises LatcountError naming the row and key."""
    if not isinstance(row, dict):
        raise LatcountError(f"{where}: a row must be a JSON object")

    def value(key, read):
        try:
            return read(row[key])
        except KeyError:
            raise LatcountError(f"{where}: missing key {key!r}") from None
        except (TypeError, ValueError) as exc:
            raise LatcountError(f"{where}: bad {key!r}: {exc}") from None

    def checked(key, kind, what):
        v = value(key, lambda v: v)
        if not isinstance(v, kind):
            raise LatcountError(f"{where}: key {key!r} must be {what}, not {v!r}")
        return v

    rd = value("rd_constant", lambda pair: RealInterval(*map(Fraction, pair)))
    if rd.lo <= 1:
        raise LatcountError(f"{where}: key 'rd_constant' needs a lower end above 1, not {rd.lo}")
    degree = value("base_degree", lambda v: read_int(v, "base_degree"))
    if degree < 1:
        raise LatcountError(f"{where}: key 'base_degree' must be at least 1, not {degree}")
    total_real = checked("total_real", bool, "true or false")
    return TowerEntry(
        name=checked("name", str, "a string"),
        base_degree=degree,
        degree_rule=checked("degree_rule", str, "a string"),
        rd_constant=rd,
        total_real=total_real,
        source=checked("source", str, "a string") if "source" in row else "",
    )


def tower_catalog(extra_path: Optional[str] = None) -> list:
    """Packaged tower entries, optionally extended from a user JSON file; a
    name that appears twice across the two raises LatcountError."""
    from importlib.resources import files

    text = files("latcount.data").joinpath("tower_catalog.json").read_text()
    sources = [("tower catalog", json.loads(text))]
    if extra_path is not None:
        with open(extra_path, "r", encoding="utf-8") as fh:
            sources.append((extra_path, json.load(fh)))
    entries = []
    first_row = {}  # name -> the row that introduced it
    for where, rows in sources:
        if not isinstance(rows, list):
            raise LatcountError(f"{where}: the catalog must be a JSON list of rows")
        for i, row in enumerate(rows):
            here = f"{where} row {i}"
            entry = _entry_from_row(row, here)
            first = first_row.setdefault(entry.name, here)
            if first != here:
                raise LatcountError(f"{here}: key 'name' repeats {entry.name!r} from {first}")
            entries.append(entry)
    return entries


def tower_lookup(name: str, extra_path: Optional[str] = None) -> list:
    return [e for e in tower_catalog(extra_path) if e.name == name]


def tower_degrees(entry: TowerEntry, levels: int) -> list:
    """Level degrees; every catalog rule doubles the degree per level."""
    return [entry.base_degree << i for i in range(levels)]


def fixed_signature_sequence(
    entry: TowerEntry,
    t: int,
    levels: int = 3,
    precision: int = 128,
) -> list:
    """Synthetic degree-2d fields with r2 = t and a level-independent rd cap.

    rd bound = 2 c0^((2 + t delta)/2); no defining polynomials exist for
    these levels, so descriptors carry numbers only.
    """
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    delta = delta_universal(precision)
    wp = precision + 16
    expo = (delta * t + 2) * Fraction(1, 2)
    bound = (entry.rd_constant.pow_interval(expo, wp) * 2).round_out(precision)
    return [
        SyntheticField(degree=2 * d, r2=t, rd_bound=bound, level=i)
        for i, d in enumerate(tower_degrees(entry, levels))
    ]
