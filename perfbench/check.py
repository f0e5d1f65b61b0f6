"""Checks one invocation's exit code and report against the oracles.

`check` returns an Outcome.  An invocation fails when its exit code differs
from the expected one or its report fails a check; it is wrong when it
exited 0 yet printed a bracket that misses the oracle value.  A failure that
matches a defect documented in ROADMAP.md is tagged `known`: it still
counts as failed, and as wrong if it printed a bracket, but it does not make
the run incorrect.  Any other failure does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import oracles as O

# stderr fragments of failures the seed commit is known to produce
KNOWN_ERRORS = {
    "c1 must exceed 1": "c1<=1: absolute-grid rounding loses small factors (ROADMAP item 2)",
    "limit (4300 digits)": "int->str 4300-digit limit in the report layer (ROADMAP item 5)",
}
NON_MAXIMAL = "disc(Z[theta]) used for d_K on a non-maximal order (ROADMAP item 4)"


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False
    known: str = ""
    reason: str = ""
    bits: float = None  # enclosure bits of the headline bracket


class CheckFailed(Exception):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check(inv, code: int, out: str, err: str) -> Outcome:
    if code != inv.expect:
        for fragment, why in KNOWN_ERRORS.items():
            if fragment in err:
                return Outcome(failed=True, known=why, reason=f"exit {code}")
        return Outcome(failed=True, reason=f"exit {code}, expected {inv.expect}: "
                       + err.strip()[-160:])
    if code != 0:
        return Outcome()
    try:
        doc = O.parse_report(out, inv.fmt)
        return CHECKS[inv.kind](inv, doc)
    except CheckFailed as exc:
        wrong = str(exc).startswith("oracle")  # the message names an oracle miss
        known = NON_MAXIMAL if wrong and inv.oracle.get("maximal") is False else ""
        return Outcome(failed=True, wrong=wrong, known=known, reason=str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(failed=True, reason=f"unparsable report: {exc!r}")


def _headline(doc: dict, key: str) -> tuple:
    lo, hi = O.bracket(doc[key])
    _need(lo <= hi, f"{key} bracket is reversed")
    return lo, hi


def _bits(lo, hi) -> Outcome:
    return Outcome(bits=O.enclosure_bits(lo, hi))


def _field(inv, doc) -> Outcome:
    f = inv.oracle["poly"]
    n = len(f) - 1
    disc = O.discriminant(f)
    _need(int(doc["degree"]) == n, "degree")
    _need(int(doc["disc"]) == disc, f"oracle: disc {doc['disc']} != {disc}")
    r1, r2 = (int(v) for v in doc["signature"])
    _need(r1 + 2 * r2 == n, "signature does not add up to the degree")
    _need((disc < 0) == (r2 % 2 == 1), "oracle: sign of disc contradicts r2")
    reals = [row for row in doc["rows"] if row["kind"] == "real"]
    _need(len(reals) == r1 and len(doc["rows"]) == r1 + r2, "embedding rows")
    for row in reals:
        a, b = Fraction(row["re_lo"]), Fraction(row["re_hi"])
        _need(O.poly_eval(f, a) * O.poly_eval(f, b) <= 0,
              f"oracle: no sign change on real place [{a}, {b}]")
    lo, hi = _headline(doc, "rd")
    _need(lo ** n <= abs(disc) <= hi ** n, "oracle: rd^n misses |disc|")
    return _bits(lo, hi)


def _pisot(inv, doc) -> Outcome:
    f = inv.oracle["poly"]
    n = len(f) - 1
    rows = doc["rows"]
    _need(len(rows) == n, "one row per real place")
    marked = [r for r in rows if r["pisot_place"] == "yes"]
    _need(len(marked) == 1, "exactly one Pisot place")
    _need(Fraction(marked[0]["lo"]) > 1, "oracle: Pisot place not above 1")
    for r in rows:
        if r["pisot_place"] == "no":
            _need(-1 < Fraction(r["lo"]) and Fraction(r["hi"]) < 1,
                  "oracle: a conjugate leaves the unit disc")
    _need(doc["reverified"] == "yes", "certificate did not reverify")
    coords = [int(c) for c in doc["element"].split(",")]
    norm = O.norm_one_minus(f, coords)
    _need(Fraction(doc["norm_one_minus"]) == norm,
          f"oracle: N(1-alpha) {doc['norm_one_minus']} != {norm}")
    return _bits(*_headline(doc, "delta_bound"))


def _covolume_field(inv, doc) -> Outcome:
    lo, hi = _headline(doc, "value")
    _need(doc.get("nesting_check") == "ok", "nesting check not ok")
    value = inv.oracle.get("value")
    if value is not None:
        _need(lo <= value <= hi, f"oracle: value [{doc['value'][0]}, {doc['value'][1]}] "
              f"misses {value}")
    return _bits(lo, hi)


def _covolume_tower(inv, doc) -> Outcome:
    lo, hi = _headline(doc, "value")
    _need(doc["within_c1_bound"] == "yes", "value exceeds c1^d")
    return _bits(lo, hi)


def _growth_lower(inv, doc) -> Outcome:
    c1 = _headline(doc, "c1")
    _need(c1[0] > 1, "c1 not above 1")
    lo, hi = _headline(doc, "a")
    _need(lo >= 0, "a below 0")
    return _bits(lo, hi)


def _growth_upper(inv, doc) -> Outcome:
    rows = doc["rows"]
    _need(len(rows) == 5, "x scan 100..10^6 has five rows")
    lo, hi = _headline(doc, "b")
    _need(hi == max(Fraction(r["B_over_log2x_hi"]) for r in rows), "b is not the scan maximum")
    return _bits(lo, hi)


def _tower_list(inv, doc) -> Outcome:
    _need(len(doc["rows"]) == 3, "three catalog towers")
    return Outcome()


def _tower_t(inv, doc) -> Outcome:
    rows = doc["rows"]
    _need(len(rows) == 3, "three levels")
    first = (rows[0]["rd_bound_lo"], rows[0]["rd_bound_hi"])
    _need(all((r["rd_bound_lo"], r["rd_bound_hi"]) == first for r in rows),
          "rd bound changes with the level")
    lo, hi = O.bracket(first)
    _need(lo >= O.bracket(doc["rd_constant"])[0], "rd bound below the tower constant")
    return _bits(lo, hi)


def _lie_dump(inv, doc) -> Outcome:
    rows = doc["rows"]
    types = O.split_types(12)
    _need(len(rows) == len(types), "one row per type")
    for row, (fam, rank) in zip(rows, types):
        exps = O.exponents(fam, rank)
        _need(row["name"] == f"{fam}{rank}" and int(row["rank"]) == rank, "type order")
        _need(row["exponents"] == " ".join(map(str, exps)), f"oracle: exponents of {fam}{rank}")
        _need(int(row["coxeter"]) == max(exps) + 1, f"oracle: Coxeter number of {fam}{rank}")
        _need(int(row["dim"]) == sum(2 * m + 1 for m in exps), f"oracle: dim of {fam}{rank}")
    return Outcome()


CHECKS = {
    "field": _field,
    "pisot": _pisot,
    "covolume-field": _covolume_field,
    "covolume-tower": _covolume_tower,
    "growth-lower": _growth_lower,
    "growth-upper": _growth_upper,
    "tower-list": _tower_list,
    "tower-t": _tower_t,
    "lie-dump": _lie_dump,
}
