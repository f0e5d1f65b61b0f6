"""Command-line reports over the library: field inspection, Pisot and tower
construction, covolume evaluation, and the growth-constant assemblies.

Output is deterministic by construction: every number is rendered through
exact decimal rounding, dictionaries are built in fixed order, and the Euler
products come from one sequential outward-rounded pass over the primes.
Identical invocations therefore produce byte-identical reports.  --threads
is accepted and validated for compatibility but has no effect.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .counting import (
    BoundParams,
    _is_prime,
    lower_growth_assemble,
    read_int,
    read_rational,
    upper_growth_assemble,
)
from .errors import (
    EmptyReport,
    LatcountError,
    PrecisionExhausted,
    ReduciblePolynomial,
    ResidueBudgetExceeded,
)
from .interval import RealInterval, interval_strs, log2_fraction
from .liedata import dump_table, gamma_h, parse_type, with_form, OUTER_2
from .numfield import (
    field_from_polynomial,
    minkowski_norm_bound,
    root_discriminant,
)
from .pisot_tower import (
    find_pisot,
    fixed_signature_sequence,
    quadratic_extension,
    reverify_certificate,
    tower_catalog,
    tower_degrees,
    tower_lookup,
)
from .prasad import coarse_bound, covolume, covolume_synthetic, covolume_upper_c1

_DIGITS = 12  # decimal places on every rendered endpoint

_GAMMA_NOTE = (
    "gamma(h) = (sqrt(h(h+2)) - h)^2 / (4h^2) is the formerly conjectured "
    "rate in terms of the Coxeter number; the tower construction behind this "
    "report refutes that conjecture, and gamma is not the growth rate."
)
_CONDITIONAL_NOTE = "conditional on CSP and supplied constants"


def _iv(interval: RealInterval) -> list:
    return interval_strs(interval, _DIGITS)


def _rat(q) -> str:
    return str(Fraction(q))


# ================================================================ rendering

class Report:
    """Meta block, tabular payload, and free-form notes for one command."""

    def __init__(self, command: str, precision: int, prime_bound: int, params: BoundParams):
        self.command = command
        self.meta = {
            "precision": str(precision),
            "prime_bound": str(prime_bound),
        }
        self.params = params
        self.extra = {}
        self.columns = []
        self.rows = []
        self.notes = []

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self._render_json()
        if fmt == "csv":
            return self._render_csv()
        return self._render_table()

    def _param_block(self) -> dict:
        return {k: str(v) for k, v in self.params.as_dict().items()}

    def _render_json(self) -> str:
        doc = {"schema": 1, "version": __version__, "command": self.command}
        doc.update(self.meta)
        doc["bound_params"] = self._param_block()
        doc["defaulted_params"] = sorted(self.params.defaulted)
        doc.update(self.extra)
        if self.columns:
            doc["rows"] = [dict(zip(self.columns, row)) for row in self.rows]
        if self.notes:
            doc["notes"] = list(self.notes)
        return json.dumps(doc, indent=2) + "\n"

    def _meta_lines(self):
        lines = [
            ("schema", "1"),
            ("version", __version__),
            ("command", self.command),
        ]
        lines.extend(self.meta.items())
        lines.append(
            ("bound_params", " ".join(f"{k}={v}" for k, v in self._param_block().items()))
        )
        lines.append(("defaulted_params", ",".join(sorted(self.params.defaulted)) or "-"))
        for key, value in self.extra.items():
            if isinstance(value, list):
                value = "[" + ", ".join(value) + "]"
            lines.append((key, value))
        return lines

    def _render_csv(self) -> str:
        out = io.StringIO()
        for key, value in self._meta_lines():
            out.write(f"# {key}: {value}\n")
        for note in self.notes:
            out.write(f"# note: {note}\n")
        writer = csv.writer(out, lineterminator="\n")
        if self.columns:
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return out.getvalue()

    def _render_table(self) -> str:
        out = []
        for key, value in self._meta_lines():
            out.append(f"{key}: {value}")
        if self.columns:
            out.append("")
            table = [self.columns] + [[str(c) for c in row] for row in self.rows]
            widths = [max(len(r[i]) for r in table) for i in range(len(self.columns))]
            for idx, row in enumerate(table):
                out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
                if idx == 0:
                    out.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out) + "\n"


# ============================================================== field / pisot

def _parse_coords(text: str) -> list:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse coordinate list {text!r}") from None


def _field_spec(text: str) -> str:
    """A defining polynomial, with Q standing for x - 1."""
    return "x-1" if text.strip().upper() == "Q" else text


def cmd_field(args, params: BoundParams) -> Report:
    k = field_from_polynomial(_field_spec(args.poly), args.prec, known_disc=args.known_disc)
    if k.degree == 1:
        raise LatcountError(
            "degree-1 polynomial defines the rationals (disc 1, rd = 1); nothing to report"
        )
    report = Report("field", args.prec, args.prime_bound, params)
    report.extra["poly"] = str(k.min_poly)
    report.extra["degree"] = str(k.degree)
    report.extra["signature"] = [str(k.r1), str(k.r2)]
    report.extra["disc"] = str(k.disc)
    report.extra["rd"] = _iv(root_discriminant(k, args.prec))
    report.extra["minkowski_bound"] = _iv(minkowski_norm_bound(k, args.prec))
    report.columns = ["place", "kind", "re_lo", "re_hi", "im_lo", "im_hi"]
    reals, boxes = k.embeddings(args.prec)
    place = 0
    for iv in reals:
        lo, hi = _iv(iv)
        report.rows.append([str(place), "real", lo, hi, "0", "0"])
        place += 1
    for box in boxes:
        re, im = _iv(box.re), _iv(box.im)
        report.rows.append([str(place), "complex", re[0], re[1], im[0], im[1]])
        place += 1
    return report


def cmd_pisot(args, params: BoundParams) -> Report:
    k = field_from_polynomial(args.poly, args.prec)
    cert = find_pisot(k, args.place, args.radius, args.prec)
    report = Report("pisot", args.prec, args.prime_bound, params)
    report.extra["poly"] = str(k.min_poly)
    report.extra["element"] = str(cert.element)
    report.extra["place_index"] = str(cert.place_index)
    report.extra["norm_one_minus"] = _rat(cert.norm_one_minus)
    report.extra["delta_bound"] = _iv(cert.delta_bound)
    report.extra["certificate_precision"] = str(cert.precision)
    report.extra["reverified"] = "yes" if reverify_certificate(cert) else "no"
    report.columns = ["place", "lo", "hi", "pisot_place"]
    for i, iv in enumerate(cert.enclosures):
        lo, hi = _iv(iv)
        report.rows.append([str(i), lo, hi, "yes" if i == cert.place_index else "no"])
    return report


# ==================================================================== tower

def _tower_entry(name: str, extra_path):
    found = tower_lookup(name, extra_path)
    if not found:
        raise LatcountError(f"tower {name!r} not in catalog")
    return found[0]


def cmd_tower(args, params: BoundParams) -> Report:
    report = Report("tower", args.prec, args.prime_bound, params)
    if not args.name:
        report.columns = ["name", "base_degree", "degree_rule", "rd_lo", "rd_hi", "total_real", "source"]
        for entry in tower_catalog(args.extra):
            lo, hi = _iv(entry.rd_constant)
            report.rows.append([
                entry.name,
                str(entry.base_degree),
                entry.degree_rule,
                lo,
                hi,
                "yes" if entry.total_real else "no",
                entry.source,
            ])
        return report
    entry = _tower_entry(args.name, args.extra)
    report.extra["name"] = entry.name
    report.extra["degree_rule"] = entry.degree_rule
    report.extra["rd_constant"] = _iv(entry.rd_constant)
    report.extra["total_real"] = "yes" if entry.total_real else "no"
    report.extra["source"] = entry.source
    if args.t is not None:
        seq = fixed_signature_sequence(entry, args.t, args.levels, precision=args.prec)
        report.extra["t"] = str(args.t)
        report.columns = ["level", "degree", "r2", "rd_bound_lo", "rd_bound_hi"]
        for synth in seq:
            lo, hi = _iv(synth.rd_bound)
            report.rows.append([str(synth.level), str(synth.degree), str(synth.r2), lo, hi])
        report.notes.append(
            "rd bound is level-independent: the cap 2 c0^((2+t*delta)/2) does not grow with the degree"
        )
    else:
        report.columns = ["level", "degree"]
        for level, degree in enumerate(tower_degrees(entry, args.levels)):
            report.rows.append([str(level), str(degree)])
    return report


# ================================================================= covolume

def _lie_from_args(args):
    data = parse_type(args.type)
    if getattr(args, "outer", False):
        data = with_form(data, OUTER_2, args.s_param)
    return data


def cmd_covolume(args, params: BoundParams) -> Report:
    data = _lie_from_args(args)
    report = Report("covolume", args.prec, args.prime_bound, params)
    report.extra["type"] = data.name + ("" if not data.s_param else " (outer)")
    if args.tower:
        entry = _tower_entry(args.tower, args.extra)
        p0 = args.p0 if args.p0 is not None else 2
        degree = entry.base_degree << args.level
        result = covolume_synthetic(entry.rd_constant, degree, data, p0, args.prec)
        c1 = covolume_upper_c1(entry.rd_constant, data, p0, args.prec)
        c1_pow = c1 ** degree
        report.extra["tower"] = entry.name
        report.extra["level"] = str(args.level)
        report.extra["degree"] = str(degree)
        report.extra["p0"] = str(p0)
        report.extra["c1"] = _iv(c1)
        report.extra["c1_pow_d"] = _iv(c1_pow)
        within = result.value.hi <= c1_pow.hi
        report.extra["within_c1_bound"] = "yes" if within else "no"
        report.notes.append(
            f"value <= c1^{degree}: {'holds' if within else 'FAILS'} "
            "(upper endpoints agree exactly by construction)"
        )
    else:
        k = field_from_polynomial(_field_spec(args.field), args.prec)
        ext = None
        if args.alpha:
            alpha = k.element(_parse_coords(args.alpha))
            ext = quadratic_extension(k, alpha, precision=args.prec)
            report.extra["alpha"] = args.alpha
            report.extra["t"] = str(ext.t)
        elif data.s_param:
            raise LatcountError("outer forms need --alpha for the relative discriminant")
        result = covolume(
            k, ext, data,
            p0=args.p0,
            prime_bound=args.prime_bound,
            precision=args.prec,
        )
        report.extra["field"] = str(k.min_poly)
        if result.coarse_value is not None:
            nested = result.coarse_value.encloses(result.value)
            report.extra["nesting_check"] = "ok" if nested else "violated"
            report.notes.append(
                f"interval at prime bound {args.prime_bound} nests inside the "
                f"bound-{coarse_bound(args.prime_bound)} interval: "
                f"{'ok' if nested else 'VIOLATED'}"
            )
    report.extra["value"] = _iv(result.value)
    report.extra["disc_factor"] = _iv(result.disc_factor)
    report.extra["arch_factor"] = _iv(result.arch_factor)
    report.extra["euler_factor"] = _iv(result.euler_factor)
    report.extra["lambda_bound"] = _iv(result.lambda_bound)
    report.extra["prime_bound_used"] = str(result.prime_bound_used)
    return report


# =================================================================== growth

def cmd_growth_lower(args, params: BoundParams) -> Report:
    entry = _tower_entry(args.tower, args.extra)
    data = parse_type(args.type)
    if data.rank < 2:
        suffix = " (override acknowledged)" if args.rank_override else ""
        print(
            f"warning: type {data.name} has rank {data.rank} < 2; the tower "
            f"construction assumes real rank at least 2{suffix}",
            file=sys.stderr,
        )
    if args.pprime == args.p0:
        raise LatcountError("p_prime must differ from the distinguished prime p0")
    c1 = covolume_upper_c1(entry.rd_constant, data, args.p0, args.prec)
    degrees = tower_degrees(entry, args.levels)
    grown = lower_growth_assemble(c1, data, args.pprime, params.c4, degrees, args.prec)
    gamma = gamma_h(data.coxeter, args.prec)
    report = Report("growth lower", args.prec, args.prime_bound, params)
    report.extra["tower"] = entry.name
    report.extra["type"] = grown.lie_name
    report.extra["p0"] = str(args.p0)
    report.extra["p_prime"] = str(grown.p_prime)
    report.extra["c1"] = _iv(grown.c1)
    report.extra["c2"] = _iv(grown.c2)
    report.extra["c2_exponent"] = _rat(grown.c2_exponent)
    report.extra["c3"] = str(grown.c3)
    report.extra["a"] = _iv(grown.a)
    kept = grown.included_rows()
    report.extra["x_range"] = [str(kept[0].index_bound), str(kept[-1].index_bound)]
    report.extra[f"gamma_h{data.coxeter}"] = _iv(gamma)
    report.columns = [
        "degree", "covolume_lo", "covolume_hi", "subgroup_exponent",
        "index_bound", "conjugacy_discount", "net_exponent", "included",
    ]
    for row in grown.rows:
        lo, hi = _iv(row.covolume_bound)
        report.rows.append([
            str(row.degree), lo, hi, str(row.subgroup_exponent),
            str(row.index_bound), str(row.conjugacy_discount),
            str(row.net_count_exponent), "yes" if row.included else "no",
        ])
    report.notes.append(_GAMMA_NOTE)
    return report


def _parse_residues(text: str) -> list:
    if not text:
        return []
    pairs = []
    for part in text.split(","):
        p, _, f = part.partition(":")
        try:
            pairs.append((int(p.strip()), int(f.strip() or "1")))
        except ValueError:
            raise LatcountError(
                f"cannot parse --residues {text!r}: expected p:f pairs such as 2:1,3:1"
            ) from None
    return pairs


def cmd_growth_upper(args, params: BoundParams) -> Report:
    residues = _parse_residues(args.residues)
    xs = []
    x = 100
    while x < args.x_min:
        x *= 10
    while x <= args.x_max:
        xs.append(x)
        x *= 10
    if not xs:
        raise LatcountError("empty x scan: check --x-min/--x-max")
    report = Report("growth upper", args.prec, args.prime_bound, params)
    report.extra["residues"] = args.residues or "-"
    report.columns = ["x", "nu", "rank_sum", "B", "B_over_log2x_lo", "B_over_log2x_hi"]
    wp = args.prec + 16
    best = None
    for x in xs:
        bound = upper_growth_assemble(x, params, residues)
        ratio = RealInterval.point(bound.B).div(log2_fraction(x, wp), args.prec)
        if best is None or ratio.hi > best.hi:
            best = ratio
        lo, hi = _iv(ratio)
        report.rows.append([
            str(x), str(bound.nu), str(bound.rank_sum), str(bound.B), lo, hi,
        ])
    report.extra["b"] = _iv(best)
    report.notes.append(_CONDITIONAL_NOTE)
    return report


# ====================================================================== lie

def cmd_lie_dump(args, params: BoundParams) -> Report:
    report = Report("lie dump", args.prec, args.prime_bound, params)
    report.columns = ["name", "rank", "dim", "coxeter", "exponents", "gamma_lo", "gamma_hi"]
    for row in dump_table(args.max_rank):
        gamma = gamma_h(row["coxeter"], args.prec)
        lo, hi = _iv(gamma)
        report.rows.append([
            f"{row['family']}{row['rank']}",
            str(row["rank"]),
            str(row["dim"]),
            str(row["coxeter"]),
            " ".join(str(m) for m in row["exponents"]),
            lo,
            hi,
        ])
    report.notes.append(_GAMMA_NOTE)
    return report


# ================================================================== plumbing

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with the
    # ReduciblePolynomial exit code; route usage problems to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser (with
    # SUPPRESS defaults there, so a pre-subcommand value is not clobbered);
    # the flags therefore work in either position.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--prec", type=int, default=default, help="working precision in bits (default 128, min 64)")
    parser.add_argument("--prime-bound", type=int, default=default, help="Euler product truncation (default 100000, min 100)")
    parser.add_argument("--format", choices=("table", "json", "csv"), default=default)
    parser.add_argument("--config", default=default, help="JSON config file")
    parser.add_argument("--threads", type=int, default=default, help="accepted for compatibility; must be >= 1, has no effect")
    parser.add_argument("--extra", default=default, help="extra tower catalog JSON file, read by tower, covolume --tower and growth lower")


def _build_parser() -> _Parser:
    parser = _Parser(prog="latcount", description=__doc__)
    _global_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_field = sub.add_parser("field", help="inspect a number field", parents=[common])
    p_field.add_argument("--poly", required=True)
    p_field.add_argument("--known-disc", type=int, default=None)
    p_field.set_defaults(handler=cmd_field)

    p_pisot = sub.add_parser("pisot", help="find a certified Pisot element", parents=[common])
    p_pisot.add_argument("--poly", required=True)
    p_pisot.add_argument("--place", type=int, default=0)
    p_pisot.add_argument("--radius", type=int, default=5)
    p_pisot.set_defaults(handler=cmd_pisot)

    p_tower = sub.add_parser("tower", help="list or expand tower catalog entries", parents=[common])
    p_tower.add_argument("--name", default=None)
    p_tower.add_argument("--levels", type=int, default=3)
    p_tower.add_argument("--t", type=int, default=None)
    p_tower.set_defaults(handler=cmd_tower)

    p_cov = sub.add_parser("covolume", help="volume-formula enclosure", parents=[common])
    src = p_cov.add_mutually_exclusive_group(required=True)
    src.add_argument("--field", default=None, help="defining polynomial, or Q")
    src.add_argument("--tower", default=None, help="catalog tower name")
    p_cov.add_argument("--level", type=int, default=0)
    p_cov.add_argument("--type", required=True, help="Lie type, e.g. A1")
    p_cov.add_argument("--outer", action="store_true")
    p_cov.add_argument("--s-param", type=int, default=None)
    p_cov.add_argument("--alpha", default=None, help="element coordinates, e.g. 0,1")
    p_cov.add_argument("--p0", type=int, default=None, help="distinguished prime")
    p_cov.set_defaults(handler=cmd_covolume)

    p_growth = sub.add_parser("growth", help="growth-constant reports", parents=[common])
    growth_sub = p_growth.add_subparsers(dest="growth_cmd", required=True)
    p_lower = growth_sub.add_parser("lower", help="tower-based lower growth report", parents=[common])
    p_lower.add_argument("--tower", required=True)
    p_lower.add_argument("--type", required=True)
    p_lower.add_argument("--pprime", type=int, required=True)
    p_lower.add_argument("--p0", type=int, default=2)
    p_lower.add_argument("--c4", default=None, help="conjugacy discount exponent (rational)")
    p_lower.add_argument("--levels", type=int, default=3)
    p_lower.add_argument("--out", default=None, help="write PREFIX.json and PREFIX.csv")
    p_lower.add_argument("--rank-override", action="store_true")
    p_lower.set_defaults(handler=cmd_growth_lower)
    p_upper = growth_sub.add_parser("upper", help="conditional upper growth scan", parents=[common])
    p_upper.add_argument("--x-min", type=int, default=100)
    p_upper.add_argument("--x-max", type=int, default=1000000)
    p_upper.add_argument("--residues", default="", help="residue data, e.g. 2:1,3:1")
    p_upper.add_argument("--C1", default=None, help="override the residue budget exponent")
    p_upper.add_argument("--s-embed", type=int, default=None)
    p_upper.set_defaults(handler=cmd_growth_upper)

    p_lie = sub.add_parser("lie", help="root-system data tables", parents=[common])
    lie_sub = p_lie.add_subparsers(dest="lie_cmd", required=True)
    p_dump = lie_sub.add_parser("dump", help="dump the invariant table", parents=[common])
    p_dump.add_argument("--max-rank", type=int, default=12)
    p_dump.set_defaults(handler=cmd_lie_dump)
    return parser


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise LatcountError("config file must hold a JSON object")
    if not isinstance(config.get("bound_params", {}), dict):
        raise LatcountError("config key bound_params must be a JSON object")
    return config


def _config_int(config, key, default):
    return read_int(config.get(key, default), f"invalid config value: {key}")


def _resolve(args, config):
    if args.prec is None:
        args.prec = _config_int(config, "prec", 128)
    if args.prime_bound is None:
        args.prime_bound = _config_int(config, "prime_bound", 100000)
    args.format = args.format or config.get("format", "table")
    if args.threads is None:
        args.threads = _config_int(config, "threads", 1)
    if args.format not in ("table", "json", "csv"):
        raise LatcountError(f"unknown format {args.format!r} in config")
    if args.prec < 64:
        raise LatcountError("precision must be at least 64 bits")
    if args.prime_bound < 100:
        raise LatcountError("prime bound must be at least 100")
    if args.threads < 1:
        raise LatcountError("thread count must be positive")
    p0 = getattr(args, "p0", None)
    if p0 is not None and not _is_prime(p0):
        raise LatcountError(f"p0 must be a prime, got {p0}")
    if getattr(args, "level", 0) < 0:
        raise LatcountError("tower level must be nonnegative")
    if getattr(args, "levels", 1) < 1:
        raise LatcountError(f"--levels must be at least 1, got {args.levels}")
    if getattr(args, "max_rank", 1) < 1:
        raise LatcountError(f"--max-rank must be at least 1, got {args.max_rank}")
    params = BoundParams.from_config(config.get("bound_params", {}))
    flags = {}
    for attr in ("c4", "C1", "s_embed"):
        value = getattr(args, attr, None)
        if value is not None:
            # argparse already made --s-embed an int
            flags[attr] = value if attr == "s_embed" else read_rational(value, f"--{attr}")
    return BoundParams(
        **{**params.as_dict(), **flags},
        defaulted=tuple(d for d in params.defaulted if d not in flags),
    )


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = _resolve(args, _load_config(args.config))
    report = args.handler(args, params)
    if getattr(args, "out", None):
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(report.render("json"))
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(report.render("csv"))
        print(f"report written: {args.out}.json, {args.out}.csv")
        print(f"a = [{report.extra['a'][0]}, {report.extra['a'][1]}]")
        print(f"x_range = [{report.extra['x_range'][0]}, {report.extra['x_range'][1]}]")
        for note in report.notes:
            print(f"note: {note}")
    else:
        sys.stdout.write(report.render(args.format))
    return 0


# the exit code of the first class an error belongs to
_EXIT_CODES = (
    (ReduciblePolynomial, 2),
    (PrecisionExhausted, 3),
    (EmptyReport, 4),
    (ResidueBudgetExceeded, 5),
    ((LatcountError, ValueError, OSError), 1),
)


def entry(argv=None) -> int:
    try:
        return run(argv)
    except (LatcountError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(entry())
