"""Command-line reports over the library: field inspection, Pisot and tower
construction, covolume evaluation, and the growth-constant assemblies.

Output is deterministic by construction: every number is rendered through
exact decimal rounding, dictionaries are built in fixed order, and the zeta
values come from outward-rounded fixed-point integers or exact rationals:
Borwein's series over Q, the Bernoulli closed form or the Hurwitz series
over a quadratic field or a cyclic cubic of one conductor, one sequential
pass over the primes for every other field.  Identical invocations
therefore produce byte-identical reports.  --threads is
accepted and validated for compatibility but has no effect.
"""

from __future__ import annotations

import io
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .counting import (
    BoundParams,
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
from .interval import (RealInterval, int_str, interval_strs, log2_fraction, refuse_unprintable_bits,
                       refuse_unprintable_power)
from .liedata import dump_table, gamma_h, outer_form, parse_type
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
from .polymod import is_prime
from .prasad import coarse_bound, covolume, covolume_synthetic, covolume_upper_c1

_DIGITS = 12  # decimal places on every rendered endpoint
# the largest --prec and --prime-bound: field --poly x^2-2 at 2^15 bits and
# covolume --field x^2-x-1 --type A1 at 10^7 each take seconds
MAX_PREC = 1 << 15
MAX_PRIME_BOUND = 10 ** 7

_DESCRIPTION = (
    "Certified enclosures for number fields, Pisot elements, class field "
    "towers, covolumes of arithmetic lattices and their growth constants."
)

_GAMMA_NOTE = (
    "gamma(h) = (sqrt(h(h+2)) - h)^2 / (4h^2) is the formerly conjectured "
    "rate in terms of the Coxeter number; the tower construction behind this "
    "report refutes that conjecture, and gamma is not the growth rate."
)
_CONDITIONAL_NOTE = "conditional on CSP and supplied constants"


# ================================================================ rendering

def _text(value):
    """The printed form of one report value: a string, or for an interval (two
    decimal ends, rounded outward) and a list, a list of strings."""
    if isinstance(value, RealInterval):
        return interval_strs(value, _DIGITS)
    if isinstance(value, list):
        return [_text(v) for v in value]
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return int_str(value)
    if isinstance(value, Fraction):
        num = int_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{int_str(value.denominator)}"
    return str(value)


def _cells(row: list) -> list:
    """One table row as strings; an interval fills two cells."""
    cells = []
    for value in row:
        text = _text(value)
        cells += text if isinstance(text, list) else [text]
    return cells


class Report:
    """Meta block, tabular payload, and free-form notes for one command.

    Handlers store native values (intervals, integers, rationals, booleans,
    strings) in extra and rows; render prints every one through _text.
    """

    def __init__(self, command: str, precision: int, prime_bound: int, params: BoundParams):
        self.command = command
        self.meta = {"precision": precision, "prime_bound": prime_bound}
        self.params = params
        self.extra = {}
        self.columns = []
        self.rows = []
        self.notes = []

    def render(self, fmt: str) -> str:
        head = {key: _text(value) for key, value in self.meta.items()}
        params = {key: _text(value) for key, value in self.params.as_dict().items()}
        extra = {key: _text(value) for key, value in self.extra.items()}
        rows = [_cells(row) for row in self.rows]
        if fmt == "json":
            return self._render_json(head, params, extra, rows)
        lines = self._meta_lines(head, params, extra)
        if fmt == "csv":
            return self._render_csv(lines, rows)
        return self._render_table(lines, rows)

    def _render_json(self, head, params, extra, rows) -> str:
        import json  # only json reports load it
        doc = {"schema": 1, "version": __version__, "command": self.command}
        doc.update(head)
        doc["bound_params"] = params
        doc["defaulted_params"] = sorted(self.params.defaulted)
        doc.update(extra)
        if self.columns:
            doc["rows"] = [dict(zip(self.columns, row)) for row in rows]
        if self.notes:
            doc["notes"] = list(self.notes)
        return json.dumps(doc, indent=2) + "\n"

    def _meta_lines(self, head, params, extra):
        lines = [
            ("schema", "1"),
            ("version", __version__),
            ("command", self.command),
        ]
        lines.extend(head.items())
        lines.append(("bound_params", " ".join(f"{k}={v}" for k, v in params.items())))
        lines.append(("defaulted_params", ",".join(sorted(self.params.defaulted)) or "-"))
        for key, value in extra.items():
            if isinstance(value, list):
                value = "[" + ", ".join(value) + "]"
            lines.append((key, value))
        return lines

    def _render_csv(self, lines, rows) -> str:
        import csv  # only csv reports load it
        out = io.StringIO()
        for key, value in lines:
            out.write(f"# {key}: {value}\n")
        for note in self.notes:
            out.write(f"# note: {note}\n")
        writer = csv.writer(out, lineterminator="\n")
        if self.columns:
            writer.writerow(self.columns)
            writer.writerows(rows)
        return out.getvalue()

    def _render_table(self, lines, rows) -> str:
        out = []
        for key, value in lines:
            out.append(f"{key}: {value}")
        if self.columns:
            out.append("")
            table = [self.columns] + rows
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
    report.extra["poly"] = k.min_poly
    report.extra["degree"] = k.degree
    report.extra["signature"] = [k.r1, k.r2]
    report.extra["disc"] = k.disc
    report.extra["rd"] = root_discriminant(k, args.prec)
    report.extra["minkowski_bound"] = minkowski_norm_bound(k, args.prec)
    report.columns = ["place", "kind", "re_lo", "re_hi", "im_lo", "im_hi"]
    reals, boxes = k.embeddings(args.prec)
    report.rows = [[i, "real", iv, 0, 0] for i, iv in enumerate(reals)]
    report.rows += [[len(reals) + i, "complex", box.re, box.im] for i, box in enumerate(boxes)]
    return report


def cmd_pisot(args, params: BoundParams) -> Report:
    k = field_from_polynomial(args.poly, args.prec)
    cert = find_pisot(k, args.place, args.radius)
    report = Report("pisot", args.prec, args.prime_bound, params)
    report.extra["poly"] = k.min_poly
    report.extra["element"] = cert.element
    report.extra["place_index"] = cert.place_index
    report.extra["norm_one_minus"] = cert.norm_one_minus
    report.extra["delta_bound"] = cert.delta_bound
    report.extra["certificate_precision"] = cert.precision
    report.extra["reverified"] = reverify_certificate(cert)
    report.columns = ["place", "lo", "hi", "pisot_place"]
    report.rows = [[i, iv, i == cert.place_index] for i, iv in enumerate(cert.enclosures)]
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
        report.rows = [list(entry) for entry in tower_catalog(args.extra)]
        return report
    entry = _tower_entry(args.name, args.extra)
    report.extra["name"] = entry.name
    report.extra["degree_rule"] = entry.degree_rule
    report.extra["rd_constant"] = entry.rd_constant
    report.extra["total_real"] = entry.total_real
    report.extra["source"] = entry.source
    if args.t is not None:
        seq = fixed_signature_sequence(entry, args.t, args.levels, precision=args.prec)
        report.extra["t"] = args.t
        report.columns = ["level", "degree", "r2", "rd_bound_lo", "rd_bound_hi"]
        report.rows = [[s.level, s.degree, s.r2, s.rd_bound] for s in seq]
        report.notes.append(
            "rd bound is level-independent: the cap 2 c0^((2+t*delta)/2) does not grow with the degree"
        )
    else:
        report.columns = ["level", "degree"]
        report.rows = [list(pair) for pair in enumerate(tower_degrees(entry, args.levels))]
    return report


# ================================================================= covolume

def _lie_from_args(args):
    data = parse_type(args.type)
    return outer_form(data, args.s_param) if args.outer else data


def cmd_covolume(args, params: BoundParams) -> Report:
    data = _lie_from_args(args)
    report = Report("covolume", args.prec, args.prime_bound, params)
    report.extra["type"] = data.name + ("" if not data.s_param else " (outer)")
    if args.tower:
        entry = _tower_entry(args.tower, args.extra)
        p0 = args.p0 if args.p0 is not None else 2
        refuse_unprintable_bits(entry.base_degree.bit_length() - 1 + args.level)
        degree = entry.base_degree << args.level
        c1 = covolume_upper_c1(entry.rd_constant, data, p0, args.prec)
        # value.hi = c1.hi^d and lambda_bound.hi = p0^(dim d) are printed; the
        # second is at least 8^d, so this caps the work even when c1.hi < 2
        refuse_unprintable_power(max(c1.hi, p0 ** data.dim), degree)
        result = covolume_synthetic(entry.rd_constant, degree, data, p0, args.prec)
        c1_pow = c1 ** degree
        report.extra["tower"] = entry.name
        report.extra["level"] = args.level
        report.extra["degree"] = degree
        report.extra["p0"] = p0
        report.extra["c1"] = c1
        report.extra["c1_pow_d"] = c1_pow
        within = result.value.hi <= c1_pow.hi
        report.extra["within_c1_bound"] = within
        report.notes.append(
            f"value <= c1^{degree}: {'holds' if within else 'FAILS'} "
            "(upper endpoints agree exactly by construction)"
        )
    else:
        k = field_from_polynomial(_field_spec(args.field), args.prec)
        ext = None
        if args.alpha:
            alpha = k.element(_parse_coords(args.alpha))
            ext = quadratic_extension(k, alpha)
            report.extra["alpha"] = args.alpha
            report.extra["t"] = ext.t
        result = covolume(k, ext, data, p0=args.p0, prime_bound=args.prime_bound)
        report.extra["field"] = k.min_poly
        if result.coarse_value is not None:
            nested = result.coarse_value.encloses(result.value)
            report.extra["nesting_check"] = "ok" if nested else "violated"
            report.notes.append(
                f"interval at prime bound {args.prime_bound} nests inside the "
                f"bound-{coarse_bound(args.prime_bound)} interval: "
                f"{'ok' if nested else 'VIOLATED'}"
            )
    report.extra["value"] = result.value
    report.extra["disc_factor"] = result.disc_factor
    report.extra["arch_factor"] = result.arch_factor
    report.extra["euler_factor"] = result.euler_factor
    report.extra["lambda_bound"] = result.lambda_bound
    report.extra["prime_bound_used"] = result.prime_bound_used
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
    report.extra["p0"] = args.p0
    report.extra["p_prime"] = grown.p_prime
    report.extra["c1"] = grown.c1
    report.extra["c2"] = grown.c2
    report.extra["c2_exponent"] = grown.c2_exponent
    report.extra["c3"] = grown.c3
    report.extra["a"] = grown.a
    kept = grown.included_rows()
    report.extra["x_range"] = [kept[0].index_bound, kept[-1].index_bound]
    report.extra[f"gamma_h{data.coxeter}"] = gamma
    report.columns = [
        "degree", "covolume_lo", "covolume_hi", "subgroup_exponent",
        "index_bound", "conjugacy_discount", "net_exponent", "included",
    ]
    report.rows = [list(row) for row in grown.rows]
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
        report.rows.append([x, bound.nu, bound.rank_sum, bound.B, ratio])
    report.extra["b"] = best
    report.notes.append(_CONDITIONAL_NOTE)
    return report


# ====================================================================== lie

def cmd_lie_dump(args, params: BoundParams) -> Report:
    report = Report("lie dump", args.prec, args.prime_bound, params)
    report.columns = ["name", "rank", "dim", "coxeter", "exponents", "gamma_lo", "gamma_hi"]
    for row in dump_table(args.max_rank):
        report.rows.append([
            f"{row['family']}{row['rank']}",
            row["rank"],
            row["dim"],
            row["coxeter"],
            " ".join(map(str, row["exponents"])),
            gamma_h(row["coxeter"], args.prec),
        ])
    report.notes.append(_GAMMA_NOTE)
    return report


# ================================================================== plumbing

# The command line, declared once.  An option is (flag, kind, default, help),
# with (needs, refusal) appended for a flag that means something only beside
# another.  kind is int, str, a tuple of choices or _SWITCH (store_true);
# default is a value, _REQUIRED, or _ONE_OF for the flags of which a call
# gives exactly one.  needs lists alternatives such as "covolume --tower": a
# call that gives the flag must hold every word of one of them among its
# command words and the flags it gives, or exit 1 with refusal.  An option's
# attribute is argparse's dest: the flag without its leading dashes, with -
# read as _.  _parse_plain reads the table for a well-formed argv,
# _build_parser hands it to argparse for everything else, and _refuse_unread
# checks needs on the namespace that either one builds.
_SWITCH = "switch"
_REQUIRED = "required"
_ONE_OF = "one of"

# accepted before the subcommand and after it
_GLOBAL_FLAGS = (
    ("--prec", int, None, f"working precision in bits (default 128, min 64, max {MAX_PREC})"),
    ("--prime-bound", int, None,
     f"Euler product truncation for fields of degree >= 2 (default 100000, min 100, max {MAX_PRIME_BOUND})"),
    ("--format", ("table", "json", "csv"), None, None),
    ("--config", str, None, "JSON config file"),
    ("--threads", int, None, "accepted for compatibility; must be >= 1, has no effect"),
    ("--extra", str, None, "extra tower catalog JSON file, read by tower, covolume --tower and growth lower",
     ("tower", "covolume --tower", "growth lower"),
     "--extra is read only by tower, covolume --tower and growth lower"),
)

# command -> (help, handler, options), in listing order; growth and lie have
# no handler, and {subcommand: (help, handler, options)} in place of options
_COMMANDS = {
    "field": ("inspect a number field", cmd_field, (
        ("--poly", str, _REQUIRED, None),
        ("--known-disc", int, None, None),
    )),
    "pisot": ("find a certified Pisot element", cmd_pisot, (
        ("--poly", str, _REQUIRED, None),
        ("--place", int, 0, None),
        ("--radius", int, 5, None),
    )),
    "tower": ("list or expand tower catalog entries", cmd_tower, (
        ("--name", str, None, None),
        ("--levels", int, 3, None, ("--name",), "--levels needs --name: levels belong to a named tower"),
        ("--t", int, None, None, ("--name",), "--t needs --name: t counts places over one named tower"),
    )),
    "covolume": ("volume-formula enclosure", cmd_covolume, (
        ("--field", str, _ONE_OF, "defining polynomial, or Q"),
        ("--tower", str, _ONE_OF, "catalog tower name"),
        ("--level", int, 0, None, ("--tower",), "--level needs --tower: levels belong to a catalog tower"),
        ("--type", str, _REQUIRED, "Lie type, e.g. A1"),
        ("--outer", _SWITCH, False, None, ("--alpha",),
         "outer forms need --alpha for the relative discriminant"),
        ("--s-param", int, None, None, ("--outer",),
         "--s-param needs --outer: s is a parameter of outer forms only"),
        ("--alpha", str, None, "element coordinates, e.g. 0,1; "
         "attach a leading minus with =, as in --alpha=-1,0,1",
         ("--field",), "--alpha needs --field: alpha is an element of the base field"),
        ("--p0", int, None, "distinguished prime"),
    )),
    "growth": ("growth-constant reports", None, {
        "lower": ("tower-based lower growth report", cmd_growth_lower, (
            ("--tower", str, _REQUIRED, None),
            ("--type", str, _REQUIRED, None),
            ("--pprime", int, _REQUIRED, None),
            ("--p0", int, 2, None),
            ("--c4", str, None, "conjugacy discount exponent (rational)"),
            ("--levels", int, 3, None),
            ("--out", str, None, "write PREFIX.json and PREFIX.csv"),
            ("--rank-override", _SWITCH, False, None),
        )),
        "upper": ("conditional upper growth scan", cmd_growth_upper, (
            ("--x-min", int, 100, None),
            ("--x-max", int, 1000000, None),
            ("--residues", str, "", "residue data, e.g. 2:1,3:1"),
            ("--C1", str, None, "override the residue budget exponent"),
            ("--s-embed", int, None, None),
        )),
    }),
    "lie": ("root-system data tables", None, {
        "dump": ("dump the invariant table", cmd_lie_dump, (
            ("--max-rank", int, 12, None),
        )),
    }),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _unset(default):
    """The attribute of an option that a call does not give."""
    return None if default is _REQUIRED or default is _ONE_OF else default


def _parse_plain(argv: list):
    """The namespace argparse builds for a well-formed argv, or None.

    Well-formed is a command (and a growth or lie subcommand) followed by
    exact flag names, each at most once, each value one token that does not
    start with '-', with ints read by int() as argparse's type=int reads them,
    and choices, required flags and the one-of group holding.  Anything else
    (help, a global flag before the command, --flag=value, repeats and every
    error, an abbreviated flag among them) is left to argparse and its texts."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {_dest(flag): default for flag, _, default, *_ in _GLOBAL_FLAGS}
    values["cmd"] = argv[0]
    _, handler, options = _COMMANDS[argv[0]]
    rest = argv[1:]
    if handler is None:
        if not rest or rest[0] not in options:
            return None
        values[f"{argv[0]}_cmd"] = rest[0]
        _, handler, options = options[rest[0]]
        rest = rest[1:]
    kinds = {flag: kind for flag, kind, *_ in _GLOBAL_FLAGS}
    for flag, kind, default, *_ in options:
        kinds[flag] = kind
        values[_dest(flag)] = _unset(default)
    given = set()
    tokens = iter(rest)
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is None or flag in given:
            return None
        given.add(flag)
        if kind is _SWITCH:
            values[_dest(flag)] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[_dest(flag)] = value
    if any(default is _REQUIRED and flag not in given for flag, _, default, *_ in options):
        return None
    one_of = {flag for flag, _, default, *_ in options if default is _ONE_OF}
    if one_of and len(one_of & given) != 1:
        return None
    values["handler"] = handler
    return SimpleNamespace(**values)


def _build_parser():
    """argparse's parser over the same table, for help, usage and error texts
    and for the argv that _parse_plain leaves alone."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors by default, which collides with the
        # ReduciblePolynomial exit code; route usage problems to 64 instead.
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(64)

    def add(parser, flag, kind, default, text):
        kwargs = {"help": text}
        if kind is _SWITCH:
            kwargs["action"] = "store_true"
        elif kind is int:
            kwargs["type"] = int
        elif isinstance(kind, tuple):
            kwargs["choices"] = kind
        if default is _REQUIRED:
            kwargs["required"] = True
        else:
            kwargs["default"] = _unset(default)
        parser.add_argument(flag, **kwargs)

    def fill(subparsers, commands):
        for name, (text, handler, options) in commands.items():
            command = subparsers.add_parser(name, help=text, parents=[common], allow_abbrev=False)
            if handler is None:
                fill(command.add_subparsers(dest=f"{name}_cmd", required=True), options)
                continue
            group = None
            for flag, kind, default, help_text, *_ in options:
                target = command
                if default is _ONE_OF:
                    group = group or command.add_mutually_exclusive_group(required=True)
                    target = group
                add(target, flag, kind, default, help_text)
            command.set_defaults(handler=handler)

    # allow_abbrev=False on every parser: a flag is spelled in full, as the
    # plain parse reads it, so no prefix such as --pol stands for --poly
    parser = _Parser(prog="latcount", description=_DESCRIPTION, allow_abbrev=False)
    # every subcommand takes the global flags again, with SUPPRESS defaults
    # so that a value given before the subcommand is not clobbered
    common = _Parser(add_help=False, allow_abbrev=False)
    for flag, kind, default, text, *_ in _GLOBAL_FLAGS:
        add(parser, flag, kind, default, text)
        add(common, flag, kind, argparse.SUPPRESS, text)
    fill(parser.add_subparsers(dest="cmd", required=True), _COMMANDS)
    return parser


def _refuse_unread(args) -> None:
    """Refuse a flag that args' call would not read: one given without the
    companion its table row needs (see _COMMANDS).  A flag is given when its
    attribute differs from its table default."""
    _, handler, options = _COMMANDS[args.cmd]
    words = {args.cmd}
    if handler is None:
        sub = getattr(args, f"{args.cmd}_cmd")
        words.add(sub)
        options = options[sub][2]
    rows = _GLOBAL_FLAGS + options
    words |= {flag for flag, _, default, *_ in rows if getattr(args, _dest(flag)) != _unset(default)}
    for flag, _, _, _, *rule in rows:
        if rule and flag in words:
            needs, refusal = rule
            if not any(set(need.split()) <= words for need in needs):
                raise LatcountError(refusal)


def _load_config(path):
    if not path:
        return {}
    import json  # only a config file loads it
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
    if args.prec > MAX_PREC:
        raise LatcountError(f"precision {args.prec} is past the cap: precisions run up to {MAX_PREC} bits")
    if args.prime_bound < 100:
        raise LatcountError("prime bound must be at least 100")
    if args.prime_bound > MAX_PRIME_BOUND:
        raise LatcountError(f"prime bound {args.prime_bound} is past the cap: prime bounds run up to {MAX_PRIME_BOUND}")
    if args.threads < 1:
        raise LatcountError("thread count must be positive")
    p0 = getattr(args, "p0", None)
    if p0 is not None and not is_prime(p0):
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
            # the parser already made --s-embed an int
            flags[attr] = value if attr == "s_embed" else read_rational(value, f"--{attr}")
    return BoundParams(
        **{**params.as_dict(), **flags},
        defaulted=tuple(d for d in params.defaulted if d not in flags),
    )


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or _build_parser().parse_args(argv)
    _refuse_unread(args)
    params = _resolve(args, _load_config(args.config))
    report = args.handler(args, params)
    if getattr(args, "out", None):
        # render both before opening either, so a failure leaves no partial file
        texts = {ext: report.render(ext) for ext in ("json", "csv")}
        for ext, text in texts.items():
            with open(f"{args.out}.{ext}", "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"report written: {args.out}.json, {args.out}.csv")
        for key in ("a", "x_range"):
            print(f"{key} = [{', '.join(_text(report.extra[key]))}]")
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

