"""Seeded invocation lists for the three benchmark workloads.

Every workload is one round: a fixed list of strata (command, degree or
type band, precision, prime bound), each with a fixed count, so the work in
a round barely depends on the seed.  The seed chooses the concrete input
inside each stratum (which polynomial, which type, which tower), the output
format and the thread count, and the order of the round.

Each invocation carries the exit code it must produce and what its output
is checked against; see `check.py`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracles as O

PRIME_BOUND = 100000  # the CLI default
SHARE_BOUND = 10000   # the reduced bound a share of `euler` calls use
TOWERS = ("golod-shafarevich", "martinet", "hajir-maire")
FORMATS = ("table", "json", "csv")


@dataclass
class Invocation:
    argv: list
    kind: str                 # field, pisot, covolume-field, covolume-tower, ...
    expect: int = 0           # exit code the README table prescribes
    fmt: str = "table"
    oracle: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    twin: str = ""            # invocations sharing a twin key must print the same bytes


def _fmt_args(fmt: str) -> list:
    return [] if fmt == "table" else ["--format", fmt]


def _formats(rng: random.Random, count: int) -> list:
    out = [FORMATS[i % 3] for i in range(count)]
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ fields

def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randint(lo, hi)
        if math.isqrt(d) ** 2 != d:
            return d


# real cyclotomic conductors by degree phi(n)/2 (no n has phi(n) = 14).
# Degree 12 leaves out 56, 72 and 84, whose fields take ten times longer
# than the others; 72 runs in every round as a stratum of its own instead.
_RC = {
    2: (5, 8, 12), 3: (7, 9, 14, 18), 4: (15, 16, 20, 24, 30), 5: (11, 22),
    6: (13, 21, 26, 28, 36, 42), 8: (17, 32, 34, 40, 48, 60),
    9: (19, 27, 38, 54), 10: (25, 33, 44, 50, 66), 11: (23, 46),
    12: (35, 39, 45, 52, 70, 78, 90),
}
_EIS_PRIMES = (2, 3, 5, 7)


def _eisenstein(rng: random.Random, degree: int) -> list:
    p = rng.choice(_EIS_PRIMES)
    coeffs = [rng.choice([u for u in range(-3, 4) if u % p])]
    coeffs += [rng.randint(-3, 3) for _ in range(degree - 1)]
    return O.eisenstein(degree, p, coeffs)


def _irreducible(rng: random.Random, degree: int, family: str) -> list:
    """An irreducible polynomial of this degree from the named family."""
    if family == "quadratic":
        return [-_nonsquare(rng, 2, 200), 0, 1]
    if family == "imaginary":
        return [_nonsquare(rng, 1, 200), 0, 1]
    if family == "shanks":
        return O.shanks_cubic(rng.randint(-1, 60))
    if family == "real-cyclotomic":
        return O.real_cyclotomic(rng.choice(_RC[degree]))
    return _eisenstein(rng, degree)


def _field_inv(f: list, family: str, prec: int, fmt: str) -> Invocation:
    return Invocation(
        argv=["field", "--poly", O.poly_str(f), "--prec", str(prec)] + _fmt_args(fmt),
        kind="field", fmt=fmt, oracle={"poly": f},
        props={"degree": len(f) - 1, "prec": prec, "format": fmt, "family": family},
    )


def _pisot_inv(f: list, family: str, prec: int, fmt: str, expect: int = 0) -> Invocation:
    return Invocation(
        argv=["pisot", "--poly", O.poly_str(f), "--prec", str(prec)] + _fmt_args(fmt),
        kind="pisot", expect=expect, fmt=fmt, oracle={"poly": f},
        props={"degree": len(f) - 1, "prec": prec, "format": fmt, "family": family},
    )


def fields(rng: random.Random) -> list:
    fmts = iter(_formats(rng, 41))
    inv = []
    # field on irreducible inputs: fixed (degree, family, precision) strata
    for prec, strata in ((128, ((2, "quadratic"), (2, "imaginary"), (3, "shanks"),
                                (4, "real-cyclotomic"), (5, "eisenstein"),
                                (6, "real-cyclotomic"), (7, "eisenstein"),
                                (8, "real-cyclotomic"), (10, "eisenstein"),
                                (12, "real-cyclotomic"))),
                         (512, ((2, "quadratic"), (3, "shanks"), (4, "eisenstein"),
                                (5, "real-cyclotomic"), (6, "eisenstein"),
                                (8, "eisenstein"), (9, "real-cyclotomic"),
                                (11, "eisenstein")))):
        for degree, fam in strata:
            inv.append(_field_inv(_irreducible(rng, degree, fam), fam, prec, next(fmts)))
    inv.append(_field_inv(O.real_cyclotomic(72), "real-cyclotomic", 128, next(fmts)))
    # reducible by construction: exit 2 from field and pisot alike
    for cmd, fa, fb in (("field", "quadratic", "quadratic"), ("field", "quadratic", "shanks"),
                        ("field", "shanks", "real-cyclotomic"),
                        ("field", "real-cyclotomic", "real-cyclotomic"),
                        ("pisot", "quadratic", "quadratic"), ("pisot", "quadratic", "shanks")):
        a = _irreducible(rng, 3 if fa == "shanks" else 2 if fa == "quadratic" else 4, fa)
        b = _irreducible(rng, 3 if fb == "shanks" else 2 if fb == "quadratic" else 6, fb)
        f = O.poly_mul(a, b)
        maker = _field_inv if cmd == "field" else _pisot_inv
        item = maker(f, "product", 128, next(fmts))
        item.expect = 2
        item.oracle = {}
        inv.append(item)
    # pisot on totally real inputs whose search succeeds within radius 5
    for _ in range(4):
        inv.append(_pisot_inv([-_nonsquare(rng, 2, 35), 0, 1], "quadratic", 128, next(fmts)))
    for _ in range(3):
        inv.append(_pisot_inv(O.shanks_cubic(rng.randint(-1, 4)), "shanks", 128, next(fmts)))
    for degree in (2, 3, 4):
        f = O.real_cyclotomic(rng.choice(_RC[degree]))
        inv.append(_pisot_inv(f, "real-cyclotomic", 128, next(fmts)))
    # at 512 bits the search cost of a real quadratic swings from 2 s to 10 s
    # with D; the Shanks cubics with a in {-2, -1, 2} stay near 1.2 s
    inv.append(_pisot_inv(O.shanks_cubic(rng.choice((-2, -1, 2))), "shanks", 512, next(fmts)))
    # pisot on fields that are not totally real: exit 1
    for degree in (2, 3, 5, 7, 9):
        if degree == 2:
            f = [_nonsquare(rng, 1, 200), 0, 1]
        else:
            f = _eisenstein(rng, degree)
            f[1:degree] = [0] * (degree - 1)  # x^n + p u: at most two real roots
        inv.append(_pisot_inv(f, "binomial", 128, next(fmts), expect=1))
    # one argv twice in the round: its bytes must repeat
    inv.append(Invocation(**{**inv[0].__dict__, "twin": "repeat"}))
    inv[0].twin = "repeat"
    rng.shuffle(inv)
    return inv


# ------------------------------------------------------------------- euler

def _cov_field(poly: str, lie: str, bound: int, threads: int, fmt: str = "table",
               extra=(), oracle=None, degree: int = 1, twin: str = "") -> Invocation:
    argv = ["covolume", "--field", poly, "--type", lie, "--threads", str(threads)]
    if bound != PRIME_BOUND:
        argv += ["--prime-bound", str(bound)]
    argv += list(extra) + _fmt_args(fmt)
    rank = O.parse_type(lie)[1]
    return Invocation(
        argv=argv, kind="covolume-field", fmt=fmt, oracle=oracle or {}, twin=twin,
        props={"degree": degree, "prime_bound": bound, "threads": threads,
               "format": fmt, "rank": rank, "outer": bool(extra)},
    )


def _q_oracle(lie: str) -> dict:
    value = O.covolume_over_q(*O.parse_type(lie))
    return {"value": value} if value is not None else {}


def _real_quadratic(rng: random.Random, kind: str) -> tuple:
    """(b, c) of x^2 + b x + c for a real quadratic field.

    kind "odd": d = 1 mod 4, d > 28, Z[theta] maximal; "even": d = 2, 3 mod 4,
    Z[theta] maximal; "nonmaximal": Z[theta] of index 2.  At the seed commit
    the A1 bracket pins about 9-12 bits for "odd" and 1.7 bits for "even",
    where 2 ramifies, so each kind has a fixed count in a round.
    """
    while True:
        d = O.squarefree_part(_nonsquare(rng, 2, 120))
        if d <= 1:
            continue
        if kind == "odd" and d % 4 == 1 and d > 28:
            return -1, (1 - d) // 4
        if kind == "even" and d % 4 != 1:
            return 0, -d
        if kind == "nonmaximal" and d <= 60:
            return (0, -d) if d % 4 == 1 else (0, -4 * d)


def _quad_str(b: int, c: int) -> str:
    return O.poly_str([c, b, 1])


def euler(rng: random.Random) -> list:
    threads = lambda: rng.choice((1, 2))  # noqa: E731
    # Calls at the default bound take 0.5 s to 14 s, those at 10^4 about
    # 0.3 s.  Nine calls at the default bound keep the tail percentile (ten
    # calls above it) inside the bulk of cheap calls, not on the edge between
    # the two groups, where it would jump from seed to seed.  E8 sets
    # peak_rss_mb, 2-3 MB higher with two pool workers than with one thread,
    # so its thread count is fixed rather than drawn.
    inv = [_cov_field("Q", "E8", PRIME_BOUND, 2, oracle=_q_oracle("E8"))]
    for lie in ("A1", "A3", "B2", "G2"):
        inv.append(_cov_field("Q", lie, PRIME_BOUND, threads(), oracle=_q_oracle(lie)))
    q_cheap = ["E7", "F4", "A1", "A2", "A3", "B2", "G2", "B3", "C3", "D4"]
    for lie in q_cheap:
        inv.append(_cov_field("Q", lie, SHARE_BOUND, threads(), fmt=rng.choice(FORMATS),
                              oracle=_q_oracle(lie)))
    # real quadratics, A1 against Siegel's formula; maximal and non-maximal Z[theta]
    for kind, bound in (("odd", PRIME_BOUND), ("even", PRIME_BOUND),
                        ("nonmaximal", PRIME_BOUND), ("odd", SHARE_BOUND),
                        ("even", SHARE_BOUND), ("nonmaximal", SHARE_BOUND),
                        ("nonmaximal", SHARE_BOUND)):
        b, c = _real_quadratic(rng, kind)
        inv.append(_cov_field(
            _quad_str(b, c), "A1", bound, threads(), fmt=rng.choice(FORMATS), degree=2,
            oracle={"value": O.a1_covolume_real_quadratic(b, c),
                    "maximal": kind != "nonmaximal"}))
    # higher rank over a real quadratic, no closed form
    b, c = _real_quadratic(rng, "even")
    inv.append(_cov_field(_quad_str(b, c), rng.choice(("B2", "G2")), SHARE_BOUND,
                          threads(), degree=2))
    # Shanks cubics and an imaginary quadratic.  For a = 0 mod 3, 3 divides
    # disc(Z[theta]) and the bracket pins 2 bits, against 4-11 bits for other
    # a; a in {1, 2, 4} keeps the cubics' brackets at 6-8 bits
    for bound in (PRIME_BOUND, SHARE_BOUND):
        f = O.shanks_cubic(rng.choice((1, 2, 4)))
        inv.append(_cov_field(O.poly_str(f), "A1", bound, threads(), degree=3))
    inv.append(_cov_field(O.poly_str([_nonsquare(rng, 1, 60), 0, 1]), "A1", SHARE_BOUND,
                          threads(), degree=2))
    # outer forms over a real quadratic, relative discriminant from --alpha;
    # alpha = a + theta has norm a^2 - a b + c, which must not be a square
    for lie, kind in (("A2", "odd"), ("A3", "even")):
        while True:
            b, c = _real_quadratic(rng, kind)
            a = rng.randint(1, 3)
            norm = a * a - a * b + c
            if norm < 0 or math.isqrt(norm) ** 2 != norm:
                break
        alpha = f"{a},1"
        inv.append(_cov_field(_quad_str(b, c), lie, SHARE_BOUND, threads(), degree=2,
                              extra=("--outer", "--alpha", alpha)))
    # the README promises byte-identical output for every thread count
    for n in range(2):
        b, c = _real_quadratic(rng, "even")
        oracle = {"value": O.a1_covolume_real_quadratic(b, c), "maximal": True}
        for t in (1, 2):
            inv.append(_cov_field(_quad_str(b, c), "A1", SHARE_BOUND, t, degree=2,
                                  oracle=oracle, twin=f"threads{n}"))
    repeat = inv[len(q_cheap) + 9]  # the "even" real quadratic at 10^4
    inv.append(Invocation(**{**repeat.__dict__, "twin": "repeat"}))
    repeat.twin = "repeat"
    rng.shuffle(inv)
    return inv


# ------------------------------------------------------------------ towers

def _lie_names() -> list:
    return [f"{fam}{rank}" for fam, rank in O.split_types(12)]


def towers(rng: random.Random) -> list:
    names = _lie_names()
    inv = []
    fmts = iter(_formats(rng, 65))
    # catalog listing, and one level expansion per totally real tower
    f = next(fmts)
    inv.append(Invocation(["tower", "--prec", "128"] + _fmt_args(f), "tower-list",
                          fmt=f, props={"prec": 128, "format": f}))
    for name in TOWERS[1:]:
        t, f = rng.randint(1, 3), next(fmts)
        inv.append(Invocation(
            ["tower", "--name", name, "--t", str(t), "--prec", "128"] + _fmt_args(f),
            "tower-t", fmt=f, props={"prec": 128, "format": f, "tower": name, "t": t}))
    # The type x tower x level cells are fixed, not drawn: about half of them
    # fail at the seed commit and most of the rest print collapsed [0, huge]
    # brackets, so drawing cells would make the failure share and the
    # enclosure figures swing from seed to seed.  covolume --tower covers
    # every dump_table(12) type once, each (tower, level) pair four times.
    for i, lie in enumerate(names):
        tower, level, f = TOWERS[i % 3], (i // 3) % 4, next(fmts)
        inv.append(Invocation(
            ["covolume", "--tower", tower, "--type", lie, "--level", str(level)]
            + _fmt_args(f), "covolume-tower", fmt=f,
            props={"rank": O.parse_type(lie)[1], "format": f, "tower": tower,
                   "level": level}))
    # growth lower: every sixth type, towers cycling.  Its calls take 0.2 s to
    # 1.5 s; eight of them keep the tail percentile inside the 0.2 s bulk of
    # covolume --tower calls instead of on the edge between the two groups.
    for i in range(8):
        lie, tower, f = names[6 * i + i % 3], TOWERS[i % 3], next(fmts)
        # p' stays 3: a drawn p' moves a call's cost by up to a factor 2
        argv = ["growth", "lower", "--tower", tower, "--type", lie, "--pprime", "3"]
        if O.parse_type(lie)[1] < 2:
            argv.append("--rank-override")
        inv.append(Invocation(argv + _fmt_args(f), "growth-lower", fmt=f,
                              props={"rank": O.parse_type(lie)[1], "format": f,
                                     "tower": tower}))
    # growth upper scans with random residues; budgets over x_min^C1 exit 5
    for over in (False, False, False, True, True):
        while True:
            residues = [(rng.choice((2, 3, 5, 7, 11, 13)), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 3))]
            budget = math.prod(p ** e for p, e in residues)
            if (budget > 100) == over:
                break
        f = next(fmts)
        text = ",".join(f"{p}:{e}" for p, e in residues)
        inv.append(Invocation(
            ["growth", "upper", "--residues", text, "--C1", "1", "--x-min", "100"]
            + _fmt_args(f), "growth-upper", expect=5 if over else 0, fmt=f,
            props={"format": f, "residues": len(residues)}))
    f = next(fmts)
    inv.append(Invocation(["lie", "dump", "--max-rank", "12"] + _fmt_args(f), "lie-dump",
                          fmt=f, props={"format": f}))
    inv.append(Invocation(**{**inv[3].__dict__, "twin": "repeat"}))
    inv[3].twin = "repeat"
    rng.shuffle(inv)
    return inv


WORKLOADS = {"fields": fields, "euler": euler, "towers": towers}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
