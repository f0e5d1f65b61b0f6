"""Seeded argv fuzzer: random latcount calls, run in process, checked for
failures that the program should have worded itself.

    python3 tools/fuzzargv.py SEED N

Draws N argv from SEED and runs each through `latcount.cli.entry` in this
process, with stdout and stderr captured and a SIGALRM cap of CAP_S seconds
per call.  A call fails the check when

- an exception escapes entry (argparse's SystemExit is an exit code),
- its exit code is not one of README's (EXIT_CODES),
- a stderr line holds Python's own wording (WORDING) and no KNOWN fragment,
- it is still running at its cap.

The draw covers every subcommand with valid and invalid values: 18-digit
primes for --p0, --pprime and --residues, residue degrees up to 10^7,
tower levels up to 10^5 and 10^18 + 3 for `covolume --tower --level`,
`growth lower --levels` and `tower --levels`, `tower --t` on both sides of
the base degree 20 and up to 10^18 + 3, `pisot --radius`, `lie dump
--max-rank`, Lie type ranks, `covolume --s-param`, --prec and --prime-bound
one past their caps and at 10^18 + 3, covolumes over a quadratic field
whose disc(Z[theta]) is past the factoring cap, --prec up to 10^4 below
its cap (never at it: a call there can outrun the alarm), --config and
--extra files with wrong types, --extra on calls that do not read the
catalog, flags without the flag they need
(`covolume --tower --alpha`, `covolume --field --level`, `tower --t` or
`--levels` without `--name`), and argv that argparse must reject.

Each failure is printed with its argv (the files they name are rewritten
from FILES on every run); the exit status is 1 if there is one.  Needs a
POSIX SIGALRM; uses the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from latcount.cli import MAX_PREC, MAX_PRIME_BOUND, entry  # noqa: E402
from latcount.liedata import MAX_RANK, MAX_S_PARAM, dump_table  # noqa: E402
from latcount.polymod import is_prime  # noqa: E402

# `tower --levels 14280` prints 31 MB in about 2 s, and `tower --t 3 --prec
# 10000` takes about 7 s, on a shared Xeon core; a slower host gets 4x room
CAP_S = 30.0
EXIT_CODES = {0, 1, 2, 3, 4, 5, 64}
WORDING = ("Traceback", "invalid literal", "Exceeds the limit")
# ROADMAP item -> the stderr fragment of its open defect.  This list may only
# shrink: the change that mends an item deletes its entry.
KNOWN = {
    5: "Exceeds the limit",  # the int->str digit limit in the report layer
}

TOWERS = ("martinet", "hajir-maire", "golod-shafarevich")
FAMILIES = "ABCDEFG"
TYPES = tuple(f"{row['family']}{row['rank']}" for row in dump_table(12))
POLYS = ("x^2-5", "x^2-x-1", "x^2-2", "x^2+1", "x^2-45", "x^3-x-1", "x^3-3x+1",
         "x^3-x^2-3x+1", "x^4-4x^2+2", "x^5-x-1", "x^6+x+1", "Q", "x-1", "x^2",
         "x^2-1", "2x^2-1", "x^2+x", "x^^2", "x^2-", "", "abc", "x^-1", "y^2-2")
# a quadratic whose disc(Z[theta]) = 4 (10^18 + 3) is past polymod.MAX_FACTOR
PAST_FACTOR_CAP = "x^2-1000000000000000003"
TOTALLY_REAL = ("x^2-x-1", "x^2-2", "x^2-5", "x^3-3x+1", "x^3-x^2-2x+1", "x^4-4x^2+2")
_ROW = {"name": "t", "base_degree": 2, "degree_rule": "doubling",
        "rd_constant": ["2", "3"], "total_real": True}
# file name -> contents, written fresh into a temporary directory per run
FILES = {
    "prec-str.json": '{"prec": "abc"}',
    "prec-float.json": '{"prec": 2.5}',
    "prec-bool.json": '{"prec": true}',
    "prec-big.json": '{"prec": 1e400}',
    "bound-list.json": '{"prime_bound": [1]}',
    "format-int.json": '{"format": 5}',
    "format-yaml.json": '{"format": "yaml"}',
    "threads-null.json": '{"threads": null}',
    "params-list.json": '{"bound_params": []}',
    "params-str.json": '{"bound_params": {"C": "x"}}',
    "params-zero.json": '{"bound_params": {"C1": "1/0", "c4": -1}}',
    "params-float.json": '{"bound_params": {"s_embed": 1.5}}',
    "params-key.json": '{"bound_params": {"bogus": 1}}',
    "top-list.json": "[1, 2]",
    "top-str.json": '"text"',
    "not-json.json": "not json",
    "good.json": '{"prec": 96, "bound_params": {"C1": "1/2", "c4": 0}}',
    "extra-good.json": json.dumps([_ROW]),
    "extra-obj.json": json.dumps(_ROW),
    "extra-low.json": json.dumps([dict(_ROW, rd_constant=["1/2", "3"])]),
    "extra-small-c1.json": json.dumps([dict(_ROW, rd_constant=["1.5", "1.6"])]),
    "extra-rd-str.json": json.dumps([dict(_ROW, rd_constant="2")]),
    "extra-rd-bad.json": json.dumps([dict(_ROW, rd_constant=["x", None])]),
    "extra-degree.json": json.dumps([dict(_ROW, base_degree=2.7)]),
    "extra-degree-zero.json": json.dumps([dict(_ROW, base_degree=0)]),
    "extra-real.json": json.dumps([dict(_ROW, total_real="false")]),
    "extra-name.json": json.dumps([dict(_ROW, name=5)]),
    "extra-missing.json": json.dumps([{"name": "t"}]),
    "extra-dup.json": json.dumps([dict(_ROW, name="martinet")]),
    "extra-row-list.json": "[[1, 2]]",
}
MISSING = "no-such-file.json"


class Result(NamedTuple):
    argv: list
    code: object  # the exit code, or the exception that escaped, or "timeout"
    seconds: float
    err: str
    problem: str  # "" when the call passes every check


class _CallTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in latcount catches it."""


# ================================================================= the draw

def _prime18(rng: random.Random) -> int:
    n = rng.randrange(10 ** 17, 10 ** 18) | 1
    while not is_prime(n):
        n += 2
    return n


def _int(rng: random.Random, typical: tuple) -> str:
    """A typical value mostly, sometimes an edge value or text int() rejects."""
    r = rng.random()
    if r < 0.8:
        return str(rng.choice(typical))
    if r < 0.9:
        return str(rng.choice((0, -1, 1, 10 ** 5, 10 ** 18 + 3)))
    return rng.choice(("abc", "1.5", "", "0x10", "1e3", "--"))


def _prime(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.6:
        return str(rng.choice((2, 3, 5, 7, 11, 13)))
    if r < 0.8:
        return str(_prime18(rng))
    return str(rng.choice((0, 1, -3, 4, 9, 10 ** 18, 3 * _prime18(rng))))


def _level(rng: random.Random, typical: tuple) -> str:
    """Levels: mostly typical, sometimes up to 10^5, 10^18 + 3 or not positive."""
    r = rng.random()
    if r < 0.75:
        return str(rng.choice(typical))
    if r < 0.95:
        return str(int(10 ** rng.uniform(1, 5)))
    return str(rng.choice((0, -1, 10 ** 18 + 3)))


def _type(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.7:
        return rng.choice(TYPES)
    if r < 0.85:
        return rng.choice(FAMILIES) + str(rng.randint(1, 12))
    if r < 0.9:
        return rng.choice("ABCD") + str(rng.choice((MAX_RANK, MAX_RANK + 1, 300, 10 ** 18 + 3)))
    return rng.choice(("A0", "E9", "Z3", "G3", "A", "a2", "B1", "D3", "F5", "A-1"))


def _rational(rng: random.Random) -> str:
    return rng.choice(("0", "1", "1/2", "3", "2/3", "100", "10/3", "1000000",
                       "1/0", "-1", "abc", "1.5", "0.1", "7/1000000"))


def _poly(rng: random.Random) -> str:
    if rng.random() < 0.8:
        return rng.choice(POLYS)
    degree = rng.randint(2, 6)
    terms = [f"x^{degree}"] + [f"{rng.randint(-9, 9):+d}x^{i}" for i in range(degree - 1, -1, -1)
                                if rng.random() < 0.5]
    return "".join(terms) or "x^2+1"


def _tower(rng: random.Random) -> str:
    """A catalog name mostly; "t" is the row of the --extra files."""
    return rng.choice(TOWERS) if rng.random() < 0.85 else rng.choice(("nothere", "t"))


def _field(rng: random.Random) -> list:
    argv = ["field", "--poly", _poly(rng)]
    if rng.random() < 0.2:
        argv += ["--known-disc", _int(rng, (5, 20, -23, 0))]
    return argv


def _pisot(rng: random.Random) -> list:
    argv = ["pisot", "--poly", rng.choice(TOTALLY_REAL + ("x^3-x-1", "x^2+1", "x^2"))]
    if rng.random() < 0.3:
        argv += ["--place", _int(rng, (0, 1, 2, 3, 5))]
    if rng.random() < 0.3:
        argv += ["--radius", _int(rng, (0, 1, 3, 5, 8, 157, 158))]
    return argv


def _tower_cmd(rng: random.Random) -> list:
    argv = ["tower"]
    if rng.random() < 0.8:
        argv += ["--name", _tower(rng)]
    if rng.random() < 0.8:
        argv += ["--levels", _level(rng, (1, 2, 3, 5, 12))]
    if rng.random() < 0.4:
        argv += ["--t", _int(rng, (1, 2, 3, 4, 20, 21, 10 ** 5))]
    return argv


def _covolume(rng: random.Random) -> list:
    argv = ["covolume", "--type", _type(rng)]
    # --level needs --tower and --alpha needs --field; each sometimes comes
    # with the other
    if rng.random() < 0.5:
        argv += ["--tower", _tower(rng), "--level", _level(rng, (0, 1, 2, 3, 5))]
        if rng.random() < 0.1:
            argv += ["--alpha", "0,1"]
    else:
        argv += ["--field", rng.choice(("Q", "Q", "x^2-5", "x^2-x-1", "x^2+1", "x^2+3",
                                        "x^3-x-1", PAST_FACTOR_CAP)),
                 "--prime-bound", rng.choice(("100", "1000", "10000", "99"))]
        if rng.random() < 0.1:
            argv += ["--level", _level(rng, (1, 2, 3))]
        if rng.random() < 0.3:
            argv += ["--outer", "--alpha=" + rng.choice(("-3", "-1,0", "1,1", "0,1", "-1,1", "x"))]
            if rng.random() < 0.5:
                argv += ["--s-param", _int(rng, (3, 5, MAX_S_PARAM, MAX_S_PARAM + 1))]
    if rng.random() < 0.3:
        argv += ["--p0", _prime(rng)]
    return argv


def _growth_lower(rng: random.Random) -> list:
    argv = ["growth", "lower", "--tower", _tower(rng), "--type", _type(rng),
            "--pprime", _prime(rng), "--levels", _level(rng, (1, 2, 3, 4))]
    if rng.random() < 0.3:
        argv += ["--p0", _prime(rng)]
    if rng.random() < 0.4:
        argv += ["--c4", _rational(rng)]
    if rng.random() < 0.5:
        argv.append("--rank-override")
    return argv


def _growth_upper(rng: random.Random) -> list:
    argv = ["growth", "upper"]
    if rng.random() < 0.7:
        pairs = []
        for _ in range(rng.randint(1, 3)):
            p = _prime(rng) if rng.random() < 0.7 else rng.choice(("x", "2:", ":1", "2:0", "2:-1"))
            f = str(rng.choice((1, 1, 2, 3, 100, 10000, 10 ** 6, 10 ** 7)))
            pairs.append(p if ":" in p else f"{p}:{f}")
        argv += ["--residues", ",".join(pairs)]
    if rng.random() < 0.5:
        argv += ["--C1", _rational(rng)]
    if rng.random() < 0.3:
        argv += ["--x-min", _int(rng, (2, 100, 1000)), "--x-max", _int(rng, (10 ** 6, 10 ** 30, 50))]
    if rng.random() < 0.2:
        argv += ["--s-embed", _int(rng, (1, 2, 3))]
    return argv


def _lie(rng: random.Random) -> list:
    return ["lie", "dump", "--max-rank", _int(rng, (1, 4, 8, 12, MAX_RANK, MAX_RANK + 1))]


def _rejected(rng: random.Random) -> list:
    """argv that argparse must refuse with exit 64."""
    return rng.choice((
        [], ["bogus"], ["growth"], ["lie"], ["growth", "bogus"], ["field"],
        ["covolume", "--type", "A1"], ["field", "--poly", "x^2-2", "--bogus"],
        ["field", "--poly", "x^2-2", "extra"], ["--prec", "abc", "lie", "dump"],
        ["lie", "dump", "--max-rank", "x"], ["--format", "yaml", "lie", "dump"],
        ["covolume", "--field", "Q", "--tower", "martinet", "--type", "A1"],
        ["growth", "lower", "--tower", "martinet", "--type", "A2"],
        ["pisot", "--poly", "x^2-2", "--place"], ["tower", "--levels", "1.5"],
    ))


COMMANDS = ((_field, 2), (_pisot, 1), (_tower_cmd, 2), (_covolume, 4),
            (_growth_lower, 3), (_growth_upper, 2), (_lie, 1), (_rejected, 1))


def _globals(rng: random.Random, files: Path) -> list:
    argv = []
    if rng.random() < 0.3:
        argv += ["--prec", rng.choice(("64", "96", "128", "256", "512", "63", "2048"))
                 if rng.random() < 0.9 else rng.choice(("10000", str(MAX_PREC + 1), str(10 ** 18 + 3)))]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(("json", "csv", "table"))]
    for flag, prefix in (("--config", ""), ("--extra", "extra-")):
        if rng.random() < 0.15:
            # mostly a file meant for the flag, sometimes any file
            names = sorted(FILES) + [MISSING]
            if rng.random() < 0.8:
                names = [n for n in names if n.startswith("extra-") == bool(prefix)]
            argv += [flag, str(files / rng.choice(names))]
    if rng.random() < 0.05:
        argv += ["--threads", rng.choice(("0", "1", "8"))]
    if rng.random() < 0.05:
        argv += ["--prime-bound", rng.choice(("99", "100", "1000", str(MAX_PRIME_BOUND + 1), str(10 ** 18 + 3)))]
    return argv


def draw(rng: random.Random, files: Path) -> list:
    """One argv; the global flags go before or after the subcommand."""
    commands, weights = zip(*COMMANDS)
    argv = rng.choices(commands, weights)[0](rng)
    flags = _globals(rng, files)
    if argv and argv[0] == "growth" and rng.random() < 0.2:
        return argv[:2] + flags + argv[2:]
    return flags + argv if rng.random() < 0.5 else argv + flags


# ================================================================ running

def _alarm(signum, frame):
    raise _CallTimeout()


def run_one(argv: list, cap: float = CAP_S) -> Result:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(list(argv))
    except SystemExit as exc:
        code = exc.code
    except _CallTimeout:
        code = "timeout"
    except Exception as exc:  # anything else escaped entry
        code = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    text = err.getvalue()
    if code == "timeout":
        problem = f"still running after {cap} s"
    elif isinstance(code, BaseException):
        problem = f"{type(code).__name__} escaped entry: {code}"
    elif code not in EXIT_CODES:
        problem = f"exit code {code!r}"
    else:
        problem = next((f"Python's wording: {line}" for line in text.splitlines()
                        if any(w in line for w in WORDING)
                        and not any(k in line for k in KNOWN.values())), "")
    return Result(list(argv), code, seconds, text, problem)


def fuzz(seed: int, n: int, cap: float = CAP_S) -> list:
    """Draw and run n argv from seed; one Result each, in draw order."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        for name, text in FILES.items():
            (files / name).write_text(text, encoding="utf-8")
        results = []
        for _ in range(n):
            argv = draw(rng, files)
            if argv[:2] == ["growth", "lower"] and rng.random() < 0.1:
                argv += ["--out", str(files / "report")]  # its files land here too
            results.append(run_one(argv, cap))
        return results


def main(argv: list) -> int:
    if len(argv) != 2 or not all(a.isdigit() for a in argv) or int(argv[1]) < 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    seed, n = map(int, argv)
    start = time.perf_counter()
    results = fuzz(seed, n)
    failed = [r for r in results if r.problem]
    for r in failed:
        print(f"FAIL {' '.join(r.argv)!r}: {r.problem}")
    known = sum(1 for r in results if any(k in r.err for k in KNOWN.values()))
    codes = Counter(str(r.code) for r in results)
    slowest = max(results, key=lambda r: r.seconds)
    print(f"{len(results)} argv from seed {seed} in {time.perf_counter() - start:.1f} s: "
          f"{len(failed)} failed, {known} known (ROADMAP items {sorted(KNOWN)}); "
          f"exit codes {dict(sorted(codes.items()))}; slowest {slowest.seconds:.2f} s "
          f"({' '.join(slowest.argv)!r})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
