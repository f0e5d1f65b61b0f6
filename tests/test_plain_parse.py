"""The plain parser against argparse: on every argv it takes, the namespace
is argparse's, attribute for attribute."""

import json
import random
import subprocess
import sys
from pathlib import Path

from latcount.cli import _build_parser, _parse_plain

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import fuzzargv  # noqa: E402

# perfbench/workloads.py imports perfbench's `oracles`, which this directory's
# oracles.py would shadow, so the corpus and workload argv are listed in a
# process of their own
_LIST = """
import json, shlex, sys
sys.path.insert(0, "tools")
import bytecorpus
corpus = [shlex.split(key) for key in bytecorpus.corpus()]
import workloads  # corpus() put perfbench on the path
print(json.dumps({
    "corpus": corpus,
    "workloads": [inv.argv for name in workloads.WORKLOADS for seed in (1, 2, 3)
                  for inv in workloads.generate(name, seed)],
}))
"""
FUZZ_SEED = 11
FUZZ_N = 2000


def _listed() -> dict:
    proc = subprocess.run([sys.executable, "-c", _LIST], capture_output=True, text=True,
                          cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _drawn() -> list:
    rng = random.Random(FUZZ_SEED)
    return [fuzzargv.draw(rng, Path("files")) for _ in range(FUZZ_N)]


def test_plain_namespaces_are_argparse_namespaces():
    listed = _listed()
    parser = _build_parser()
    taken = 0
    for argv in listed["corpus"] + _drawn() + listed["workloads"]:
        plain = _parse_plain(list(argv))
        if plain is None:
            continue
        try:
            expected = parser.parse_args(list(argv))
        except SystemExit as exc:
            raise AssertionError(f"{argv}: taken, but argparse exits {exc.code}") from None
        assert vars(plain) == vars(expected), argv
        taken += 1
    assert taken > FUZZ_N // 2
    # every benchmark call skips argparse
    assert len(listed["workloads"]) == 423
    assert [argv for argv in listed["workloads"] if _parse_plain(argv) is None] == []


def test_help_and_errors_are_left_to_argparse():
    for argv in (["--help"], ["field", "-h"], ["field"], ["covolume", "--type", "A1"],
                 ["covolume", "--field", "Q", "--tower", "martinet", "--type", "A1"],
                 ["field", "--poly", "x^2-2", "--poly", "x^2-3"], ["field", "--poly=x^2-2"],
                 ["field", "--pol", "x^2-2"], ["field", "--poly", "x^2-2", "--prec", "0x40"],
                 ["--prec", "96", "field", "--poly", "x^2-2"], ["growth", "--prec", "96"],
                 ["lie"], ["lie", "dump", "--max-rank"], ["pisot", "--poly", "x^2-2", "--place", "-1"],
                 ["field", "--poly", "x^2-2", "--format", "yaml"], ["field", "--poly", "x^2-2", "extra"]):
        assert _parse_plain(argv) is None, argv
