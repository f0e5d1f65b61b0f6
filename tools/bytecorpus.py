"""Byte-identity corpus: what every argv of a fixed list prints, per source tree.

    python3 tools/bytecorpus.py record TREE OUT.json
    python3 tools/bytecorpus.py diff A.json B.json

`record` runs each argv as a fresh `python -m latcount` with
PYTHONPATH=TREE/src and stores its exit code and the sha256 of its stdout
and stderr, and the stderr text itself where it is not empty, so that a
failure seen once can be read afterwards.  `diff` lists every argv whose
exit code or digests differ between two files and exits 1 if there is one.
A change that should not alter any report is checked by recording the
parent tree (a `git archive` copy) and the changed one, then diffing the
two files.

The argv are every `perfbench/workloads.py` invocation of seeds 1-3, the
README's example block, and a few extras: slow paths, Pisot and sign
certificates at a non-default place or precision, logarithms and pi past 512
bits, prime splitting that no workload reaches, quadratic fields on each side
of the closed-form cutoff and the factoring cap, cyclic cubics with and
without the closed form, among them cubics whose conductor Dedekind's
criterion narrows prime by prime, the Hurwitz series over imaginary
quadratic fields and at odd s and the pass past its work cap, a quadratic's
--known-disc other than d_K, refusals of oversized arguments (tower levels, prime
bounds and precisions among them), and usage, help and error texts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
EXTRAS = (
    "pisot --poly x^2-x-1 --prec 9000",
    "field --poly x^24+1000003x+1 --prec 128",
    "field --poly x^24+1000003x+1 --prec 512",
    "pisot --poly x^2-x-1 --prec 64 --place 1",
    "pisot --poly x^4-4x^2+2 --prec 64 --place 3",
    "pisot --poly x^3-3x+1 --place 1 --radius 3",
    "covolume --field x^3-3x+1 --type A2 --outer --alpha=-1,1,0 --prime-bound 1000 --prec 64",
    "covolume --field x^2-x-1 --type A2 --outer --alpha=-3,1 --prime-bound 1000 --prec 64",
    # the distinct-degree splitting of a non-cyclic cubic and of a quartic
    "covolume --field x^3-x-1 --type A1 --prime-bound 10000",
    "covolume --field x^4-4x^2+2 --type A1 --prime-bound 1000",
    # refusals: an unprintable residue budget, t past the base degree, t on a
    # tower that is not totally real, and --s-param without --outer
    "growth upper --residues 3:1000000",
    "growth upper --residues 3:10000000",
    "tower --name martinet --t 21 --levels 1",
    "tower --name martinet --t 100000",
    "tower --name golod-shafarevich --t 1",
    "covolume --field Q --type A1 --s-param 7",
    # the other flags without the flag they need, --extra on a call that does
    # not read the catalog, and sizes past a cap (kept small enough that a
    # tree without the caps finishes them in seconds)
    "covolume --tower martinet --type A2 --outer",
    "covolume --tower martinet --type A1 --alpha 0,1",
    "covolume --field Q --type A1 --level 3",
    "tower --t 1",
    "tower --levels 5",
    "field --poly x^2-2 --extra /nonexistent.json",
    "pisot --poly x^2-x-1 --radius 1000",
    "lie dump --max-rank 1000",
    "covolume --field Q --type A100",
    # the largest s(G) of an outer form up to the rank cap, and one past it
    "covolume --field x^2-x-1 --type A2 --outer --alpha=0,1 --s-param 560",
    "covolume --field x^2-x-1 --type A2 --outer --alpha=0,1 --s-param 561",
    # a covolume that cannot print, refused before its Euler pass
    "covolume --field x^4-4x^2+2 --type B32",
    # quadratic fields at the default bound: a non-maximal and an imaginary
    # Z[theta] (d_K 5 and -3), the closed form at s = 2, 4 and 2, 6, an outer
    # form with an odd s over a non-maximal order, the Euler pass at d_K =
    # 100049 past the closed-form cutoff, and a disc(Z[theta]) past the
    # factoring cap, refused
    "covolume --field x^2-45 --type A1",
    "covolume --field x^2+3 --type A1",
    "covolume --field x^2-10 --type B2",
    "covolume --field x^2-x-1 --type G2",
    "covolume --field x^2-5 --type A2 --outer --alpha 1,1",
    "covolume --field x^2-100049 --type A1",
    "covolume --field x^2-1000000000000000003 --type A1",
    # cyclic cubics of conductor 7, 9, 13, 19 and 37 (the last three Shanks's
    # x^3 - a x^2 - (a+3) x - 1 for a = 1, 2, 4) at even s, where zeta_K is
    # exact, Shanks's a = 3, whose disc(Z[theta]) is 27^2 (conductor 9), and
    # A2's odd s
    "covolume --field x^3+x^2-2x-1 --type A1",
    "covolume --field x^3+x^2-2x-1 --type B2",
    "covolume --field x^3+x^2-2x-1 --type G2",
    "covolume --field x^3+x^2-2x-1 --type E8",
    "covolume --field x^3-3x+1 --type A1",
    "covolume --field x^3-3x+1 --type B2",
    "covolume --field x^3-3x+1 --type G2",
    "covolume --field x^3-3x+1 --type E8",
    "covolume --field x^3-x^2-4x-1 --type A1",
    "covolume --field x^3-x^2-4x-1 --type B2",
    "covolume --field x^3-x^2-4x-1 --type G2",
    "covolume --field x^3-x^2-4x-1 --type E8",
    "covolume --field x^3-2x^2-5x-1 --type A1",
    "covolume --field x^3-2x^2-5x-1 --type B2",
    "covolume --field x^3-2x^2-5x-1 --type G2",
    "covolume --field x^3-2x^2-5x-1 --type E8",
    "covolume --field x^3-4x^2-7x-1 --type A1",
    "covolume --field x^3-4x^2-7x-1 --type B2",
    "covolume --field x^3-4x^2-7x-1 --type G2",
    "covolume --field x^3-4x^2-7x-1 --type E8",
    "covolume --field x^3-3x^2-6x-1 --type A1",
    "covolume --field x^3+x^2-2x-1 --type A2",
    # the Hurwitz series: imaginary quadratic fields at even and odd s (d_K
    # -4, -3, -7 and -24, disc(Z[theta]) = -216), odd s over a real quadratic
    # and a cyclic cubic, and the pass where the series would cost more: an
    # outer form, d_K = -1299 at the default precision, and 4096 bits
    *(f"covolume --field x^2+{a} --type {t}" for a in (1, 3, 7, 54)
      for t in ("A1", "A2", "B2", "G2", "E8")),
    "covolume --field x^2-5 --type A2",
    # cyclic cubics whose disc(Z[theta]) = m^2 has several divisors of
    # conductor form, narrowed prime by prime by Dedekind's criterion: m = 63
    # (maximal, conductor 63 of two fields, so the pass), m = 133, 91 and 333
    # (index 7, 13 and 37: conductors 19, 7 and 9, the closed form), m = 511
    # (index 7: conductor 73, the series at s = 3) and m = 189 (index 27 or 3:
    # conductors 7 and 63, the hull of their discs and the pass)
    "covolume --field x^3-6x^2-9x-1 --type A1",
    "covolume --field x^3-3x^2-16x-1 --type A1",
    "covolume --field x^3-10x^2+17x-1 --type A1",
    "covolume --field x^3-24x^2+45x-19 --type A1",
    "covolume --field x^3-18x^2+35x+3 --type A2",
    "covolume --field x^3+15x^2+12x-1 --type A1",
    "covolume --field x^2+7 --type A2 --outer --alpha 1,1 --prime-bound 10000",
    "covolume --field x^2+1299 --type A1",
    "covolume --field x^2+7 --type A1 --prec 4096",
    # a tower level, prime bound and precision too large to build: refused
    # from the level's bit length and the caps, a traceback without them
    "tower --name martinet --levels 10000000000000000000",
    "growth lower --tower martinet --type A2 --pprime 3 --levels 10000000000000000000",
    "covolume --tower martinet --type A2 --level 10000000000000000000",
    "covolume --field x^2-5 --type A1 --prime-bound 10000000000000000000",
    "--prec 100000000000000000000 field --poly x^2-2",
    # logarithms and pi above 512 bits, which no workload reaches
    "growth lower --tower golod-shafarevich --type B4 --pprime 5 --levels 4 --c4 7/1000000 --prec 10000",
    "growth lower --tower martinet --type A2 --pprime 3 --prec 2048",
    "tower --name martinet --t 3 --prec 4096",
    "growth upper --residues 2:1,3:1 --prec 4096",
    "covolume --tower hajir-maire --type B2 --level 1 --prec 2048",
    # a quadratic's known disc must be d_K: 45 is refused, 5 is kept
    "field --poly x^2-45 --known-disc 45",
    "field --poly x^2-45 --known-disc 5",
    # usage, help and error texts, which depend on how the parser is built
    "",
    "--help",
    "-h",
    "--help field",
    "--version",
    "-- field --poly x^2-2",
    "field --help",
    "pisot -h",
    "tower --help",
    "covolume --help",
    "growth --help",
    "growth lower --help",
    "growth upper -h",
    "lie --help",
    "lie dump --help",
    "bogus",
    "growth",
    "lie",
    "growth bogus",
    "field",
    "covolume --type A1",
    "field --poly x^2-2 --bogus",
    "field --poly x^2-2 extra",
    "--prec 64 field --poly x^2-2",
    "--format=json field --poly x^2-2",
    "--pre 64 field --poly x^2-2",
    "field --pol x^2-2",
    "--prec abc field --poly x^2-2",
    "--prec 64",
    "field --poly x^2-2 --pre 64",
    "field --poly x^2-2 --format yaml",
    "covolume --field Q --tower martinet --type A1",
    "growth lower --tower martinet --type A2",
    "growth --prec 96 lower --tower martinet --type A2 --pprime 3",
    "lie dump --max-rank x",
    "--config /nonexistent field --poly x^2-2",
    "--format csv lie dump --max-rank 1",
    # the edge of the parse that skips argparse: a repeated flag (the last
    # one wins), an attached value, an int that int() reads with a space but
    # not in hex, a global flag first, and flags in any order
    "field --poly x^2-2 --poly x^2-3",
    "field --poly=x^2-2",
    "field --poly x^2-2 --prec ' 64'",
    "field --poly x^2-2 --prec 0x40",
    "--prec 96 field --poly x^2-2",
    "covolume --type A1 --field Q --prec 96 --format json",
)
CALL_LIMIT_S = 600
JOBS = 4


def corpus() -> list:
    """The argv, each once, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    import workloads

    argvs = [inv.argv for name in workloads.WORKLOADS for seed in SEEDS
             for inv in workloads.generate(name, seed)]
    # the fenced block under "Examples:", as tests/test_cli.py reads it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```\n", readme.index("\nExamples:")) + 4
    block = readme[start : readme.index("```", start)]
    argvs += [shlex.split(line)[1:] for line in block.splitlines()]
    argvs += [shlex.split(line) for line in EXTRAS]
    return list(dict.fromkeys(shlex.join(argv) for argv in argvs))


def _run(tree: Path, key: str, cwd: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "latcount"] + shlex.split(key),
                              capture_output=True, env=env, cwd=cwd, timeout=CALL_LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout"}
    out = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest(),
           "stderr": hashlib.sha256(proc.stderr).hexdigest()}
    if proc.stderr:
        out["stderr_text"] = proc.stderr.decode("utf-8", "replace")
    return out


def record(tree: str, out: str) -> int:
    keys, root = corpus(), Path(tree).resolve()
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(JOBS) as pool:
        results = pool.map(lambda key: _run(root, key, cwd), keys)
        doc = dict(zip(keys, results))
    Path(out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(doc)} argv recorded from {tree} in {out}")
    return 0


def diff(a: str, b: str) -> int:
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (a, b)]
    differ = {}
    for key in dict.fromkeys(list(docs[0]) + list(docs[1])):
        sides = [doc.get(key) or {} for doc in docs]
        fields = [f for f in ("exit", "stdout", "stderr") if sides[0].get(f) != sides[1].get(f)]
        if fields:
            differ[key] = fields
    for key, fields in differ.items():
        print(f"{key}: {', '.join(fields)} differ")
    print(f"{len(differ)} of {len(set(docs[0]) | set(docs[1]))} argv differ")
    return 1 if differ else 0


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] in ("record", "diff"):
        return (record if argv[0] == "record" else diff)(*argv[1:])
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
