"""Alternating benchmark pairs of two source trees, written to one BENCH file.

    python3 tools/benchpair.py PARENT_TREE CHANGE_TREE --workload W --seed S
                               --pairs N --seconds T --out FILE

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each tree, with that tree as the working directory and that tree's own
perfbench, so each side is measured by the harness it ships.  The side that
goes first alternates from pair to pair, so a drift in host speed falls on
both sides alike.  From each run it keeps the JSON summary on the last line
of stdout, and from the tree's `.bench_build/records/W-seedS-trace0.json` the
batch_s note (host-clock batch and speed factor) and each call's argv,
`failed`, `bits` and `wall`.

FILE holds one entry per workload; a run replaces its own workload's entry
and keeps the others.  The entry gives, per end-to-end metric, every value of
each side, their median and quartiles, and the number of pairs in which the
change did better (the direction is the change tree's BENCHMARK.json; values
equal to nine digits tie and count for neither side).  It also gives
`correct` and `failed` per run, the command, and `git rev-parse HEAD` of each
tree that is a git checkout.

A `paired` block lists the argv that print on both sides, on the parent only
and on the change only; an argv prints on a side when none of its calls there
failed.  Over the calls of the both-print set it gives each side's mean bits
and median host-clock wall per call, so that a change which turns failures
into brackets can be told from one that widens them: enclosure_bits.mean
averages only the calls that print.  It is reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _commit(tree: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(tree: Path, command: list, workload: str, seed: int) -> dict:
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed in {tree}:\n{proc.stderr}")
    summary = json.loads(lines[-1])
    record = json.loads((tree / ".bench_build" / "records"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    summary["batch_note"] = record["notes"]["batch_s"]
    summary["calls"] = [(shlex.join(c["argv"]), c["failed"], c["bits"], c["wall"])
                        for c in record["calls"]]
    return summary


def _tie(a: float, b: float) -> bool:
    # a mean over a different number of rounds can move in its last bits
    return math.isclose(a, b, rel_tol=1e-9)


def _spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def _paired(runs: dict) -> dict:
    calls = {side: [c for r in runs[side] for c in r["calls"]] for side in SIDES}
    prints = {side: {c[0] for c in calls[side]} - {c[0] for c in calls[side] if c[1]}
              for side in SIDES}
    both = prints["parent"] & prints["change"]
    block = {"both": sorted(both),
             "parent_only": sorted(prints["parent"] - prints["change"]),
             "change_only": sorted(prints["change"] - prints["parent"])}
    for side in SIDES:
        kept = [c for c in calls[side] if c[0] in both]
        bits = [b for _, _, b, _ in kept if b is not None]
        block[side] = {"bits_mean": statistics.fmean(bits) if bits else None,
                       "wall_p50": statistics.median(w for _, _, _, w in kept) if kept else None}
    return block


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(_run(trees[side], command, args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['batch_note']}" for side in SIDES), file=sys.stderr)

    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry = {"unit": first["unit"], "better": better.get(name)}
        entry.update({side: _spread(values[side]) for side in SIDES})
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            pairs = zip(values["parent"], values["change"])
            entry["change_wins"] = sum(sign * (c - p) > 0 and not _tie(p, c) for p, c in pairs)
        metrics[name] = entry
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.workload] = {
        "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "command": command[1:],
        "commit": {side: _commit(trees[side]) for side in SIDES},
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [f"{r['failed']}/{r['attempted']}" for r in runs[side]]
                   for side in SIDES},
        "batch_note": {side: [r["batch_note"] for r in runs[side]] for side in SIDES},
        "metrics": metrics,
        "paired": _paired(runs),
    }
    args.out.write_text(json.dumps(dict(sorted(doc.items())), indent=1) + "\n",
                        encoding="utf-8")
    print(f"{args.pairs} pair(s) of {args.workload} seed {args.seed} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
