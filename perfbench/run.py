"""latcount CLI benchmark: closed loop, one client, fresh process per call.

    python3 perfbench/run.py --workload {fields,euler,towers,all} --seed N
                             --seconds S --trace {0,1}

Run from the root of a latcount checkout.  Each workload is a seeded round of
`python -m latcount ...` invocations (see workloads.py), run one after
another, each in a fresh interpreter with cold caches: the cost a user pays
per call.  Rounds repeat while the next one is expected to finish within
--seconds; at least one round always runs.  Every output is checked against
the oracles in check.py, and repeated argv must print identical bytes.

--trace 0 reports the end-to-end metrics, with times scaled to a reference
host speed measured by calibration children between calls (see Speed).
--trace 1 runs each invocation twice, plain and under shim.py, and reports
per-layer call counts, self times and ratios, plus the tracing overhead
(traced minus plain round time), all on the host clock.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The argv list, a summary of input properties and the per-call
results are written to .bench_build/records/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import shim  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_SAMPLES = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
ROUND_LIMIT_S = 150  # one round must end well inside the 180 s run limit
CALL_LIMIT_S = 120
BUILD = Path(".bench_build")

# A fixed task in latcount's mix of work (start-up, imports, exact rationals,
# big integers and their decimal rendering), run in a fresh interpreter.  It
# touches only the standard library and mpmath, which no change to latcount
# can speed up.
CALIBRATION = """
import argparse, csv, dataclasses, json, re
import mpmath
from fractions import Fraction
acc = Fraction(0)
for k in range(1, 3000):
    acc += Fraction(1, k * k)
n = 1
for k in range(1, 6000):
    n = n * k % (1 << 4096) + k
s = sum(len(str(3 ** e)) for e in range(0, 8000, 100))
"""
CAL_REF_S = 0.15   # the calibration time that defines the reference speed
CAL_EVERY = 2      # one calibration child per this many calls


# ------------------------------------------------------------ child processes

class Runner:
    """Starts fresh interpreters on the checkout's sources and times them."""

    def __init__(self, root: Path):
        self.work = root / BUILD / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # bytecode caches go under the build directory, not into src/
        self.env["PYTHONPYCACHEPREFIX"] = str(root / BUILD / "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, args: list) -> dict:
        """Run a child to completion; wall time, rusage, exit, output."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=self.work)
            # wait4 gives this child's own rusage; the timer bounds a hung call
            killer = threading.Timer(CALL_LIMIT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(errors="replace"),
        }

    def cli(self, argv: list) -> dict:
        return self.run(["-m", "latcount"] + argv)

    def traced(self, argv: list) -> tuple:
        trace_path = self.work / "trace.json"
        res = self.run([str(HERE / "shim.py"), str(trace_path)] + argv)
        return res, json.loads(trace_path.read_text())


class Speed:
    """Host speed over a run, from calibration children between its calls.

    On a shared host the CPU speed a run gets drifts by up to a half over
    minutes, and the calibration task slows down with the program.  Every
    time metric is therefore scaled by CAL_REF_S over the median calibration
    time of the run: seconds at a fixed reference speed.  (Scaling each call
    by the samples nearest to it was tried; the spread between runs grew.)
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.walls = []

    def sample(self) -> None:
        res = self.runner.run(["-c", CALIBRATION])
        if res["exit"] != 0:
            raise SystemExit("calibration task failed:\n" + res["stderr"])
        self.walls.append(res["wall"])

    def factor(self) -> float:
        return CAL_REF_S / statistics.median(self.walls)


def setup_s(runner: Runner, speed: Speed) -> float:
    """Median time of a fresh interpreter importing latcount.cli."""
    args = ["-c", "import latcount.cli"]
    warm = runner.run(args)  # the first import writes the bytecode cache
    if warm["exit"] != 0:
        raise SystemExit("cannot import latcount.cli:\n" + warm["stderr"])
    walls = []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        walls.append(runner.run(args)["wall"])
    return statistics.median(walls)


# ------------------------------------------------------------------- a round

class Ledger:
    """Outcomes of every invocation, and the byte hashes that must repeat."""

    def __init__(self):
        self.records = []
        self.by_argv = {}
        self.by_twin = {}
        self.unexpected = []

    def add(self, inv, res: dict, rnd: int, traced_stdout=None) -> None:
        outcome = check.check(inv, res["exit"], res["stdout"].decode(), res["stderr"])
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        mismatch = []
        key = "\0".join(inv.argv)
        if self.by_argv.setdefault(key, digest) != digest:
            mismatch.append("repeated argv printed different bytes")
        if inv.twin and self.by_twin.setdefault(inv.twin, digest) != digest:
            mismatch.append(f"twin {inv.twin} printed different bytes")
        if traced_stdout is not None and traced_stdout != res["stdout"]:
            mismatch.append("traced run printed different bytes")
        if mismatch:
            outcome.failed = outcome.wrong = True
            outcome.known = ""
            outcome.reason = "; ".join(mismatch)
        if outcome.failed and not outcome.known:
            self.unexpected.append((inv.argv, outcome.reason))
        rec = {"round": rnd, "argv": inv.argv, "kind": inv.kind, "wall": res["wall"],
               "cpu": res["cpu"], "rss_mb": res["rss_mb"], "exit": res["exit"],
               "failed": outcome.failed, "wrong": outcome.wrong, "known": outcome.known,
               "reason": outcome.reason, "bits": outcome.bits, "sha256": digest}
        self.records.append(rec)


def _rounds(seconds: float, body) -> int:
    """Call body(round) while the next round is expected to fit in seconds."""
    start = time.perf_counter()
    rnd = 0
    while True:
        t0 = time.perf_counter()
        body(rnd)
        rnd += 1
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rnd


# ------------------------------------------------------------------- metrics

def _tail(walls: list) -> tuple:
    """(value, percentile): the sample with TAIL_BEYOND samples above it."""
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(records: list, rounds: int, setup: float, speed: float) -> tuple:
    """Times are scaled by speed to the reference speed (see Speed)."""
    per_round = [[r for r in records if r["round"] == i] for i in range(rounds)]
    tails = [_tail([r["wall"] for r in rr]) for rr in per_round]
    bits = [r["bits"] for r in records if r["bits"] is not None and not r["failed"]]
    n = len(records)
    batch = statistics.median(sum(r["wall"] for r in rr) for rr in per_round)
    metrics = {
        "setup_s": (setup * speed, "s"),
        "batch_s": (batch * speed, "s"),
        "cmd_s.p50": (statistics.median(r["wall"] for r in records) * speed, "s"),
        "cmd_s.tail": (statistics.median(t[0] for t in tails) * speed, "s"),
        "cpu_s": (statistics.median(sum(r["cpu"] for r in rr) for rr in per_round) * speed, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "failed_ratio": (sum(r["failed"] for r in records) / n, "ratio"),
        "wrong_ratio": (sum(r["wrong"] for r in records) / n, "ratio"),
        "enclosure_bits.p50": (statistics.median(bits) if bits else 0.0, "bits"),
        "enclosure_bits.mean": (statistics.fmean(bits) if bits else 0.0, "bits"),
        "enclosure_bits.min": (min(bits) if bits else 0.0, "bits"),
    }
    notes = {
        "batch_s": f"{batch:.3f} s on the host clock, speed factor {speed:.4f}",
        "cmd_s.tail": f"p{tails[0][1]:.1f} of each round's {len(per_round[0])} calls, "
                      f"median over {rounds} round(s)",
        "cmd_s.p50": f"over {n} calls",
        "failed_ratio": f"{sum(r['failed'] for r in records)} of {n} calls",
        "wrong_ratio": f"{sum(r['wrong'] for r in records)} of {n} calls",
        "enclosure_bits.p50": f"over {len(bits)} headline brackets",
        "enclosure_bits.mean": f"over {len(bits)} headline brackets",
    }
    return metrics, notes


def per_layer(traces: list, rounds: int, plain: list, traced: list) -> tuple:
    """Per-round sums of the shim's counters; medians over rounds."""
    def per_round(getter) -> float:
        sums = [0.0] * rounds
        for rnd, doc in traces:
            sums[rnd] += getter(doc)
        return statistics.median(sums)

    metrics, notes = {}, {}
    for layer, names in shim.LAYERS.items():
        total = 0.0
        for qual in names:
            name = f"{layer}.{qual}"
            metrics[name + ".calls"] = (per_round(lambda d: d["calls"].get(name, 0)), "count")
            self_s = per_round(lambda d: d["self_s"].get(name, 0.0))
            metrics[name + ".self_s"] = (self_s, "s")
            total += self_s
        metrics[layer + ".self_s"] = (total, "s")
    metrics["cli.import_s"] = (statistics.median(d["import_s"] for _, d in traces), "s")

    def ratio(metric: str, num, den, base: str) -> None:
        a, b = per_round(num), per_round(den)
        metrics[metric] = (a / b if b else 0.0, "ratio")
        notes[metric] = f"{a:g} / {b:g} {base} per round"

    ratio("prasad.prime_splitting.factor_ratio",
          lambda d: d["nested"]["polymod.distinct_degree_degrees<prasad.prime_splitting"],
          lambda d: d["calls"].get("prasad.prime_splitting", 0), "prime_splitting calls")
    ratio("prasad.covolume.per_cmd", lambda d: d["calls"].get("prasad.covolume", 0),
          lambda d: 1 if d["calls"].get("prasad.covolume") else 0,
          "commands that call covolume")
    ratio("pisot_tower.find_pisot.evals_per_call",
          lambda d: d["nested"]["numfield.evaluate_at_embeddings<pisot_tower.find_pisot"],
          lambda d: d["calls"].get("pisot_tower.find_pisot", 0), "find_pisot calls")
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    notes["trace.overhead_s"] = f"traced batch {traced_s:.3f} s - plain batch {plain_s:.3f} s"
    return metrics, notes


# ---------------------------------------------------------------------- main

def _shares(invs: list) -> dict:
    """Share of the round having each value of each input property."""
    keys = sorted({k for inv in invs for k in inv.props})
    out = {}
    for key in keys:
        counts = Counter(str(inv.props.get(key, "-")) for inv in invs)
        out[key] = {v: round(c / len(invs), 4) for v, c in sorted(counts.items())}
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root)
    speed = Speed(runner)
    setup = setup_s(runner, speed)
    invs = generate(workload, seed)
    ledger = Ledger()
    traces, plain_walls, traced_walls = [], [], []

    def one_round(rnd: int) -> None:
        plain = traced = 0.0
        started = time.perf_counter()
        for i, inv in enumerate(invs):
            if i % CAL_EVERY == 0:
                speed.sample()
            res = runner.cli(inv.argv)
            plain += res["wall"]
            traced_stdout = None
            if trace:
                tres, doc = runner.traced(inv.argv)
                traced += tres["wall"]
                traces.append((rnd, doc))
                traced_stdout = tres["stdout"]
            ledger.add(inv, res, rnd, traced_stdout)
            if time.perf_counter() - started > ROUND_LIMIT_S:
                raise SystemExit(f"{workload} round exceeded {ROUND_LIMIT_S} s")
        speed.sample()
        plain_walls.append(plain)
        traced_walls.append(traced)

    rounds = _rounds(seconds, one_round)
    if trace:
        metrics, notes = per_layer(traces, rounds, plain_walls, traced_walls)
    else:
        metrics, notes = end_to_end(ledger.records, rounds, setup, speed.factor())
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "argv": [inv.argv for inv in invs],
        "properties": _shares(invs), "metrics": metrics, "notes": notes,
        "unexpected": ledger.unexpected, "calls": ledger.records,
    }
    out_dir = root / BUILD / "records"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return record


def _print_summary(rec: dict) -> None:
    print(f"== {rec['workload']} seed {rec['seed']}: {rec['rounds']} round(s) of "
          f"{len(rec['argv'])} calls, {len(rec['calls'])} run")
    for name, (value, unit) in rec["metrics"].items():
        note = rec["notes"].get(name)
        print(f"  {name:<48} {value:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    known = Counter(r["known"] for r in rec["calls"] if r["known"])
    for why, count in known.items():
        print(f"  known defect x{count}: {why}")
    for argv, reason in rec["unexpected"][:20]:
        print(f"  UNEXPECTED: {' '.join(argv)}: {reason}")


def _result(rec: dict, names: list) -> dict:
    calls = rec["calls"]
    return {
        "correct": not rec["unexpected"],
        "attempted": len(calls),
        "failed": sum(r["failed"] for r in calls),
        "metrics": {n: {"value": rec["metrics"][n][0], "unit": rec["metrics"][n][1]}
                    for n in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "latcount" / "__main__.py").is_file():
        print("error: run from the root of a latcount checkout (src/latcount missing)",
              file=sys.stderr)
        return 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    results = {}
    for workload in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        rec = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        _print_summary(rec)
        results[workload] = _result(rec, names)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
