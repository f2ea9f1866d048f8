#!/usr/bin/env python3
"""topolab benchmark: time to verdict on suite-all, game-n5 and quotient-n4.

Run from the root of a checkout:

    python3 bench/run.py --workload game-n5 --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --seed 42              # every workload, one after another

Each workload runs in its own single-threaded child process (worker.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once under the tracer, each in its own process, and
prints the per-layer metrics.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every verdict was correct.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_LOOP_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("suite-all", "game-n5", "quotient-n4")
# A run of the command, whatever its workloads, must end within 180 s; keep
# a margin for start-up and reporting.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run worker.py for one workload and return its JSON summary."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s (trace %d) ran past the time limit" % (workload, trace)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """End-to-end metrics (trace 0) or per-layer metrics (trace 1) for one workload.

    ``deadline`` is a ``time.monotonic()`` value by which every worker must end.
    """
    if not trace:
        summary = spawn(workload, seed, seconds, 0, deadline)
        return {**summary, "metrics": summary.get("metrics", {})}
    plain = spawn(workload, seed, seconds / 2, 0, deadline)
    traced = spawn(workload, seed, seconds / 2, 1, deadline)
    metrics = dict(traced.get("per_layer", {}))
    if "metrics" in plain and "metrics" in traced:
        metrics["trace.overhead_s"] = traced["metrics"]["verdict_s"] - plain["metrics"]["verdict_s"]
    return {
        **traced,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "messages": plain["messages"] + traced["messages"],
        "metrics": metrics,
    }


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def report(workload: str, result: dict, units: dict, trace: int) -> dict:
    """Print the run's metrics by name and unit; return them for the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError("%s produced no value for %s" % (workload, ", ".join(missing)))
    print("%s: %d passes, %s items per pass" % (
        workload, result.get("passes", 0), result.get("items_per_pass", "?")))
    for name, unit in units.items():
        print("  %-28s %14.6f %s" % (name, result["metrics"][name], unit))
    print("  %-28s %14.6f %s" % ("error_rate", failed / attempted if attempted else 1.0, "failed/attempted"))
    if not trace and "raw" in result:
        print("  unscaled: %s; reference loop %.4f s (nominal %.3f s)" % (
            ", ".join("%s %.6g" % kv for kv in result["raw"].items()),
            result["reference_loop_s"], REFERENCE_LOOP_S))
    if trace:
        for row in result.get("functions", [])[:15]:
            print("  fn %-36s calls %9d  total %8.4f s  self %8.4f s" % tuple(row))
        if result.get("unsteady_counts"):
            print("  counts that differed between passes: %s" % ", ".join(result["unsteady_counts"]))
    for message in result["messages"]:
        print("  FAILED: %s" % message)
    return {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {w: run_workload(w, args.seed, seconds, args.trace, deadline) for w in workloads}
        printed = {w: report(w, r, spec[args.trace], args.trace) for w, r in results.items()}
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = printed[workloads[0]] if len(workloads) == 1 else {
        "%s.%s" % (w, name): value for w, values in printed.items() for name, value in values.items()
    }
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
