"""Run every workload on several seeds, check steadiness, record a baseline.

For each workload: one untraced run on each of ten seeds, then one traced run at seed 42.
For each end-to-end metric it reports the median and the spread, the
distance between the first and third quartile as a share of the median,
and compares the spread with the metric's bound in BENCHMARK.json; the
spreads of the unscaled times are recorded beside them.  Writes
the result, with the commit, Python version, CPU count and the line count
of src/topolab, to bench/baseline.json (or --out):

    python3 bench/baseline.py
    python3 bench/baseline.py --first-seed 11 --out second-set.json

Exits with 1 when a spread other than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import ROOT, RUN_LIMIT_S, SPEC, WORKLOADS, run_workload

SEEDS = 10
TRACE_SEED = 42


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "topolab").glob("*.py")))


def src_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "bench" / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    record = {
        "measured": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "src_commit": src_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_topolab_lines": src_lines(),
        "run_seconds": seconds,
        "seeds": seeds,
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    unsteady = []
    for workload in WORKLOADS:
        runs = [run_workload(workload, seed, seconds, 0, time.monotonic() + RUN_LIMIT_S) for seed in seeds]
        traced = run_workload(workload, TRACE_SEED, seconds, 1, time.monotonic() + RUN_LIMIT_S)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        end_to_end = {
            name: summarize([r["metrics"][name] for r in runs], bound) for name, bound in bounds.items()
        }
        unscaled = {
            name: summarize([r["raw"][name] for r in runs], bounds[name]) for name in runs[0]["raw"]
        }
        per_layer = {m["name"]: traced["metrics"][m["name"]] for m in spec["per_layer"]}
        record["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "passes_per_run": [r["passes"] for r in runs],
            "end_to_end": end_to_end,
            "unscaled_times": unscaled,
            "reference_loop_s": [r["reference_loop_s"] for r in runs],
            "per_layer": per_layer,
            "per_layer_counts_that_differed_between_passes": traced.get("unsteady_counts", []),
        }
        print(workload)
        for name, s in end_to_end.items():
            steady = "ok" if s["spread"] < s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print("  %-12s median %12.6f  spread %6.3f  bound %.2f  %s" % (name, s["median"], s["spread"], s["bound"], steady))
            if name != "setup_s" and s["spread"] > s["bound"]:
                unsteady.append((workload, name))
        print("  unscaled spreads: %s" % ", ".join("%s %.3f" % (k, v["spread"]) for k, v in unscaled.items()))
        print("  error_rate %g over %d verdicts" % (failed / attempted, attempted))
        sys.stdout.flush()
    with open(args.out, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
