"""One workload in one single-threaded process; run.py starts it.

Runs passes of the workload until ``--seconds`` have elapsed (at least one),
each from a fresh import of topolab, and prints one JSON summary as its last
line of output.  With ``--trace 1`` every pass runs under the tracer; the
untraced and traced runs are always separate processes, so an untraced run
never sees a patched function.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback

from tracer import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, import_topolab


# The host shares its CPUs with other tenants, and its speed drifts by a
# third or more over minutes, moving every time in a run together.  A fixed
# pure-Python loop is timed before the first pass and after each pass, and
# each pass's times are scaled by REFERENCE_LOOP_S over the mean of the loop
# times on either side of it: times are reported at the speed of a host on
# which the loop takes REFERENCE_LOOP_S.  The raw times are reported too.
REFERENCE_LOOP_S = 0.2


def _loop_step(m: int, table: dict) -> int:
    return (m & -m).bit_length() + table.get(m & 255, 0)


def reference_loop() -> float:
    """Seconds taken by a fixed loop of the bit, dict and set work topolab does."""
    start = time.perf_counter()
    acc, seen, table = 0, set(), {}
    for i in range(250_000):
        m = i & 0xFFFF
        acc += _loop_step(m, table)
        seen.add((m ^ (m >> 3), m & 7))
        table[m & 255] = acc & 1023
        if len(seen) > 5000:
            seen = set()
    return time.perf_counter() - start


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def run_passes(workload, seconds: float, trace: bool) -> dict:
    """Time passes of ``workload`` for ``seconds``; return the run's summary.

    A new pass starts only if a pass as long as the median one so far
    still fits, so a run ends close to ``seconds``.  Item percentiles are
    taken within each pass and their median over the passes is reported,
    so memory does not grow with the number of passes.
    """
    import_topolab()  # untimed warm-up: compiles bytecode on the first run
    setup_s, verdict_s, p50_ms, p99_ms, layers, messages, pass_s = [], [], [], [], [], [], []
    functions = []
    attempted = failed = 0
    started = time.perf_counter()
    loop_s, scales = [reference_loop()], []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        tl = import_topolab()
        inputs = workload.setup(tl)
        setup_s.append(time.perf_counter() - t0)
        tracer = Tracer(tl) if trace else None
        try:
            if tracer:
                with tracer:
                    result = workload.run(tl, inputs)
            else:
                result = workload.run(tl, inputs)
        except Exception:  # a pass that raises is a failed verdict, reported below
            traceback.print_exc()
            messages.append("pass %d raised %s" % (len(verdict_s), sys.exc_info()[0].__name__))
            attempted += 1
            failed += 1
            break
        verdict = workload.check(inputs, result)
        attempted += verdict.attempted
        failed += verdict.failed
        messages += verdict.messages
        verdict_s.append(result.verdict_s)
        p50_ms.append(percentile(result.item_ms, 0.50))
        p99_ms.append(percentile(result.item_ms, 0.99))
        items = len(result.item_ms)
        if tracer:
            layers.append(tracer.per_layer(result.counts))
            functions = tracer.function_table()
        # Drop this pass's import, inputs and results before the next pass
        # collects, so the peak memory holds one pass at a time.
        tl = inputs = result = tracer = None
        loop_s.append(reference_loop())
        scales.append(REFERENCE_LOOP_S / ((loop_s[-2] + loop_s[-1]) / 2))
        pass_s.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(pass_s) > seconds:
            break
    summary = {
        "workload": workload.name,
        "passes": len(verdict_s),
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "verdict_s": verdict_s,
        "setup_s": setup_s,
    }
    if verdict_s:
        times = {"verdict_s": verdict_s, "setup_s": setup_s, "item_p50_ms": p50_ms, "item_p99_ms": p99_ms}
        summary["raw"] = {name: statistics.median(v) for name, v in times.items()}
        summary["metrics"] = {
            name: statistics.median(t * k for t, k in zip(v, scales)) for name, v in times.items()
        }
        summary["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary["reference_loop_s"] = statistics.median(loop_s)
        summary["items_per_pass"] = items
    if layers:
        summary["per_layer"] = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        counts = [k for k in layers[0] if PER_LAYER_UNITS.get(k) != "s"]
        summary["unsteady_counts"] = [k for k in counts if len({p[k] for p in layers}) > 1]
        summary["functions"] = functions
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    summary = run_passes(workload, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
