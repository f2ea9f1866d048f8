"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = BENCH.parent
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
COUNTS = (
    "systems.validate_calls", "jsonio.encode_calls", "game.verify_nodes",
    "enumeration.topologies", "suites.cases",
)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture
def topolab_modules():
    """A fresh import of topolab; the caller's modules are put back afterwards."""
    def ours():
        return [m for m in sys.modules if m == "topolab" or m.startswith("topolab.")]

    saved = {m: sys.modules[m] for m in ours()}
    saved_path = list(sys.path)
    sys.path.insert(0, str(workloads.SRC))
    yield workloads.import_topolab()
    for m in ours():
        del sys.modules[m]
    sys.modules.update(saved)
    sys.path[:] = saved_path


@pytest.mark.parametrize(
    "workload, items",
    [("suite-all", 1), ("game-n5", workloads.TOPOLOGIES_N5), ("quotient-n4", workloads.QUOTIENT_DRAWS)],
)
def test_each_workload_attempts_its_stated_items(workload, items):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, items, 0)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_altered_reference_digest_fails_the_verdict(topolab_modules):
    summary = worker.run_passes(workloads.SuiteAll(0, references={"0": "0" * 64}), 0, trace=False)
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert "differs from the reference" in summary["messages"][0]


def test_trace_puts_back_every_patched_name(topolab_modules):
    tl = topolab_modules
    spaces_classes = [tl.spaces.FiniteSpace, tl.spaces.SpaceMap]
    before = [dict(vars(m)) for m in tl.modules.values()] + [dict(vars(c)) for c in spaces_classes]
    runners = dict(tl.suites._RUNNERS)
    original = tl.families.build_quotient
    tracer = Tracer(tl)
    with tracer:
        patched = tl.families.build_quotient
        assert patched is not original
        assert tl.systems.build_quotient is patched
        assert tl.suites.build_quotient is patched
        assert tl.topolab.build_quotient is patched
        assert tl.suites._RUNNERS["quotient"] is not runners["quotient"]
        spaces = list(tl.enumeration.all_topologies(3))
        tl.families.build_quotient(spaces[-1], spaces[-1].opens)
    metrics = tracer.per_layer({})
    assert metrics["enumeration.topologies"] == 29
    assert metrics["families.quotient_calls"] == 1
    assert metrics["spaces.construct_calls"] == 30
    assert metrics["enumeration.s"] > 0
    after = [dict(vars(m)) for m in tl.modules.values()] + [dict(vars(c)) for c in spaces_classes]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items())
    assert all(tl.suites._RUNNERS[k] is v for k, v in runners.items())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "suite-all", "--seed", "42", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["suites.cases"] > 0 and counts[0]["systems.validate_calls"] > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "game-n5", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
