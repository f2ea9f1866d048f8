"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
criterion demands zero violations at the stated sizes.  The two runtime
targets are asserted with wall-clock measurements.
"""

import json
import subprocess
import sys
import time

from topolab.enumeration import all_topologies, opens_families_bruteforce
from topolab.game import minimal_open_strategy, solve_open_open, verify_winning
from topolab.suites import (
    game_suite,
    quotient_suite,
    roundtrip_suite,
    systems_suite,
)

from cli_env import cli_env

SEED = 42


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    print("ACCEPTANCE %d %-24s %s %s" % (num, name, "PASS" if ok else "FAIL", detail))


def _filter(report, props):
    return [v for v in report.violations if v["property"] in props]


def test_criterion_1_game_universality():
    start = time.perf_counter()
    counted = 0
    violations = []
    per_n = {}
    for n in range(1, 5):
        per_n[n] = 0
        for space in all_topologies(n):
            counted += 1
            per_n[n] += 1
            sol = solve_open_open(space)
            if sol.winner != "I":
                violations.append(("winner", space.opens))
            if not verify_winning(space, minimal_open_strategy(space)).winning:
                violations.append(("minimal_strategy", space.opens))
    brute = len(opens_families_bruteforce(4))
    if per_n[4] != brute:
        violations.append(("count_mismatch", (per_n[4], brute)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    _line(
        1,
        "game universality",
        ok,
        "(%d topologies, n=4 count %d = bruteforce %d, %.1fs)"
        % (counted, per_n[4], brute, elapsed),
    )
    assert not violations, violations[:3]
    assert elapsed < 120.0, "runtime target exceeded: %.1fs" % elapsed


def test_criterion_2_quotient_identity_and_lemma():
    rep = quotient_suite(max_points=3, samples=0, seed=SEED)
    core = _filter(
        rep,
        {"q_preimage_identity", "meet_closed_continuous", "meet_closed_cover_base"},
    )
    _line(2, "quotient lemma suite", not core, "(%d cases)" % rep.cases_run)
    assert not core, core[:3]


def test_criterion_3_seq_suite():
    rep = quotient_suite(max_points=3, samples=1000, seed=SEED)
    core = _filter(
        rep,
        {
            "seq_closed_form_vs_search",
            "seq_closed_form_vs_search_random",
            "ring_unions_stay_in_seq",
            "seq_quotient_hausdorff",
            "seq_quotient_discrete",
            "seq_meet_quotient_regular",
            "seq_ring_quotient_completely_regular",
        },
    )
    _line(
        3,
        "seq-closure suite",
        not core,
        "(%d random samples)" % rep.counts["seq_random_samples"],
    )
    assert not core, core[:3]


def test_criterion_4_skeletal_suite():
    rep = quotient_suite(max_points=3, samples=0, seed=SEED)
    core = _filter(
        rep,
        {
            "skeletal_family_iff_map",
            "skeletal_dense_preimage",
            "open_implies_skeletal",
        },
    )
    _line(
        4,
        "skeletal suite",
        not core,
        "(%d continuous surjections)" % rep.counts["continuous_surjections"],
    )
    assert not core, core[:3]


def test_criterion_5_condition_S_and_skeletal_quotients():
    rep = game_suite(max_points=4, samples=500, seed=SEED)
    core = _filter(
        rep,
        {
            "tclub_condition_S",
            "tclub_quotient_skeletal",
            "tclub_is_ring",
            "tclub_inside_seq",
            "tclub_quotient_completely_regular",
        },
    )
    _line(5, "club condition (S)", not core, "(%d seeded pairs)" % rep.counts["tclub_samples"])
    assert not core, core[:3]


def test_criterion_6_inverse_system_suite():
    start = time.perf_counter()
    rep = systems_suite(max_points=4, samples=500, seed=SEED)
    _line(
        6,
        "inverse-system suite",
        rep.ok,
        "(%d skeletal systems, %d strategies verified, %d embeddings)"
        % (
            rep.counts["skeletal_hypothesis_systems"],
            rep.counts["limit_strategies_verified"],
            rep.counts["club_embeddings"],
        ),
    )
    assert rep.ok, rep.violations[:3]
    # full run at the stated scale must fit the runtime budget
    quotient_suite(max_points=4, samples=1000, seed=SEED)
    game_suite(max_points=4, samples=500, seed=SEED)
    roundtrip_suite(max_points=4, samples=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    _line(6, "suite-all runtime", elapsed < 300.0, "(%.1fs for max-points 4)" % elapsed)
    assert elapsed < 300.0


def test_criterion_7_reproducibility():
    args = [
        sys.executable,
        "-m",
        "topolab.cli",
        "suite",
        "all",
        "--seed",
        "42",
    ]
    a = subprocess.run(args, capture_output=True, text=True, timeout=600, env=cli_env())
    b = subprocess.run(args, capture_output=True, text=True, timeout=600, env=cli_env())
    byte_identical = a.stdout == b.stdout and a.returncode == b.returncode == 0
    rep = roundtrip_suite(max_points=4, samples=1000, seed=SEED)
    ok = byte_identical and rep.ok
    _line(
        7,
        "reproducibility",
        ok,
        "(two CLI runs byte-identical, %d roundtrip objects)" % rep.samples,
    )
    assert byte_identical
    assert rep.ok, rep.violations[:3]
    payload = json.loads(a.stdout)
    assert payload["violations_total"] == 0
