"""The three benchmark workloads: seeded inputs, one timed pass, an oracle.

Every pass starts from a fresh import of topolab, so nothing a module keeps
in memory carries over from one pass to the next.  That import, plus the
generation of the pass's seeded inputs, is the pass's set-up; the verdict
is timed from the first call into topolab to the last result it returns.
The oracles run after the timed region and never call into topolab.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"

# OEIS A000798: labeled topologies on 5 points.
TOPOLOGIES_N5 = 6942
# Every open family over every labeled space on 1-4 points; the scan of
# tests/test_families.py::test_quotient_identity_exhaustive.
QUOTIENT_PAIRS_N4 = 178_640
QUOTIENT_DRAWS = 25_000
SUITE_ARGS = ("suite", "all", "--max-points", "4", "--samples", "500")

# The modules a workload reaches; importing them loads every topolab module.
TOPOLAB_MODULES = ("topolab", "topolab.cli", "topolab.enumeration")


class Topolab:
    """One fresh import of topolab; attributes are its modules by short name."""

    def __init__(self, modules: dict):
        self.modules = modules
        for name, module in modules.items():
            setattr(self, name.rpartition(".")[2], module)


def import_topolab() -> Topolab:
    """Drop every loaded topolab module and import the package again."""
    for name in [m for m in sys.modules if m == "topolab" or m.startswith("topolab.")]:
        del sys.modules[name]
    for name in TOPOLAB_MODULES:
        importlib.import_module(name)
    package = Path(sys.modules["topolab"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError("imported topolab from %s, not from %s" % (package, SRC))
    return Topolab(
        {m: mod for m, mod in sys.modules.items() if m == "topolab" or m.startswith("topolab.")}
    )


@dataclass
class PassResult:
    """What one timed pass produced, before the oracle looks at it."""

    verdict_s: float
    item_ms: list
    outcomes: list
    counts: dict = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failed: int
    messages: list


class SuiteAll:
    """The north-star command, ``topolab suite all``, run in-process."""

    name = "suite-all"

    def __init__(self, seed: int, references: dict | None = None):
        self.seed = seed
        if references is None:
            references = json.loads(REFERENCE_DIGESTS.read_text())
        self.reference = references.get(str(seed))
        self.first_digest = None

    def setup(self, tl: Topolab):
        # The report goes to a file in the checkout, which run() reads and
        # deletes; one is left behind only if the worker is killed.
        fd, out = tempfile.mkstemp(prefix=".bench_tmp-", suffix=".json", dir=ROOT)
        os.close(fd)
        return list(SUITE_ARGS) + ["--seed", str(self.seed), "--out", out]

    def run(self, tl: Topolab, argv) -> PassResult:
        main = tl.cli.main
        start = time.perf_counter()
        code = main(argv)
        verdict_s = time.perf_counter() - start
        out = Path(argv[-1])
        report = out.read_bytes()
        out.unlink()
        payload = json.loads(report)
        cases = sum(s["cases_run"] for s in payload["suites"])
        return PassResult(verdict_s, [verdict_s * 1e3], [(code, report)], {"suites.cases": cases})

    def check(self, argv, result: PassResult) -> Verdict:
        code, report = result.outcomes[0]
        digest = hashlib.sha256(report).hexdigest()
        payload = json.loads(report)
        messages = []
        if code != 0 or payload["violations_total"] != 0:
            messages.append("exit code %d, %d violations" % (code, payload["violations_total"]))
        if self.reference is not None and digest != self.reference:
            messages.append("report digest %s differs from the reference %s" % (digest, self.reference))
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            messages.append("report digest %s differs from the first pass's %s" % (digest, self.first_digest))
        return Verdict(1, 1 if messages else 0, messages)


class GameN5:
    """Solve and verify the open-open game on every labeled 5-point space."""

    name = "game-n5"

    def __init__(self, seed: int):
        self.seed = seed  # the workload is exhaustive; the seed changes nothing

    def setup(self, tl: Topolab):
        return 5

    def run(self, tl: Topolab, points) -> PassResult:
        topologies = tl.enumeration.all_topologies
        solve = tl.game.solve_open_open
        verify = tl.game.verify_winning
        minimal = tl.game.minimal_open_strategy
        clock = time.perf_counter
        item_ms = []
        outcomes = []
        start = clock()
        for space in topologies(points):
            t0 = clock()
            solution = solve(space)
            by_solver = verify(space, solution.strategy)
            by_minimal = verify(space, minimal(space))
            item_ms.append((clock() - t0) * 1e3)
            outcomes.append((solution.winner, by_solver.winning, by_minimal.winning))
        return PassResult(clock() - start, item_ms, outcomes)

    def check(self, points, result: PassResult) -> Verdict:
        messages = []
        if len(result.outcomes) != TOPOLOGIES_N5:
            messages.append("%d topologies on 5 points, expected %d" % (len(result.outcomes), TOPOLOGIES_N5))
        wrong = [
            k for k, (winner, by_solver, by_minimal) in enumerate(result.outcomes)
            if winner != "I" or not by_solver or not by_minimal
        ]
        if wrong:
            messages.append("%d spaces with a wrong verdict, first at index %d" % (len(wrong), wrong[0]))
        missing = max(TOPOLOGIES_N5 - len(result.outcomes), 0)
        return Verdict(max(TOPOLOGIES_N5, len(result.outcomes)), len(wrong) + missing, messages)


class QuotientN4:
    """build_quotient on a seeded uniform draw of (space, open family) pairs."""

    name = "quotient-n4"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected_classes = None

    def setup(self, tl: Topolab):
        spaces = tl.enumeration.all_spaces(4, min_points=1)
        ends = []
        total = 0
        for space in spaces:
            total += 1 << len(space.opens)
            ends.append(total)
        if total != QUOTIENT_PAIRS_N4:
            raise RuntimeError("%d (space, family) pairs, expected %d" % (total, QUOTIENT_PAIRS_N4))
        rng = random.Random("quotient-n4|%d" % self.seed)
        pairs = []
        for _ in range(QUOTIENT_DRAWS):
            r = rng.randrange(total)
            k = bisect.bisect_right(ends, r)
            space = spaces[k]
            pick = r - (ends[k - 1] if k else 0)
            opens = space.opens
            pairs.append((space, tuple(opens[j] for j in range(len(opens)) if (pick >> j) & 1)))
        return pairs

    def run(self, tl: Topolab, pairs) -> PassResult:
        build = tl.families.build_quotient
        clock = time.perf_counter
        item_ms = []
        outcomes = []
        start = clock()
        for space, members in pairs:
            t0 = clock()
            q = build(space, members)
            item_ms.append((clock() - t0) * 1e3)
            outcomes.append((q.identity_holds, len(q.classes)))
        return PassResult(clock() - start, item_ms, outcomes)

    def check(self, pairs, result: PassResult) -> Verdict:
        if self.expected_classes is None:
            # Points fall in one class exactly when every member agrees on them.
            self.expected_classes = [
                len({tuple((m >> x) & 1 for m in members) for x in range(space.point_count)})
                for space, members in pairs
            ]
        wrong = [
            k for k, ((identity, classes), expected) in enumerate(zip(result.outcomes, self.expected_classes))
            if not identity or classes != expected
        ]
        missing = QUOTIENT_DRAWS - len(result.outcomes)
        messages = []
        if wrong:
            messages.append("%d pairs with a wrong quotient, first at draw %d" % (len(wrong), wrong[0]))
        if missing:
            messages.append("%d draws without a result" % missing)
        return Verdict(QUOTIENT_DRAWS, len(wrong) + missing, messages)


WORKLOADS = {w.name: w for w in (SuiteAll, GameN5, QuotientN4)}
