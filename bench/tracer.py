"""Outside-in tracer: times the calls into topolab's public functions.

``Tracer.install`` swaps every public function of every topolab module for
a wrapper, in each module namespace that holds it (``build_quotient`` is
imported into ``families``, ``suites``, ``systems`` and the package), plus
the suite runners in ``suites._RUNNERS`` and the methods of ``FiniteSpace``
and ``SpaceMap``.  ``uninstall`` puts every original object back.  Nothing
under ``src/`` is edited.

A timed call records a span: name, parent span, start and end, kept in
flat arrays until the run ends.  A generator function gets one span per
``next()``, so the time spent producing each item lands with whoever
iterates.  Helpers called hundreds of thousands of times are counted, not
timed, because a timing wrapper would dwarf their work.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

COUNTED = frozenset(
    {
        "jsonio.mask_to_list",
        "jsonio.list_to_mask",
        "spaces.bits_of",
        "spaces.mask_of",
        "FiniteSpace.is_open",
        "SpaceMap.image_of",
        "SpaceMap.preimage_of",
    }
)
CLASS_METHODS = {
    "FiniteSpace": (
        "__init__", "from_preorder", "discrete", "indiscrete", "sierpinski", "chain",
        "is_open", "interior", "closure", "is_dense", "minimal_open_family",
        "clopens", "clopen_atoms", "separation_flags",
    ),
    "SpaceMap": (
        "__init__", "identity", "image_of", "preimage_of", "compose", "is_continuous",
        "is_open_map", "is_surjective", "is_skeletal", "skeletal_witness",
    ),
}
SUITE_RUNNERS = ("quotient_suite", "game_suite", "systems_suite", "roundtrip_suite")
# Entry points that are not in their module's __all__.
EXTRA_FUNCTIONS = {"cli": ("main",), "suites": SUITE_RUNNERS}

ENCODERS = (
    "encode_space", "encode_map", "encode_family", "encode_quotient", "encode_system",
    "encode_limit", "encode_transcript", "encode_solution", "encode_strategy",
)
# Per-layer time metrics: the time inside the outermost call of any listed
# function, so nested calls within one group are not counted twice.
TIME_GROUPS = {
    "suites.quotient_s": ("suites.quotient_suite",),
    "suites.game_s": ("suites.game_suite",),
    "suites.systems_s": ("suites.systems_suite",),
    "suites.roundtrip_s": ("suites.roundtrip_suite",),
    "jsonio.encode_s": tuple("jsonio." + e for e in ENCODERS),
    "systems.validate_s": ("systems.validate_system",),
    "systems.limit_s": ("systems.limit_space",),
    "systems.embedding_s": ("systems.embedding_map",),
    "systems.sigma_s": ("systems.check_sigma_completeness",),
    "enumeration.s": ("enumeration.preorders", "enumeration.all_topologies", "enumeration.all_spaces"),
    "enumeration.bruteforce_s": (
        "enumeration.count_topologies_bruteforce", "enumeration.opens_families_bruteforce",
    ),
    "game.solve_s": ("game.solve_open_open",),
    "game.verify_s": ("game.verify_winning",),
    "game.play_s": ("game.play",),
    "game.tclub_s": ("game.build_tclub_member",),
    "game.strategy_closure_s": ("game.closure_under_strategies",),
    "families.quotient_s": ("families.build_quotient",),
    "families.seq_s": ("families.seq_family", "families.seq_family_bruteforce"),
    "families.ring_closure_s": ("families.ring_closure",),
    "families.skeletal_s": ("families.is_skeletal_family",),
    "spaces.construct_s": (
        "FiniteSpace.__init__", "FiniteSpace.from_preorder", "FiniteSpace.discrete",
        "FiniteSpace.indiscrete", "FiniteSpace.sierpinski", "FiniteSpace.chain",
        "spaces.from_subbasis",
    ),
    "spaces.closure_s": ("FiniteSpace.closure", "FiniteSpace.interior", "FiniteSpace.is_dense"),
    "spaces.separation_s": ("FiniteSpace.separation_flags", "spaces.frink_conditions"),
    "spaces.map_s": tuple(
        "SpaceMap." + m for m in CLASS_METHODS["SpaceMap"] if "SpaceMap." + m not in COUNTED
    ),
    "randgen.s": (),  # filled with every public randgen function at install
    "cli.main": ("cli.main",),
    "cli.run_suite": ("suites.run_suite",),
}
# Per-layer call counts.
CALL_COUNTS = {
    "jsonio.encode_calls": tuple("jsonio." + e for e in ENCODERS),
    "jsonio.mask_to_list_calls": ("jsonio.mask_to_list",),
    "systems.validate_calls": ("systems.validate_system",),
    "systems.limit_calls": ("systems.limit_space",),
    "game.solve_calls": ("game.solve_open_open",),
    "game.verify_calls": ("game.verify_winning",),
    "families.quotient_calls": ("families.build_quotient",),
    "spaces.construct_calls": ("FiniteSpace.__init__",),
    "spaces.closure_calls": ("FiniteSpace.closure",),
}
# Sums taken from return values.
RESULT_SUMS = {
    "game.verify_winning": ("game.verify_nodes", lambda r: r.nodes_explored),
    "systems.limit_space": ("systems.limit_threads", lambda r: len(r.threads)),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_GROUPS if name not in ("cli.main", "cli.run_suite")},
    "suites.self_s": "s",
    "cli.s": "s",
    **{name: "count" for name in CALL_COUNTS},
    "suites.cases": "count",
    "jsonio.encode_per_case": "calls/case",
    "systems.validate_per_limit": "calls/limit",
    "systems.limit_threads": "count",
    "enumeration.topologies": "count",
    "game.verify_nodes": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Patches one import of topolab; spans and counts live on the instance."""

    def __init__(self, tl):
        self.tl = tl
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.sums: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        modules = self.tl.modules
        wrapped: dict[int, tuple] = {}
        for modname, module in modules.items():
            if modname == "topolab":
                continue
            short = modname.rpartition(".")[2]
            names = tuple(getattr(module, "__all__", ())) + EXTRA_FUNCTIONS.get(short, ())
            for name in names:
                fn = vars(module).get(name)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrapped[id(fn)] = (fn, self._wrap(short + "." + name, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch_attr(module, attr, value, hit[1])
        runners = self.tl.suites._RUNNERS
        for key, value in list(runners.items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((runners, key, value))
                runners[key] = hit[1]
        for cls_name, methods in CLASS_METHODS.items():
            cls = getattr(self.tl.spaces, cls_name)
            for name in methods:
                raw = cls.__dict__[name]
                qual = cls_name + "." + name
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(qual, raw.__func__))
                else:
                    replacement = self._wrap(qual, raw)
                self._patch_attr(cls, name, raw, replacement)

    def _patch_attr(self, target, attr, original, replacement) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, replacement)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of patching."""
        while self._patches:
            target, attr, original = self._patches.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers --------------------------------------------------------

    def _id(self, qual: str) -> int:
        idx = self._ids.get(qual)
        if idx is None:
            idx = self._ids[qual] = len(self.names)
            self.names.append(qual)
            self.calls.append(0)
            self.yields.append(0)
        return idx

    def _wrap(self, qual: str, fn):
        idx = self._id(qual)
        calls = self.calls
        if qual in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)

            return counted

        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def timed_iter(it):
                while True:
                    span = len(starts)
                    names.append(idx)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(span)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[span] = clock()
                        stack.pop()
                    yields[idx] += 1
                    yield item

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[idx] += 1
                return timed_iter(fn(*args, **kwargs))

            return generator

        hook = RESULT_SUMS.get(qual)
        if hook is not None:
            metric, extract = hook
            self.sums[metric] = 0
            sums = self.sums

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[idx] += 1
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                sums[metric] += extract(result)
            return result

        return timed

    # -- deriving metrics ------------------------------------------------

    def function_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s) per wrapped function, by self time."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        covered = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            d = ends[i] - starts[i]
            total[names[i]] += d
            own[names[i]] += d - covered[i]
        rows = [
            (name, self.calls[k], total[k] / 1e9, own[k] / 1e9)
            for k, name in enumerate(self.names)
            if self.calls[k]
        ]
        rows.sort(key=lambda r: -r[3])
        return rows

    def group_times(self) -> dict[str, float]:
        """Outermost time per TIME_GROUPS entry, in seconds."""
        groups = dict(TIME_GROUPS)
        groups["randgen.s"] = tuple(q for q in self.names if q.startswith("randgen."))
        bit_of = {g: 1 << k for k, g in enumerate(groups)}
        mask_of_name = [0] * len(self.names)
        groups_of_name = [[] for _ in self.names]
        for g, quals in groups.items():
            for q in quals:
                if q in self._ids:
                    mask_of_name[self._ids[q]] |= bit_of[g]
                    groups_of_name[self._ids[q]].append((g, bit_of[g]))
        out = {g: 0 for g in groups}
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        inside = [0] * n
        cli_bit, run_suite_bit = bit_of["cli.main"], bit_of["cli.run_suite"]
        suite_under_cli = 0
        for i in range(n):
            p = parents[i]
            above = inside[p] if p >= 0 else 0
            mine = mask_of_name[names[i]]
            inside[i] = above | mine
            fresh = mine & ~above
            if fresh:
                d = ends[i] - starts[i]
                for g, bit in groups_of_name[names[i]]:
                    if fresh & bit:
                        out[g] += d
                if fresh & run_suite_bit and above & cli_bit:
                    suite_under_cli += d
        seconds = {g: v / 1e9 for g, v in out.items()}
        seconds["cli.s"] = (out["cli.main"] - suite_under_cli) / 1e9
        del seconds["cli.main"], seconds["cli.run_suite"]
        return seconds

    def per_layer(self, pass_counts: dict) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, for one pass."""
        metrics = self.group_times()
        rows = {name: (calls, inc, own) for name, calls, inc, own in self.function_table()}
        metrics["suites.self_s"] = sum(
            rows.get(q, (0, 0, 0))[2] for q in ("suites.run_suite",) + tuple("suites." + r for r in SUITE_RUNNERS)
        )
        for metric, quals in CALL_COUNTS.items():
            metrics[metric] = sum(self.calls[self._ids[q]] for q in quals if q in self._ids)
        metrics.update(self.sums)
        metrics["enumeration.topologies"] = self.yields[self._ids["enumeration.all_topologies"]]
        metrics["suites.cases"] = pass_counts.get("suites.cases", 0)
        cases, limits = metrics["suites.cases"], metrics["systems.limit_calls"]
        metrics["jsonio.encode_per_case"] = metrics["jsonio.encode_calls"] / cases if cases else 0.0
        metrics["systems.validate_per_limit"] = metrics["systems.validate_calls"] / limits if limits else 0.0
        metrics["trace.spans"] = len(self.span_start)
        return metrics
