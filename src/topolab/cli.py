"""Command-line front end.

Three command groups: ``gen`` emits seeded random objects as canonical
JSON, ``game`` solves or plays the open-open game (including an
interactive mode where a human takes Player II), and ``suite`` runs the
property suites with a machine-readable report.

Exit codes: 0 success / no violations, 1 suite violations, 2 usage or
input errors.  The TOPOLAB_SEED environment variable supplies the seed
when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .errors import TopolabError
from .game import (
    EchoStrategy,
    MinimalReplyStrategy,
    minimal_open_strategy,
    play,
    solve_open_open,
)
from .randgen import (
    random_family,
    random_quotient_chain,
    random_space,
    random_space_subbasis,
    rng_for,
)
from .spaces import FiniteSpace, mask_of
from .suites import SUITE_NAMES, run_suite

MAX_GEN_POINTS = 6
# Bounds the game's input, its printed win table and play's default rounds
# (4 * points * opens); the solver itself is linear in the opens.
MAX_GAME_OPENS = 256

II_STRATEGIES = {
    "echo": lambda space: EchoStrategy(),
    "minimal": MinimalReplyStrategy,
}


def _fail_usage(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_space(path: str | None) -> FiniteSpace:
    if not path:
        return jsonio.decode_space(json.loads(sys.stdin.read()))
    with open(path) as fh:
        return jsonio.decode_space(json.loads(fh.read()))


# -- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.points < 0 or args.points > MAX_GEN_POINTS:
        return _fail_usage("--points must be between 0 and %d" % MAX_GEN_POINTS)
    rng = rng_for(args.seed, "gen-%s" % args.kind)
    if args.kind == "space":
        make = random_space if args.method == "preorder" else random_space_subbasis
        obj = jsonio.encode_space(make(rng, args.points))
    elif args.kind == "family":
        if args.points == 0:
            return _fail_usage("families need at least one point")
        space = random_space(rng, args.points)
        obj = jsonio.encode_family(random_family(rng, space))
    else:
        if args.points < 1 or args.chain < 1:
            return _fail_usage("systems need at least one point and one node")
        if args.chain > jsonio.MAX_SYSTEM_NODES:
            return _fail_usage("--chain must be at most %d" % jsonio.MAX_SYSTEM_NODES)
        obj = jsonio.encode_system(random_quotient_chain(rng, args.points, args.chain))
    _emit(jsonio.dumps(obj), args.out)
    return 0


# -- game --------------------------------------------------------------


def cmd_game(args) -> int:
    if args.mode == "repl" and not args.input:
        return _fail_usage("repl mode needs --in FILE; stdin carries your moves")
    if args.max_rounds is not None and args.max_rounds < 1:
        return _fail_usage("--max-rounds must be at least 1")
    try:
        space = _read_space(args.input)
    except (ValueError, KeyError, RecursionError) as exc:
        return _fail_usage("bad space JSON: %s" % exc)
    if len(space.opens) > MAX_GAME_OPENS:
        return _fail_usage(
            "the game takes spaces with at most %d opens, this one has %d"
            % (MAX_GAME_OPENS, len(space.opens))
        )
    try:
        if args.mode == "solve":
            sol = solve_open_open(space)
            _emit(jsonio.dumps(jsonio.encode_solution(sol)), args.out)
            return 0
        if args.mode == "play":
            strat_i = (
                solve_open_open(space).strategy
                if args.strategy_i == "solver"
                else minimal_open_strategy(space)
            )
            strat_ii = II_STRATEGIES[args.strategy_ii](space)
            t = play(space, strat_i, strat_ii, max_rounds=args.max_rounds)
            _emit(jsonio.dumps(jsonio.encode_transcript(t)), args.out)
            return 0
        return _repl(space, args)
    except TopolabError as exc:
        return _fail_usage(str(exc))


def _repl(space: FiniteSpace, args) -> int:
    """Interactive game: the program is Player I, the human is Player II.

    Moves are typed as space-separated point indices; empty, non-open and
    non-contained moves are rejected with a fresh prompt.
    """
    sol = solve_open_open(space)
    strat = sol.strategy
    state = strat.initial_state()
    covered = 0
    last = None
    max_rounds = args.max_rounds or 4 * space.point_count * len(space.opens)
    print("playing on %d points; opens: %s" % (
        space.point_count,
        sorted(jsonio.mask_to_list(o) for o in space.opens),
    ))
    for round_no in range(max_rounds):
        a, state = strat.step(state, last)
        print("round %d, Player I offers %s" % (round_no, jsonio.mask_to_list(a)))
        while True:
            try:
                line = input("your reply (points inside the offer): ").strip()
            except EOFError:
                print("no input; stopping")
                return 0
            try:
                points = [int(tok) for tok in line.split()]
            except ValueError:
                print("could not parse; give point indices like: 0 2")
                continue
            if not all(0 <= p < space.point_count for p in points):
                print("that set is not open: points lie in range(%d)" % space.point_count)
                continue
            b = mask_of(points)
            if not b:
                print("the reply must be nonempty")
            elif not space.is_open(b):
                print("that set is not open")
            elif b & ~a:
                print("the reply must sit inside the offer")
            else:
                break
        covered |= b
        print("covered so far: %s" % jsonio.mask_to_list(covered))
        if space.is_dense(covered):
            print("the union is dense; Player I wins after %d rounds" % (round_no + 1))
            return 0
        last = b
    print("cutoff after %d rounds without density" % max_rounds)
    return 0


# -- suite -------------------------------------------------------------


def cmd_suite(args) -> int:
    try:
        reports = run_suite(
            args.name, max_points=args.max_points, samples=args.samples, seed=args.seed
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    total = sum(len(r.violations) for r in reports)
    payload = {
        "seed": args.seed,
        "max_points": args.max_points,
        "samples": args.samples,
        "suites": [r.to_json() for r in reports],
        "violations_total": total,
    }
    if args.format == "json":
        _emit(jsonio.dumps(payload), args.out)
    else:
        lines = []
        for r in reports:
            lines.append(
                "%-10s cases=%-6d violations=%d" % (r.name, r.cases_run, len(r.violations))
            )
            for v in r.violations[:5]:
                lines.append("  %s: %s" % (v["property"], v["witness"]))
        lines.append("total violations: %d" % total)
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if total == 0 else 1


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="finite-space laboratory: quotients, the open-open game, inverse limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a seeded random object as canonical JSON")
    gen.add_argument("kind", choices=("space", "family", "system"))
    gen.add_argument("--points", type=int, default=3)
    gen.add_argument("--method", choices=("preorder", "subbasis"), default="preorder")
    gen.add_argument("--chain", type=int, default=2, help="nodes in a generated system")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    game = sub.add_parser("game", help="solve or play the open-open game")
    game.add_argument("mode", choices=("solve", "play", "repl"))
    game.add_argument("--in", dest="input", default=None, help="space JSON file (default stdin)")
    game.add_argument("--strategy-i", choices=("solver", "minimal"), default="solver")
    game.add_argument("--strategy-ii", choices=tuple(II_STRATEGIES), default="echo")
    game.add_argument("--max-rounds", type=int, default=None)
    game.add_argument("--out", default=None)
    game.set_defaults(func=cmd_game)

    suite = sub.add_parser("suite", help="run property suites and report violations")
    suite.add_argument("name", choices=("all",) + SUITE_NAMES)
    suite.add_argument("--max-points", type=int, default=3)
    suite.add_argument("--samples", type=int, default=200)
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--format", choices=("json", "text"), default="json")
    suite.add_argument("--out", default=None)
    suite.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "seed", 0) is None:  # gen and suite fall back to TOPOLAB_SEED
        env = os.environ.get("TOPOLAB_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            return _fail_usage("TOPOLAB_SEED must be an integer, not %r" % env)
    try:
        return args.func(args)
    except OSError as exc:  # --in or --out names a path that cannot be used
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
