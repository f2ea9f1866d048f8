"""The open-open game on finite spaces, solved exactly.

Player I offers a nonempty open set, Player II returns a nonempty open
subset of it, and I wins when the union of II's replies becomes dense.
On a finite space the solver computes the full winning table by backward
induction over covered sets (every covered set is a union of opens, hence
open), synthesizes a positional strategy, and an adversarial verifier
checks any finite-state strategy against every possible opponent.

Strategies are deterministic finite-state transducers.  The history
functions used in strategy closures are realized by replaying transducers
over tuples of family members, so closures terminate inside the finite
powerset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import EmptySpace, IllegalMove, NotClopen, StateOverflow
from .families import OpenFamily, ring_closure, is_skeletal_family
from .spaces import FiniteSpace

__all__ = [
    "Strategy",
    "PositionalStrategy",
    "RoundRobinStrategy",
    "WitnessStrategy",
    "UnionStrategy",
    "HybridClopenStrategy",
    "HistoryStrategy",
    "EchoStrategy",
    "LeastReplyStrategy",
    "MinimalReplyStrategy",
    "TableStrategy",
    "GameSolution",
    "Transcript",
    "PlayTrace",
    "VerifyResult",
    "solve_open_open",
    "minimal_open_strategy",
    "verify_winning",
    "play",
    "default_first_move",
    "seq_witness_strategies",
    "closure_under_strategies",
    "build_tclub_member",
    "check_condition_S",
    "enumerate_ii_strategies",
    "count_ii_strategies",
]

# verify_winning raises StateOverflow after exploring this many nodes.
VERIFY_NODE_LIMIT = 500_000
# A strategy closure raises StateOverflow once one strategy reaches more
# states than this.
CLOSURE_STATE_LIMIT = 100_000


def default_first_move(space: FiniteSpace) -> int:
    """Least nonempty clopen set, else least nonempty open set."""
    if space.point_count == 0:
        raise EmptySpace("no nonempty open exists")
    clop = [c for c in space.clopens() if c]
    if clop:
        return min(clop)
    return space.opens[1]


class Strategy:
    """Deterministic transducer: step(state, observed) -> (move, state).

    ``observed`` is the opponent's previous move, or None before the very
    first move.  Player I strategies must emit nonempty opens; Player II
    strategies must emit nonempty open subsets of what they observed.
    States must be hashable; the verifier explores them exhaustively.
    """

    player = "I"
    kind = "abstract"

    def initial_state(self):
        raise NotImplementedError

    def step(self, state, observed):
        raise NotImplementedError

    def apply_history(self, history: Iterable[int]) -> int:
        """The move this strategy makes after observing the given replies."""
        move, state = self.step(self.initial_state(), None)
        for b in history:
            move, state = self.step(state, b)
        return move


class PositionalStrategy(Strategy):
    """Player I strategy keyed on the covered set, from a solved table."""

    kind = "positional"

    def __init__(self, space: FiniteSpace, table: dict[int, tuple[str, int | None]]):
        self.space = space
        self.table = table

    def initial_state(self):
        return 0

    def step(self, state, observed):
        covered = state if observed is None else state | observed
        return self.move_at(covered), covered

    def move_at(self, covered: int) -> int:
        """The table's move at ``covered``; where the table has none (a
        dense or lost position), the least nonempty open, or 0 on the
        space without points."""
        move = self.table[covered][1]
        if move is None:
            return self.space.opens[1] if self.space.point_count else 0
        return move


class RoundRobinStrategy(Strategy):
    """Player I strategy cycling a fixed list of moves, ignoring replies."""

    kind = "round_robin"

    def __init__(self, space: FiniteSpace, moves: Iterable[int]):
        self.space = space
        self.moves = tuple(moves)
        if not self.moves:
            raise EmptySpace("round robin needs at least one move")

    def initial_state(self):
        return 0

    def step(self, state, observed):
        return self.moves[state], (state + 1) % len(self.moves)


class WitnessStrategy(Strategy):
    """One of the two witness-sequence strategies.

    On a single-move history (W,) with W clopen it emits W itself
    (identity variant) or the complement of W (complement variant, when
    that complement is nonempty).  Everywhere else it emits the fixed
    default move.  On finite spaces the witnessing sequences for a clopen
    set are constant, which is why a single emission per variant suffices.
    """

    kind = "witness"

    _EMPTY, _FIRST, _REST = 0, 1, 2

    def __init__(self, space: FiniteSpace, complement: bool):
        self.space = space
        self.complement = complement
        self.default = default_first_move(space)
        self._clopen = set(space.clopens())

    def initial_state(self):
        return self._EMPTY

    def step(self, state, observed):
        if state == self._EMPTY:
            return self.default, self._FIRST
        if state == self._FIRST and observed is not None:
            move = self._single(observed)
            return move, self._REST
        return self.default, self._REST

    def _single(self, w: int) -> int:
        if w in self._clopen and w:
            if not self.complement:
                return w
            comp = self.space.full ^ w
            if comp:
                return comp
        return self.default


class UnionStrategy(Strategy):
    """Emits the union of everything observed so far; default on the
    empty history."""

    kind = "union"

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.default = default_first_move(space)

    def initial_state(self):
        return 0

    def step(self, state, observed):
        if observed is None:
            return self.default, 0
        acc = state | observed
        return acc, acc


class HybridClopenStrategy(Strategy):
    """Winning strategy whose moves stay clopen while the opponent's do.

    Cycles through the quasi-component atoms (the only nonempty clopen
    subset of an atom is the atom itself, so clopen replies are forced
    echoes and the atoms' union is the whole space).  The moment the
    opponent replies with a non-clopen set, it switches to the solved
    positional strategy: each later move is ``move_at`` of the covered
    set.  Strategy closures of clopen families therefore stay inside the
    clopen algebra.
    """

    kind = "hybrid_clopen"

    def __init__(self, space: FiniteSpace, solution: "GameSolution"):
        if space.point_count == 0:
            raise EmptySpace("no moves exist on the empty space")
        self.space = space
        self.positional = solution.strategy
        self.atoms = space.clopen_atoms()
        self._clopen = set(space.clopens())

    def initial_state(self):
        return ("atoms", 0, 0)

    def step(self, state, observed):
        phase = state[0]
        if phase == "atoms":
            _, idx, covered = state
            if observed is None:
                return self.atoms[idx], ("atoms", (idx + 1) % len(self.atoms), covered)
            covered |= observed
            if observed in self._clopen:
                return self.atoms[idx], ("atoms", (idx + 1) % len(self.atoms), covered)
            return self.positional.move_at(covered), ("solve", covered)
        _, covered = state
        if observed is not None:
            covered |= observed
        return self.positional.move_at(covered), ("solve", covered)


class HistoryStrategy(Strategy):
    """Wrap a raw history function as a transducer.

    States are the observed histories, materialized lazily and capped per
    run (``initial_state`` starts a fresh count); exceeding the cap raises
    StateOverflow.  Useful for ad-hoc strategies; the built-in ones are
    genuinely finite-state instead.
    """

    kind = "history"

    def __init__(self, fn: Callable[[tuple[int, ...]], int], state_cap: int = 4096):
        self.fn = fn
        self.state_cap = state_cap
        self._seen: set[tuple[int, ...]] = set()

    def initial_state(self):
        self._seen.clear()
        return ()

    def step(self, state, observed):
        history = state if observed is None else state + (observed,)
        self._seen.add(history)
        if len(self._seen) > self.state_cap:
            raise StateOverflow("history strategy exceeded %d states" % self.state_cap)
        return self.fn(history), history


class EchoStrategy(Strategy):
    """Player II strategy returning the offered set unchanged."""

    player = "II"
    kind = "echo"

    def initial_state(self):
        return 0

    def step(self, state, observed):
        return observed, 0


class LeastReplyStrategy(Strategy):
    """Player II strategy returning the least nonempty open inside the offer."""

    player = "II"
    kind = "least"

    def __init__(self, space: FiniteSpace):
        self.space = space

    def initial_state(self):
        return 0

    def step(self, state, observed):
        reply = min(b for b in self.space.nonempty_opens() if b & ~observed == 0)
        return reply, 0


class MinimalReplyStrategy(Strategy):
    """Player II strategy returning the least minimal open inside the offer."""

    player = "II"
    kind = "minimal"

    def __init__(self, space: FiniteSpace):
        self.space = space
        self._minimal = space.minimal_open_family()

    def initial_state(self):
        return 0

    def step(self, state, observed):
        fits = [m for m in self._minimal if m & ~observed == 0]
        if fits:
            return min(fits), 0
        return observed, 0


class TableStrategy(Strategy):
    """Explicit transducer given by a (state, observed) -> (move, state)
    table.  Serves both players; enumerated opponents use it."""

    kind = "table"

    def __init__(self, player: str, init_state: int, table: dict):
        self.player = player
        self.init = init_state
        self.table = table

    def initial_state(self):
        return self.init

    def step(self, state, observed):
        return self.table[(state, observed)]


# -- solving -----------------------------------------------------------


@dataclass(frozen=True)
class GameSolution:
    """Winner plus the full table: covered set -> (status, optimal move).

    A status of "dense" needs no move; "win" pairs with the least move
    that forces progress into winning positions; "lose" means no such
    move exists from there.
    """

    space: FiniteSpace
    winner: str
    table: dict[int, tuple[str, int | None]] = field(compare=False)

    @property
    def strategy(self) -> PositionalStrategy:
        return PositionalStrategy(self.space, self.table)


def solve_open_open(space: FiniteSpace) -> GameSolution:
    """Backward induction over covered sets.

    A covered set S is winning when it is dense, or when some nonempty
    open A makes every reply B inside A grow S strictly into a winning
    set.  A move allowing a reply with S union B equal to S is rejected:
    the opponent could repeat that reply forever.  Strict growth bounds
    every play by the point count, so the recursion is well founded; the
    adversarial verifier double-checks the synthesized strategy.
    """
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    moves = space.nonempty_opens()
    table: dict[int, tuple[str, int | None]] = {}
    # Largest covered sets first; the stable sort keeps equal sizes ascending.
    for s in sorted(space.opens, key=int.bit_count, reverse=True):
        if space.is_dense(s):
            table[s] = ("dense", None)
            continue
        chosen = None
        for a in moves:
            ok = True
            for b in moves:
                if b & ~a:
                    continue
                s2 = s | b
                if s2 == s or table[s2][0] == "lose":
                    ok = False
                    break
            if ok:
                chosen = a
                break
        table[s] = ("win", chosen) if chosen is not None else ("lose", None)
    winner = "I" if table[0][0] in ("dense", "win") else "II"
    return GameSolution(space=space, winner=winner, table=table)


def minimal_open_strategy(space: FiniteSpace) -> RoundRobinStrategy:
    """Cycle the minimal opens; the universal winning strategy on finite
    spaces.  Minimal opens have no proper nonempty open subsets, so they
    come back verbatim, and their union is dense."""
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    return RoundRobinStrategy(space, space.minimal_open_family())


# -- playing and verifying ----------------------------------------------


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[tuple[int, int], ...]
    covered: tuple[int, ...]
    outcome: str  # "I-wins" | "II-survives" | "cutoff"


@dataclass(frozen=True)
class PlayTrace:
    """A concrete run of the game; ``loop_start`` marks the first round of
    a cycle the opponent can repeat forever."""

    rounds: tuple[tuple[int, int], ...]
    loop_start: int | None = None


@dataclass(frozen=True)
class VerifyResult:
    winning: bool
    counterexample: PlayTrace | None
    nodes_explored: int


def _check_i_move(space: FiniteSpace, move: int) -> None:
    if not move or not space.is_open(move):
        raise IllegalMove("Player I emitted %r" % move)


def verify_winning(space: FiniteSpace, strategy: Strategy) -> VerifyResult:
    """Exact adversarial check of a Player I strategy.

    Explores the product of strategy states and covered sets over every
    legal reply, depth first.  Covered sets only grow, so any reachable
    cycle keeps a non-dense covered set forever and witnesses a way to
    survive; absence of cycles means every play reaches density.  Returns
    a concrete opposing play on failure: an illegal move ends it, and a
    cycle back to a node on the current path makes it a lasso whose
    ``loop_start`` is the number of rounds before that node.  Raises
    StateOverflow after ``VERIFY_NODE_LIMIT`` nodes.
    """
    if space.point_count == 0:
        return VerifyResult(True, None, 0)
    moves = space.nonempty_opens()
    replies_cache: dict[int, tuple[int, ...]] = {}

    def replies(a: int) -> tuple[int, ...]:
        got = replies_cache.get(a)
        if got is None:
            got = tuple(b for b in moves if b & ~a == 0)
            replies_cache[a] = got
        return got

    move0, st0 = strategy.step(strategy.initial_state(), None)
    if not move0 or not space.is_open(move0):
        return VerifyResult(False, PlayTrace(rounds=(), loop_start=None), 0)

    root = (st0, move0, 0)
    # The stack is the current path: one frame (node, its remaining
    # replies, the round that reached it) per node.  on_path maps each of
    # its nodes to the number of rounds before it.
    stack = [(root, iter(replies(move0)), None)]
    on_path = {root: 0}
    done = set()
    nodes = 0
    while stack:
        node, it, _ = stack[-1]
        st, a, covered = node
        for b in it:
            nodes += 1
            if nodes > VERIFY_NODE_LIMIT:
                raise StateOverflow("verification exceeded %d nodes" % VERIFY_NODE_LIMIT)
            cov2 = covered | b
            if space.is_dense(cov2):
                continue
            move2, st2 = strategy.step(st, b)
            child = (st2, move2, cov2)
            if child in done:  # only nodes with legal moves are ever pushed
                continue
            illegal = not move2 or not space.is_open(move2)
            if illegal or child in on_path:
                rounds = tuple(frame[2] for frame in stack[1:]) + ((a, b),)
                loop_start = None if illegal else on_path[child]
                return VerifyResult(False, PlayTrace(rounds, loop_start), nodes)
            on_path[child] = len(stack)
            stack.append((child, iter(replies(move2)), (a, b)))
            break
        else:
            done.add(node)
            del on_path[node]
            stack.pop()
    return VerifyResult(True, None, nodes)


def play(
    space: FiniteSpace,
    strategy_i: Strategy,
    strategy_ii: Strategy,
    max_rounds: int | None = None,
) -> Transcript:
    """Run one game to a verdict or a cutoff.

    A repeated joint configuration (both states, the covered set and the
    last reply) proves the run would loop forever, and the outcome is
    II-survives.  A run that neither wins nor repeats stops after
    ``max_rounds`` (by default 4 * points * opens) as a cutoff; a cutoff
    is flagged, never treated as a loss.
    """
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    if max_rounds is None:
        max_rounds = 4 * space.point_count * len(space.opens)
    rounds: list[tuple[int, int]] = []
    covered_log: list[int] = []
    covered = 0
    st_i = strategy_i.initial_state()
    st_ii = strategy_ii.initial_state()
    last_b: int | None = None
    seen = set()
    outcome = "cutoff"
    for _ in range(max_rounds):
        a, st_i = strategy_i.step(st_i, last_b)
        if not a or not space.is_open(a):
            raise IllegalMove("Player I emitted %r at round %d" % (a, len(rounds)))
        b, st_ii = strategy_ii.step(st_ii, a)
        if not b or not space.is_open(b) or b & ~a:
            raise IllegalMove("Player II emitted %r against %r at round %d" % (b, a, len(rounds)))
        covered |= b
        rounds.append((a, b))
        covered_log.append(covered)
        if space.is_dense(covered):
            outcome = "I-wins"
            break
        last_b = b
        config = (st_i, st_ii, covered, b)
        if config in seen:
            outcome = "II-survives"
            break
        seen.add(config)
    return Transcript(rounds=tuple(rounds), covered=tuple(covered_log), outcome=outcome)


# -- strategy closures and club families ---------------------------------


def seq_witness_strategies(space: FiniteSpace) -> list[WitnessStrategy]:
    """The two collapsed witness strategies (identity and complement)."""
    return [WitnessStrategy(space, complement=False), WitnessStrategy(space, complement=True)]


def _reachable_emissions(space: FiniteSpace, strategy: Strategy, feed: tuple[int, ...]) -> set[int]:
    """Every move the strategy can emit when fed finite histories of the
    given sets, computed by walking the transducer's reachable states;
    raises StateOverflow past ``CLOSURE_STATE_LIMIT`` states."""
    emissions: set[int] = set()
    move0, st0 = strategy.step(strategy.initial_state(), None)
    _check_i_move(space, move0)
    emissions.add(move0)
    seen = {st0}
    frontier = [st0]
    while frontier:
        st = frontier.pop()
        for b in feed:
            move, st2 = strategy.step(st, b)
            _check_i_move(space, move)
            emissions.add(move)
            if st2 not in seen:
                seen.add(st2)
                if len(seen) > CLOSURE_STATE_LIMIT:
                    raise StateOverflow(
                        "strategy closure exceeded %d states" % CLOSURE_STATE_LIMIT
                    )
                frontier.append(st2)
    return emissions


def closure_under_strategies(seed: OpenFamily, strategies: Iterable[Strategy]) -> OpenFamily:
    """Least family containing the seed, every strategy's first move, and
    every move any strategy emits on tuples of current members.

    Empty members of the seed are dropped: strategies trade in legal game
    moves only.  Transducer replay covers histories of every finite
    length, and the family lives inside the finite powerset, so the
    fixpoint terminates.
    """
    space = seed.space
    strategies = list(strategies)
    family = {m for m in seed.members if m}
    while True:
        feed = tuple(sorted(family))
        new: set[int] = set()
        for strat in strategies:
            new |= _reachable_emissions(space, strat, feed)
        new -= family
        if not new:
            return OpenFamily.of(space, family)
        family |= new


def build_tclub_member(seed: OpenFamily) -> OpenFamily:
    """Close a clopen seed into a club family.

    The closure runs under a winning strategy that answers clopen
    histories with clopen moves, both witness strategies and the union
    strategy, alternating with ring closure until everything is stable;
    the empty set is always adjoined.  The result is a ring, every member
    has its complement in the family, and the family is closed under a
    winning strategy; those are exactly the hypotheses under which the
    quotient by the family has a skeletal class map.
    """
    space = seed.space
    if space.point_count == 0:
        raise EmptySpace("club families need a nonempty space")
    clopen = set(space.clopens())
    for m in seed.sorted_members:
        if m not in clopen:
            raise NotClopen("seed member %r is not clopen" % m)
    solution = solve_open_open(space)
    strategies: list[Strategy] = [HybridClopenStrategy(space, solution)]
    strategies += seq_witness_strategies(space)
    strategies.append(UnionStrategy(space))

    # The closure drops empty members, so a round is stable once it adds
    # no nonempty one.
    current = seed
    while True:
        ringed = ring_closure(closure_under_strategies(current, strategies))
        if ringed.members | {0} == current.members | {0}:
            return OpenFamily.of(space, ringed.members | {0})
        current = ringed


def check_condition_S(family: OpenFamily) -> tuple[bool, int | None]:
    """Per-family clause of the club filter: for every nonempty open V
    some member W traps all nonempty members inside it into meeting V.

    Identical to the skeletal-family predicate on the nonempty members;
    kept as its own name because families closed under a winning strategy
    must satisfy it.
    """
    return is_skeletal_family(family)


# -- opponent enumeration ------------------------------------------------


def _ii_option_space(space: FiniteSpace, n_states: int):
    keys = []
    options = []
    for s in range(n_states):
        for a in space.nonempty_opens():
            legal = [b for b in space.nonempty_opens() if b & ~a == 0]
            keys.append((s, a))
            options.append([(b, t) for b in legal for t in range(n_states)])
    return keys, options


def count_ii_strategies(space: FiniteSpace, n_states: int) -> int:
    _, options = _ii_option_space(space, n_states)
    total = 1
    for opts in options:
        total *= len(opts)
    return total


def enumerate_ii_strategies(space: FiniteSpace, n_states: int) -> Iterator[TableStrategy]:
    """All Player II transducers with exactly the given number of states."""
    keys, options = _ii_option_space(space, n_states)
    for combo in itertools.product(*options):
        table = dict(zip(keys, combo))
        yield TableStrategy("II", 0, table)
