"""The open-open game on finite spaces, solved exactly.

Player I offers a nonempty open set, Player II returns a nonempty open
subset of it, and I wins when the union of II's replies becomes dense.
On a finite space the winning table has a closed form: from every
covered set that is not dense (every covered set is a union of opens,
hence open), Player I offers a minimal open it misses, which Player II
must return whole.  The solved strategy computes that move only at the
covered sets a play reaches, about c(X) of them, and the whole table is
built from the same rule only when something reads it.  An adversarial
verifier checks any finite-state strategy against every possible
opponent.

Strategies are deterministic finite-state transducers.  A strategy
closure replays transducers over tuples of family members, so it
terminates inside the finite powerset.  The club member of a clopen
seed is the clopen algebra, built outright.  The solver offers only
minimal opens, and Player II must return a minimal open whole, so every
Player II transducer plays the same line against the solver as the echo.

``Transcript``, ``PlayTrace`` and ``VerifyResult`` are ``NamedTuple``
records, so their fields cannot be assigned.  ``GameSolution`` is a
``__slots__`` class, immutable by convention, whose equality and hash
leave out its table, kept in ``_table`` once given or built.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import EmptySpace, IllegalMove, NotClopen, StateOverflow
from .families import OpenFamily, is_skeletal_family
from .spaces import FiniteSpace

__all__ = [
    "Strategy",
    "PositionalStrategy",
    "RoundRobinStrategy",
    "EchoStrategy",
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
    "closure_under_strategies",
    "build_tclub_member",
    "check_condition_S",
    "count_ii_strategies",
]

# verify_winning raises StateOverflow after exploring this many nodes.
VERIFY_NODE_LIMIT = 500_000
# A strategy closure raises StateOverflow once one strategy reaches more
# states than this.
CLOSURE_STATE_LIMIT = 100_000

# A solved table: covered set -> (status, move).
_Table = dict[int, tuple[str, int | None]]


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

class PositionalStrategy(Strategy):
    """Player I strategy keyed on the covered set.

    Given no table, it computes its move at each covered set that play
    reaches, by the closed form of ``solve_open_open`` (``_solved_move``),
    and ``table`` builds the whole table from that same rule on first
    read, so play and table cannot disagree.  Given a table, it reads it.
    Either way a covered set that is not open raises KeyError.
    """

    kind = "positional"

    def __init__(self, space: FiniteSpace, table: _Table | None = None):
        self.space = space
        self._table = table
        if table is None:
            self._open_set = space._open_set
            self._core = space.dense_core()
            self._minimal = space.minimal_open_family()

    @property
    def table(self) -> _Table:
        """Covered set -> (status, move) at every open, built on first
        read when the strategy was given none."""
        if self._table is None:
            self._table = _build_table(self)
        return self._table

    def initial_state(self):
        return 0

    def step(self, state, observed):
        covered = state if observed is None else state | observed
        return self.move_at(covered), covered

    def move_at(self, covered: int) -> int:
        """The move at ``covered``; at a dense position, which needs none,
        the least nonempty open, or 0 on the space without points."""
        table = self._table
        move = self._solved_move(covered) if table is None else table[covered][1]
        if move is None:
            return self.space.opens[1] if self.space.point_count else 0
        return move

    def _solved_move(self, covered: int) -> int | None:
        """The closed form: None once ``covered`` holds the dense core,
        else the least minimal open it misses.  Should no minimal open
        miss it (only a faulty minimal family allows that), the move is
        the last one scanned, and the verifier reports the play."""
        if covered not in self._open_set:
            raise KeyError(covered)
        core = self._core
        if covered & core == core:
            return None
        for m in self._minimal:
            if not m & covered:
                break
        return m


def _build_table(strategy: PositionalStrategy) -> _Table:
    """The whole table of a strategy without one, from its closed form:
    "dense" with no move, or "win" with the move, at every open."""
    table: _Table = {}
    for s in strategy.space.opens:
        move = strategy._solved_move(s)
        table[s] = ("dense", None) if move is None else ("win", move)
    return table


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


class EchoStrategy(Strategy):
    """Player II strategy returning the offered set unchanged."""

    player = "II"
    kind = "echo"

    def initial_state(self):
        return 0

    def step(self, state, observed):
        return observed, 0


class MinimalReplyStrategy(Strategy):
    """Player II strategy returning the least minimal open inside the offer.

    A subset is never numerically larger than a set holding it, and every
    nonempty open holds a minimal open, so this is also the least nonempty
    open inside the offer."""

    player = "II"
    kind = "minimal"

    def __init__(self, space: FiniteSpace):
        self.space = space
        self._minimal = space.minimal_open_family()

    def initial_state(self):
        return 0

    def step(self, state, observed):
        return min(m for m in self._minimal if m & ~observed == 0), 0


class TableStrategy(Strategy):
    """Explicit transducer given by a (state, observed) -> (move, state)
    table.  Serves both players; the small Player II transducers that
    ``count_ii_strategies`` counts are tables."""

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


class GameSolution:
    """Winner plus the table: covered set -> (status, optimal move).

    A status of "dense" needs no move; every other covered set is "win",
    paired with the least minimal open it misses.  Player I wins every
    finite space, so ``winner`` is always "I".  The solver passes no
    table, so ``strategy`` computes each move where play reaches it and
    ``table`` is built by the same rule on first read (by ``jsonio``, the
    CLI's ``game solve`` and tests).  A table passed in, as by a reference
    solver or a planted fault, is kept and played.  Equality and hashing
    compare the space and the winner, not the table, which the solver
    derives from the space; nothing changes the fields after construction.
    """

    __slots__ = ("space", "winner", "_table")

    def __init__(self, space: FiniteSpace, winner: str, table: _Table | None = None):
        self.space = space
        self.winner = winner
        self._table = table

    @property
    def table(self) -> _Table:
        if self._table is None:
            self._table = PositionalStrategy(self.space).table
        return self._table

    @property
    def strategy(self) -> PositionalStrategy:
        return PositionalStrategy(self.space, self._table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GameSolution)
            and self.space == other.space
            and self.winner == other.winner
        )

    def __hash__(self) -> int:
        return hash((self.space, self.winner))

    def __repr__(self) -> str:
        return f"GameSolution({self.space!r}, {self.winner!r})"


def solve_open_open(space: FiniteSpace) -> GameSolution:
    """The open-open game in closed form, solved where play reaches.

    The minimal opens form a pi-base, and each lies inside every open set
    it meets.  Covered sets are open, so a covered set is dense when it
    holds the dense core and otherwise misses a minimal open.  Offered
    that open, Player II must return it whole, which grows the covered
    set strictly, so Player I wins from every covered set.  The least
    minimal open missing S is also the least nonempty open missing S,
    since each such open holds a minimal open no larger than itself.
    The solution's strategy plays that rule at each covered set a play
    reaches, and its table is built only when read.
    ``tests/oracles.py`` keeps the backward induction as the reference.
    """
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    return GameSolution(space, "I")


def minimal_open_strategy(space: FiniteSpace) -> RoundRobinStrategy:
    """Cycle the minimal opens; the universal winning strategy on finite
    spaces.  Minimal opens have no proper nonempty open subsets, so they
    come back verbatim, and their union is dense."""
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    return RoundRobinStrategy(space, space.minimal_open_family())


# -- playing and verifying ----------------------------------------------


class Transcript(NamedTuple):
    rounds: tuple[tuple[int, int], ...]
    covered: tuple[int, ...]
    outcome: str  # "I-wins" | "II-survives" | "cutoff"


class PlayTrace(NamedTuple):
    """A concrete run of the game; ``loop_start`` marks the first round of
    a cycle the opponent can repeat forever."""

    rounds: tuple[tuple[int, int], ...]
    loop_start: int | None = None


class VerifyResult(NamedTuple):
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
    core = space.dense_core()
    replies = space.opens_inside
    step = strategy.step
    open_set = space._open_set
    move0, st0 = step(strategy.initial_state(), None)
    if not move0 or move0 not in open_set:
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
            if cov2 & core == core:  # cov2 is open
                continue
            move2, st2 = step(st, b)
            child = (st2, move2, cov2)
            if child in done:  # only nodes with legal moves are ever pushed
                continue
            illegal = not move2 or move2 not in open_set
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
    ``max_rounds`` (by default 4 * points * opens, else at least 1) as a
    cutoff; a cutoff is flagged, never treated as a loss.
    """
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    if max_rounds is None:
        max_rounds = 4 * space.point_count * len(space.opens)
    elif max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
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
    """The club member generated by a clopen seed: the clopen algebra.

    The paper's member is the least ring holding the seed that is closed
    under a winning strategy of Player I.  The strategy that cycles the
    quasi-components answers clopen histories with clopen moves and
    emits every quasi-component, whose unions are all the clopen sets,
    so that closure is the whole clopen algebra for every clopen seed
    (``tests/oracles.py`` recomputes it by the strategy closure).  It is
    a ring, holds each member's complement and is closed under a winning
    strategy: the hypotheses under which the quotient by it has a
    skeletal class map.
    """
    space = seed.space
    if space.point_count == 0:
        raise EmptySpace("club families need a nonempty space")
    clopen = set(space.clopens())
    for m in seed.sorted_members:
        if m not in clopen:
            raise NotClopen("seed member %r is not clopen" % m)
    return OpenFamily.of(space, clopen)


def check_condition_S(family: OpenFamily) -> tuple[bool, int | None]:
    """Per-family clause of the club filter: for every nonempty open V
    some member W traps all nonempty members inside it into meeting V.

    Identical to the skeletal-family predicate on the nonempty members:
    it holds exactly when the inclusion-minimal nonempty members cover the
    dense core, and the witness is the least minimal open they miss.  Kept
    as its own name because families closed under a winning strategy must
    satisfy it.
    """
    return is_skeletal_family(family)


# -- small Player II transducers ------------------------------------------


def count_ii_strategies(space: FiniteSpace, n_states: int) -> int:
    """The number of Player II transducers with ``n_states`` states:
    tables from (state, nonempty open offer) to (nonempty open reply
    inside it, next state).

    Each key takes its value independently, and the key (s, a) has
    ``n_states`` times as many values as there are nonempty opens inside
    a.  Every state reads the same offers, so the product over the offers
    is taken once per state."""
    per_state = math.prod(n_states * len(space.opens_inside(a)) for a in space.nonempty_opens())
    return per_state**n_states
