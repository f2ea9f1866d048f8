import itertools
import random

import pytest

from topolab.enumeration import all_spaces, all_topologies
from topolab.errors import EmptySpace, IllegalMove, NotClopen
from topolab.families import OpenFamily, build_quotient, seq_family
from topolab.game import (
    EchoStrategy,
    MinimalReplyStrategy,
    RoundRobinStrategy,
    build_tclub_member,
    check_condition_S,
    closure_under_strategies,
    count_ii_strategies,
    minimal_open_strategy,
    play,
    solve_open_open,
    verify_winning,
)
from topolab.randgen import (
    random_clopen_seed,
    random_family,
    random_space,
    random_space_subbasis,
    rng_for,
)
from topolab.spaces import FiniteSpace

from oracles import (
    HybridClopenStrategy,
    LeastReplyStrategy,
    UnionStrategy,
    apply_history,
    club_by_strategy_closure,
    default_first_move,
    enumerate_ii_strategies,
    seq_witness_strategies,
    solve_by_full_scan,
    verify_by_colors,
)

SIERP = FiniteSpace.sierpinski()
D2 = FiniteSpace.discrete(2)
D3 = FiniteSpace.discrete(3)
# connected three-point space whose only clopens are trivial
WEDGE = FiniteSpace(3, [0b000, 0b001, 0b010, 0b011, 0b111])


def test_solver_examples():
    sol = solve_open_open(SIERP)
    assert sol.winner == "I"
    assert sol.table[0] == ("win", 0b10)
    sol2 = solve_open_open(D2)
    assert sol2.table[0] == ("win", 0b01)
    assert sol2.table[0b01] == ("win", 0b10)


def test_solver_empty_space_errors():
    with pytest.raises(EmptySpace):
        solve_open_open(FiniteSpace(0, [0]))
    with pytest.raises(EmptySpace):
        minimal_open_strategy(FiniteSpace(0, [0]))


def test_player_I_wins_all_small_topologies():
    for n in range(1, 5):
        for space in all_topologies(n):
            sol = solve_open_open(space)
            assert sol.winner == "I"
            assert verify_winning(space, sol.strategy).winning
            assert verify_winning(space, minimal_open_strategy(space)).winning


def _assert_solver_matches_full_scan(space):
    sol, ref = solve_open_open(space), solve_by_full_scan(space)
    assert sol.winner == ref.winner
    assert sol.table == ref.table


def test_solver_matches_full_scan_on_small_spaces():
    for space in all_spaces(4, min_points=1):
        _assert_solver_matches_full_scan(space)


def test_solver_matches_full_scan_on_sampled_five_point_spaces():
    spaces = list(all_topologies(5))
    for space in random.Random(6).sample(spaces, 300):
        _assert_solver_matches_full_scan(space)


def test_minimal_strategy_examples():
    assert minimal_open_strategy(D3).moves == (0b001, 0b010, 0b100)
    assert minimal_open_strategy(SIERP).moves == (0b10,)
    assert minimal_open_strategy(FiniteSpace.chain(3)).moves == (0b001,)


def test_verify_rejects_bad_strategy():
    res = verify_winning(D2, RoundRobinStrategy(D2, [0b01]))
    assert not res.winning
    trace = res.counterexample
    assert trace is not None and trace.loop_start is not None
    # the lasso keeps the covered set constant and non-dense
    covered = 0
    for a, b in trace.rounds:
        assert b & ~a == 0
        covered |= b
    assert not D2.is_dense(covered)


def test_verify_agrees_with_the_colouring_search():
    # same verdict, same lasso and the same node count as the GRAY/BLACK
    # search, for winning and losing strategies on every space up to 4 points;
    # of these strategies only the last reaches a finished node again, so
    # only it exercises the done set
    for space in all_spaces(4, min_points=1):
        strategies = [solve_open_open(space).strategy, minimal_open_strategy(space)]
        strategies += [RoundRobinStrategy(space, [a]) for a in space.nonempty_opens()]
        strategies.append(RoundRobinStrategy(space, space.nonempty_opens()[::-1]))
        for strat in strategies:
            # VerifyResult compares (winning, counterexample, nodes_explored)
            assert verify_winning(space, strat) == verify_by_colors(space, strat)


def test_verify_monotone_covered_in_every_cycle():
    # any reported lasso must keep covered constant from loop start on
    for space in all_spaces(3, min_points=1):
        for moves in [(space.nonempty_opens()[0],), space.minimal_open_family()]:
            res = verify_winning(space, RoundRobinStrategy(space, list(moves)))
            if res.counterexample and res.counterexample.loop_start is not None:
                rounds = res.counterexample.rounds
                stem_cover = 0
                for a, b in rounds[: res.counterexample.loop_start]:
                    stem_cover |= b
                loop_cover = stem_cover
                for a, b in rounds[res.counterexample.loop_start :]:
                    loop_cover |= b
                assert loop_cover == stem_cover


def test_product_graph_covered_is_monotone():
    # walk the verifier's product graph by hand: along every edge the
    # covered set grows or the (state, covered) pair has been seen before,
    # so infinite plays settle on a constant covered set
    for space in all_spaces(3, min_points=1):
        strat = minimal_open_strategy(space)
        move0, st0 = strat.step(strat.initial_state(), None)
        frontier = [(st0, move0, 0)]
        seen = {(st0, 0)}
        while frontier:
            st, a, covered = frontier.pop()
            for b in space.nonempty_opens():
                if b & ~a:
                    continue
                cov2 = covered | b
                assert cov2 & ~space.full == 0 and covered & ~cov2 == 0
                move2, st2 = strat.step(st, b)
                if cov2 == covered:
                    continue  # monotone step with no growth repeats a pair eventually
                if (st2, cov2) not in seen:
                    seen.add((st2, cov2))
                    frontier.append((st2, move2, cov2))
        assert len(seen) <= len(strat.moves) * len(space.opens)


def test_play_examples():
    sol = solve_open_open(SIERP)
    t = play(SIERP, sol.strategy, EchoStrategy())
    assert t.outcome == "I-wins" and len(t.rounds) == 1

    stubborn = RoundRobinStrategy(D2, [0b01])
    t2 = play(D2, stubborn, EchoStrategy())
    assert t2.outcome == "II-survives" and t2.covered[-1] == 0b01
    # ten copies of the move give ten states, so no configuration repeats
    slow = RoundRobinStrategy(D2, [0b01] * 10)
    t3 = play(D2, slow, EchoStrategy(), max_rounds=10)
    assert t3.outcome == "cutoff" and len(t3.rounds) == 10 and t3.covered[-1] == 0b01


@pytest.mark.parametrize("rounds", [0, -1])
def test_play_needs_at_least_one_round(rounds):
    with pytest.raises(ValueError, match="max_rounds must be at least 1"):
        play(D2, solve_open_open(D2).strategy, EchoStrategy(), max_rounds=rounds)


def test_play_rejects_illegal_moves():
    class BadII(EchoStrategy):
        def step(self, state, observed):
            return 0, 0

    with pytest.raises(IllegalMove):
        play(D2, solve_open_open(D2).strategy, BadII())

    class BadI(RoundRobinStrategy):
        def step(self, state, observed):
            return 0b01, 0  # {0} is not open in the Sierpinski space

    space = FiniteSpace.sierpinski()
    with pytest.raises(IllegalMove):
        play(space, BadI(space, [0b10]), EchoStrategy())


@pytest.mark.parametrize("move", [0, 0b01])
def test_play_rejects_a_bad_offer_before_the_minimal_reply(move):
    # the minimal reply has no fallback: an empty or non-open offer never
    # reaches it
    space = FiniteSpace.sierpinski()
    with pytest.raises(IllegalMove, match="Player I"):
        play(space, RoundRobinStrategy(space, [move]), MinimalReplyStrategy(space))


def test_play_against_echo_and_minimal_replies():
    for space in all_spaces(4, min_points=1):
        sol = solve_open_open(space)
        for opp in (EchoStrategy(), MinimalReplyStrategy(space)):
            t = play(space, sol.strategy, opp)
            assert t.outcome == "I-wins"
            assert len(t.rounds) <= space.point_count


def test_minimal_reply_is_the_least_reply_on_every_offer():
    # a subset is never numerically larger than a set holding it, so the
    # least nonempty open inside an offer is a minimal open
    offers = 0
    for space in all_spaces(4, min_points=1):
        least, minimal = LeastReplyStrategy(space), MinimalReplyStrategy(space)
        for a in space.nonempty_opens():
            assert minimal.step(0, a) == least.step(0, a)
            offers += 1
    assert offers == 2_093


def test_default_first_move():
    assert default_first_move(D2) == 0b01  # least nonempty clopen
    assert default_first_move(SIERP) == 0b11  # only nonempty clopen is X
    assert default_first_move(WEDGE) == 0b111
    with pytest.raises(EmptySpace):
        default_first_move(FiniteSpace(0, [0]))


def test_witness_strategy_examples():
    s_id, s_comp = seq_witness_strategies(D2)
    assert apply_history(s_comp, [0b01]) == 0b10
    s_id3, _ = seq_witness_strategies(D3)
    assert apply_history(s_id3, [0b011]) == 0b011
    # no proper nonempty clopen: both collapse to the default
    w_id, w_comp = seq_witness_strategies(SIERP)
    assert apply_history(w_id, [0b10]) == default_first_move(SIERP)
    assert apply_history(w_comp, [0b10]) == default_first_move(SIERP)
    assert apply_history(w_comp, []) == default_first_move(SIERP)
    # longer histories fall back to the default as well
    assert apply_history(s_comp, [0b01, 0b10]) == default_first_move(D2)


def test_closure_examples():
    comp = seq_witness_strategies(D2)[1]
    fam = closure_under_strategies(OpenFamily.of(D2, [0b01]), [UnionStrategy(D2), comp])
    assert fam.members == frozenset({0b01, 0b10, 0b11})
    again = closure_under_strategies(fam, [UnionStrategy(D2), comp])
    assert again.members == fam.members

    const = RoundRobinStrategy(D3, [0b010])
    fam2 = closure_under_strategies(OpenFamily.of(D3, []), [const])
    assert fam2.members == frozenset({0b010})


def test_closure_drops_empty_seed_members():
    fam = closure_under_strategies(OpenFamily.of(D2, [0, 0b01]), [RoundRobinStrategy(D2, [0b01])])
    assert fam.members == frozenset({0b01})


def test_closure_and_club_reject_a_seed_that_is_not_open():
    # with no strategies the closure is the seed
    same = OpenFamily.of(FiniteSpace.discrete(2), [0b01])
    assert closure_under_strategies(same, []).members == {0b01}
    with pytest.raises(ValueError, match="not open"):
        closure_under_strategies(OpenFamily.of(SIERP, [0b01]), [])
    with pytest.raises(ValueError, match="not open"):
        build_tclub_member(OpenFamily.of(SIERP, [0b01]))  # {0} is not even open


def test_tclub_examples():
    fam = build_tclub_member(OpenFamily.of(D2, [0b01]))
    assert fam.members == frozenset({0, 0b01, 0b10, 0b11})
    fam2 = build_tclub_member(OpenFamily.of(D2, []))
    assert fam2.members == frozenset({0, 0b01, 0b10, 0b11})
    ok, _ = check_condition_S(fam2)
    assert ok


def test_tclub_validates_clopen_seed():
    with pytest.raises(NotClopen):
        build_tclub_member(OpenFamily.of(SIERP, [0b10]))  # {1} is open, not closed
    with pytest.raises(EmptySpace):
        build_tclub_member(OpenFamily.of(FiniteSpace(0, [0]), []))


def test_tclub_postconditions_on_connected_space():
    fam = build_tclub_member(OpenFamily.of(WEDGE, []))
    assert fam.members == frozenset({0, 0b111})
    assert fam.is_ring()
    assert fam.members <= seq_family(fam).members
    q = build_quotient(WEDGE, fam)
    assert q.quotient_space.point_count == 1
    assert q.map.is_skeletal()
    assert q.quotient_space.separation_flags().completely_regular


def test_tclub_theorem_seeded():
    rng = rng_for(11, "tclub-test")
    for i in range(200):
        space = random_space(rng, 1 + (i % 4))
        seed_fam = random_clopen_seed(rng, space)
        fam = build_tclub_member(seed_fam)
        assert fam.is_ring()
        assert fam.members <= seq_family(fam).members
        ok, _ = check_condition_S(fam)
        assert ok
        q = build_quotient(space, fam)
        assert q.map.is_skeletal()
        assert q.quotient_space.separation_flags().completely_regular
        # closed under every strategy that built it: rebuilding is stable
        clopen_part = fam.members & set(space.clopens())
        assert build_tclub_member(OpenFamily.of(space, clopen_part)).members == fam.members


def _assert_club_matches_strategy_closure(seed):
    assert build_tclub_member(seed).members == club_by_strategy_closure(seed).members


def test_club_member_matches_strategy_closure_on_small_spaces():
    # the empty seed, each nonempty clopen and each pair of them
    cases = 0
    for space in all_spaces(4, min_points=1):
        clopens = [c for c in space.clopens() if c]
        seeds = [()] + [(c,) for c in clopens] + list(itertools.combinations(clopens, 2))
        for members in seeds:
            _assert_club_matches_strategy_closure(OpenFamily.of(space, members))
            cases += 1
    assert cases == 1975


def test_club_member_matches_strategy_closure_on_seeded_larger_spaces():
    rng = rng_for(3, "club-oracle")
    for i in range(200):
        space = random_space_subbasis(rng, 5 + i % 2)
        _assert_club_matches_strategy_closure(random_clopen_seed(rng, space))


def test_hybrid_strategy_is_winning_everywhere():
    for space in all_spaces(4, min_points=1):
        sol = solve_open_open(space)
        hyb = HybridClopenStrategy(space, sol)
        assert verify_winning(space, hyb).winning


def test_condition_S_examples():
    ok, witness = check_condition_S(OpenFamily.of(D2, [0b10]))
    assert not ok and witness == 0b01
    ok, _ = check_condition_S(OpenFamily.of(D2, D2.nonempty_opens()))
    assert ok


def test_solver_closures_satisfy_condition_S():
    rng = rng_for(5, "closure-s")
    for i in range(120):
        space = random_space(rng, 1 + (i % 3))
        seed_fam = random_family(rng, space, rng.randint(0, 3))
        sol = solve_open_open(space)
        fam = closure_under_strategies(seed_fam, [sol.strategy])
        ok, _ = check_condition_S(fam)
        assert ok


def test_closure_lemma_with_a_negative_control():
    # closures under a winning strategy satisfy condition S; closures under
    # a one-move strategy the verifier rejects often do not
    cases = controls = control_failures = 0
    for space in all_spaces(4, min_points=1):
        opens = space.nonempty_opens()
        seeds = [()] + [(o,) for o in opens] + list(itertools.combinations(opens, 2))
        winners = [solve_open_open(space).strategy, minimal_open_strategy(space)]
        losers = (RoundRobinStrategy(space, [a]) for a in opens)
        loser = next((s for s in losers if not verify_winning(space, s).winning), None)
        for members in seeds:
            seed = OpenFamily.of(space, members)
            for strategy in winners:
                assert check_condition_S(closure_under_strategies(seed, [strategy]))[0]
                cases += 1
            if loser is not None:
                ok, _ = check_condition_S(closure_under_strategies(seed, [loser]))
                controls += 1
                control_failures += not ok
    assert cases == 15_986
    assert (control_failures, controls) == (3_994, 6_048)


def test_solver_beats_every_tiny_transducer():
    for space in all_spaces(2, min_points=1):
        sol = solve_open_open(space)
        for states in (1, 2):
            assert count_ii_strategies(space, states) <= 5000
            for opp in enumerate_ii_strategies(space, states):
                t = play(space, sol.strategy, opp)
                assert t.outcome == "I-wins"
                progress = sum(
                    1
                    for k, c in enumerate(t.covered)
                    if c != (t.covered[k - 1] if k else 0)
                )
                assert progress <= space.point_count


def test_transducer_plays_match_every_enumerated_opponent():
    # the solver offers only minimal opens, which Player II must return
    # whole, so every opponent plays the solver's line against the echo,
    # and that line wins with at most one covered set per point; one play
    # per enumerated opponent on every space of 1-3 points under the cap
    pairs = opponents = 0
    for space in all_spaces(3, min_points=1):
        sol = solve_open_open(space)
        echo = play(space, sol.strategy, EchoStrategy())
        minimal = set(space.minimal_open_family())
        assert all(a in minimal for a, _ in echo.rounds)
        assert echo.outcome == "I-wins"
        assert len(set(echo.covered)) <= space.point_count  # covered sets only grow
        for states in (1, 2):
            total = count_ii_strategies(space, states)
            if total > 3000:
                continue
            opps = list(enumerate_ii_strategies(space, states))
            assert len(opps) == total
            for opp in opps:
                t = play(space, sol.strategy, opp)
                assert (t.rounds, t.outcome) == (echo.rounds, echo.outcome)
            pairs += 1
            opponents += total
    assert (pairs, opponents) == (55, 17_172)
