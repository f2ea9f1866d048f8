"""The mutation score.  Each row plants one fault in a library decision
that a suite property rests on, runs the suite at small size and requires
a violation of the named property, so the property can fail.  A property
that no planted fault trips is degenerate or unguarded."""

import pytest

from topolab import families, jsonio, suites
from topolab.enumeration import all_spaces
from topolab.families import build_quotient
from topolab.game import PositionalStrategy, TableStrategy, count_ii_strategies, play
from topolab.spaces import FiniteSpace

from oracles import (
    classes_by_signature,
    continuous_by_preimages,
    enumerate_ii_strategies,
    every_family,
)


def always_completely_regular(monkeypatch):
    """``separation_flags`` reports every space completely regular."""
    real = FiniteSpace.separation_flags

    def lying(space):
        return real(space)._replace(completely_regular=True)

    monkeypatch.setattr(FiniteSpace, "separation_flags", lying)


def skeletal_family_skipping_last_row(monkeypatch):
    """``is_skeletal_family`` never tests the largest distinct row."""

    def mutant(family):
        members = [m for m in family.members if m]
        for v in sorted(set(family.space.rows))[:-1]:
            if not any(all(u & v for u in members if u & ~w == 0) for w in members):
                return False, v
        return True, None

    monkeypatch.setattr(suites, "is_skeletal_family", mutant)


def skeletal_family_covering_with_all_members(monkeypatch):
    """``is_skeletal_family`` covers the dense core with the union of all
    members, not only the inclusion-minimal ones."""

    def mutant(family):
        missed = family.space.dense_core() & ~family.union_mask()
        if not missed:
            return True, None
        return False, next(v for v in family.space.minimal_open_family() if v & missed)

    monkeypatch.setattr(suites, "is_skeletal_family", mutant)


def is_dense_ignoring_last_row(monkeypatch):
    """``FiniteSpace.is_dense`` never tests the last row."""

    def mutant(space, mask):
        return all(row & mask for row in space.rows[:-1])

    monkeypatch.setattr(FiniteSpace, "is_dense", mutant)


def solver_accepting_replies_that_do_not_grow(monkeypatch):
    """The solved strategy plays the least nonempty open not inside the
    covered set, so a reply inside the covered set does not grow it."""
    real = PositionalStrategy._solved_move

    def mutant(strategy, covered):
        if real(strategy, covered) is None:
            return None
        return next(a for a in strategy.space.nonempty_opens() if a & ~covered)

    monkeypatch.setattr(PositionalStrategy, "_solved_move", mutant)


def minimal_open_family_dropping_its_last_member(monkeypatch):
    """``FiniteSpace.minimal_open_family`` leaves out its last member when
    it has two or more, so the round robin of the minimal opens misses
    one, and the solver offers a minimal open the covered set already
    holds where only the dropped one is missing.  The verifier reads
    density off the dense core, not off this family, so it must see both
    strategies fail."""
    real = FiniteSpace.minimal_open_family

    def mutant(space):
        return real(space)[:-1] or real(space)

    monkeypatch.setattr(FiniteSpace, "minimal_open_family", mutant)


def dense_core_dropping_its_highest_point(monkeypatch):
    """``FiniteSpace.dense_core`` leaves out its highest point, so the
    solver takes some covered sets that miss a minimal open for dense."""
    real = FiniteSpace.dense_core

    def mutant(space):
        core = real(space)
        return core & ~(1 << (core.bit_length() - 1)) if core else core

    monkeypatch.setattr(FiniteSpace, "dense_core", mutant)


def quotient_spaces_keyed_by_class_count(monkeypatch):
    """``build_quotient`` looks its shared space up by the number of
    classes, not by the rows, so every quotient with as many classes gets
    the first such space built."""

    class ByClassCount(dict):
        def get(self, rows):
            return super().get(len(rows))

        def __setitem__(self, rows, space):
            super().__setitem__(len(rows), space)

    monkeypatch.setattr(families, "_QUOTIENT_SPACES", ByClassCount())


def meet_rows_dropping_its_largest_set(monkeypatch):
    """``build_quotient`` groups the points by ``meet_rows`` without the
    largest member, so points that the dropped member tells apart fall
    into one class, and a member is smaller than the preimage of its
    image."""
    real = families.meet_rows

    def mutant(point_count, sets):
        return real(point_count, sorted(sets)[:-1])

    monkeypatch.setattr(families, "meet_rows", mutant)


MUTANTS = [
    (always_completely_regular, suites.quotient_suite, "completely_regular_oracle"),
    (skeletal_family_skipping_last_row, suites.quotient_suite, "skeletal_family_iff_map"),
    (
        skeletal_family_covering_with_all_members,
        suites.quotient_suite,
        "skeletal_family_iff_map",
    ),
    (is_dense_ignoring_last_row, suites.quotient_suite, "skeletal_dense_preimage"),
    (quotient_spaces_keyed_by_class_count, suites.quotient_suite, "meet_closed_continuous"),
    (meet_rows_dropping_its_largest_set, suites.quotient_suite, "q_preimage_identity"),
    (
        solver_accepting_replies_that_do_not_grow,
        suites.game_suite,
        "solver_beats_small_transducers",
    ),
    (solver_accepting_replies_that_do_not_grow, suites.game_suite, "solver_beats_echo_quickly"),
    (
        minimal_open_family_dropping_its_last_member,
        suites.game_suite,
        "minimal_open_strategy_verified",
    ),
    (minimal_open_family_dropping_its_last_member, suites.game_suite, "solver_strategy_verified"),
    (dense_core_dropping_its_highest_point, suites.game_suite, "solver_beats_small_transducers"),
]


# A row is named after its plant; a plant's later rows add their property.
MUTANT_IDS = [
    plant.__name__ + ("-" + prop if any(row[0] is plant for row in MUTANTS[:i]) else "")
    for i, (plant, _, prop) in enumerate(MUTANTS)
]


@pytest.mark.parametrize("plant, suite, prop", MUTANTS, ids=MUTANT_IDS)
def test_mutant_violates_its_property(monkeypatch, plant, suite, prop):
    plant(monkeypatch)
    rep = suite(max_points=3, samples=0, seed=0)
    assert any(v["property"] == prop for v in rep.violations)
    # each failing check has called its witness, and the result is JSON
    for v in rep.violations:
        assert not callable(v["witness"]), v["property"]
        jsonio.dumps(v["witness"])


def test_signature_oracle_sees_a_fault_in_meet_rows(monkeypatch):
    # build_quotient groups the points by meet_rows, so only the
    # membership signatures group them independently of it
    meet_rows_dropping_its_largest_set(monkeypatch)
    pairs = [(space, members) for space in all_spaces(3) for members in every_family(space)]
    disagree = sum(
        build_quotient(space, members).classes != classes_by_signature(space, members)
        for space, members in pairs
    )
    assert (disagree, len(pairs)) == (296, 1070)


def test_q_continuous_fails_under_the_class_count_plant(monkeypatch):
    # the verdict is read off the built map, so a quotient given another
    # space's rows is seen, and the preimage oracle agrees on every pair
    quotient_spaces_keyed_by_class_count(monkeypatch)
    failing = 0
    for space in all_spaces(3):
        for members in every_family(space):
            q = build_quotient(space, members)
            assert q.q_continuous == continuous_by_preimages(q.map)
            failing += not q.q_continuous
    assert failing == 364


def test_transducer_violations_match_playing_every_opponent(monkeypatch):
    # under a planted fault the suite lists one violation per losing
    # opponent, in enumeration order, as one play per opponent does
    solver_accepting_replies_that_do_not_grow(monkeypatch)
    rep = suites.game_suite(max_points=3, samples=0, seed=0)
    prop = "solver_beats_small_transducers"
    expected = []
    for space in all_spaces(3, min_points=1):
        tag = jsonio.encode_space(space)["opens"]
        sol = suites.solve_open_open(space)
        for states in (1, 2):
            if count_ii_strategies(space, states) > 3000:
                continue
            for opp in enumerate_ii_strategies(space, states):
                t = play(space, sol.strategy, opp)
                progress = len(set(t.covered))  # covered sets only grow
                if t.outcome != "I-wins" or progress > space.point_count:
                    witness = [tag, states, jsonio.encode_transducer(opp)[:4]]
                    expected.append({"property": prop, "witness": witness})
    assert [v for v in rep.violations if v["property"] == prop] == expected
    assert len(expected) == 30
    # the first witness, pinned literally so the encoder cannot move it
    assert jsonio.dumps(expected[0]["witness"]) == (
        '[[[],[0,1],[0,1,2],[1],[1,2],[2]],1,'
        '[{"move":[1],"next":0,"observed":[1],"state":0},'
        '{"move":[1],"next":0,"observed":[0,1],"state":0},'
        '{"move":[2],"next":0,"observed":[2],"state":0},'
        '{"move":[1],"next":0,"observed":[1,2],"state":0}]]\n'
    )
    assert sum(v["property"] == "solver_strategy_verified" for v in rep.violations) == 2
    assert rep.counts["opponents_played"] == 17_172


def test_transducers_are_played_one_by_one_when_the_certificate_fails(monkeypatch):
    # a solver opening with the whole space offers a set that is not a
    # minimal open on every space but the indiscrete ones, so the suite
    # plays each opponent; all of them still lose, and the counts match
    # the ones the certificate gives on the sound solver
    real = PositionalStrategy._solved_move

    def opening_with_the_whole_space(strategy, covered):
        return strategy.space.full if covered == 0 else real(strategy, covered)

    tables_played = 0
    real_play = suites.play

    def counting_play(space, strategy_i, strategy_ii, max_rounds=None):
        nonlocal tables_played
        tables_played += isinstance(strategy_ii, TableStrategy)
        return real_play(space, strategy_i, strategy_ii, max_rounds)

    monkeypatch.setattr(PositionalStrategy, "_solved_move", opening_with_the_whole_space)
    monkeypatch.setattr(suites, "play", counting_play)
    rep = suites.game_suite(max_points=3, samples=0, seed=0)
    assert not any(v["property"] == "solver_beats_small_transducers" for v in rep.violations)
    assert rep.cases_run == 17_309
    assert rep.counts["opponents_played"] == 17_172
    # all but the 1 + 4 opponents of each of the 3 indiscrete spaces
    assert tables_played == 17_172 - 3 * 5
