"""The library's records keep the fields, constructors and equality they
have always had: result records are NamedTuples, the four classes with
behaviour are __slots__ classes, and importing the CLI loads no
code-generating module."""

import subprocess
import sys

import pytest

from topolab.families import OpenFamily, Quotient, build_quotient
from topolab.game import GameSolution, PlayTrace, Transcript, VerifyResult, solve_open_open
from topolab.spaces import FiniteSpace, FrinkReport, SeparationReport, SpaceMap
from topolab.suites import SuiteReport
from topolab.systems import (
    DirectedPoset,
    EmbeddingReport,
    FamilySystem,
    InverseSystem,
    LimitSpace,
    SigmaReport,
    SkeletalSystemReport,
    SystemCheck,
)

from cli_env import cli_env

# Each record's fields, in their declared order.
RECORD_FIELDS = {
    SeparationReport: ("t0", "t1", "hausdorff", "regular", "completely_regular"),
    FrinkReport: ("cond1", "cond1_witness", "cond2", "cond2_witness"),
    Quotient: (
        "space", "family", "classes", "assign", "quotient_space", "map", "identity_holds",
    ),
    Transcript: ("rounds", "covered", "outcome"),
    PlayTrace: ("rounds", "loop_start"),
    VerifyResult: ("winning", "counterexample", "nodes_explored"),
    SystemCheck: ("ok", "witness"),
    LimitSpace: ("system", "threads", "space", "projections"),
    SkeletalSystemReport: (
        "bond_skeletal", "projection_skeletal", "hypothesis_holds", "proposition_holds",
    ),
    FamilySystem: ("space", "families", "quotients", "system"),
    EmbeddingReport: (
        "continuous", "injective", "separates_points", "union_is_base",
        "image_identity_holds", "open_onto_image", "image_dense",
        "homeomorphism_onto_limit", "vacuous_for_clopen_base",
    ),
    SigmaReport: ("ok", "sup", "witness"),
}
SLOTS_FIELDS = {
    OpenFamily: ("space", "members"),
    GameSolution: ("space", "winner", "_table"),
    InverseSystem: ("poset", "spaces", "bonds", "check"),
    SuiteReport: ("name", "seed", "max_points", "samples", "cases_run", "counts", "violations"),
}

SIERP = FiniteSpace.sierpinski()  # opens {}, {1}, {0,1}
D2 = FiniteSpace.discrete(2)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_keep_their_fields_and_constructors(cls):
    fields = RECORD_FIELDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == ({"loop_start": None} if cls is PlayTrace else {})
    values = [object() for _ in fields]
    rec = cls(*values)
    assert rec == cls(**dict(zip(fields, values)))
    assert [getattr(rec, f) for f in fields] == values
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)


def test_quotient_verdicts_are_read_only_properties():
    q = build_quotient(SIERP, [0b10])
    for name in ("q_continuous", "image_is_base"):
        assert name not in Quotient._fields
        assert isinstance(getattr(Quotient, name), property)
        with pytest.raises(AttributeError):
            setattr(q, name, False)
    assert (q.q_continuous, q.image_is_base) == (True, False)


@pytest.mark.parametrize("cls", SLOTS_FIELDS, ids=lambda cls: cls.__name__)
def test_slots_classes_keep_their_field_order(cls):
    assert cls.__slots__ == SLOTS_FIELDS[cls]


def test_slots_classes_take_keywords():
    fam = OpenFamily(space=SIERP, members=frozenset({2, 3}))
    assert fam == OpenFamily(SIERP, frozenset({2, 3}))
    sol = GameSolution(space=SIERP, winner="I", table={})
    assert (sol.space, sol.winner, sol.table) == (SIERP, "I", {})
    poset = DirectedPoset(("lo", "hi"), [(0, 1)])
    bond = SpaceMap(D2, D2, [1, 0])
    sys_kw = InverseSystem(poset=poset, spaces=(D2, D2), bonds={(0, 1): bond})
    assert sys_kw == InverseSystem(poset, (D2, D2), {(0, 1): bond})
    assert sorted(sys_kw.bonds) == [(0, 0), (0, 1), (1, 1)] and sys_kw.check.ok
    rep = SuiteReport(name="demo", seed=1, max_points=2, samples=3)
    assert (rep.cases_run, rep.counts, rep.violations) == (0, {}, [])
    # each report gets its own tallies
    assert SuiteReport("demo", 1, 2, 3).counts is not rep.counts
    assert SuiteReport("demo", 1, 2, 3).violations is not rep.violations
    full = SuiteReport("demo", 1, 2, 3, 4, {"k": 5}, [6])
    assert (full.cases_run, full.counts, full.violations) == (4, {"k": 5}, [6])


def test_game_solution_equality_and_hash_ignore_the_table():
    sol = solve_open_open(SIERP)
    other = GameSolution(SIERP, "I", {})
    assert sol == other and not sol != other
    assert hash(sol) == hash(other)
    assert sol != GameSolution(SIERP, "II", sol.table)
    assert sol != GameSolution(D2, "I", sol.table)
    assert len({sol, other, solve_open_open(SIERP)}) == 1


def test_open_family_equality_hash_and_check():
    fam = OpenFamily(SIERP, frozenset({2, 3}))
    same = OpenFamily.of(SIERP, [3, 2, 3])
    assert fam == same and not fam != same and hash(fam) == hash(same)
    assert fam != OpenFamily(SIERP, frozenset({2}))
    assert fam != OpenFamily(D2, frozenset({2, 3}))
    assert fam != (SIERP, frozenset({2, 3}))
    assert len({fam, same, OpenFamily(SIERP, frozenset())}) == 2
    with pytest.raises(ValueError, match=r"^family member 1 is not open$"):
        OpenFamily(SIERP, frozenset({1, 2}))


def test_inverse_system_equality_leaves_out_check_and_has_no_hash():
    poset = DirectedPoset(("lo", "hi"), [(0, 1)])
    sys_a = InverseSystem(poset, (D2, D2), {(0, 1): SpaceMap(D2, D2, [1, 0])})
    sys_b = InverseSystem(poset, (D2, D2), {(0, 1): SpaceMap(D2, D2, [1, 0])})
    sys_b.check = SystemCheck(False, "planted")
    assert sys_a == sys_b and not sys_a != sys_b
    assert sys_a != InverseSystem(poset, (D2, D2), {(0, 1): SpaceMap.identity(D2)})
    with pytest.raises(TypeError):
        hash(sys_a)


def test_poset_pairs_are_a_fresh_list_each_call():
    poset = DirectedPoset("abc", [(0, 1), (1, 2), (0, 2)])
    first = poset.pairs()
    first.clear()
    assert poset.pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert poset.pairs() is not poset.pairs()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, topolab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
