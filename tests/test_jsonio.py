import json
import subprocess
import sys

import pytest

from topolab import jsonio
from topolab.game import EchoStrategy, play, solve_open_open
from topolab.randgen import (
    random_family,
    random_quotient_chain,
    random_space,
    rng_for,
)
from topolab.spaces import FiniteSpace, SpaceMap
from topolab.systems import DirectedPoset, InverseSystem

from cli_env import cap_memory_at_1gib, cli_env

SIERP = {"points": 2, "opens": [[], [1], [0, 1]]}


def test_space_canonical_form():
    s = FiniteSpace.sierpinski()
    blob = jsonio.encode_space(s)
    assert blob == {"points": 2, "opens": [[], [0, 1], [1]]}
    assert jsonio.dumps(blob) == '{"opens":[[],[0,1],[1]],"points":2}\n'
    assert jsonio.decode_space(blob) == s


def test_space_with_a_bool_point_count_round_trips():
    # the constructor stores the int, so the encoder never writes true
    space = FiniteSpace(True, [0, 1])
    assert type(space.point_count) is int
    text = jsonio.dumps(jsonio.encode_space(space))
    assert text == '{"opens":[[],[0]],"points":1}\n'
    assert jsonio.decode_space(json.loads(text)) == space


def test_family_encoding():
    from topolab.families import OpenFamily

    chain = FiniteSpace.chain(3)
    fam = OpenFamily(chain, [0b001, 0b011])
    blob = jsonio.encode_family(fam)
    assert blob["members"] == [[0], [0, 1]]
    back = jsonio.decode_family(blob)
    assert back.members == fam.members


def test_transcript_solution_strategy_encoding():
    d2 = FiniteSpace.discrete(2)
    sol = solve_open_open(d2)
    t = play(d2, sol.strategy, EchoStrategy())
    blob = jsonio.encode_transcript(t)
    assert blob["outcome"] == "I-wins"
    assert blob["rounds"] == [[[0], [0]], [[1], [1]]]

    enc = jsonio.encode_solution(sol)
    assert enc["winner"] == "I"
    assert enc["win_table"][0] == {"covered": [], "status": "win", "move": [0]}


def test_random_roundtrips_are_lossless():
    rng = rng_for(99, "jsonio")
    for i in range(300):
        kind = i % 3
        if kind == 0:
            space = random_space(rng, rng.randint(0, 5))
            blob = jsonio.dumps(jsonio.encode_space(space))
            again = jsonio.dumps(
                jsonio.encode_space(jsonio.decode_space(json.loads(blob)))
            )
            assert blob == again
        elif kind == 1:
            space = random_space(rng, rng.randint(1, 5))
            fam = random_family(rng, space)
            blob = jsonio.dumps(jsonio.encode_family(fam))
            again = jsonio.dumps(
                jsonio.encode_family(jsonio.decode_family(json.loads(blob)))
            )
            assert blob == again
        else:
            sys = random_quotient_chain(rng, rng.randint(2, 4), rng.randint(1, 3))
            blob = jsonio.dumps(jsonio.encode_system(sys))
            again = jsonio.dumps(
                jsonio.encode_system(jsonio.decode_system(json.loads(blob)))
            )
            assert blob == again


def test_dumps_is_key_sorted_and_compact():
    assert jsonio.dumps({"b": 1, "a": [2, 1]}) == '{"a":[2,1],"b":1}\n'


def _indiscrete_blob(n):
    return {"points": n, "opens": [[], list(range(n))]}


MALFORMED_SPACES = [
    ("not an object", []),
    ("no opens", {"points": 2}),
    ("negative points", {"points": -1, "opens": [[]]}),
    ("point out of range", {"points": 2, "opens": [[], [2], [0, 1]]}),
    ("no open lists every point", {"points": 2, "opens": [[], [0]]}),
    ("one point over the cap", _indiscrete_blob(jsonio.MAX_SPACE_POINTS + 1)),
    ("far over the cap", _indiscrete_blob(40000)),
]


@pytest.mark.parametrize("case, obj", MALFORMED_SPACES, ids=[c for c, _ in MALFORMED_SPACES])
def test_decode_space_rejects_malformed_input(case, obj):
    with pytest.raises(ValueError):
        jsonio.decode_space(obj)


def test_decode_space_takes_spaces_up_to_the_point_cap():
    cap = jsonio.MAX_SPACE_POINTS
    assert jsonio.decode_space(_indiscrete_blob(cap)).point_count == cap
    with pytest.raises(ValueError, match="at most %d points, not %d" % (cap, cap + 1)):
        jsonio.decode_space(_indiscrete_blob(cap + 1))


MALFORMED_FAMILIES = [
    [],
    {"space": SIERP},
    {"members": [[1]]},
    {"space": SIERP, "members": [1]},
    {"space": SIERP, "members": [["1"]]},
    {"space": SIERP, "members": [[2]]},
    {"space": SIERP, "members": [[0]]},  # not open
]


@pytest.mark.parametrize("obj", MALFORMED_FAMILIES)
def test_decode_family_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        jsonio.decode_family(obj)


def _two_node_system_blob():
    d2, d4 = FiniteSpace.discrete(2), FiniteSpace.discrete(4)
    bond = SpaceMap(d4, d2, [0, 0, 1, 1])
    return jsonio.encode_system(InverseSystem(DirectedPoset(("lo", "hi"), [(0, 1)]), (d2, d4), {(0, 1): bond}))


DROP = object()


def _edited(path, value):
    blob = _two_node_system_blob()
    *parents, last = path
    target = blob
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return blob


def _rekeyed(key):
    """The bond 0<=1 under another key."""
    blob = _two_node_system_blob()
    blob["bonds"][key] = blob["bonds"].pop("0<=1")
    return blob


def _star_system_blob(n):
    """A valid system of one-point spaces over n nodes, each below the last."""
    point = FiniteSpace.discrete(1)
    poset = DirectedPoset([str(i) for i in range(n)], [(i, n - 1) for i in range(n - 1)])
    bonds = {(i, n - 1): SpaceMap(point, point, [0]) for i in range(n - 1)}
    return jsonio.encode_system(InverseSystem(poset, (point,) * n, bonds))


def test_decode_system_takes_posets_up_to_the_node_cap():
    cap = jsonio.MAX_SYSTEM_NODES
    assert jsonio.decode_system(_star_system_blob(cap)).poset.n == cap
    with pytest.raises(ValueError, match="at most %d nodes" % cap):
        jsonio.decode_system(_star_system_blob(cap + 1))


MALFORMED_SYSTEMS = [
    ("not an object", []),
    ("no bonds", _edited(["bonds"], DROP)),
    ("labels not strings", _edited(["poset", "elements"], [0, 1])),
    ("leq entry not a pair", _edited(["poset", "leq"], [5])),
    ("leq node out of range", _edited(["poset", "leq"], [[0, 7]])),
    ("not directed", _edited(["poset", "leq"], [])),
    ("more nodes than the cap", _star_system_blob(jsonio.MAX_SYSTEM_NODES + 1)),
    ("missing space", _edited(["spaces", "1"], DROP)),
    ("extra space", _edited(["spaces", "2"], SIERP)),
    ("bond key not a pair", _edited(["bonds", "x"], [0, 1])),
    ("bond key outside the order", _edited(["bonds", "1<=0"], [0, 1])),
    ("bond key with a leading zero", _rekeyed("00<=1")),
    ("bond key in other digits", _rekeyed("\u0660<=\u0661")),
    ("bond key given twice", _edited(["bonds", "00<=1"], [0, 0, 1, 1])),
    ("bond assignment not a list", _edited(["bonds", "0<=1"], "0011")),
    ("bond entry not an int", _edited(["bonds", "0<=1"], [0, 0, 1, None])),
    ("bond assignment too short", _edited(["bonds", "0<=1"], [0, 0, 1])),
    ("bond point out of range", _edited(["bonds", "0<=1"], [0, 0, 1, 100000000000])),
    ("missing bond", _edited(["bonds", "0<=1"], DROP)),
    ("bond not surjective", _edited(["bonds", "0<=1"], [0, 0, 0, 0])),
]


@pytest.mark.parametrize("case, obj", MALFORMED_SYSTEMS, ids=[c for c, _ in MALFORMED_SYSTEMS])
def test_decode_system_rejects_malformed_input(case, obj):
    with pytest.raises(ValueError):
        jsonio.decode_system(obj)


def test_decode_system_names_the_failed_check():
    with pytest.raises(ValueError, match="bond 0<=1 is not surjective"):
        jsonio.decode_system(_edited(["bonds", "0<=1"], [0, 0, 0, 0]))


def test_huge_member_index_rejected_without_allocating():
    # mask_of([100000000000]) alone would need about 12.5 GB
    code = (
        "from topolab import jsonio\n"
        "try:\n"
        "    jsonio.decode_family(%r)\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n" % {"space": SIERP, "members": [[100000000000]]}
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_memory_at_1gib,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: each member must be a list of points")


def test_transducer_and_solution_encodings_golden():
    from topolab.game import TableStrategy

    sierp = FiniteSpace.sierpinski()
    # clopen atoms {0} and {1,2}; {1} is open but not closed
    atoms = FiniteSpace(3, [0, 0b001, 0b010, 0b011, 0b110, 0b111])
    table = TableStrategy(1, {(1, 0b11): (0b01, 0), (0, None): (0b10, 1), (0, 0b01): (0b01, 1)})
    assert jsonio.dumps(jsonio.encode_transducer(table)) == jsonio.dumps(
        [
            {"state": 0, "observed": None, "move": [1], "next": 1},
            {"state": 0, "observed": [0], "move": [0], "next": 1},
            {"state": 1, "observed": [0, 1], "move": [0], "next": 0},
        ]
    )

    sierp_table = [
        {"covered": [], "status": "win", "move": [1]},
        {"covered": [1], "status": "dense", "move": None},
        {"covered": [0, 1], "status": "dense", "move": None},
    ]
    assert jsonio.encode_solution(solve_open_open(sierp)) == {
        "winner": "I",
        "win_table": sierp_table,
    }
    assert jsonio.encode_solution(solve_open_open(atoms)) == {
        "winner": "I",
        "win_table": [
            {"covered": [], "status": "win", "move": [0]},
            {"covered": [0], "status": "win", "move": [1]},
            {"covered": [1], "status": "win", "move": [0]},
            {"covered": [0, 1], "status": "dense", "move": None},
            {"covered": [1, 2], "status": "win", "move": [0]},
            {"covered": [0, 1, 2], "status": "dense", "move": None},
        ],
    }
