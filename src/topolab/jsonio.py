"""Canonical JSON for every value that crosses the CLI boundary.

Sets of points serialize as sorted index lists, families as sorted lists
of those, and objects always dump with sorted keys and no whitespace, so
equal values produce byte-identical text.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import NotDirected
from .families import OpenFamily, Quotient
from .game import (
    GameSolution,
    PositionalStrategy,
    RoundRobinStrategy,
    Strategy,
    TableStrategy,
    Transcript,
)
from .spaces import FiniteSpace, SpaceMap, bits_of, mask_of
from .systems import DirectedPoset, InverseSystem, LimitRoundRobin

__all__ = [
    "dumps",
    "mask_to_list",
    "encode_space",
    "decode_space",
    "encode_map",
    "decode_map",
    "encode_family",
    "decode_family",
    "encode_quotient",
    "encode_limit",
    "encode_system",
    "decode_system",
    "encode_transcript",
    "encode_solution",
    "encode_strategy",
]

# decode_system refuses larger posets before checking their order.
MAX_SYSTEM_NODES = 64
# decode_space refuses larger spaces before building any row.
MAX_SPACE_POINTS = 1024


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def mask_to_list(mask: int) -> list[int]:
    return list(bits_of(mask))


def encode_space(space: FiniteSpace) -> dict:
    return {
        "points": space.point_count,
        "opens": sorted(mask_to_list(o) for o in space.opens),
    }


def decode_space(obj: dict) -> FiniteSpace:
    """Inverse of encode_space; checks shapes, point ranges and that some
    open lists every point (which bounds the point count by the input's
    size) before any shift, so malformed input raises ValueError."""
    if not isinstance(obj, dict) or not isinstance(obj.get("opens"), list):
        raise ValueError('a space is an object with "points" and an "opens" list')
    n = obj.get("points")
    if not _is_count(n):
        raise ValueError('"points" must be a nonnegative integer')
    if n > MAX_SPACE_POINTS:
        raise ValueError("a space has at most %d points, not %d" % (MAX_SPACE_POINTS, n))
    if not all(_is_points(o, n) for o in obj["opens"]):
        raise ValueError("each open must be a list of points in range(%d)" % n)
    if not any(len(set(o)) == n for o in obj["opens"]):
        raise ValueError("no open lists all %d points" % n)
    return FiniteSpace(n, (mask_of(o) for o in obj["opens"]))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_points(value, n: int) -> bool:
    return isinstance(value, list) and all(_is_count(p) and p < n for p in value)


def _assignment(value) -> list:
    """An ``assign`` list of point indices; SpaceMap checks its length and
    ranges."""
    if not isinstance(value, list) or not all(_is_count(a) for a in value):
        raise ValueError("an assignment must be a list of point indices")
    return value


def encode_map(m: SpaceMap) -> dict:
    return {
        "domain": encode_space(m.domain),
        "codomain": encode_space(m.codomain),
        "assign": list(m.assign),
    }


def decode_map(obj: dict) -> SpaceMap:
    """Inverse of encode_map; malformed input raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError('a map is an object with "domain", "codomain" and "assign"')
    domain, codomain = decode_space(obj.get("domain")), decode_space(obj.get("codomain"))
    return SpaceMap(domain, codomain, _assignment(obj.get("assign")))


def encode_family(fam: OpenFamily) -> dict:
    return {
        "space": encode_space(fam.space),
        "members": sorted(mask_to_list(m) for m in fam.members),
    }


def decode_family(obj: dict) -> OpenFamily:
    """Inverse of encode_family; checks shapes and point ranges before any
    shift, so malformed input raises ValueError."""
    if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
        raise ValueError('a family is an object with "space" and a "members" list')
    space = decode_space(obj.get("space"))
    if not all(_is_points(m, space.point_count) for m in obj["members"]):
        raise ValueError("each member must be a list of points in range(%d)" % space.point_count)
    return OpenFamily.of(space, (mask_of(m) for m in obj["members"]))


def encode_quotient(q: Quotient) -> dict:
    return {
        "space": encode_space(q.space),
        "family": sorted(mask_to_list(m) for m in q.family.members),
        "classes": [mask_to_list(c) for c in q.classes],
        "assign": list(q.assign),
        "quotient": encode_space(q.quotient_space),
        "identity_holds": q.identity_holds,
        "continuous": q.q_continuous,
        "image_is_base": q.image_is_base,
    }


def encode_system(sys: InverseSystem) -> dict:
    return {
        "poset": {
            "elements": [str(lbl) for lbl in sys.poset.labels],
            "leq": [[i, j] for i, j in sys.poset.pairs()],
        },
        "spaces": {str(i): encode_space(sp) for i, sp in enumerate(sys.spaces)},
        "bonds": {
            "%d<=%d" % (i, j): list(sys.bond(i, j).assign)
            for i, j in sys.poset.pairs()
            if i != j
        },
    }


def decode_system(obj: dict) -> InverseSystem:
    """Inverse of encode_system; checks shapes, node and point ranges
    before building, and rejects a system whose check fails, so malformed
    input raises ValueError."""
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(k), dict) for k in ("poset", "spaces", "bonds")
    ):
        raise ValueError('a system is an object with "poset", "spaces" and "bonds" objects')
    labels, leq = obj["poset"].get("elements"), obj["poset"].get("leq")
    if not isinstance(labels, list) or not all(isinstance(lbl, str) for lbl in labels):
        raise ValueError('"elements" must be a list of strings')
    n = len(labels)
    if n > MAX_SYSTEM_NODES:
        raise ValueError("a system has at most %d nodes, not %d" % (MAX_SYSTEM_NODES, n))
    if not isinstance(leq, list) or not all(_is_points(p, n) and len(p) == 2 for p in leq):
        raise ValueError('"leq" must be a list of pairs of nodes in range(%d)' % n)
    try:
        poset = DirectedPoset(labels, (tuple(p) for p in leq))
    except NotDirected as exc:
        raise ValueError(str(exc)) from None
    if set(obj["spaces"]) != {str(i) for i in range(n)}:
        raise ValueError('"spaces" must hold one space for each node in range(%d)' % n)
    spaces = tuple(decode_space(obj["spaces"][str(i)]) for i in range(n))
    bonds = {}
    for key, assign in obj["bonds"].items():
        low, _, high = str(key).partition("<=")
        i, j = (int(low), int(high)) if low.isdecimal() and high.isdecimal() else (-1, -1)
        # only the canonical key, so no pair is named twice
        if key != "%d<=%d" % (i, j) or not poset.le(i, j):
            raise ValueError("bond key %r is not i<=j for a pair of the poset" % key)
        bonds[(i, j)] = SpaceMap(spaces[j], spaces[i], _assignment(assign))
    system = InverseSystem(poset=poset, spaces=spaces, bonds=bonds)
    if not system.check.ok:
        raise ValueError("invalid system: %s" % system.check.witness)
    return system


def encode_limit(lim) -> dict:
    """Limit report with the full thread table and projection assignments."""
    return {
        "threads": [list(t) for t in lim.threads],
        "space": encode_space(lim.space),
        "projections": [list(p.assign) for p in lim.projections],
    }


def encode_transcript(t: Transcript) -> dict:
    return {
        "rounds": [[mask_to_list(a), mask_to_list(b)] for a, b in t.rounds],
        "covered": [mask_to_list(c) for c in t.covered],
        "outcome": t.outcome,
    }


def _win_table(table: dict[int, tuple[str, int | None]]) -> list[dict]:
    return [
        {
            "covered": mask_to_list(c),
            "status": status,
            "move": None if move is None else mask_to_list(move),
        }
        for c, (status, move) in sorted(table.items())
    ]


def encode_solution(sol: GameSolution) -> dict:
    return {"winner": sol.winner, "win_table": _win_table(sol.table)}


def encode_strategy(strategy: Strategy) -> dict:
    """The strategy's kind and player, plus the fields that fix its moves;
    sets are point lists and a transducer table is sorted by state, then
    by observed set with None first."""
    out = {"kind": strategy.kind, "player": strategy.player}
    if isinstance(strategy, PositionalStrategy):
        out["table"] = _win_table(strategy.table)
    elif isinstance(strategy, LimitRoundRobin):
        out["moves"] = [mask_to_list(m) for m in strategy.moves]
        out["chain"] = list(strategy.chain)
    elif isinstance(strategy, RoundRobinStrategy):
        out["moves"] = [mask_to_list(m) for m in strategy.moves]
    elif isinstance(strategy, TableStrategy):
        out["init"] = strategy.init
        rows = sorted(
            strategy.table.items(),
            key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1]),
        )
        out["table"] = [
            {
                "state": s,
                "observed": None if o is None else mask_to_list(o),
                "move": mask_to_list(m),
                "next": t,
            }
            for (s, o), (m, t) in rows
        ]
    return out
