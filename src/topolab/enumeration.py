"""Exhaustive catalogues of labeled topologies on small point sets.

Two independent routes are kept on purpose.  The fast route searches
reflexive transitive relations and takes their up-set topologies (finite
topologies correspond one-to-one to preorders).  The search fixes one row
at a time and drops a candidate row as soon as it breaks transitivity
against the rows already fixed, so it only visits prefixes of preorders.
The slow route never touches preorders: it decides the subsets of the
points one at a time, in ascending order, and prunes a branch as soon as
the subsets taken so far break a lattice axiom that no later decision can
mend; each leaf is re-checked against the axioms directly.  It exists
solely to cross-check the fast one.  The tests check it in turn against
a raw filter of all 2**(2**n - 2) families, the oracle
``opens_families_by_raw_filter`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Iterator

from .spaces import FiniteSpace

__all__ = [
    "preorders",
    "all_topologies",
    "all_spaces",
    "count_topologies_bruteforce",
    "opens_families_bruteforce",
]


def preorders(n: int) -> Iterator[tuple[int, ...]]:
    """All reflexive transitive relations on n points, as row bitmasks.

    Lexicographic on (rows[n-1], ..., rows[0]): rows are fixed from the last
    point down, each trying its masks in ascending order.  A row for p stays
    only if transitive against each fixed row q: p in rows[q] forces it
    inside rows[q], q in it forces rows[q] inside it.  Any prefix that
    passes extends (by rows {p}), so the search meets no dead end.
    """
    rows = [0] * n

    def extend(p: int) -> Iterator[tuple[int, ...]]:
        if p < 0:
            yield tuple(rows)
            return
        bit = 1 << p
        fixed = rows[p + 1 :]
        for cand in range(bit, 1 << n):
            if not cand & bit:
                continue
            for q, row in enumerate(fixed, p + 1):
                if (row & bit and cand & ~row) or ((cand >> q) & 1 and row & ~cand):
                    break
            else:
                rows[p] = cand
                yield from extend(p - 1)

    yield from extend(n - 1)


def all_topologies(n: int) -> Iterator[FiniteSpace]:
    """The up-set topology of each preorder, whose rows are already closed."""
    for rows in preorders(n):
        yield FiniteSpace._from_closed_rows(rows)


def all_spaces(max_points: int, min_points: int = 0) -> list[FiniteSpace]:
    out: list[FiniteSpace] = []
    for n in range(min_points, max_points + 1):
        out.extend(all_topologies(n))
    return out


def count_topologies_bruteforce(n: int) -> int:
    """Count families of subsets of an n-set that form a topology.

    Exponential in 2**n; meant for n <= 5.
    """
    return len(opens_families_bruteforce(n))


def opens_families_bruteforce(n: int) -> set[frozenset[int]]:
    """The full set of topologies on n points found by pruned filtering.

    Decides each subset between the empty and the full set in ascending
    order.  A subset of S is no larger than S as a number, so when S comes
    up every subset of S is decided: the members that could join to S and
    the meets of S with the taken members.  S may be left out only if no
    two taken members join to it, and taken in only if its meet with every
    taken member is already taken, since no later decision could mend
    either.  Each leaf, with the full set added, is re-checked for closure
    under pairwise union and intersection.
    """
    if n == 0:
        return {frozenset({0})}
    full = (1 << n) - 1
    found = set()
    taken = [0]
    taken_set = {0}

    def decide(s: int) -> None:
        if s == full:
            fam = taken_set | {full}
            if _is_lattice_closed(fam):
                found.add(frozenset(fam))
            return
        below = [a for a in taken if a & ~s == 0]
        if not any(a | b == s for a in below for b in below):
            decide(s + 1)
        if all(s & a in taken_set for a in taken):
            taken.append(s)
            taken_set.add(s)
            decide(s + 1)
            taken.pop()
            taken_set.discard(s)

    decide(1)
    return found


def _is_lattice_closed(fam: set[int]) -> bool:
    members = sorted(fam)
    for idx, a in enumerate(members):
        for b in members[idx + 1 :]:
            if (a | b) not in fam or (a & b) not in fam:
                return False
    return True
