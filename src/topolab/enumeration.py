"""Exhaustive catalogues of labeled topologies on small point sets.

Two independent routes are kept on purpose.  The fast route searches
reflexive transitive relations and takes their up-set topologies (finite
topologies correspond one-to-one to preorders).  The search fixes one row
at a time and drops a candidate row as soon as it breaks transitivity
against the rows already fixed, so it only visits prefixes of preorders.
The slow route filters raw families of subsets for the lattice axioms and
exists solely to cross-check the fast one; keep it dumb.
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

    Exponential in 2**n; meant for n <= 4.
    """
    return len(opens_families_bruteforce(n))


def opens_families_bruteforce(n: int) -> set[frozenset[int]]:
    """The full set of topologies on n points found by raw filtering.

    Enumerates every candidate family containing the empty and full sets
    and tests closure under pairwise union and intersection directly.
    """
    if n == 0:
        return {frozenset({0})}
    full = (1 << n) - 1
    middle = [s for s in range(1 << n) if s not in (0, full)]
    found = set()
    for pick in range(1 << len(middle)):
        fam = {0, full}
        for k, s in enumerate(middle):
            if (pick >> k) & 1:
                fam.add(s)
        if _is_lattice_closed(fam):
            found.add(frozenset(fam))
    return found


def _is_lattice_closed(fam: set[int]) -> bool:
    members = sorted(fam)
    for idx, a in enumerate(members):
        for b in members[idx + 1 :]:
            if (a | b) not in fam or (a & b) not in fam:
                return False
    return True
