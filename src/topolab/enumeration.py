"""Exhaustive catalogues of labeled topologies on small point sets.

Two independent routes are kept on purpose.  The fast route enumerates
reflexive transitive relations and takes their up-set topologies (finite
topologies correspond one-to-one to preorders).  It fixes one row at a
time, from the last point down, and carries the union closure of the rows
fixed so far.  Each point's candidate rows are generated from that closure
and the fixed rows that hold the point, and every candidate is valid, so
the search visits only prefixes of preorders and rejects nothing; at a
leaf the carried unions are the space's opens.
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
    point down, and each point p takes its rows in ascending order.  They
    are generated, not tried: a row for p is p together with a union of
    fixed rows and any lower points, all inside the meet of the fixed rows
    that hold p.  ``_preorder_search`` proves these are exactly the rows
    transitive against the fixed ones.
    """
    for rows, _ in _preorder_search(n):
        yield rows


def all_topologies(n: int) -> Iterator[FiniteSpace]:
    """The up-set topology of each preorder, in the order of ``preorders``;
    its opens are the unions the search carries to the leaf."""
    for rows, opens in _preorder_search(n):
        yield FiniteSpace(n, opens, _rows=rows)


def _preorder_search(n: int) -> Iterator[tuple[tuple[int, ...], set[int]]]:
    """Each preorder on n points with its opens, in the order of ``preorders``.

    The search fixes rows from point n-1 down and carries ``unions``, the
    union closure of the rows fixed so far, with 0.  A new row for p must
    hold p and be transitive against each placed point q > p:

    - if q is in the row, rows[q] lies inside it.  So the placed points of
      the row are covered by V, the union of their rows, which lies inside
      the row: the row is bit_p | V | L, with V a carried union and L a set
      of points below p;
    - if p is in rows[q], the row lies inside rows[q].  Over all such q
      that is the bound U, the meet of the fixed rows holding p, or every
      point if none does.  So V and L lie inside U.

    Conversely each bit_p | V | L with V a carried union inside U and L a
    submask of the points below p in U is valid: it lies inside U, and a
    placed q in it lies in V, in some fixed row r of V; the fixed rows are
    transitive, so rows[q] lies inside r and inside V.  Every prefix
    extends (by rows {p}), so the search meets no dead end, and at the
    leaf ``unions`` is exactly the space's opens.
    """
    full = (1 << n) - 1
    rows = [0] * n

    def extend(p: int, unions: set[int]) -> Iterator[tuple[tuple[int, ...], set[int]]]:
        if p < 0:
            yield tuple(rows), unions
            return
        bit = 1 << p
        bound = full
        for row in rows[p + 1 :]:
            if row & bit:
                bound &= row
        lower = (bit - 1) & bound
        cands = set()
        for v in unions:
            if v & ~bound == 0:
                base = v | bit
                sub = lower
                while sub:
                    cands.add(base | sub)
                    sub = (sub - 1) & lower
                cands.add(base)
        for row in sorted(cands):
            rows[p] = row
            yield from extend(p - 1, unions | {u | row for u in unions})

    yield from extend(n - 1, {0})


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
