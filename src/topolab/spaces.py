"""Finite topological spaces, carried by their specialization rows.

Points are 0..n-1 and every subset of points is an int bitmask (bit i set
means point i is in).  A space keeps its sorted opens and each point's
row, the least open containing it.  The rows form a base, so interior,
closure, generated topologies and map continuity and openness read them;
separation axioms, clopens and skeletality scan the opens by definition.
Every value is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotABase, NotContinuous, NotSurjective

__all__ = [
    "FiniteSpace",
    "SpaceMap",
    "SeparationReport",
    "FrinkReport",
    "bits_of",
    "mask_of",
    "from_subbasis",
    "frink_conditions",
]


def bits_of(mask: int) -> Iterator[int]:
    """Yield the point indices present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    hausdorff: bool
    regular: bool
    completely_regular: bool


@dataclass(frozen=True)
class FrinkReport:
    """Outcome of the two base conditions, with a least witness on failure.

    cond1_witness is a (point, base member) pair, cond2_witness a pair of
    base members whose union is the whole space.
    """

    cond1: bool
    cond1_witness: tuple[int, int] | None
    cond2: bool
    cond2_witness: tuple[int, int] | None


class FiniteSpace:
    """A topology on {0..point_count-1}.

    ``opens`` is a sorted tuple of bitmasks.  The constructor validates the
    lattice axioms (empty set and full set present, closure under pairwise
    union and intersection), so a constructed space is always a topology.
    Since every member and every meet of two is the union of the minimal
    neighborhoods of its points, it suffices that o | nbhd is a member for
    every member o and minimal neighborhood nbhd (o = 0 makes nbhd one):
    O(|opens|*n) lookups, not O(|opens|**2).
    """

    __slots__ = ("point_count", "opens", "_open_set", "_min_nbhd")

    def __init__(self, point_count: int, opens: Iterable[int]):
        if point_count < 0:
            raise ValueError("point_count must be >= 0")
        full = (1 << point_count) - 1
        open_set = frozenset(int(o) for o in opens)
        for o in open_set:
            if o < 0 or o & ~full:
                raise ValueError("open set %r out of range for %d points" % (o, point_count))
        if 0 not in open_set or full not in open_set:
            raise ValueError("a topology must contain the empty set and the full point set")
        members = sorted(open_set)
        nbhd = []
        for x in range(point_count):
            m = full
            for o in members:
                if (o >> x) & 1:
                    m &= o
            nbhd.append(m)
        for m in set(nbhd):
            if not open_set.issuperset([o | m for o in members]):
                raise ValueError("opens not closed under union/intersection")
        self.point_count = point_count
        self.opens = tuple(members)
        self._open_set = open_set
        self._min_nbhd = tuple(nbhd)

    # -- constructors --------------------------------------------------

    @classmethod
    def discrete(cls, n: int) -> "FiniteSpace":
        return cls(n, range(1 << n))

    @classmethod
    def indiscrete(cls, n: int) -> "FiniteSpace":
        return cls(n, {0, (1 << n) - 1})

    @classmethod
    def sierpinski(cls) -> "FiniteSpace":
        """Two points with exactly one nontrivial open set, {1}."""
        return cls(2, {0b00, 0b10, 0b11})

    @classmethod
    def chain(cls, n: int) -> "FiniteSpace":
        """Opens are the prefixes {}, {0}, {0,1}, ..., {0..n-1}."""
        return cls(n, {(1 << k) - 1 for k in range(n + 1)})

    @classmethod
    def from_preorder(cls, rows: Iterable[int]) -> "FiniteSpace":
        """Topology of up-sets of a relation.

        ``rows[i]`` is the bitmask of all j with i <= j; opens are the sets
        U with rows[i] contained in U for every i in U: the unions of the
        rows of the reflexive transitive closure, which is how they are
        built.  Distinct preorders give distinct topologies and every
        finite topology arises this way.
        """
        rows = [r | 1 << i for i, r in enumerate(rows)]
        n = len(rows)
        for k in range(n):
            for i in range(n):
                if (rows[i] >> k) & 1:
                    rows[i] |= rows[k]
        opens = {0}
        for m in set(rows):
            opens |= {o | m for o in opens}
        return cls(n, opens)

    # -- basic queries -------------------------------------------------

    @property
    def full(self) -> int:
        return (1 << self.point_count) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def is_closed(self, mask: int) -> bool:
        return (self.full ^ mask) in self._open_set

    def nonempty_opens(self) -> tuple[int, ...]:
        return tuple(o for o in self.opens if o)

    def interior(self, mask: int) -> int:
        """The points whose minimal open neighborhood lies inside mask."""
        self._check_range(mask)
        out = 0
        for x, nbhd in enumerate(self._min_nbhd):
            if nbhd & ~mask == 0:
                out |= 1 << x
        return out

    def closure(self, mask: int) -> int:
        self._check_range(mask)
        return self.full ^ self.interior(self.full ^ mask)

    def is_dense(self, mask: int) -> bool:
        return self.closure(mask) == self.full

    def minimal_open_neighborhood(self, x: int) -> int:
        """Intersection of all opens containing x; open by finiteness."""
        if not 0 <= x < self.point_count:
            raise ValueError("point %d out of range" % x)
        return self._min_nbhd[x]

    def minimal_open_family(self) -> tuple[int, ...]:
        """The inclusion-minimal sets among the minimal open neighborhoods.

        In a finite space these form a pi-base: every nonempty open
        contains one of them.
        """
        distinct = sorted(set(self._min_nbhd))
        keep = []
        for m in distinct:
            if not any(o != m and o & ~m == 0 for o in distinct):
                keep.append(m)
        return tuple(keep)

    def clopens(self) -> tuple[int, ...]:
        full = self.full
        return tuple(o for o in self.opens if (full ^ o) in self._open_set)

    def clopen_atoms(self) -> tuple[int, ...]:
        """The quasi-components: minimal nonempty clopen sets.

        They partition the points; every clopen set is a union of them.
        """
        clop = self.clopens()
        atoms = set()
        for x in range(self.point_count):
            m = self.full
            for c in clop:
                if (c >> x) & 1:
                    m &= c
            atoms.add(m)
        return tuple(sorted(atoms))

    # -- separation axioms ----------------------------------------------

    def separation_flags(self) -> SeparationReport:
        """All flags by direct definition.

        ``completely_regular`` uses the finite characterization "the clopen
        sets form a base", which matches separating points from closed sets
        by two-valued continuous maps (cozero sets of a finite space are
        exactly the clopen ones).
        """
        n = self.point_count
        opens = self.opens
        t0 = t1 = hausdorff = True
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                sep_xy = any((o >> x) & 1 and not (o >> y) & 1 for o in opens)
                if not sep_xy:
                    t1 = False
                    if x < y and not any(
                        (o >> y) & 1 and not (o >> x) & 1 for o in opens
                    ):
                        t0 = False
                if x < y:
                    if not any(
                        (u >> x) & 1 and (v >> y) & 1 and u & v == 0
                        for u in opens
                        for v in opens
                    ):
                        hausdorff = False
        regular = True
        closed_sets = [self.full ^ o for o in opens]
        for c in closed_sets:
            for x in range(n):
                if (c >> x) & 1:
                    continue
                if not any(
                    (u >> x) & 1 and c & ~v == 0 and u & v == 0
                    for u in opens
                    for v in opens
                ):
                    regular = False
        clop = self.clopens()
        completely_regular = all(
            any((c >> x) & 1 and c & ~o == 0 for c in clop)
            for o in opens
            for x in bits_of(o)
        )
        return SeparationReport(t0, t1, hausdorff, regular, completely_regular)

    # -- plumbing --------------------------------------------------------

    def _check_range(self, mask: int) -> None:
        if mask < 0 or mask & ~self.full:
            raise ValueError("subset %r out of range" % mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSpace)
            and self.point_count == other.point_count
            and self._open_set == other._open_set
        )

    def __hash__(self) -> int:
        return hash((self.point_count, self._open_set))

    def __repr__(self) -> str:
        sets = ",".join("{" + ",".join(map(str, bits_of(o))) + "}" for o in self.opens)
        return f"FiniteSpace({self.point_count}, [{sets}])"


def from_subbasis(point_count: int, subbasis: Iterable[int]) -> FiniteSpace:
    """Smallest topology containing the given sets.

    A point's minimal open neighborhood is the intersection of the
    generators containing it (the full set if none does), and those
    neighborhoods are the rows of the topology's preorder.
    """
    full = (1 << point_count) - 1
    gens = set()
    for s in subbasis:
        s = int(s)
        if s < 0 or s & ~full:
            raise ValueError("subbasis member %r out of range for %d points" % (s, point_count))
        gens.add(s)
    rows = [full] * point_count
    for g in gens:
        for x in bits_of(g):
            rows[x] &= g
    return FiniteSpace.from_preorder(rows)


def frink_conditions(space: FiniteSpace, base: Iterable[int]) -> FrinkReport:
    """Check the two base conditions from Frink's characterization of
    complete regularity, returning the least witness on failure.

    Condition 1: every point x in a base member U admits a base member V
    with x not in V and U union V the whole space.  Condition 2: whenever
    two base members cover the space, their complements sit inside two
    disjoint base members.
    """
    members = sorted({int(b) for b in base})
    full = space.full
    for b in members:
        if not space.is_open(b):
            raise NotABase("base member %r is not open" % b)
    for o in space.opens:
        u = 0
        for b in members:
            if b & ~o == 0:
                u |= b
        if u != o:
            raise NotABase("open %r is not a union of base members" % o)

    cond1, w1 = True, None
    for x in range(space.point_count):
        for u in members:
            if not (u >> x) & 1:
                continue
            if not any(not (v >> x) & 1 and (u | v) == full for v in members):
                cond1, w1 = False, (x, u)
                break
        if not cond1:
            break

    cond2, w2 = True, None
    for u in members:
        for v in members:
            if (u | v) != full:
                continue
            ok = any(
                m & nn == 0 and (full ^ u) & ~m == 0 and (full ^ v) & ~nn == 0
                for m in members
                for nn in members
            )
            if not ok:
                cond2, w2 = False, (u, v)
                break
        if not cond2:
            break
    return FrinkReport(cond1, w1, cond2, w2)


class SpaceMap:
    """A point assignment between finite spaces.

    Continuity, openness, surjectivity and skeletality are queries rather
    than construction-time invariants, so ill-behaved maps can be built
    and then diagnosed.
    """

    __slots__ = ("domain", "codomain", "assign")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, assign: Iterable[int]):
        assign = tuple(int(a) for a in assign)
        if len(assign) != domain.point_count:
            raise ValueError("assignment must cover every domain point")
        for a in assign:
            if codomain.point_count == 0:
                raise ValueError("no map into the empty space from a nonempty one")
            if not 0 <= a < codomain.point_count:
                raise ValueError("image point %d out of range" % a)
        self.domain = domain
        self.codomain = codomain
        self.assign = assign

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        return cls(space, space, range(space.point_count))

    def image_of(self, mask: int) -> int:
        out = 0
        for x in bits_of(mask):
            out |= 1 << self.assign[x]
        return out

    def preimage_of(self, mask: int) -> int:
        out = 0
        for x, a in enumerate(self.assign):
            if (mask >> a) & 1:
                out |= 1 << x
        return out

    def compose(self, inner: "SpaceMap") -> "SpaceMap":
        """self after inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition mismatch")
        return SpaceMap(inner.domain, self.codomain, (self.assign[a] for a in inner.assign))

    def is_continuous(self) -> bool:
        """Each minimal open neighborhood maps into that of its image point."""
        return all(
            self.image_of(nbhd) & ~self.codomain._min_nbhd[a] == 0
            for nbhd, a in zip(self.domain._min_nbhd, self.assign)
        )

    def is_open_map(self) -> bool:
        """Each minimal open neighborhood has an open image (they form a base)."""
        return all(self.codomain.is_open(self.image_of(nbhd)) for nbhd in self.domain._min_nbhd)

    def is_surjective(self) -> bool:
        return self.image_of(self.domain.full) == self.codomain.full

    def is_skeletal(self) -> bool:
        """True when every nonempty domain open has an image whose closure
        has nonempty interior.  Requires a continuous surjection."""
        return self.skeletal_witness() is None

    def skeletal_witness(self) -> int | None:
        """The least nonempty open violating skeletality, or None."""
        if not self.is_continuous():
            raise NotContinuous("skeletality is defined for continuous maps only")
        if not self.is_surjective():
            raise NotSurjective("skeletality is defined for surjections only")
        cod = self.codomain
        for u in self.domain.opens:
            if u == 0:
                continue
            if cod.interior(cod.closure(self.image_of(u))) == 0:
                return u
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpaceMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.assign == other.assign
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.assign))

    def __repr__(self) -> str:
        return f"SpaceMap({self.assign})"
