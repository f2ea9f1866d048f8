"""Finite topological spaces, carried by their specialization rows.

Points are 0..n-1 and every subset of points is an int bitmask (bit i set
means point i is in).  A finite topology is its specialization preorder
(Stong 1966): ``rows[x]`` is the least open containing x, the up-set of x.
A space keeps those rows and its sorted opens, their union closure.  The
rows form a base, so interior, closure, separation axioms, generated
topologies, skeletality and map continuity and openness all read them.
Two helpers compute rows and opens for the whole package: ``meet_rows``
gives each point the meet of the sets holding it (rows from opens, from
generators, quotient classes from a family, clopen atoms from the
clopens) and ``union_closure`` gives every union of some given sets.
``clopens``, ``nonempty_opens`` and ``opens_inside`` list the opens.  The
minimal opens, the dense core and the opens inside a set are derived once,
on first use, and kept.

``SeparationReport`` and ``FrinkReport`` are ``NamedTuple`` records, so
assigning to a field raises.  ``FiniteSpace`` and ``SpaceMap`` are
``__slots__`` classes that nothing changes after construction apart from
those kept facts; they are immutable by convention, and safe to share.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple

from .errors import NotABase, NotContinuous, NotSurjective

__all__ = [
    "FiniteSpace",
    "SpaceMap",
    "SeparationReport",
    "FrinkReport",
    "bits_of",
    "mask_of",
    "meet_rows",
    "union_closure",
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


def meet_rows(point_count: int, sets: Iterable[int]) -> list[int]:
    """For each point, the meet of the given sets that hold it, or every
    point when none does; each set must lie within the points.  One walk
    over each set's bits ANDs the set into the row of each of its points.
    """
    rows = [(1 << point_count) - 1] * point_count
    for s in sets:
        m = s
        while m:
            low = m & -m
            rows[low.bit_length() - 1] &= s
            m ^= low
    return rows


def union_closure(sets: Iterable) -> set:
    """Every union of one or more of the given sets (int masks or
    frozensets), in one pass: each set joins every union found before it.
    """
    out = set()
    for s in sets:
        out |= {u | s for u in out}
        out.add(s)
    return out


class SeparationReport(NamedTuple):
    """Separation axioms of a finite space.  There ``hausdorff`` equals
    ``t1`` and ``completely_regular`` equals ``regular``."""

    t0: bool
    t1: bool
    hausdorff: bool
    regular: bool
    completely_regular: bool


class FrinkReport(NamedTuple):
    """Outcome of the two base conditions, with a least witness on failure.

    cond1_witness is a (point, base member) pair, cond2_witness a pair of
    base members whose union is the whole space.
    """

    cond1: bool
    cond1_witness: tuple[int, int] | None
    cond2: bool
    cond2_witness: tuple[int, int] | None


class FiniteSpace:
    """A topology on {0..point_count-1}, carried by its rows.

    ``rows[x]`` is the least open containing x; ``opens`` is the sorted
    tuple of all opens, the unions of rows, so ``opens[0]`` is the empty
    set; ``full`` is the mask of every point.  Equality and hashing
    compare the rows.

    ``FiniteSpace(n, opens)`` validates input from outside: each open
    must be an int (``operator.index``, so a float or a string raises
    ``TypeError``), the empty and full sets must be present, and the
    family closed under union and intersection.  Its rows are the
    ``meet_rows`` of the opens, one walk over each open's bits.  Since
    every member and every meet of two is the union of the rows of its
    points, it suffices that o | row is a member for every member o and
    row (o = 0 makes each row one): O(|opens|*n) lookups, not
    O(|opens|**2).

    Every other constructor builds from rows that are already reflexive
    and transitive, which need only a range check, and hands them to
    ``__init__`` as ``_rows`` with their union closure as the opens;
    ``_rows`` skips the derivation and the check, so every space is still
    constructed by ``__init__``.  ``_from_closed_rows`` computes that
    ``union_closure``.  Its callers:

    - ``from_preorder`` (and the named constructors through it) closes
      arbitrary rows first, by the package's one Warshall pass;
    - ``from_subbasis`` passes the ``meet_rows`` of the generators:
      rows[x] holds x, and each y in it has every generator holding x,
      so rows[y] is inside rows[x];
    - ``families.build_quotient``: the row of a class is the image of
      the class's meet row, which equals ``meet_rows`` of the member
      images whenever each member is the preimage of its image, so it
      holds the class, and each class in it has its row inside it.  It
      builds one space for each distinct rows tuple and shares it among
      the quotients with those rows.

    ``enumeration.all_topologies`` calls ``__init__`` itself: its search
    generates only reflexive transitive rows and carries their union
    closure down, so at each leaf the opens are already made.

    Three derived facts are computed on first use and kept in slots that
    ``__init__`` sets to None, so construction pays nothing for them and
    equality and hashing ignore them: ``_minimal`` for
    ``minimal_open_family`` and ``_core``, the union of the minimal opens,
    for ``dense_core`` (one pass fills both), and ``_inside``, a dict
    filled per set, for ``opens_inside``.  That pass also records (m,)
    in ``_inside`` for each minimal open m, since it proves that m is the
    only nonempty open inside m, so the verifier's replies to a minimal
    open need no filter over the opens.
    """

    __slots__ = (
        "point_count", "full", "opens", "_open_set", "rows", "_minimal", "_core", "_inside",
    )

    def __init__(
        self, point_count: int, opens: Iterable[int], *, _rows: tuple[int, ...] | None = None
    ):
        if _rows is None and point_count < 0:
            raise ValueError("point_count must be >= 0")
        full = (1 << point_count) - 1
        if _rows is None:
            open_set = frozenset(map(operator.index, opens))
            for o in open_set:
                if o < 0 or o & ~full:
                    raise ValueError("open set %r out of range for %d points" % (o, point_count))
            if 0 not in open_set or full not in open_set:
                raise ValueError("a topology must contain the empty set and the full point set")
            rows = meet_rows(point_count, open_set)
            for m in set(rows):
                if not open_set.issuperset([o | m for o in open_set]):
                    raise ValueError("opens not closed under union/intersection")
            _rows = tuple(rows)
        else:
            # Built from closed rows: the opens are their union closure.
            open_set = frozenset(opens)
        self.point_count = point_count
        self.full = full
        self.opens = tuple(sorted(open_set))
        self._open_set = open_set
        self.rows = _rows
        self._minimal = None
        self._core = None
        self._inside = None

    # -- constructors --------------------------------------------------

    @classmethod
    def discrete(cls, n: int) -> "FiniteSpace":
        return cls.from_preorder([1 << x for x in range(n)])

    @classmethod
    def indiscrete(cls, n: int) -> "FiniteSpace":
        return cls.from_preorder([(1 << n) - 1] * n)

    @classmethod
    def sierpinski(cls) -> "FiniteSpace":
        """Two points with exactly one nontrivial open set, {1}."""
        return cls.from_preorder([0b11, 0b10])

    @classmethod
    def chain(cls, n: int) -> "FiniteSpace":
        """Opens are the prefixes {}, {0}, {0,1}, ..., {0..n-1}."""
        return cls.from_preorder([(2 << x) - 1 for x in range(n)])

    @classmethod
    def from_preorder(cls, rows: Iterable[int]) -> "FiniteSpace":
        """Topology of up-sets of a relation.

        ``rows[i]`` is the bitmask of all j with i <= j, each within the
        points; opens are the sets U with rows[i] contained in U for every
        i in U: the unions of the rows of the reflexive transitive closure,
        which is how they are built.  Distinct preorders give distinct
        topologies and every finite topology arises this way.
        """
        rows = [r | 1 << i for i, r in enumerate(rows)]
        n = len(rows)
        if any(r >> n for r in rows):
            raise ValueError("row out of range for %d points" % n)
        for k in range(n):
            for i in range(n):
                if (rows[i] >> k) & 1:
                    rows[i] |= rows[k]
        return cls._from_closed_rows(rows)

    @classmethod
    def _from_closed_rows(cls, rows: Iterable[int]) -> "FiniteSpace":
        """The space of rows that are already in range, reflexive and
        transitive (y in rows[x] puts rows[y] inside rows[x]); its opens
        are their unions."""
        rows = tuple(rows)
        opens = union_closure(set(rows))
        opens.add(0)
        return cls(len(rows), opens, _rows=rows)

    # -- basic queries -------------------------------------------------

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def is_closed(self, mask: int) -> bool:
        return (self.full ^ mask) in self._open_set

    def nonempty_opens(self) -> tuple[int, ...]:
        """Every open but the empty set, which heads the sorted opens."""
        return self.opens[1:]

    def interior(self, mask: int) -> int:
        """The points whose row lies inside mask."""
        self._check_range(mask)
        out = 0
        for x, row in enumerate(self.rows):
            if row & ~mask == 0:
                out |= 1 << x
        return out

    def closure(self, mask: int) -> int:
        """The points whose row meets mask: x is in the closure exactly
        when its least open neighborhood meets mask."""
        self._check_range(mask)
        out = 0
        for x, row in enumerate(self.rows):
            if row & mask:
                out |= 1 << x
        return out

    def is_dense(self, mask: int) -> bool:
        """Every row meets mask, i.e. the closure of mask is everything."""
        self._check_range(mask)
        for row in self.rows:
            if not row & mask:
                return False
        return True

    def minimal_open_neighborhood(self, x: int) -> int:
        """Intersection of all opens containing x: row x."""
        if not 0 <= x < self.point_count:
            raise ValueError("point %d out of range" % x)
        return self.rows[x]

    def minimal_open_family(self) -> tuple[int, ...]:
        """The inclusion-minimal rows, ascending.

        In a finite space these form a pi-base: every nonempty open
        contains one of them.  A row is minimal exactly when every point
        in it has that same row: each such point's row lies inside it,
        and a smaller row would hold a point whose row is smaller.  The
        same pass keeps their union as the dense core, and records each
        as the only nonempty open inside it: any other would hold a point
        whose row is smaller.
        """
        if self._minimal is None:
            rows = self.rows
            keep = []
            core = 0
            if self._inside is None:
                self._inside = {}
            inside = self._inside
            for r in set(rows):
                m = r
                while m:
                    low = m & -m
                    if rows[low.bit_length() - 1] != r:
                        break
                    m ^= low
                else:
                    keep.append(r)
                    core |= r
                    inside[r] = (r,)
            keep.sort()
            self._minimal = tuple(keep)
            self._core = core
        return self._minimal

    def dense_core(self) -> int:
        """The points of the minimal opens, kept by the pass of
        ``minimal_open_family``.  They are the points whose row is their
        own class (every y in rows[x] has x in rows[y]), since a row is
        minimal exactly when each of its points has that row.  An open set
        is dense exactly when it holds all of them: an open meeting a
        minimal open holds it, and every row holds one."""
        if self._core is None:
            self.minimal_open_family()
        return self._core

    def opens_inside(self, mask: int) -> tuple[int, ...]:
        """The nonempty opens inside mask, ascending; kept per mask."""
        if self._inside is None:
            self._inside = {}
        got = self._inside.get(mask)
        if got is None:
            got = self._inside[mask] = tuple([o for o in self.opens[1:] if not o & ~mask])
        return got

    def clopens(self) -> tuple[int, ...]:
        full = self.full
        return tuple(o for o in self.opens if (full ^ o) in self._open_set)

    def clopen_atoms(self) -> tuple[int, ...]:
        """The quasi-components: minimal nonempty clopen sets.

        They partition the points; every clopen set is a union of them.
        """
        return tuple(sorted(set(meet_rows(self.point_count, self.clopens()))))

    # -- separation axioms ----------------------------------------------

    def separation_flags(self) -> SeparationReport:
        """All flags from the rows.

        T0: the rows are distinct.  T1: every row is a singleton, which on
        a finite space is also Hausdorff.  Regular: for all x and y, y lies
        in row[x] or the two rows are disjoint, i.e. the preorder is
        symmetric; then every row is clopen, so the clopen sets form a
        base, the finite reading of ``completely_regular`` (cozero sets of
        a finite space are exactly the clopen ones).
        """
        rows = self.rows
        t0 = len(set(rows)) == len(rows)
        t1 = all(r == 1 << x for x, r in enumerate(rows))
        regular = all(
            (rx >> y) & 1 or rx & ry == 0 for rx in rows for y, ry in enumerate(rows)
        )
        return SeparationReport(t0, t1, t1, regular, regular)

    # -- plumbing --------------------------------------------------------

    def _check_range(self, mask: int) -> None:
        if mask < 0 or mask & ~self.full:
            raise ValueError("subset %r out of range" % mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSpace)
            and self.point_count == other.point_count
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.point_count, self.rows))

    def __repr__(self) -> str:
        sets = ",".join("{" + ",".join(map(str, bits_of(o))) + "}" for o in self.opens)
        return f"FiniteSpace({self.point_count}, [{sets}])"


def from_subbasis(point_count: int, subbasis: Iterable[int]) -> FiniteSpace:
    """Smallest topology containing the given sets.

    A point's minimal open neighborhood is the intersection of the
    generators containing it (the full set if none does), and those
    neighborhoods are the rows of the topology's preorder, already
    reflexive and transitive.
    """
    full = (1 << point_count) - 1
    gens = set()
    for s in subbasis:
        s = operator.index(s)
        if s < 0 or s & ~full:
            raise ValueError("subbasis member %r out of range for %d points" % (s, point_count))
        gens.add(s)
    return FiniteSpace._from_closed_rows(meet_rows(point_count, gens))


def frink_conditions(space: FiniteSpace, base: Iterable[int]) -> FrinkReport:
    """Check the two base conditions from Frink's characterization of
    complete regularity, returning the least witness on failure.

    Condition 1: every point x in a base member U admits a base member V
    with x not in V and U union V the whole space.  Condition 2: whenever
    two base members cover the space, their complements sit inside two
    disjoint base members.
    """
    members = sorted(set(map(operator.index, base)))
    full = space.full
    for b in members:
        if not space.is_open(b):
            raise NotABase("base member %r is not open" % b)
    # Every open is a union of members iff every row is a member (a member
    # holding x inside row[x] is row[x]).  An open that is not such a union
    # has a point x with no member holding x inside it; row[x] fails then
    # too and is no larger, so the least failing open is a row.
    member_set = set(members)
    for r in sorted(set(space.rows)):
        if r not in member_set:
            raise NotABase("open %r is not a union of base members" % r)

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


# SpaceMap._skeletal before skeletality is decided; a witness is a
# nonempty open, so never negative.
_UNDECIDED = -1


class SpaceMap:
    """A point assignment between finite spaces.

    Continuity, openness, surjectivity and skeletality are queries rather
    than construction-time invariants, so ill-behaved maps can be built
    and then diagnosed.  Each query reads only what it needs:
    ``image_of`` walks the bits of its mask, ``is_continuous`` tests each
    point of each domain row against the codomain row of its row's image
    point, ``is_open_map`` reads the images of the domain rows and
    ``is_surjective`` counts the distinct image points.  Skeletality is
    decided once per map and kept; the kept answer takes no part in
    equality or hashing.

    ``SpaceMap(domain, codomain, assign)`` checks input from outside
    (``jsonio``, tests, user code): it converts each entry with
    ``operator.index``, so a float or a string raises ``TypeError``, and
    requires one image point in range per domain point.  Maps whose
    assignment the library has built itself, already in range, come
    through ``_from_built`` instead, which skips the checks.
    """

    __slots__ = ("domain", "codomain", "assign", "_skeletal")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, assign: Iterable[int]):
        assign = tuple(map(operator.index, assign))
        if len(assign) != domain.point_count:
            raise ValueError("assignment must cover every domain point")
        if assign and codomain.point_count == 0:
            raise ValueError("no map into the empty space from a nonempty one")
        for a in assign:
            if not 0 <= a < codomain.point_count:
                raise ValueError("image point %d out of range" % a)
        self.domain = domain
        self.codomain = codomain
        self.assign = assign
        self._skeletal = _UNDECIDED

    @classmethod
    def _from_built(
        cls, domain: FiniteSpace, codomain: FiniteSpace, assign: tuple[int, ...]
    ) -> "SpaceMap":
        """The map of an assignment the library has built: a tuple of
        ints, one per domain point, each a codomain point.  Nothing is
        converted or checked; ``__init__`` would accept it unchanged."""
        m = cls.__new__(cls)
        m.domain = domain
        m.codomain = codomain
        m.assign = assign
        m._skeletal = _UNDECIDED
        return m

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        return cls._from_built(space, space, tuple(range(space.point_count)))

    def image_of(self, mask: int) -> int:
        assign = self.assign
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << assign[low.bit_length() - 1]
            mask ^= low
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
        return SpaceMap._from_built(
            inner.domain, self.codomain, tuple([self.assign[a] for a in inner.assign])
        )

    def is_continuous(self) -> bool:
        """Each domain row maps into the codomain row of its image point:
        every y in the row of x has its image in the row of x's image."""
        assign = self.assign
        cod_rows = self.codomain.rows
        for row, a in zip(self.domain.rows, assign):
            target = cod_rows[a]
            while row:
                low = row & -row
                if not (target >> assign[low.bit_length() - 1]) & 1:
                    return False
                row ^= low
        return True

    def is_open_map(self) -> bool:
        """Each domain row has an open image (the rows form a base)."""
        return all(self.codomain.is_open(self.image_of(row)) for row in self.domain.rows)

    def is_surjective(self) -> bool:
        # every image point is in range, by __init__ or by its builder
        return len(set(self.assign)) == self.codomain.point_count

    def is_skeletal(self) -> bool:
        """True when every nonempty domain open has an image whose closure
        has nonempty interior.  Requires a continuous surjection."""
        return self.skeletal_witness() is None

    def skeletal_witness(self) -> int | None:
        """The least nonempty open violating skeletality, or None.  The
        first call decides it and later calls return the kept answer; a
        map that is not a continuous surjection raises on every call.

        A continuous surjection f is skeletal exactly when f(core X) lies
        in core Y, and the witness is the least minimal open of X that
        misses the preimage of core Y.  Proof: the closure of a set has
        nonempty interior exactly when the set meets a minimal open of Y,
        that is, meets core Y, so an open U violates when f(U) misses
        core Y.  A subset of a violating open violates too, and every
        nonempty open holds a minimal open no larger than itself, as a set
        and so as an integer; so the least violating open is a minimal
        open.  Core Y is open, so its preimage is open, and a minimal open
        meets an open exactly when it lies inside it.
        """
        if self._skeletal is not _UNDECIDED:
            return self._skeletal
        if not self.is_continuous():
            raise NotContinuous("skeletality is defined for continuous maps only")
        if not self.is_surjective():
            raise NotSurjective("skeletality is defined for surjections only")
        into_core = self.preimage_of(self.codomain.dense_core())
        witness = next((u for u in self.domain.minimal_open_family() if not u & into_core), None)
        self._skeletal = witness
        return witness

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
