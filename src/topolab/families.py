"""Families of open sets and the quotients they generate.

The key construction: a family P of opens identifies points that belong to
exactly the same members, and the images of members generate a topology on
the classes.  ``build_quotient`` groups the points by their ``meet_rows``
entry, walks each member once for its image and the preimage identity, and
takes each class's quotient row as the image of its meet row, which is the
meet of the member images holding the class.  ``classes_of`` groups the
points on its own, off that path, for callers and cross-checks.  Alongside
live the sequence-closure operator (the finite shadow of cozero
behaviour), ring closure (the ``union_closure`` of the members' meets),
and skeletal-family checking.

A family carries its space, and ``OpenFamily`` checks its members once,
when it is built; every function here reads ``family.space``.  Only
``build_quotient`` (and ``systems.system_from_families``) take a space and
raw masks, and each builds the family exactly once.  ``OpenFamily`` is a
``__slots__`` class, immutable by convention; ``Quotient`` is a
``NamedTuple`` record, so its fields cannot be assigned.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import NotAPiBase, NotContinuous
from .spaces import FiniteSpace, SpaceMap, meet_rows, union_closure

__all__ = [
    "OpenFamily",
    "Quotient",
    "classes_of",
    "build_quotient",
    "seq_family",
    "seq_family_bruteforce",
    "ring_closure",
    "is_skeletal_family",
    "family_from_map",
    "families_from_map",
]


class OpenFamily:
    """A set of open sets of one space.  The empty set may or may not be a
    member; game-facing operations ignore it, ring operations keep it.

    ``OpenFamily(space, members)`` takes a frozenset of masks and checks
    that each is open.  Equality and hashing compare the space and the
    members; nothing changes them after construction.
    """

    __slots__ = ("space", "members")

    def __init__(self, space: FiniteSpace, members: frozenset[int]):
        if not members <= space._open_set:
            bad = sorted(members - space._open_set)
            raise ValueError("family member %r is not open" % bad[0])
        self.space = space
        self.members = members

    @classmethod
    def of(cls, space: FiniteSpace, members: Iterable[int]) -> "OpenFamily":
        return cls(space, frozenset(map(int, members)))

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def union_mask(self) -> int:
        u = 0
        for m in self.members:
            u |= m
        return u

    def is_intersection_closed(self) -> bool:
        return all(a & b in self.members for a in self.members for b in self.members)

    def is_ring(self) -> bool:
        return all(
            a & b in self.members and a | b in self.members
            for a in self.members
            for b in self.members
        )

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OpenFamily)
            and self.space == other.space
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.space, self.members))

    def __repr__(self) -> str:
        return f"OpenFamily({self.space!r}, {list(self.sorted_members)})"


def classes_of(family: OpenFamily) -> tuple[int, ...]:
    """Partition of the points by equal membership across the family.

    Groups the points by their ``meet_rows`` entry, the meet of the
    members holding them: two points lie in the same members exactly when
    their meets agree, since each point lies in its own meet.  Classes
    come out as bitmasks in order of their lowest point, the order in
    which the points are scanned.  ``build_quotient`` groups the points
    in its own loop, which also keeps each class's meet row.
    """
    classes: dict[int, int] = {}
    for x, row in enumerate(meet_rows(family.space.point_count, family.members)):
        classes[row] = classes.get(row, 0) | 1 << x
    return tuple(classes.values())


class Quotient(NamedTuple):
    """A space quotiented by an open family.

    ``identity_holds`` records that every member equals the preimage of its
    image, ``q_continuous`` that the class map is continuous, and
    ``image_is_base`` that member images generate the quotient opens by
    unions alone.
    """

    space: FiniteSpace
    family: OpenFamily
    classes: tuple[int, ...]
    assign: tuple[int, ...]
    quotient_space: FiniteSpace
    map: SpaceMap
    identity_holds: bool
    q_continuous: bool
    image_is_base: bool


# The quotient spaces built so far, keyed by their rows: a finite space is
# its rows, so two quotients with equal rows share one space.  Filled until
# it holds _QUOTIENT_SPACES_CAP spaces; the quotients of the spaces on at
# most 4 points give at most 390.
_QUOTIENT_SPACES: dict[tuple[int, ...], FiniteSpace] = {}
_QUOTIENT_SPACES_CAP = 1024


def build_quotient(space: FiniteSpace, members: Iterable[int]) -> Quotient:
    """Quotient of ``space`` by the family of the open masks ``members``.

    One loop over ``meet_rows`` of the members groups the points: two
    points lie in the same members exactly when their meets agree, so
    each distinct meet M(c) is one class c, indexed by its lowest point.
    One walk over each member's bits then takes its image, the OR of its
    points' class bits, and tests the identity inline: a member is the
    preimage of its image exactly when no class it touches sticks out.

    The quotient row of class c is the image q(M(c)).  When the identity
    holds, each member is a union of classes, and so is M(c), the meet of
    the members holding c (every point if none does).  Then q(M(c)) is
    the meet of the images holding c, that is ``meet_rows`` of the
    images: it lies in each, and a class d in each meets, so lies in,
    each member holding c, so lies in M(c).  The rows are a preorder, as
    ``_from_closed_rows`` requires: c lies in M(c), so in its own row;
    and d in the row of c lies in every member holding c, so M(d) lies in
    M(c) and the row of d in the row of c.  ``meet_rows`` groups by equal
    membership, so the identity holds for every family; only a broken
    grouping breaks it, which ``identity_holds`` reports.
    ``from_subbasis`` of the images stays the quotient topology's
    definition: ``test_image_is_base_against_oracle_exhaustive`` in
    ``tests/test_families.py`` checks every quotient on at most 3 points
    against it and against an oracle.

    The ``assign`` tuple is shared by ``Quotient.assign`` and the map; it
    is in range by construction, so the map comes from
    ``SpaceMap._from_built``.  One ``FiniteSpace`` serves every call with
    the same rows, since the rows fix the space.  The family, the
    classes, the map and the three verdicts are computed on every call.
    """
    fam = OpenFamily.of(space, members)
    meets: dict[int, int] = {}
    classes = []
    assign = []
    for x, meet in enumerate(meet_rows(space.point_count, fam.members)):
        idx = meets.setdefault(meet, len(meets))
        if idx == len(classes):
            classes.append(1 << x)
        else:
            classes[idx] |= 1 << x
        assign.append(idx)
    classes = tuple(classes)
    assign = tuple(assign)
    images = set()
    identity = True
    for m in fam.members:
        img = 0
        b = m
        while b:
            low = b & -b
            idx = assign[low.bit_length() - 1]
            img |= 1 << idx
            if classes[idx] & ~m:
                identity = False
            b ^= low
        images.add(img)
    rows = []
    for meet in meets:
        img = 0
        while meet:
            low = meet & -meet
            img |= 1 << assign[low.bit_length() - 1]
            meet ^= low
        rows.append(img)
    key = tuple(rows)
    qspace = _QUOTIENT_SPACES.get(key)
    if qspace is None:
        qspace = FiniteSpace._from_closed_rows(key)
        if len(_QUOTIENT_SPACES) < _QUOTIENT_SPACES_CAP:
            _QUOTIENT_SPACES[key] = qspace
    qmap = SpaceMap._from_built(space, qspace, assign)
    # An open image containing c contains c's row, so the images inside
    # that row cover c only if one of them equals it.
    return Quotient(
        space, fam, classes, assign, qspace, qmap, identity,
        qmap.is_continuous(), images.issuperset(key),
    )


def seq_family(family: OpenFamily) -> OpenFamily:
    """Members expressible as an increasing union interleaved with
    complements of members.

    Over a finite family the witnessing sequences stabilize, which forces
    the closed form used here: W qualifies exactly when both W and its
    complement are members.  ``seq_family_bruteforce`` reads the
    definition directly; the two must agree and the test suites check
    that they do.
    """
    members = family.members
    full = family.space.full
    return OpenFamily.of(family.space, (w for w in members if (full ^ w) in members))


def seq_family_bruteforce(family: OpenFamily) -> OpenFamily:
    """The witness-sequence definition read directly, kept independent
    of the closed form.

    A run is a sequence U_0, U_1, ... of members with members V_k such
    that U_k and V_k are disjoint and the complement of V_k sits inside
    U_(k+1).  An infinite witness exists exactly when a run reaches a
    member W admitting a member V disjoint from W whose complement sits
    inside W (the run can then repeat W, V forever), and the union of
    such a run is W.  A run of length zero starts at every member, so W
    qualifies exactly when it admits such a V.  That V is the complement
    of W, which makes ``seq_family`` the closed form of this test.
    """
    members = family.sorted_members
    full = family.space.full
    return OpenFamily.of(
        family.space,
        (w for w in members if any(not w & v and (full ^ v) & ~w == 0 for v in members)),
    )


def ring_closure(family: OpenFamily) -> OpenFamily:
    """Smallest superfamily closed under pairwise union and intersection.

    The meets of members are the complements of the unions of their
    complements, and the unions of those meets are closed under meets
    too, since a meet of two unions is the union of the pairwise meets.
    """
    full = family.space.full
    meets = {full ^ u for u in union_closure({full ^ m for m in family.members})}
    return OpenFamily.of(family.space, union_closure(meets))


def is_skeletal_family(family: OpenFamily) -> tuple[bool, int | None]:
    """Skeletal-family test; empty members are ignored.

    Holds when every nonempty open V admits a member W such that every
    nonempty member inside W meets V.  On failure returns the least open V
    without such a W.  A subset of a failing V fails too, and every
    nonempty open contains a row no larger than itself, so that V is a row.
    """
    members = [m for m in family.members if m]
    for v in sorted(set(family.space.rows)):
        good = False
        for w in members:
            if all(u & v for u in members if u & ~w == 0):
                good = True
                break
        if not good:
            return False, v
    return True, None


def families_from_map(
    space_map: SpaceMap, pibases: Iterable[Iterable[int]]
) -> Iterator[OpenFamily]:
    """The preimage family of each pi-base of the codomain, in order.

    Continuity is checked once, before the first family, and the
    codomain's minimal opens are read once.  Each pi-base is checked as
    it comes, so the families before an invalid one are yielded first.
    Each codomain open's preimage is taken once per call.
    """
    if not space_map.is_continuous():
        raise NotContinuous("preimage family needs a continuous map")
    cod = space_map.codomain
    minimal = cod.minimal_open_family()
    preimages: dict[int, int] = {}
    for pibase in pibases:
        members = {int(v) for v in pibase}
        if not all(v and cod.is_open(v) for v in members):
            raise NotAPiBase("pi-base members must be nonempty opens")
        # The only nonempty open inside a minimal open is itself, and every
        # nonempty open holds a minimal open no larger than itself, so the
        # least open holding no member is the least minimal open left out.
        for m in minimal:
            if m not in members:
                raise NotAPiBase("open %r contains no pi-base member" % m)
        for v in members - preimages.keys():
            preimages[v] = space_map.preimage_of(v)
        yield OpenFamily.of(space_map.domain, (preimages[v] for v in members))


def family_from_map(space_map: SpaceMap, pibase: Iterable[int]) -> OpenFamily:
    """Preimages of a pi-base of the codomain, as a family over the domain:
    the one-pi-base case of ``families_from_map``."""
    return next(families_from_map(space_map, [pibase]))
