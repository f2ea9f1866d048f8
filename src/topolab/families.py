"""Families of open sets and the quotients they generate.

The key construction: a family P of opens identifies points that belong to
exactly the same members, and the images of members generate a topology on
the classes.  Alongside live the sequence-closure operator (the finite
shadow of cozero behaviour), ring closure, and skeletal-family checking.

A family carries its space, and ``OpenFamily`` checks its members once,
when it is built; every function here reads ``family.space``.  Only
``build_quotient`` (and ``systems.system_from_families``) take a space and
raw masks, and each builds the family exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotAPiBase, NotContinuous
from .spaces import FiniteSpace, SpaceMap, bits_of, from_subbasis

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
]


@dataclass(frozen=True)
class OpenFamily:
    """A set of open sets of one space.  The empty set may or may not be a
    member; game-facing operations ignore it, ring operations keep it."""

    space: FiniteSpace
    members: frozenset[int]

    def __post_init__(self):
        bad = [m for m in self.members if not self.space.is_open(m)]
        if bad:
            raise ValueError("family member %r is not open" % min(bad))

    @classmethod
    def of(cls, space: FiniteSpace, members: Iterable[int]) -> "OpenFamily":
        return cls(space, frozenset(int(m) for m in members))

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


def classes_of(family: OpenFamily) -> tuple[int, ...]:
    """Partition of the points by equal membership across the family.

    Starts from the one block of all points (none on the empty space) and
    splits every block by each member into its parts inside and outside
    the member, dropping empty parts.  Classes come out as bitmasks in
    order of their lowest point, which is the order of first occurrence
    while scanning points ascending.
    """
    space = family.space
    blocks = [space.full] if space.point_count else []
    for m in family.members:
        split = []
        for c in blocks:
            inside = c & m
            if inside:
                split.append(inside)
            if inside != c:
                split.append(c ^ inside)
        blocks = split
    return tuple(sorted(blocks, key=lambda c: c & -c))


@dataclass(frozen=True)
class Quotient:
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


def build_quotient(space: FiniteSpace, members: Iterable[int]) -> Quotient:
    """Quotient of ``space`` by the family of the open masks ``members``."""
    fam = OpenFamily.of(space, members)
    members = fam.members
    classes = classes_of(fam)
    assign = [0] * space.point_count
    for idx, c in enumerate(classes):
        for x in bits_of(c):
            assign[x] = idx
    # Each member is a union of classes: its image is the classes it meets.
    images = []
    for m in members:
        img = 0
        for idx, c in enumerate(classes):
            if c & m:
                img |= 1 << idx
        images.append(img)
    qspace = from_subbasis(len(classes), images)
    qmap = SpaceMap(space, qspace, assign)
    identity = all(qmap.preimage_of(img) == m for m, img in zip(members, images))
    continuous = qmap.is_continuous()
    # An open image containing c contains c's row, so the images inside
    # that row cover c only if one of them equals it.
    image_set = set(images)
    base = all(r in image_set for r in qspace.rows)
    return Quotient(
        space=space,
        family=fam,
        classes=classes,
        assign=tuple(assign),
        quotient_space=qspace,
        map=qmap,
        identity_holds=identity,
        q_continuous=continuous,
        image_is_base=base,
    )


def seq_family(family: OpenFamily) -> OpenFamily:
    """Members expressible as an increasing union interleaved with
    complements of members.

    Over a finite family the witnessing sequences stabilize, which forces
    the closed form used here: W qualifies exactly when both W and its
    complement are members.  ``seq_family_bruteforce`` searches the
    witness sequences directly; the two must agree and the test suites
    check that they do.
    """
    members = family.members
    full = family.space.full
    return OpenFamily.of(family.space, (w for w in members if (full ^ w) in members))


def seq_family_bruteforce(family: OpenFamily) -> OpenFamily:
    """Bounded search for witness sequences, kept independent of the
    closed form.

    A run is a sequence U_0, U_1, ... of members with members V_k such
    that U_k and V_k are disjoint and the complement of V_k sits inside
    U_(k+1).  An infinite witness exists exactly when a run of length at
    most the family size reaches a member W admitting V with complement
    equal to W (the run can then repeat W, V forever), and the union of
    such a run is W.
    """
    members = family.sorted_members
    full = family.space.full
    member_set = set(members)
    closers = {full ^ v for v in members} & member_set
    # forward reachability along the sandwich relation, from every member
    reached = set(members)
    frontier = list(members)
    while frontier:
        u = frontier.pop()
        for v in members:
            if u & v:
                continue
            between = full ^ v
            for u2 in members:
                if between & ~u2 == 0 and u2 not in reached:
                    reached.add(u2)
                    frontier.append(u2)
    return OpenFamily.of(family.space, (w for w in reached if w in closers))


def ring_closure(family: OpenFamily) -> OpenFamily:
    """Smallest superfamily closed under pairwise union and intersection."""
    current = set(family.members)
    while True:
        new = set()
        for a in current:
            for b in current:
                if a | b not in current:
                    new.add(a | b)
                if a & b not in current:
                    new.add(a & b)
        if not new:
            return OpenFamily.of(family.space, current)
        current |= new


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


def family_from_map(space_map: SpaceMap, pibase: Iterable[int]) -> OpenFamily:
    """Preimages of a pi-base of the codomain, as a family over the domain."""
    if not space_map.is_continuous():
        raise NotContinuous("preimage family needs a continuous map")
    cod = space_map.codomain
    members = sorted({int(v) for v in pibase})
    for v in members:
        if v == 0 or not cod.is_open(v):
            raise NotAPiBase("pi-base members must be nonempty opens")
    # An open holding no member contains a row holding none, no larger.
    for o in sorted(set(cod.rows)):
        if not any(v & ~o == 0 for v in members):
            raise NotAPiBase("open %r contains no pi-base member" % o)
    return OpenFamily.of(space_map.domain, (space_map.preimage_of(v) for v in members))

