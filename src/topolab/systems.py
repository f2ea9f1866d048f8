"""Finite inverse systems: validation, limits, skeletal projections, the
system induced by a directed collection of open families, the embedding of
the base space into the limit, and the winning strategy lifted to a limit.

A finite directed poset has a top node and the bonds commute, so each
point p of the top space fixes one thread, (bond(i, top)(p))_i, and every
thread is fixed so.  A continuous bond pulls each open of its node back to
an open of the top space, so the topology the projections generate is the
top topology.  The limit is therefore the top space itself, thread p being
the thread of top point p, and the projection onto node i is
``bond(i, top)``, which is onto.  The search over the product of the node
point sets and the pull-back from every node live on in
``tests/oracles.py``.

``DirectedPoset`` and ``InverseSystem`` are ``__slots__`` classes,
immutable by convention; an ``InverseSystem`` validates itself once, when
it is built.  Every result here (``SystemCheck``, ``LimitSpace``,
``SkeletalSystemReport``, ``FamilySystem``, ``EmbeddingReport``,
``SigmaReport``) is a ``NamedTuple`` record, so its fields cannot be
assigned.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    EmptySpace,
    InvalidSystem,
    NonSkeletalBond,
    NotAChain,
    NotDirected,
)
from .families import OpenFamily, Quotient, build_quotient
from .game import RoundRobinStrategy
from .spaces import FiniteSpace, SpaceMap, bits_of

__all__ = [
    "DirectedPoset",
    "InverseSystem",
    "LimitSpace",
    "SystemCheck",
    "SkeletalSystemReport",
    "FamilySystem",
    "EmbeddingReport",
    "SigmaReport",
    "validate_system",
    "limit_space",
    "check_skeletal_system",
    "system_from_families",
    "embedding_map",
    "limit_strategy",
    "check_sigma_completeness",
]


class DirectedPoset:
    """A finite directed partial order over labeled elements.

    ``labels`` carries the payload (anything hashable).  The constructor
    takes index pairs (i, j) meaning i <= j and keeps them as rows:
    ``rows[i]`` is the bitmask of every j with i <= j, as in
    ``FiniteSpace.rows``.  Reflexivity, antisymmetry, transitivity and
    directedness are all enforced at construction, in one pass over the
    pairs of the order: j in rows[i] needs rows[j] inside rows[i], and a
    finite poset is directed exactly when it has a top, the one element
    every row holds.  The pairs of the order are listed on first use and
    kept.
    """

    __slots__ = ("labels", "rows", "_top", "_pairs")

    def __init__(self, labels: Iterable, leq: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        n = len(labels)
        rows = [1 << i for i in range(n)]
        for i, j in leq:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("relation pair (%d, %d) out of range" % (i, j))
            rows[i] |= 1 << j
        common = (1 << n) - 1
        for i, row in enumerate(rows):
            bit, outside = 1 << i, ~row
            for j in bits_of(row ^ bit):
                if rows[j] & bit:
                    raise ValueError("order is not antisymmetric at (%d, %d)" % (i, j))
                stray = rows[j] & outside
                if stray:
                    k = (stray & -stray).bit_length() - 1
                    raise ValueError("order is not transitive at (%d, %d, %d)" % (i, j, k))
            common &= row
        if n and not common:
            i, j = next((i, j) for i in range(n) for j in range(n) if not rows[i] & rows[j])
            raise NotDirected("no upper bound for elements %d and %d" % (i, j))
        self.labels = labels
        self.rows = tuple(rows)
        self._top = common.bit_length() - 1 if n else None
        self._pairs = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def le(self, i: int, j: int) -> bool:
        try:
            return i >= 0 and (self.rows[i] >> j) & 1 == 1
        except (IndexError, ValueError):  # i past the last node, or j < 0
            return False

    def pairs(self) -> list[tuple[int, int]]:
        """Every (i, j) with i <= j, by i and then j, as a new list."""
        if self._pairs is None:
            self._pairs = tuple((i, j) for i, row in enumerate(self.rows) for j in bits_of(row))
        return list(self._pairs)

    def top(self) -> int:
        if self._top is None:
            raise NotDirected("directed finite poset lost its top")
        return self._top

    def is_chain(self, elems: Iterable[int]) -> bool:
        elems = list(elems)
        return all(
            self.le(a, b) or self.le(b, a) for a in elems for b in elems
        )

    def greedy_chain(self) -> list[int]:
        """Cofinal chain: start at the least-index minimal element and keep
        stepping to the least strict upper bound, ending at the top.  The
        minimal elements are those in no other element's row.  The empty
        poset has the empty chain."""
        if not self.n:
            return []
        above = 0
        for i, row in enumerate(self.rows):
            above |= row & ~(1 << i)
        current = next(bits_of(((1 << self.n) - 1) & ~above))
        chain = [current]
        up = self.rows[current] & ~(1 << current)
        while up:
            current = next(bits_of(up))
            chain.append(current)
            up = self.rows[current] & ~(1 << current)
        return chain

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedPoset)
            and self.labels == other.labels
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.rows))

    def __repr__(self) -> str:
        return f"DirectedPoset({self.labels!r})"


class SystemCheck(NamedTuple):
    ok: bool
    witness: str | None


class InverseSystem:
    """Spaces indexed by a directed poset with bonding maps downward.

    ``bonds[(i, j)]`` for i <= j maps the space at j onto the space at i.
    Identity bonds on the diagonal may be omitted; they are filled in.
    ``check`` is the verdict of ``validate_system``, run once when the
    system is built, so an invalid system can be built and diagnosed.
    Equality compares the poset, the spaces and the bonds, not ``check``;
    the bonds are a dict, so a system has no hash.  Nothing changes the
    fields after construction.
    """

    __slots__ = ("poset", "spaces", "bonds", "check")

    def __init__(
        self, poset: DirectedPoset, spaces: tuple[FiniteSpace, ...],
        bonds: Mapping[tuple[int, int], SpaceMap],
    ):
        filled = dict(bonds)
        for i, space in enumerate(spaces[: poset.n]):
            filled.setdefault((i, i), SpaceMap.identity(space))
        self.poset = poset
        self.spaces = spaces
        self.bonds = filled
        self.check = validate_system(self)

    def bond(self, low: int, high: int) -> SpaceMap:
        return self.bonds[(low, high)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InverseSystem)
            and self.poset == other.poset
            and self.spaces == other.spaces
            and self.bonds == other.bonds
        )

    def __repr__(self) -> str:
        return f"InverseSystem({self.poset!r}, {self.spaces!r})"


def validate_system(sys: InverseSystem) -> SystemCheck:
    """Check every structural invariant, reporting the first failure.

    Every bond must join the right spaces, every diagonal bond must be the
    identity, every other bond continuous and onto, and bond(i, j) after
    bond(j, k) must be bond(i, k) for i <= j <= k.  The pairs go by i and
    then j, the triples by (i, j) and then k.

    A diagonal bond that is the identity of its space is continuous and
    onto, so it is not tested again.  Once the diagonal has passed, a
    triple with i = j or j = k composes bond(i, k) with an identity, and
    its composite is bond(i, k) by construction; only the triples
    i < j < k are tested.  No triple skipped can fail, so the verdict and
    the first witness are those of the full loop over i <= j <= k, which
    ``tests/oracles.commutation_witness_by_compose`` keeps.
    """
    poset = sys.poset
    if len(sys.spaces) != poset.n:
        return SystemCheck(False, "space count does not match poset size")
    for i, j in poset.pairs():
        bond = sys.bonds.get((i, j))
        if bond is None:
            return SystemCheck(False, "missing bond %d<=%d" % (i, j))
        if bond.domain != sys.spaces[j] or bond.codomain != sys.spaces[i]:
            return SystemCheck(False, "bond %d<=%d connects wrong spaces" % (i, j))
        if i == j:
            if bond.assign != tuple(range(sys.spaces[i].point_count)):
                return SystemCheck(False, "diagonal bond at %d is not the identity" % i)
        elif not bond.is_continuous():
            return SystemCheck(False, "bond %d<=%d is not continuous" % (i, j))
        elif not bond.is_surjective():
            return SystemCheck(False, "bond %d<=%d is not surjective" % (i, j))
    rows = poset.rows
    for i, row in enumerate(rows):
        for j in bits_of(row & ~(1 << i)):
            inner = sys.bond(i, j).assign
            for k in bits_of(rows[j] & ~(1 << j)):
                if tuple(inner[p] for p in sys.bond(j, k).assign) != sys.bond(i, k).assign:
                    return SystemCheck(False, "bonds do not commute along %d<=%d<=%d" % (i, j, k))
    return SystemCheck(True, None)


class LimitSpace(NamedTuple):
    """The limit of ``system``: the top space, ``threads[p]`` the thread
    of its point p, and the bonds into the top as the projections.  The
    system without nodes has one empty thread on a one-point space."""

    system: InverseSystem
    threads: tuple[tuple[int, ...], ...]
    space: FiniteSpace
    projections: tuple[SpaceMap, ...]


def limit_space(sys: InverseSystem) -> LimitSpace:
    if not sys.check.ok:
        raise InvalidSystem(sys.check.witness)
    n = sys.poset.n
    if not n:
        return LimitSpace(system=sys, threads=((),), space=FiniteSpace.discrete(1), projections=())
    top = sys.poset.top()
    projections = tuple(sys.bond(i, top) for i in range(n))
    threads = tuple(zip(*(b.assign for b in projections)))
    return LimitSpace(system=sys, threads=threads, space=sys.spaces[top], projections=projections)


class SkeletalSystemReport(NamedTuple):
    """Per-bond and per-projection skeletality, plus the proposition that
    skeletal bonds force skeletal projections.  Every projection of a
    finite limit is onto, so the hypothesis is that every bond is
    skeletal; ``proposition_holds`` is None when it does not hold."""

    bond_skeletal: dict[tuple[int, int], bool]
    projection_skeletal: dict[int, bool]
    hypothesis_holds: bool
    proposition_holds: bool | None


def check_skeletal_system(lim: LimitSpace) -> SkeletalSystemReport:
    """Skeletality of the bonds of ``lim.system`` and of the projections of ``lim``."""
    sys = lim.system
    bond_skel = {
        (i, j): sys.bond(i, j).is_skeletal() for i, j in sys.poset.pairs()
    }
    proj_skel = {i: p.is_skeletal() for i, p in enumerate(lim.projections)}
    hypothesis = all(bond_skel.values())
    proposition = all(proj_skel.values()) if hypothesis else None
    return SkeletalSystemReport(
        bond_skeletal=bond_skel,
        projection_skeletal=proj_skel,
        hypothesis_holds=hypothesis,
        proposition_holds=proposition,
    )


class FamilySystem(NamedTuple):
    """An inverse system of quotients by a directed collection of families."""

    space: FiniteSpace
    families: tuple[OpenFamily, ...]
    quotients: tuple[Quotient, ...]
    system: InverseSystem


def system_from_families(space: FiniteSpace, collection: Iterable[Iterable[int]]) -> FamilySystem:
    """Quotient space per family, bonds collapsing finer classes onto
    coarser ones.  Each entry of ``collection`` is a family given by its
    open masks of ``space``; the collection must be directed by inclusion."""
    distinct = {frozenset(map(operator.index, entry)) for entry in collection}
    members = sorted(distinct, key=lambda f: (len(f), sorted(f)))
    quotients = tuple(build_quotient(space, f) for f in members)
    families = tuple(q.family for q in quotients)
    # The poset raises NotDirected for the first pair with no common superfamily.
    poset = DirectedPoset(
        (f.sorted_members for f in families),
        ((i, j) for i, a in enumerate(members) for j, b in enumerate(members) if a <= b),
    )
    bonds = {}
    for i, j in poset.pairs():
        if i == j:
            continue
        fine, coarse = quotients[j], quotients[i]
        assign = tuple([coarse.assign[(cls & -cls).bit_length() - 1] for cls in fine.classes])
        bonds[(i, j)] = SpaceMap._from_built(fine.quotient_space, coarse.quotient_space, assign)
    system = InverseSystem(
        poset=poset,
        spaces=tuple(q.quotient_space for q in quotients),
        bonds=bonds,
    )
    return FamilySystem(space=space, families=families, quotients=quotients, system=system)


class EmbeddingReport(NamedTuple):
    """Diagnostics for the canonical map of the base space into the limit.

    ``homeomorphism_onto_limit`` bundles continuity, bijectivity onto the
    threads and openness; ``vacuous_for_clopen_base`` flags runs where the
    base space lacks a clopen base, the situation in which the strong
    conclusions are not expected to apply.
    """

    continuous: bool
    injective: bool
    separates_points: bool
    union_is_base: bool
    image_identity_holds: bool
    open_onto_image: bool
    image_dense: bool
    homeomorphism_onto_limit: bool
    vacuous_for_clopen_base: bool


def embedding_map(famsys: FamilySystem) -> tuple[SpaceMap, EmbeddingReport]:
    """Send each point to the thread of its classes; report what holds.

    The thread of x is the thread of x's class in the top quotient, so the
    map is the top quotient map.  An empty collection has the one-point
    limit, and every point goes to it."""
    space = famsys.space
    lim = limit_space(famsys.system)
    if famsys.quotients:
        f = famsys.quotients[famsys.system.poset.top()].map
    else:
        f = SpaceMap._from_built(space, lim.space, (0,) * space.point_count)

    union_members = sorted({m for fam in famsys.families for m in fam.members})
    separates = all(
        any(((m >> x) & 1) != ((m >> y) & 1) for m in union_members)
        for x in range(space.point_count)
        for y in range(x + 1, space.point_count)
    )
    injective = len(set(f.assign)) == space.point_count
    # A member holding x inside row[x] is row[x].
    base = set(space.rows) <= set(union_members)
    image = f.image_of(space.full)
    identity_ok = True
    for fi, fam in enumerate(famsys.families):
        proj = lim.projections[fi]
        q = famsys.quotients[fi]
        for u in sorted(fam.members):
            lhs = f.image_of(u)
            rhs = image & proj.preimage_of(q.map.image_of(u))
            if lhs != rhs:
                identity_ok = False
    # Open images are unions of row images, and a part S of the image is
    # open in it iff the closure of the rest of the image misses S.
    open_onto_image = all(
        lim.space.closure(image & ~s) & s == 0 for s in map(f.image_of, set(space.rows))
    )
    dense = lim.space.is_dense(image)
    onto = image == lim.space.full
    continuous = f.is_continuous()
    homeo = continuous and injective and onto and open_onto_image
    vacuous = not space.separation_flags().completely_regular
    report = EmbeddingReport(
        continuous=continuous,
        injective=injective,
        separates_points=separates,
        union_is_base=base,
        image_identity_holds=identity_ok,
        open_onto_image=open_onto_image,
        image_dense=dense,
        homeomorphism_onto_limit=homeo,
        vacuous_for_clopen_base=vacuous,
    )
    return f, report


def limit_strategy(lim: LimitSpace) -> RoundRobinStrategy:
    """Round robin on the limit ``lim`` over the lifted minimal opens of
    every space of ``lim.system``, node by node along the poset's greedy
    cofinal chain, each lift listed once, in that order.

    Requires skeletal bonds.  Each node contributes its minimal opens (a
    pi-base), lifted through the projection; the opponent's replies inside
    the lift of a minimal open of the top space project back onto it, so
    the union of replies is dense in the limit.  A system without nodes
    has the empty chain and lifts no moves, so the round robin refuses it
    with ``EmptySpace``.
    """
    sys = lim.system
    for i, j in sys.poset.pairs():
        if not sys.bond(i, j).is_skeletal():
            raise NonSkeletalBond("bond %d<=%d is not skeletal" % (i, j))
    if lim.space.point_count == 0:
        raise EmptySpace("the limit has no threads")
    moves: list[int] = []
    for node in sys.poset.greedy_chain():
        proj = lim.projections[node]
        for m in sys.spaces[node].minimal_open_family():
            lifted = proj.preimage_of(m)
            if lifted and lifted not in moves:
                moves.append(lifted)
    return RoundRobinStrategy(moves)


class SigmaReport(NamedTuple):
    ok: bool
    sup: int
    witness: tuple | None


def check_sigma_completeness(
    sys: InverseSystem, chain: Iterable[int], sup: int | None = None
) -> SigmaReport:
    """Does the space at the supremum match the limit of the chain?

    The canonical map sends a point of the sup space to the thread of its
    bond images along the chain; the check passes when that map is a
    homeomorphism.  A finite chain's limit is the space at its top node,
    and thread p is the thread of top point p, so the canonical map is
    ``bond(top, sup)`` itself.  On a valid system that bond is onto and
    continuous, so the map is a homeomorphism exactly when the bond is
    one-to-one and open; no thread can lack a preimage and the map cannot
    fail continuity.  The witness is ``("thread", t)``, with t the least
    thread of a top point that two sup points reach, or ``("not_open",)``
    for a one-to-one bond that is not open.

    The default sup is the chain's top, its least upper bound, where the
    check is the degenerate (always-true-for-valid-systems) reading;
    passing an explicit larger ``sup`` probes the interesting direction,
    where a designated upper bound may carry a space finer than the chain
    resolves.
    """
    if not sys.check.ok:
        raise InvalidSystem(sys.check.witness)
    chain = list(dict.fromkeys(chain))
    if not chain:
        raise NotAChain("empty chain")
    for c in chain:
        if not 0 <= c < sys.poset.n:
            raise NotAChain("element %r outside the poset" % c)
    if not sys.poset.is_chain(chain):
        raise NotAChain("elements are not pairwise comparable")
    # Lower elements of a chain have larger up-sets.
    chain.sort(key=lambda c: -sys.poset.rows[c].bit_count())
    top = chain[-1]
    if sup is None:
        sup = top
    elif not sys.poset.le(top, sup):
        raise NotAChain("designated sup is not an upper bound of the chain")

    bond = sys.bond(top, sup)
    hits = bond.assign
    if len(set(hits)) < len(hits):
        bonds = [sys.bond(c, top).assign for c in chain]
        thread = min(tuple(a[q] for a in bonds) for q in set(hits) if hits.count(q) > 1)
        return SigmaReport(False, sup, ("thread", thread))
    if not bond.is_open_map():
        return SigmaReport(False, sup, ("not_open",))
    return SigmaReport(True, sup, None)
