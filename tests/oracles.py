"""Independent reference computations used by the tests.

Everything here recomputes a result by a different route than the library
takes, so agreement means something.  Keep these dumb and direct.
"""

from topolab.spaces import FiniteSpace, SpaceMap, bits_of


def closure_by_closed_scan(space: FiniteSpace, s: int) -> int:
    """Smallest closed superset, by intersecting all closed supersets."""
    out = space.full
    for o in space.opens:
        closed = space.full ^ o
        if s & ~closed == 0:
            out &= closed
    return out


def interior_by_definition(space: FiniteSpace, s: int) -> int:
    """Largest open subset, by unioning all open subsets."""
    out = 0
    for o in space.opens:
        if o & ~s == 0:
            out |= o
    return out


def kolmogorov_quotient(space: FiniteSpace):
    """Direct T0 reflection: identify topologically indistinguishable
    points, push opens forward through the class map.

    Returns (classes, assign, quotient space).  Classes are grouped by
    full neighborhood filters, not by any family machinery.
    """
    n = space.point_count
    filters = []
    for x in range(n):
        filters.append(frozenset(o for o in space.opens if (o >> x) & 1))
    classes: list[int] = []
    index: dict[frozenset, int] = {}
    assign = []
    for x in range(n):
        key = filters[x]
        if key not in index:
            index[key] = len(classes)
            classes.append(0)
        idx = index[key]
        classes[idx] |= 1 << x
        assign.append(idx)
    k = len(classes)
    opens = set()
    for o in space.opens:
        img = 0
        for x in bits_of(o):
            img |= 1 << assign[x]
        opens.add(img)
    return tuple(classes), tuple(assign), FiniteSpace(k, opens)


def two_valued_separation(space: FiniteSpace) -> bool:
    """Complete regularity by brute force over all two-valued maps."""
    d2 = FiniteSpace.discrete(2)
    n = space.point_count
    maps = []
    for code in range(1 << n):
        assign = [(code >> x) & 1 for x in range(n)]
        m = SpaceMap(space, d2, assign)
        if m.is_continuous():
            maps.append(assign)
    for o in space.opens:
        closed = space.full ^ o
        for x in bits_of(o):
            if not any(
                a[x] == 0 and all(a[y] == 1 for y in bits_of(closed)) for a in maps
            ):
                return False
    return True


def all_surjections(dom: FiniteSpace, cod: FiniteSpace):
    """Every point assignment from dom onto cod, as SpaceMap."""
    n, m = dom.point_count, cod.point_count
    if m == 0:
        if n == 0:
            yield SpaceMap(dom, cod, ())
        return
    for code in range(m**n):
        assign = []
        c = code
        for _ in range(n):
            assign.append(c % m)
            c //= m
        sm = SpaceMap(dom, cod, assign)
        if sm.is_surjective():
            yield sm


def preorders_by_filter(n: int) -> list[tuple[int, ...]]:
    """Every reflexive transitive relation on n points, as row bitmasks.

    Filters all 2**(n*(n-1)) relations, ascending by the code whose bit k
    marks the k-th off-diagonal pair (i, j) in row-major order, and tests
    transitivity by definition.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for code in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
        if all(
            (rows[i] >> c) & 1
            for i in range(n)
            for j in bits_of(rows[i])
            for c in bits_of(rows[j])
        ):
            out.append(tuple(rows))
    return out


def is_topology(n: int, family) -> bool:
    """The lattice axioms on subsets of n points, checked pair by pair."""
    fam = set(family)
    full = (1 << n) - 1
    return (
        0 in fam
        and full in fam
        and all((a | b) in fam and (a & b) in fam for a in fam for b in fam)
    )


def upset_opens(rows) -> set[int]:
    """The sets U with rows[i] inside U for every i in U, by scanning all U."""
    n = len(rows)
    return {
        u
        for u in range(1 << n)
        if all(rows[i] & ~u == 0 for i in range(n) if (u >> i) & 1)
    }


def subbasis_by_meets_and_unions(point_count: int, subbasis) -> FiniteSpace:
    """Smallest topology containing the sets: close under finite
    intersections (the empty one is the full set), then under unions."""
    full = (1 << point_count) - 1
    meets = {full}
    for g in sorted(set(subbasis)):
        meets |= {m & g for m in meets}
    opens = {0}
    frontier = set(meets)
    while frontier:
        opens |= frontier
        frontier = {a | b for a in opens for b in meets} - opens
    return FiniteSpace(point_count, opens)


def continuous_by_preimages(m: SpaceMap) -> bool:
    """Every open of the codomain pulls back to an open of the domain."""
    return all(m.domain.is_open(m.preimage_of(v)) for v in m.codomain.opens)


def open_by_images(m: SpaceMap) -> bool:
    """Every open of the domain has an open image."""
    return all(m.codomain.is_open(m.image_of(u)) for u in m.domain.opens)


def base_by_unions_below(space: FiniteSpace, pool) -> bool:
    """Every open is the union of the pool members inside it."""
    pool = set(pool)
    for o in space.opens:
        u = 0
        for m in pool:
            if m & ~o == 0:
                u |= m
        if u != o:
            return False
    return True
