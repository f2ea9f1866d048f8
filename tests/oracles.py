"""Independent reference computations used by the tests.

Everything here recomputes a result by a different route than the library
takes, so agreement means something.  Keep these dumb and direct.
"""

import itertools
from typing import Iterable, Iterator

from topolab.errors import EmptySpace, InvalidSystem, NotAChain, NotDirected, StateOverflow
from topolab.families import OpenFamily, ring_closure
from topolab.game import (
    GameSolution,
    PlayTrace,
    Strategy,
    TableStrategy,
    VerifyResult,
    closure_under_strategies,
    solve_open_open,
)
from topolab.spaces import FiniteSpace, SeparationReport, SpaceMap, bits_of, mask_of
from topolab.systems import DirectedPoset, InverseSystem, SigmaReport, limit_space


def closure_by_closed_scan(space: FiniteSpace, s: int) -> int:
    """Smallest closed superset, by intersecting all closed supersets."""
    out = space.full
    for o in space.opens:
        closed = space.full ^ o
        if s & ~closed == 0:
            out &= closed
    return out


def minimal_opens_by_pairs(space: FiniteSpace) -> tuple[int, ...]:
    """The distinct rows with no other row inside them, by comparing every
    pair of rows."""
    distinct = sorted(set(space.rows))
    return tuple(m for m in distinct if not any(o != m and o & ~m == 0 for o in distinct))


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


def classes_by_signature(space: FiniteSpace, members) -> tuple[int, ...]:
    """Points grouped by their tuple of memberships across the members, in
    order of first occurrence while scanning points ascending."""
    members = tuple(members)
    classes: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    for x in range(space.point_count):
        sig = tuple((m >> x) & 1 for m in members)
        idx = seen.get(sig)
        if idx is None:
            seen[sig] = len(classes)
            classes.append(1 << x)
        else:
            classes[idx] |= 1 << x
    return tuple(classes)


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


def assignments(n: int, m: int):
    """Every assignment of n points to m, as tuples, the first point
    cycling fastest."""
    for code in range(m**n):
        assign = []
        c = code
        for _ in range(n):
            assign.append(c % m)
            c //= m
        yield tuple(assign)


def all_surjections(dom: FiniteSpace, cod: FiniteSpace):
    """Every point assignment from dom onto cod, as SpaceMap."""
    m = cod.point_count
    for assign in assignments(dom.point_count, m):
        if all(a in assign for a in range(m)):
            yield SpaceMap(dom, cod, assign)


def continuous_surjections_by_filter(dom: FiniteSpace, cod: FiniteSpace):
    """The assignments of every continuous surjection from dom onto cod,
    by testing each assignment in turn."""
    for m in all_surjections(dom, cod):
        if continuous_by_preimages(m):
            yield m.assign


def image_by_bits(m: SpaceMap, mask: int) -> int:
    """The image of a domain subset, point by point."""
    out = 0
    for x in bits_of(mask):
        out |= 1 << m.assign[x]
    return out


def every_family(space: FiniteSpace):
    """Every family of opens of space, as a list in opens order."""
    opens = space.opens
    for pick in range(1 << len(opens)):
        yield [opens[k] for k in range(len(opens)) if (pick >> k) & 1]


def unions_by_fixpoint(members) -> set:
    """Every union of one or more members (int masks or frozensets), by
    adding pairwise unions until none is new."""
    out = set(members)
    while True:
        extra = {a | b for a in out for b in out} - out
        if not extra:
            return out
        out |= extra


def ring_closure_by_fixpoint(family: OpenFamily) -> OpenFamily:
    """Smallest superfamily closed under pairwise union and intersection,
    by adding pairwise unions and meets until none is new."""
    current = set(family.members)
    while True:
        new = {a | b for a in current for b in current}
        new |= {a & b for a in current for b in current}
        new -= current
        if not new:
            return OpenFamily.of(family.space, current)
        current |= new


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


def preorders_by_trial(n: int) -> Iterator[tuple[int, ...]]:
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


def is_topology(n: int, family) -> bool:
    """The lattice axioms on subsets of n points, checked pair by pair."""
    fam = set(family)
    full = (1 << n) - 1
    return (
        0 in fam
        and full in fam
        and all((a | b) in fam and (a & b) in fam for a in fam for b in fam)
    )


def opens_families_by_raw_filter(n: int) -> set[frozenset[int]]:
    """Every topology on n points, by testing each of the 2**(2**n - 2)
    families that hold the empty and the full set against the lattice
    axioms.  Meant for n <= 4."""
    if n == 0:
        return {frozenset({0})}
    full = (1 << n) - 1
    middle = range(1, full)
    found = set()
    for pick in range(1 << len(middle)):
        fam = {0, full} | {s for k, s in enumerate(middle) if (pick >> k) & 1}
        if is_topology(n, fam):
            found.add(frozenset(fam))
    return found


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


def least_open_not_a_union(space: FiniteSpace, pool) -> int | None:
    """The least open that is not the union of the pool members inside it."""
    pool = set(pool)
    for o in space.opens:
        u = 0
        for m in pool:
            if m & ~o == 0:
                u |= m
        if u != o:
            return o
    return None


def base_by_unions_below(space: FiniteSpace, pool) -> bool:
    """Every open is the union of the pool members inside it."""
    return least_open_not_a_union(space, pool) is None


def least_open_without_member(space: FiniteSpace, members) -> int | None:
    """The least nonempty open containing no member (pi-base failure)."""
    for o in space.opens:
        if o and not any(v & ~o == 0 for v in members):
            return o
    return None


def pi_bases_by_filter(space: FiniteSpace):
    """Every set of nonempty opens that leaves no nonempty open without a
    member, listed in the order of the opens, the sets counted upward."""
    pool = space.nonempty_opens()
    for pick in range(1 << len(pool)):
        members = [pool[k] for k in range(len(pool)) if (pick >> k) & 1]
        if least_open_without_member(space, members) is None:
            yield members


def separation_flags_by_definition(space: FiniteSpace) -> SeparationReport:
    """Every flag by its definition, quantifying over pairs of opens;
    ``completely_regular`` reads "the clopen sets form a base"."""
    n = space.point_count
    opens = space.opens
    t0 = t1 = hausdorff = True
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            sep_xy = any((o >> x) & 1 and not (o >> y) & 1 for o in opens)
            if not sep_xy:
                t1 = False
                if x < y and not any((o >> y) & 1 and not (o >> x) & 1 for o in opens):
                    t0 = False
            if x < y and not any(
                (u >> x) & 1 and (v >> y) & 1 and u & v == 0 for u in opens for v in opens
            ):
                hausdorff = False
    regular = True
    for o in opens:
        c = space.full ^ o
        for x in bits_of(o):
            if not any(
                (u >> x) & 1 and c & ~v == 0 and u & v == 0 for u in opens for v in opens
            ):
                regular = False
    clop = [o for o in opens if space.is_closed(o)]
    completely_regular = all(
        any((c >> x) & 1 and c & ~o == 0 for c in clop) for o in opens for x in bits_of(o)
    )
    return SeparationReport(t0, t1, hausdorff, regular, completely_regular)


def skeletal_witness_by_opens(m: SpaceMap) -> int | None:
    """The least nonempty domain open whose image has a closure with empty
    interior; the map must be a continuous surjection."""
    cod = m.codomain
    for u in m.domain.opens:
        if u and cod.interior(cod.closure(m.image_of(u))) == 0:
            return u
    return None


def skeletal_family_by_opens(space: FiniteSpace, members) -> int | None:
    """The least nonempty open V such that every member W holds a nonempty
    member missing V, or None when the family is skeletal."""
    members = [m for m in members if m]
    for v in space.opens:
        if v and not any(all(u & v for u in members if u & ~w == 0) for w in members):
            return v
    return None


def union_is_base_by_opens(space: FiniteSpace, members) -> bool:
    """Every point x of every open o lies in a member inside o."""
    return all(
        any((m >> x) & 1 and m & ~o == 0 for m in members)
        for o in space.opens
        for x in bits_of(o)
    )


def open_onto_image_by_opens(f: SpaceMap) -> bool:
    """Every domain open maps onto a trace of a codomain open on the image."""
    image = f.image_of(f.domain.full)
    relative = {o & image for o in f.codomain.opens}
    return all(f.image_of(u) in relative for u in f.domain.opens)


def quotient_opens_by_subsets(space: FiniteSpace, assign, m: int) -> set[int]:
    """The subsets of range(m) whose preimage under assign is open."""
    opens = set()
    for u in range(1 << m):
        pre = 0
        for x, a in enumerate(assign):
            if (u >> a) & 1:
                pre |= 1 << x
        if space.is_open(pre):
            opens.add(u)
    return opens


def solve_by_full_scan(space: FiniteSpace) -> GameSolution:
    """The open-open game by the backward induction ``solve_open_open``
    first shipped with: covered sets ordered by a (-size, mask) key, moves
    filtered from the opens and density read from closure_by_closed_scan,
    so it shares no density test with the library."""
    if space.point_count == 0:
        raise EmptySpace("the game needs at least one point")
    moves = tuple(o for o in space.opens if o)
    table: dict[int, tuple[str, int | None]] = {}
    for s in sorted(space.opens, key=lambda m: (-m.bit_count(), m)):
        if closure_by_closed_scan(space, s) == space.full:
            table[s] = ("dense", None)
            continue
        chosen = None
        for a in moves:
            ok = True
            for b in moves:
                if b & ~a:
                    continue
                s2 = s | b
                if s2 == s or table[s2][0] == "lose":
                    ok = False
                    break
            if ok:
                chosen = a
                break
        table[s] = ("win", chosen) if chosen is not None else ("lose", None)
    winner = "I" if table[0][0] in ("dense", "win") else "II"
    return GameSolution(space=space, winner=winner, table=table)


class LeastReplyStrategy(Strategy):
    """Player II strategy returning the least nonempty open inside the
    offer, by scanning every nonempty open."""

    player = "II"
    kind = "least"

    def __init__(self, space: FiniteSpace):
        self.space = space

    def initial_state(self):
        return 0

    def step(self, state, observed):
        reply = min(b for b in self.space.nonempty_opens() if b & ~observed == 0)
        return reply, 0


def enumerate_ii_strategies(space: FiniteSpace, n_states: int) -> Iterator[TableStrategy]:
    """All Player II transducers with exactly the given number of states:
    every table from (state, offer) to (reply inside the offer, next
    state), as the product of the option lists, first key slowest."""
    opens = space.nonempty_opens()
    keys = [(s, a) for s in range(n_states) for a in opens]
    options = [[(b, t) for b in opens if b & ~a == 0 for t in range(n_states)] for _, a in keys]
    for combo in itertools.product(*options):
        yield TableStrategy("II", 0, dict(zip(keys, combo)))


def poset_order_by_pair_loops(n: int, leq) -> frozenset:
    """The order on range(n) as a set of (i, j) pairs, checked pair by
    pair: range, antisymmetry, transitivity over every third element, and
    an upper bound for every pair of elements.  Raises ValueError, or
    NotDirected when only the upper bound is missing."""
    rel = set()
    for i, j in leq:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("relation pair (%d, %d) out of range" % (i, j))
        rel.add((i, j))
    for i in range(n):
        rel.add((i, i))
    for i, j in rel:
        if i != j and (j, i) in rel:
            raise ValueError("order is not antisymmetric at (%d, %d)" % (i, j))
    for i, j in list(rel):
        for k in range(n):
            if (j, k) in rel and (i, k) not in rel:
                raise ValueError("order is not transitive at (%d, %d, %d)" % (i, j, k))
    for i in range(n):
        for j in range(n):
            if not any((i, u) in rel and (j, u) in rel for u in range(n)):
                raise NotDirected("no upper bound for elements %d and %d" % (i, j))
    return frozenset(rel)


def threads_by_search(sys) -> tuple[tuple[int, ...], ...]:
    """Every thread of a valid inverse system, by backtracking over the
    product of the node point sets: a partial thread grows by one node at
    a time, keeping only points that agree with every bond to an earlier
    node.  Ordered by the top node's point, as ``LimitSpace.threads``."""
    n = sys.poset.n
    threads: list[tuple[int, ...]] = []
    counts = [sp.point_count for sp in sys.spaces]

    def extend(partial: list[int]):
        idx = len(partial)
        if idx == n:
            threads.append(tuple(partial))
            return
        for p in range(counts[idx]):
            ok = True
            for j, q in enumerate(partial):
                if sys.poset.le(j, idx) and sys.bond(j, idx).assign[p] != q:
                    ok = False
                    break
                if sys.poset.le(idx, j) and sys.bond(idx, j).assign[q] != p:
                    ok = False
                    break
            if ok:
                partial.append(p)
                extend(partial)
                partial.pop()

    extend([])
    if n:
        top = sys.poset.top()
        threads.sort(key=lambda thread: thread[top])
    return tuple(threads)


def limit_topology_by_every_node(sys) -> FiniteSpace:
    """The topology on the searched threads generated by the preimage of
    every open of every node under its projection, as defined."""
    threads = threads_by_search(sys)
    subbasis = set()
    for i, space in enumerate(sys.spaces):
        for v in space.opens:
            subbasis.add(mask_of(t for t, thread in enumerate(threads) if (v >> thread[i]) & 1))
    return subbasis_by_meets_and_unions(len(threads), subbasis)


def least_upper_bound_by_le(poset, subset):
    """The upper bound of ``subset`` below every other upper bound, or
    None, by calling ``le`` over every element."""
    subset = list(subset)
    ubs = [u for u in range(poset.n) if all(poset.le(i, u) for i in subset)]
    for u in ubs:
        if all(poset.le(u, v) for v in ubs):
            return u
    return None


def greedy_chain_by_le(poset) -> list[int]:
    """Start at the least-index minimal element and keep stepping to the
    least strict upper bound, by calling ``le`` over every element."""
    n = poset.n
    if n == 0:
        return []
    minimal = [i for i in range(n) if not any(j != i and poset.le(j, i) for j in range(n))]
    current = min(minimal)
    chain = [current]
    while True:
        nxt = [j for j in range(n) if j != current and poset.le(current, j)]
        if not nxt:
            return chain
        current = min(nxt)
        chain.append(current)


def commutation_witness_by_compose(sys):
    """The first triple i <= j <= k, in ``validate_system``'s order, where
    bond(i, j) after bond(j, k) differs from bond(i, k) as a SpaceMap."""
    poset = sys.poset
    for i, j in poset.pairs():
        for k in range(poset.n):
            if poset.le(j, k) and sys.bond(i, j).compose(sys.bond(j, k)) != sys.bond(i, k):
                return "bonds do not commute along %d<=%d<=%d" % (i, j, k)
    return None


def verify_by_colors(
    space: FiniteSpace, strategy: Strategy, node_limit: int = 500_000
) -> VerifyResult:
    """``verify_winning`` as it first shipped, kept verbatim: an
    iterative DFS that colours nodes GRAY while on the path and BLACK when
    done, with ``path_index`` for the lasso and an ``advanced`` flag.
    The library's verifier must agree on (winning, counterexample,
    nodes_explored).

    Exact adversarial check of a Player I strategy.

    Explores the product of strategy states and covered sets over every
    legal reply.  Covered sets only grow, so any reachable cycle keeps a
    non-dense covered set forever and witnesses a way to survive; absence
    of cycles means every play reaches density.  Returns a concrete
    opposing play on failure.
    """
    if space.point_count == 0:
        return VerifyResult(True, None, 0)
    moves = space.nonempty_opens()
    replies_cache: dict[int, tuple[int, ...]] = {}

    def replies(a: int) -> tuple[int, ...]:
        got = replies_cache.get(a)
        if got is None:
            got = tuple(b for b in moves if b & ~a == 0)
            replies_cache[a] = got
        return got

    move0, st0 = strategy.step(strategy.initial_state(), None)
    if not move0 or not space.is_open(move0):
        return VerifyResult(False, PlayTrace(rounds=(), loop_start=None), 0)

    root = (st0, move0, 0)
    color: dict = {}
    nodes = 0
    # iterative DFS; each frame is (node, reply iterator, rounds so far)
    GRAY, BLACK = 1, 2
    path_rounds: list[tuple[int, int]] = []
    path_index: dict = {}
    stack = [(root, iter(replies(move0)))]
    color[root] = GRAY
    path_index[root] = 0
    while stack:
        node, it = stack[-1]
        st, a, covered = node
        advanced = False
        for b in it:
            nodes += 1
            if nodes > node_limit:
                raise StateOverflow("verification exceeded %d nodes" % node_limit)
            cov2 = covered | b
            if space.is_dense(cov2):
                continue
            move2, st2 = strategy.step(st, b)
            if not move2 or not space.is_open(move2):
                rounds = tuple(path_rounds) + ((a, b),)
                return VerifyResult(False, PlayTrace(rounds=rounds, loop_start=None), nodes)
            child = (st2, move2, cov2)
            c = color.get(child)
            if c == GRAY:
                rounds = tuple(path_rounds) + ((a, b),)
                return VerifyResult(
                    False,
                    PlayTrace(rounds=rounds, loop_start=path_index[child]),
                    nodes,
                )
            if c == BLACK:
                continue
            color[child] = GRAY
            path_rounds.append((a, b))
            path_index[child] = len(path_rounds)
            stack.append((child, iter(replies(move2))))
            advanced = True
            break
        if not advanced:
            color[node] = BLACK
            stack.pop()
            if path_rounds:
                path_rounds.pop()
            path_index.pop(node, None)
    return VerifyResult(True, None, nodes)


def sigma_by_sublimit(
    sys: InverseSystem, chain: Iterable[int], sup: int | None = None
) -> SigmaReport:
    """``check_sigma_completeness`` as it shipped before it read the
    chain's top bond, kept verbatim below this paragraph: it builds the
    chain's sub-system, computes that sub-system's limit and tests the
    canonical map from the sup space onto it.

    Does the space at the supremum match the limit of the chain?

    The canonical map sends a point of the sup space to the thread of its
    bond images along the chain; the check passes when that map is a
    homeomorphism.  A finite chain contains its own least upper bound, so
    with the default sup the check is the degenerate (always-true-for-
    valid-systems) reading; passing an explicit larger ``sup`` probes the
    interesting direction, where a designated upper bound may carry a
    space finer than the chain resolves, and the witness is then a thread
    with more than one preimage.
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
    if sup is None:
        sup = least_upper_bound_by_le(sys.poset, chain)
        if sup is None:
            return SigmaReport(False, None, None)
    elif not all(sys.poset.le(c, sup) for c in chain):
        raise NotAChain("designated sup is not an upper bound of the chain")

    # Lower elements of a chain have larger up-sets.
    chain.sort(key=lambda c: -sys.poset.rows[c].bit_count())
    sub_poset = DirectedPoset(
        (sys.poset.labels[c] for c in chain),
        ((a, b) for a in range(len(chain)) for b in range(a, len(chain))),
    )
    sub_bonds = {(a, b): sys.bond(chain[a], chain[b]) for a, b in sub_poset.pairs()}
    subsystem = InverseSystem(
        poset=sub_poset,
        spaces=tuple(sys.spaces[c] for c in chain),
        bonds=sub_bonds,
    )
    sublim = limit_space(subsystem)
    thread_index = {t: i for i, t in enumerate(sublim.threads)}
    sup_space = sys.spaces[sup]
    assign = []
    for p in range(sup_space.point_count):
        thread = tuple(sys.bond(c, sup).assign[p] for c in chain)
        assign.append(thread_index[thread])
    h = SpaceMap(sup_space, sublim.space, assign)
    if len(set(assign)) != sup_space.point_count:
        collided = next(
            t
            for t in range(sublim.space.point_count)
            if assign.count(t) > 1
        )
        return SigmaReport(False, sup, ("thread", sublim.threads[collided]))
    if set(assign) != set(range(sublim.space.point_count)):
        missing = next(
            t for t in range(sublim.space.point_count) if t not in set(assign)
        )
        return SigmaReport(False, sup, ("thread", sublim.threads[missing]))
    if not h.is_continuous():
        return SigmaReport(False, sup, ("not_continuous",))
    if not h.is_open_map():
        return SigmaReport(False, sup, ("not_open",))
    return SigmaReport(True, sup, None)


# -- club members by strategy closure ----------------------------------


def apply_history(strategy: Strategy, history: Iterable[int]) -> int:
    """The move the strategy makes after observing the given replies."""
    move, state = strategy.step(strategy.initial_state(), None)
    for b in history:
        move, state = strategy.step(state, b)
    return move


def default_first_move(space: FiniteSpace) -> int:
    """Least nonempty clopen set, else least nonempty open set."""
    if space.point_count == 0:
        raise EmptySpace("no nonempty open exists")
    clop = [c for c in space.clopens() if c]
    if clop:
        return min(clop)
    return space.opens[1]


class WitnessStrategy(Strategy):
    """One of the two witness-sequence strategies.

    On a single-move history (W,) with W clopen it emits W itself
    (identity variant) or the complement of W (complement variant, when
    that complement is nonempty).  Everywhere else it emits the fixed
    default move.  On finite spaces the witnessing sequences for a clopen
    set are constant, which is why a single emission per variant suffices.
    """

    kind = "witness"

    _EMPTY, _FIRST, _REST = 0, 1, 2

    def __init__(self, space: FiniteSpace, complement: bool):
        self.space = space
        self.complement = complement
        self.default = default_first_move(space)
        self._clopen = set(space.clopens())

    def initial_state(self):
        return self._EMPTY

    def step(self, state, observed):
        if state == self._EMPTY:
            return self.default, self._FIRST
        if state == self._FIRST and observed is not None:
            move = self._single(observed)
            return move, self._REST
        return self.default, self._REST

    def _single(self, w: int) -> int:
        if w in self._clopen and w:
            if not self.complement:
                return w
            comp = self.space.full ^ w
            if comp:
                return comp
        return self.default


class UnionStrategy(Strategy):
    """Emits the union of everything observed so far; default on the
    empty history."""

    kind = "union"

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.default = default_first_move(space)

    def initial_state(self):
        return 0

    def step(self, state, observed):
        if observed is None:
            return self.default, 0
        acc = state | observed
        return acc, acc


class HybridClopenStrategy(Strategy):
    """Winning strategy whose moves stay clopen while the opponent's do.

    Cycles through the quasi-component atoms (the only nonempty clopen
    subset of an atom is the atom itself, so clopen replies are forced
    echoes and the atoms' union is the whole space).  The moment the
    opponent replies with a non-clopen set, it switches to the solved
    positional strategy: each later move is ``move_at`` of the covered
    set.  Strategy closures of clopen families therefore stay inside the
    clopen algebra.
    """

    kind = "hybrid_clopen"

    def __init__(self, space: FiniteSpace, solution: GameSolution):
        if space.point_count == 0:
            raise EmptySpace("no moves exist on the empty space")
        self.space = space
        self.positional = solution.strategy
        self.atoms = space.clopen_atoms()
        self._clopen = set(space.clopens())

    def initial_state(self):
        return ("atoms", 0, 0)

    def step(self, state, observed):
        phase = state[0]
        if phase == "atoms":
            _, idx, covered = state
            if observed is None:
                return self.atoms[idx], ("atoms", (idx + 1) % len(self.atoms), covered)
            covered |= observed
            if observed in self._clopen:
                return self.atoms[idx], ("atoms", (idx + 1) % len(self.atoms), covered)
            return self.positional.move_at(covered), ("solve", covered)
        _, covered = state
        if observed is not None:
            covered |= observed
        return self.positional.move_at(covered), ("solve", covered)


def seq_witness_strategies(space: FiniteSpace) -> list[WitnessStrategy]:
    """The two collapsed witness strategies (identity and complement)."""
    return [WitnessStrategy(space, complement=False), WitnessStrategy(space, complement=True)]


def club_by_strategy_closure(seed: OpenFamily) -> OpenFamily:
    """The club member of a clopen seed by the route ``build_tclub_member``
    first took: close under a winning strategy that answers clopen
    histories with clopen moves, both witness strategies and the union
    strategy, alternating with ring closure until everything is stable;
    the empty set is always adjoined."""
    space = seed.space
    solution = solve_open_open(space)
    strategies: list[Strategy] = [HybridClopenStrategy(space, solution)]
    strategies += seq_witness_strategies(space)
    strategies.append(UnionStrategy(space))

    # The closure drops empty members, so a round is stable once it adds
    # no nonempty one.
    current = seed
    while True:
        ringed = ring_closure(closure_under_strategies(current, strategies))
        if ringed.members | {0} == current.members | {0}:
            return OpenFamily.of(space, ringed.members | {0})
        current = ringed
