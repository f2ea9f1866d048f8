import pytest

from topolab import systems
from topolab.enumeration import all_spaces
from topolab.errors import (
    EmptySpace,
    InvalidSystem,
    NonSkeletalBond,
    NotAChain,
    NotDirected,
)
from topolab.families import OpenFamily, build_quotient
from topolab.game import build_tclub_member, verify_winning
from topolab.randgen import random_quotient_chain, random_union_closed_families, random_space, rng_for
from topolab.spaces import FiniteSpace, SpaceMap
from topolab.suites import _continuous_surjections
from topolab.systems import (
    DirectedPoset,
    InverseSystem,
    check_sigma_completeness,
    check_skeletal_system,
    embedding_map,
    limit_space,
    limit_strategy,
    system_from_families,
    validate_system,
)

from oracles import (
    commutation_witness_by_compose,
    every_family,
    greedy_chain_by_le,
    limit_topology_by_every_node,
    open_onto_image_by_opens,
    poset_order_by_pair_loops,
    quotient_opens_by_subsets,
    sigma_by_sublimit,
    subbasis_by_meets_and_unions,
    threads_by_search,
    union_is_base_by_opens,
)

D2 = FiniteSpace.discrete(2)
D4 = FiniteSpace.discrete(4)
SIERP = FiniteSpace.sierpinski()
CHAIN3 = FiniteSpace.chain(3)


@pytest.fixture(autouse=True)
def every_limit_against_every_node(monkeypatch):
    """Every limit a test here builds, directly or through the library,
    carries the topology pulled back from every node, and each of its
    projections is onto."""
    real = systems.limit_space

    def checked(sys):
        lim = real(sys)
        assert lim.space == limit_topology_by_every_node(sys)
        assert all(p.is_surjective() for p in lim.projections)
        return lim

    monkeypatch.setattr(systems, "limit_space", checked)
    monkeypatch.setitem(globals(), "limit_space", checked)


def two_node_system(low_space, high_space, assign):
    poset = DirectedPoset(("lo", "hi"), [(0, 1)])
    bond = SpaceMap(high_space, low_space, assign)
    return InverseSystem(poset, (low_space, high_space), {(0, 1): bond})


def test_poset_validation():
    with pytest.raises(ValueError):
        DirectedPoset(("a", "b"), [(0, 1), (1, 0)])  # antisymmetry
    with pytest.raises(NotDirected):
        DirectedPoset(("a", "b"), [])  # no upper bound for the pair
    p = DirectedPoset(("a", "b", "c"), [(0, 2), (1, 2)])
    assert p.top() == 2
    assert p.is_chain([0, 2]) and not p.is_chain([0, 1])
    assert p.greedy_chain()[-1] == 2


def _outcome(build):
    try:
        return build(), None
    except (ValueError, NotDirected) as exc:
        return None, type(exc)


def test_poset_validation_matches_pair_loops_on_every_small_relation():
    for n in range(4):
        cells = [(i, j) for i in range(n) for j in range(n)]
        out_of_range = [[], [(0, n)], [(n, 0)], [(-1, 0)]]
        for code in range(1 << len(cells)):
            leq = [c for k, c in enumerate(cells) if (code >> k) & 1]
            # Out-of-range pairs are tried once each, beside the empty relation.
            for stray in out_of_range if code == 0 else [[]]:
                pairs = leq + stray
                poset, error = _outcome(lambda: DirectedPoset(range(n), pairs))
                order, ref_error = _outcome(lambda: poset_order_by_pair_loops(n, pairs))
                assert error is ref_error, pairs
                if poset is None:
                    continue
                assert poset.pairs() == sorted(order)
                for i in range(-1, n + 1):
                    for j in range(-1, n + 1):
                        assert poset.le(i, j) == ((i, j) in order)
                if n:
                    assert poset.top() == next(
                        t for t in range(n) if all((i, t) in order for i in range(n))
                    )


def test_poset_queries_match_le_loops_on_every_small_poset():
    posets = 0
    for n in range(4):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for code in range(1 << len(cells)):
            pairs = [c for k, c in enumerate(cells) if (code >> k) & 1]
            poset, _ = _outcome(lambda: DirectedPoset(range(n), pairs))
            if poset is None:
                continue
            posets += 1
            assert poset.greedy_chain() == greedy_chain_by_le(poset)
    # the directed posets on 0-3 labeled nodes: 1, 1, 2, 9
    assert posets == 13


def test_wide_posets_build_in_one_pass():
    # poset_order_by_pair_loops spends time cubic in the node count on both:
    # minutes on the star, hours on the chain.
    n = 2000
    star = DirectedPoset(range(n), ((i, n - 1) for i in range(n - 1)))
    assert star.top() == n - 1 and star.le(0, n - 1) and not star.le(0, 1)
    chain = DirectedPoset(range(n), ((i, j) for i in range(n) for j in range(i + 1, n)))
    assert chain.top() == n - 1 and chain.le(0, n - 1) and not chain.le(1, 0)
    with pytest.raises(NotDirected, match="elements 0 and 1$"):
        DirectedPoset(range(n), [(i, 0) for i in range(2, n)])


def test_validate_examples():
    # one small system for each verdict, its message pinned
    assert validate_system(two_node_system(D2, D2, [0, 1])).ok
    one = DirectedPoset(("a",), [])
    two = DirectedPoset(("lo", "hi"), [(0, 1)])
    cases = [
        (InverseSystem(two, (D2, D2), {}), "missing bond 0<=1"),
        (InverseSystem(two, (D2, D4), {(0, 1): SpaceMap(D2, D2, [0, 1])}), "bond 0<=1 connects wrong spaces"),
        (InverseSystem(one, (D2,), {(0, 0): SpaceMap.identity(D4)}), "bond 0<=0 connects wrong spaces"),
        # the swap of D2 is continuous and onto, and composes with itself
        # to the identity, so only the diagonal test can refuse it
        (InverseSystem(one, (D2,), {(0, 0): SpaceMap(D2, D2, [1, 0])}), "diagonal bond at 0 is not the identity"),
        (two_node_system(D2, SIERP, [0, 1]), "bond 0<=1 is not continuous"),
        (two_node_system(D2, D2, [0, 0]), "bond 0<=1 is not surjective"),
    ]
    for sys, message in cases:
        assert sys.check == validate_system(sys) == (False, message)


def test_validate_commutation():
    poset = DirectedPoset(("a", "b", "c"), [(0, 1), (1, 2), (0, 2)])
    swap = SpaceMap(D2, D2, [1, 0])
    ident = SpaceMap.identity(D2)
    sys = InverseSystem(
        poset, (D2, D2, D2), {(0, 1): swap, (1, 2): ident, (0, 2): ident}
    )
    assert validate_system(sys) == (False, "bonds do not commute along 0<=1<=2")


def test_commutation_witness_matches_compose_loop():
    rng = rng_for(29, "commute-oracle")
    failed = 0
    for i in range(300):
        sys = random_quotient_chain(rng, 3 + (i % 2), 3 + (i % 2), discrete_top=(i % 3 > 0))
        assert sys.check.ok and commutation_witness_by_compose(sys) is None
        pairs = [(a, b) for a, b in sys.poset.pairs() if a < b and sys.spaces[a].point_count > 1]
        if not pairs:
            continue
        low, high = rng.choice(pairs)
        bond = sys.bond(low, high)
        # Swap two points of the codomain; skip swaps that break continuity.
        swap = list(range(bond.codomain.point_count))
        x, y = rng.sample(swap, 2)
        swap[x], swap[y] = y, x
        if not SpaceMap(bond.codomain, bond.codomain, swap).is_continuous():
            continue
        bonds = dict(sys.bonds)
        bonds[(low, high)] = SpaceMap(bond.domain, bond.codomain, (swap[a] for a in bond.assign))
        perturbed = InverseSystem(sys.poset, sys.spaces, bonds)
        assert perturbed.check.witness == commutation_witness_by_compose(perturbed)
        failed += not perturbed.check.ok
    assert failed > 100


def test_limit_examples():
    const = two_node_system(D2, D2, [0, 1])
    lim = limit_space(const)
    assert lim.threads == ((0, 0), (1, 1))
    assert lim.space == D2

    pairing = two_node_system(D2, D4, [0, 0, 1, 1])
    lim2 = limit_space(pairing)
    assert lim2.space.point_count == 4
    assert len(lim2.space.opens) == 16  # discrete

    empty = FiniteSpace(0, [0])
    single = InverseSystem(DirectedPoset(("e",), []), (empty,), {})
    assert limit_space(single).space.point_count == 0


def test_limit_threads_match_the_search():
    rng = rng_for(23, "threads-oracle")
    empty = FiniteSpace(0, [0])
    systems_seen = [
        InverseSystem(DirectedPoset((), []), (), {}),
        InverseSystem(DirectedPoset(("e",), []), (empty,), {}),
        two_node_system(empty, empty, []),
    ]
    for i in range(120):
        systems_seen.append(
            random_quotient_chain(rng, 1 + (i % 4), 1 + (i % 4), discrete_top=(i % 3 == 0))
        )
    non_chain = 0
    for i in range(2000):
        space = random_space(rng, 1 + (i % 4))
        fams = random_union_closed_families(rng, space, 1 + (i % 4))
        sys = system_from_families(space, fams).system
        non_chain += not sys.poset.is_chain(range(sys.poset.n))
        systems_seen.append(sys)
    assert non_chain > 500
    for sys in systems_seen:
        assert limit_space(sys).threads == threads_by_search(sys)
    assert limit_space(systems_seen[0]).threads == ((),)
    assert limit_space(systems_seen[2]).threads == ()


def test_limit_is_the_top_node_on_the_seed_42_suite_systems():
    # the systems suite's chains at seed 42, --max-points 4, 500 samples
    rng = rng_for(42, "systems")
    built = [
        random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 2), discrete_top=(i % 5 == 0))
        for i in range(500)
    ]
    # the club systems and the directed family systems of the same run
    for space in all_spaces(4, min_points=1):
        seeds = [()] + [(c,) for c in space.clopens() if c]
        members = [build_tclub_member(OpenFamily(space, s)) for s in seeds]
        built.append(system_from_families(space, members).system)
    rng2 = rng_for(42, "dirfam")
    for i in range(120):
        space = random_space(rng2, 2 + (i % 2))
        fams = random_union_closed_families(rng2, space, rng2.randint(1, 3))
        built.append(system_from_families(space, fams).system)
    assert len(built) == 500 + 389 + 120
    for sys in built:
        lim = limit_space(sys)
        assert lim.space == limit_topology_by_every_node(sys)
        assert all(p.is_surjective() for p in lim.projections)
        top = sys.poset.top()
        assert lim.space is sys.spaces[top]
        assert all(lim.projections[i] is sys.bond(i, top) for i in range(sys.poset.n))
        assert all(thread[top] == p for p, thread in enumerate(lim.threads))


def test_limit_requires_valid_system():
    bad = two_node_system(D2, D2, [0, 0])
    with pytest.raises(InvalidSystem):
        limit_space(bad)


def test_system_with_too_few_spaces_is_diagnosed():
    short = InverseSystem(DirectedPoset(("a", "b"), [(0, 1)]), (D2,), {})
    assert short.check == validate_system(short)
    assert short.check.witness == "space count does not match poset size"
    with pytest.raises(InvalidSystem, match="space count"):
        limit_space(short)


def test_each_system_is_validated_once(monkeypatch):
    validated = []
    real = systems.validate_system

    def counting(sys):
        validated.append(sys)
        return real(sys)

    monkeypatch.setattr(systems, "validate_system", counting)
    built = [
        two_node_system(D2, D4, [0, 0, 1, 1]),
        system_from_families(CHAIN3, [[0b001], [0b001, 0b011]]).system,
    ]
    for sys in built:
        lim = limit_space(sys)
        check_skeletal_system(lim)
        limit_strategy(lim)
        check_sigma_completeness(sys, [0, 1])  # reads one bond, builds no subsystem
    assert validated[0] is built[0] and validated[1] is built[1]
    assert len(validated) == 2


def test_limit_topology_against_pullbacks_of_all_opens():
    rng = rng_for(5, "limit-oracle")
    for i in range(60):
        if i % 2:
            sys = random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 4))
        else:
            space = random_space(rng, 2 + (i % 3))
            sys = system_from_families(space, random_union_closed_families(rng, space, 3)).system
        lim = limit_space(sys)
        pullbacks = [
            lim.projections[k].preimage_of(v)
            for k, node in enumerate(sys.spaces)
            for v in node.opens
        ]
        assert lim.space == subbasis_by_meets_and_unions(len(lim.threads), pullbacks)


def test_merge_steps_carry_the_quotient_topology():
    rng = rng_for(9, "merge-oracle")
    merged = 0
    for i in range(80):
        sys = random_quotient_chain(rng, 1 + (i % 5), 2 + (i % 3), discrete_top=(i % 4 == 0))
        for k in range(sys.poset.n - 1):
            step = sys.bond(k, k + 1)
            m = step.codomain.point_count
            merged += m < step.domain.point_count
            assert step.codomain == FiniteSpace(m, quotient_opens_by_subsets(step.domain, step.assign, m))
    assert merged > 60


def test_library_built_maps_pass_the_outside_check():
    """Every map the library builds by ``SpaceMap._from_built``, unchecked,
    is one that ``SpaceMap.__init__`` accepts and builds equal: a tuple of
    plain ints, one per domain point, each a codomain point."""
    maps = []
    for space in all_spaces(3):
        maps.append(SpaceMap.identity(space))
        for members in every_family(space):
            q = build_quotient(space, members)
            assert q.assign is q.map.assign
            maps.append(q.map)
        # the skeletal section of the quotient suite builds these
        for cod in all_spaces(space.point_count, min_points=1):
            for assign in _continuous_surjections(space, cod):
                maps.append(SpaceMap._from_built(space, cod, assign))
    rng = rng_for(5, "built-maps")
    for i in range(40):
        space = random_space(rng, 1 + (i % 4))
        fs = system_from_families(space, random_union_closed_families(rng, space, 3))
        f, _ = embedding_map(fs)
        maps += [f, *fs.system.bonds.values(), *limit_space(fs.system).projections]
        chain = random_quotient_chain(rng, 1 + (i % 5), 2 + (i % 3), discrete_top=(i % 4 == 0))
        top = chain.poset.n - 1
        maps += [*chain.bonds.values(), *limit_space(chain).projections]
        maps += [chain.bond(0, top).compose(SpaceMap.identity(chain.spaces[top]))]
    for m in maps:
        assert type(m.assign) is tuple and len(m.assign) == m.domain.point_count
        assert all(type(a) is int and 0 <= a < m.codomain.point_count for a in m.assign)
        assert m == SpaceMap(m.domain, m.codomain, list(m.assign))
    assert len(maps) > 3000


def test_projection_functoriality():
    rng = rng_for(3, "functorial")
    for i in range(60):
        sys = random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 2))
        lim = limit_space(sys)
        for low, high in sys.poset.pairs():
            assert lim.projections[low] == sys.bond(low, high).compose(lim.projections[high])


def test_skeletal_system_reports():
    ident = two_node_system(D2, D2, [0, 1])
    rep = check_skeletal_system(limit_space(ident))
    assert rep.proposition_holds and all(rep.bond_skeletal.values())
    assert rep.projection_skeletal == {0: True, 1: True}

    non_skel = two_node_system(SIERP, D2, [0, 1])  # discrete-2 onto Sierpinski
    rep2 = check_skeletal_system(limit_space(non_skel))
    assert rep2.bond_skeletal[(0, 1)] is False
    assert rep2.projection_skeletal == {0: False, 1: True}
    assert not rep2.hypothesis_holds and rep2.proposition_holds is None


def test_skeletal_proposition_seeded():
    rng = rng_for(9, "skel-prop")
    applicable = 0
    for i in range(200):
        sys = random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 2), discrete_top=(i % 4 == 0))
        rep = check_skeletal_system(limit_space(sys))
        if rep.hypothesis_holds:
            applicable += 1
            assert rep.proposition_holds
    assert applicable >= 100


def test_open_bonds_are_skeletal():
    rng = rng_for(13, "open-bonds")
    for i in range(60):
        sys = random_quotient_chain(rng, 2 + (i % 3), 2, discrete_top=True)
        for pair in sys.poset.pairs():
            bond = sys.bond(*pair)
            if bond.is_open_map():
                assert bond.is_skeletal()


def test_system_from_families_example():
    fs = system_from_families(CHAIN3, [[0b001], [0b001, 0b011]])
    assert validate_system(fs.system).ok
    assert fs.system.spaces[0].point_count == 2
    assert fs.system.spaces[1].point_count == 3
    assert fs.system.bond(0, 1).assign == (0, 1, 1)

    single = system_from_families(CHAIN3, [[0b001]])
    assert single.system.poset.n == 1


def test_system_from_families_requires_directed():
    with pytest.raises(NotDirected):
        system_from_families(CHAIN3, [[0b001], [0b011]])  # no common superfamily


def test_system_from_families_refuses_floats_and_strings():
    # masks convert by operator.index, so 1.9 is not read as 0b001
    for bad in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            system_from_families(CHAIN3, [[bad]])
    by_bool = system_from_families(CHAIN3, [[True]])
    assert by_bool.families == system_from_families(CHAIN3, [[1]]).families


def test_club_collection_gives_skeletal_bonds():
    for space in all_spaces(3, min_points=1):
        members = [build_tclub_member(OpenFamily(space, []))]
        for c in space.clopens():
            if c:
                members.append(build_tclub_member(OpenFamily(space, [c])))
        fs = system_from_families(space, members)
        for pair in fs.system.poset.pairs():
            assert fs.system.bond(*pair).is_skeletal()
        for q in fs.quotients:
            assert q.map.is_skeletal()


def test_embedding_identity_and_homeomorphism():
    fs = system_from_families(CHAIN3, [[0b001], [0b001, 0b011]])
    f, rep = embedding_map(fs)
    assert f is fs.quotients[fs.system.poset.top()].map
    assert rep.continuous and rep.image_dense and rep.image_identity_holds
    assert rep.separates_points == rep.injective
    assert rep.homeomorphism_onto_limit

    # a single collapsing family: constant map, flagged as non-separating
    fs2 = system_from_families(CHAIN3, [[]])
    f2, rep2 = embedding_map(fs2)
    assert not rep2.separates_points and not rep2.injective
    assert rep2.image_dense


def test_embedding_base_and_openness_against_opens_scans():
    rng = rng_for(11, "embedding-oracle")
    systems = [
        system_from_families(space, [build_tclub_member(OpenFamily(space, []))])
        for space in all_spaces(3, min_points=1)
    ]
    for i in range(80):
        space = random_space(rng, 2 + (i % 3))
        systems.append(system_from_families(space, random_union_closed_families(rng, space, 3)))
    seen = set()
    for fs in systems:
        f, rep = embedding_map(fs)
        union_members = {m for fam in fs.families for m in fam.members}
        assert rep.union_is_base == union_is_base_by_opens(fs.space, union_members)
        assert rep.open_onto_image == open_onto_image_by_opens(f)
        seen.add((rep.union_is_base, rep.open_onto_image))
    # a base union makes the map open onto its image, so (True, False) never shows
    assert seen == {(False, False), (False, True), (True, True)}


def test_embedding_t0_reflection_sanity():
    for space in all_spaces(3, min_points=1):
        fs = system_from_families(space, [space.opens])
        f, rep = embedding_map(fs)
        flags = space.separation_flags()
        assert rep.injective == flags.t0
        assert rep.image_dense and rep.continuous
        # the single projection recovers the class map
        q = fs.quotients[0]
        proj = limit_space(fs.system).projections[0]
        assert proj.compose(f) == q.map


def test_embedding_homeomorphism_when_separating_clopen_base():
    for space in all_spaces(4, min_points=1):
        members = [build_tclub_member(OpenFamily(space, []))]
        fs = system_from_families(space, members)
        f, rep = embedding_map(fs)
        if rep.separates_points and rep.union_is_base:
            assert rep.homeomorphism_onto_limit
        if rep.separates_points:
            # separating clopen families only exist on discrete spaces
            assert len(space.opens) == 1 << space.point_count
            assert rep.homeomorphism_onto_limit
        assert rep.vacuous_for_clopen_base == (
            not space.separation_flags().completely_regular
        )


def test_limit_strategy_examples():
    const = two_node_system(D2, D2, [0, 1])
    strat = limit_strategy(limit_space(const))
    lim = limit_space(const)
    assert verify_winning(lim.space, strat).winning

    pairing = two_node_system(D2, D4, [0, 0, 1, 1])
    strat2 = limit_strategy(limit_space(pairing))
    assert verify_winning(limit_space(pairing).space, strat2).winning
    # D2's minimal opens lift to the halves, then D4's to its points
    assert strat2.moves == (0b0011, 0b1100, 0b0001, 0b0010, 0b0100, 0b1000)


def test_limit_strategy_requires_skeletal_bonds():
    non_skel = two_node_system(SIERP, D2, [0, 1])
    with pytest.raises(NonSkeletalBond):
        limit_strategy(limit_space(non_skel))
    bad = two_node_system(D2, D2, [0, 0])
    with pytest.raises(InvalidSystem):
        limit_strategy(limit_space(bad))
    empty = FiniteSpace(0, [0])
    single = InverseSystem(DirectedPoset(("e",), []), (empty,), {})
    with pytest.raises(EmptySpace):
        limit_strategy(limit_space(single))


def test_limit_strategy_on_the_system_without_nodes():
    # The limit is the one empty thread, but no node has moves to lift.
    nodeless = DirectedPoset((), [])
    assert nodeless.greedy_chain() == []
    lim = limit_space(InverseSystem(nodeless, (), {}))
    assert lim.threads == ((),)
    with pytest.raises(EmptySpace):
        limit_strategy(lim)


def test_limit_strategy_seeded():
    rng = rng_for(21, "limit-strat")
    verified = 0
    for i in range(120):
        sys = random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 2), discrete_top=(i % 3 == 0))
        try:
            strat = limit_strategy(limit_space(sys))
        except NonSkeletalBond:
            continue
        lim = limit_space(sys)
        assert verify_winning(lim.space, strat).winning
        verified += 1
    assert verified >= 60


def test_sigma_completeness_examples():
    fs = system_from_families(CHAIN3, [[0b001], [0b001, 0b011]])
    assert check_sigma_completeness(fs.system, [0, 1]).ok
    assert check_sigma_completeness(fs.system, [0]).ok  # singleton chain

    # designated sup finer than the chain resolves: the canonical map
    # collapses, witnessed by a thread with two preimages
    rep = check_sigma_completeness(fs.system, [0], sup=1)
    assert not rep.ok and rep.witness[0] == "thread"


def test_sigma_completeness_union_closed_collections():
    rng = rng_for(17, "sigma")
    for i in range(40):
        space = random_space(rng, 2 + (i % 2))
        fams = random_union_closed_families(rng, space, rng.randint(1, 3))
        fs = system_from_families(space, fams)
        poset = fs.system.poset
        for a in range(poset.n):
            for b in range(poset.n):
                if poset.le(a, b):
                    assert check_sigma_completeness(fs.system, [a, b]).ok


def test_sigma_chain_validation():
    fs = system_from_families(CHAIN3, [[0b001], [0b001, 0b011]])
    with pytest.raises(NotAChain):
        check_sigma_completeness(fs.system, [])
    with pytest.raises(NotAChain):
        check_sigma_completeness(fs.system, [5])
    with pytest.raises(NotAChain):
        check_sigma_completeness(fs.system, [1], sup=0)  # sup below the chain

    incomparable = system_from_families(
        FiniteSpace.discrete(2), [[0b01], [0b10], [0b01, 0b10]]
    )
    with pytest.raises(NotAChain):
        check_sigma_completeness(incomparable.system, [0, 1])


def _chains_upto_three(poset):
    """Every chain of one to three nodes, each listed once, lowest first."""
    n = poset.n
    for a in range(n):
        yield [a]
        for b in range(n):
            if b != a and poset.le(a, b):
                yield [a, b]
                for c in range(n):
                    if c not in (a, b) and poset.le(b, c):
                        yield [a, b, c]


def test_sigma_from_top_bond_matches_sublimit_oracle():
    rng = rng_for(23, "sigma-oracle")
    built = []
    for i in range(90):
        space = random_space(rng, 2 + (i % 3))
        fams = random_union_closed_families(rng, space, 2 + (i % 3))
        built.append(system_from_families(space, fams).system)
    for i in range(60):
        built.append(
            random_quotient_chain(rng, 2 + (i % 3), 2 + (i % 3), discrete_top=(i % 4 == 0))
        )
    kinds = {"ok": 0, "thread": 0, "not_open": 0}
    for sys in built:
        poset = sys.poset
        for chain in _chains_upto_three(poset):
            bounds = [u for u in range(poset.n) if all(poset.le(c, u) for c in chain)]
            for sup in [None] + bounds:
                got = check_sigma_completeness(sys, chain, sup)
                want = sigma_by_sublimit(sys, chain, sup)
                assert (got.ok, got.sup, got.witness) == (want.ok, want.sup, want.witness)
                kinds["ok" if got.ok else got.witness[0]] += 1
    assert kinds["thread"] >= 100 and kinds["not_open"] >= 20, kinds
