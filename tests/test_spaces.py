from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from topolab.enumeration import (
    all_spaces,
    all_topologies,
    count_topologies_bruteforce,
    opens_families_bruteforce,
)
from topolab.errors import NotABase, NotContinuous, NotSurjective
from topolab.randgen import random_space, rng_for
from topolab.spaces import (
    FiniteSpace,
    SpaceMap,
    frink_conditions,
    from_subbasis,
    meet_rows,
    union_closure,
)

from oracles import (
    all_surjections,
    closure_by_closed_scan,
    continuous_by_preimages,
    every_family,
    image_by_bits,
    interior_by_definition,
    least_open_not_a_union,
    minimal_opens_by_pairs,
    open_by_images,
    opens_families_by_raw_filter,
    separation_flags_by_definition,
    skeletal_by_nowhere_dense,
    skeletal_witness_by_opens,
    subbasis_by_meets_and_unions,
    two_valued_separation,
    unions_by_fixpoint,
)

SIERP = FiniteSpace.sierpinski()
D2 = FiniteSpace.discrete(2)


def test_from_subbasis_examples():
    assert set(from_subbasis(3, [0b001, 0b010]).opens) == {0, 1, 2, 3, 0b111}
    assert set(from_subbasis(2, []).opens) == {0, 0b11}
    assert set(from_subbasis(2, [0b10]).opens) == {0, 0b10, 0b11}


def test_from_subbasis_against_meets_and_unions():
    rng = rng_for(0, "subbasis-oracle")
    for _ in range(3000):
        n = rng.randrange(7)
        gens = [rng.randrange(1 << n) for _ in range(rng.randrange(7))]
        assert from_subbasis(n, gens) == subbasis_by_meets_and_unions(n, gens)


def test_from_subbasis_range_error():
    with pytest.raises(ValueError):
        from_subbasis(2, [0b100])


# Each boundary converts masks and points by operator.index: a float or a
# str is refused, not truncated, and a bool passes as the int it is.
SPACE_BOUNDARIES = {
    "FiniteSpace": lambda v: FiniteSpace(2, [0, v, 0b11]),
    "from_subbasis": lambda v: from_subbasis(2, [v]),
    "frink_conditions": lambda v: frink_conditions(D2, [v, 0b10, 0b11]),
    "SpaceMap": lambda v: SpaceMap(D2, D2, [0, v]),
}


@pytest.mark.parametrize("site", SPACE_BOUNDARIES)
def test_space_boundaries_refuse_floats_and_strings(site):
    build = SPACE_BOUNDARIES[site]
    for bad in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            build(bad)
    assert build(True) == build(1)


def test_validation_rejects_wide_non_topologies_at_once():
    # The o | row check rejects this from 42 opens; rebuilding the opens
    # from the rows instead would expand to 2**40 sets.
    full = (1 << 40) - 1
    with pytest.raises(ValueError, match="not closed under union/intersection"):
        FiniteSpace(40, [0, full] + [1 << x for x in range(40)])


def test_meet_rows_of_the_opens_are_the_rows_exhaustive():
    spaces = all_spaces(4)
    assert len(spaces) == 390
    for space in spaces:
        assert meet_rows(space.point_count, space.opens) == list(space.rows)
    assert meet_rows(3, []) == [0b111] * 3
    assert meet_rows(3, [0b011, 0b110]) == [0b011, 0b010, 0b110]


def test_union_closure_against_fixpoint_random():
    rng = rng_for(0, "union-closure")
    for _ in range(500):
        masks = [rng.randrange(1 << 6) for _ in range(rng.randrange(7))]
        assert union_closure(masks) == unions_by_fixpoint(masks)
        sets = [frozenset(rng.sample(range(8), rng.randrange(4))) for _ in range(rng.randrange(6))]
        assert union_closure(sets) == unions_by_fixpoint(sets)
    assert union_closure([]) == set()


def test_clopen_atoms_partition_the_points_and_generate_the_clopens():
    for space in all_spaces(4):
        atoms = space.clopen_atoms()
        covered = 0
        for a in atoms:
            assert a and not a & covered
            assert space.is_open(a) and space.is_closed(a)
            covered |= a
        assert covered == space.full
        for c in space.clopens():
            # disjoint atoms, so their sum is their union
            assert sum(a for a in atoms if a & c) == c


def test_named_constructors_match_their_opens():
    assert FiniteSpace.discrete(3) == FiniteSpace(3, range(8))
    assert FiniteSpace.indiscrete(3) == FiniteSpace(3, [0, 0b111])
    assert FiniteSpace.sierpinski() == FiniteSpace(2, [0, 0b10, 0b11])
    assert FiniteSpace.chain(3) == FiniteSpace(3, [0, 0b1, 0b11, 0b111])
    assert FiniteSpace.chain(3).rows == (0b1, 0b11, 0b111)
    with pytest.raises(ValueError):
        FiniteSpace.from_preorder([0b100, 0])


def test_topology_axioms_enforced():
    with pytest.raises(ValueError):
        FiniteSpace(2, [0b00, 0b01])  # missing full set
    with pytest.raises(ValueError):
        FiniteSpace(2, [0b01, 0b11])  # missing empty set
    with pytest.raises(ValueError):
        FiniteSpace(3, [0, 0b001, 0b010, 0b111])  # union {0,1} missing


def test_closure_interior_examples():
    assert SIERP.closure(0b10) == 0b11
    assert SIERP.interior(0b01) == 0
    assert D2.closure(0b01) == 0b01


def test_density_examples():
    assert SIERP.is_dense(0b10)
    assert not SIERP.is_dense(0b01)
    assert not D2.is_dense(0b01)


def test_minimal_neighborhood_examples():
    assert SIERP.minimal_open_neighborhood(0) == 0b11
    assert SIERP.minimal_open_neighborhood(1) == 0b10
    assert D2.minimal_open_neighborhood(0) == 0b01
    assert SIERP.minimal_open_family() == (0b10,)
    assert FiniteSpace.chain(3).minimal_open_family() == (0b001,)


def test_closure_against_oracle_all_small_spaces():
    for space in all_spaces(4):
        for s in range(space.full + 1):
            assert space.closure(s) == closure_by_closed_scan(space, s)
            assert space.interior(s) == interior_by_definition(space, s)


def test_density_against_closed_scan_all_small_spaces():
    for space in all_spaces(4):
        for s in range(space.full + 1):
            assert space.is_dense(s) == (closure_by_closed_scan(space, s) == space.full)


def _core_decides_density(space, core):
    full = space.full
    return all(
        (o & core == core) == (closure_by_closed_scan(space, o) == full) for o in space.opens
    )


def test_dense_core_decides_density_of_opens_with_a_negative_control():
    caught = 0
    for space in all_spaces(4):
        core = space.dense_core()
        assert _core_decides_density(space, core)
        # Dropping a point p from the core goes unseen exactly when another
        # point shares p's row: an open holding that point holds the row.
        for p in range(space.point_count):
            if (core >> p) & 1:
                alone = space.rows[p] == 1 << p
                assert _core_decides_density(space, core & ~(1 << p)) != alone
                caught += alone
    assert caught > 0


def test_minimal_open_family_against_pairwise_rule():
    for space in all_spaces(4):
        assert space.minimal_open_family() == minimal_opens_by_pairs(space)
    for space in all_topologies(5):
        assert space.minimal_open_family() == minimal_opens_by_pairs(space)


def test_opens_inside_against_filter():
    for space in all_spaces(4):
        for a in range(space.full + 1):
            expected = tuple(o for o in space.opens if o and o & ~a == 0)
            assert space.opens_inside(a) == expected
            assert space.opens_inside(a) is space.opens_inside(a)


@pytest.mark.parametrize("first", ["opens_inside", "minimal_open_family"])
def test_opens_inside_a_minimal_open_is_itself_in_either_call_order(first):
    # minimal_open_family's pass records (m,) for each minimal open m; that
    # entry and every filtered one agree whichever query comes first
    for space in all_spaces(4):
        fresh = FiniteSpace(space.point_count, space.opens)
        masks = range(fresh.full + 1)
        if first == "opens_inside":
            got = [fresh.opens_inside(a) for a in masks]
            minimal = fresh.minimal_open_family()
        else:
            minimal = fresh.minimal_open_family()
            got = [fresh.opens_inside(a) for a in masks]
        for m in minimal:
            assert fresh.opens_inside(m) == (m,)
        for a in masks:
            expected = tuple(o for o in fresh.opens if o and o & ~a == 0)
            assert got[a] == expected
            assert fresh.opens_inside(a) == expected


@pytest.mark.parametrize("query", ["closure", "is_dense", "interior"])
def test_queries_reject_masks_out_of_range(query):
    for space in (FiniteSpace(0, [0]), SIERP, FiniteSpace.chain(3)):
        for bad in (-1, -(1 << 40), space.full + 1, 1 << space.point_count, 1 << 40):
            with pytest.raises(ValueError):
                getattr(space, query)(bad)


def test_nonempty_opens_drops_only_the_empty_set():
    for space in all_spaces(4):
        assert space.nonempty_opens() == tuple(o for o in space.opens if o)
    assert FiniteSpace(0, [0]).nonempty_opens() == ()


def test_full_is_every_point():
    named = [FiniteSpace.sierpinski()] + [
        make(n)
        for make in (FiniteSpace.discrete, FiniteSpace.indiscrete, FiniteSpace.chain)
        for n in range(5)
    ]
    for space in named:
        assert space.full == (1 << space.point_count) - 1
    for n in range(5):
        rows = [(1 << n) - 1] * n
        assert FiniteSpace.from_preorder(rows).full == (1 << n) - 1
        assert FiniteSpace(n, [0, (1 << n) - 1]).full == (1 << n) - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=5))
def test_closure_laws_random(seed, n):
    space = random_space(rng_for(seed, "hyp"), n)
    for s in range(space.full + 1):
        cl = space.closure(s)
        assert s & ~cl == 0
        assert space.closure(cl) == cl
        assert space.interior(s) == space.full ^ space.closure(space.full ^ s)


def test_separation_examples():
    r = SIERP.separation_flags()
    assert r.t0 and not r.t1 and not r.hausdorff
    d = FiniteSpace.discrete(3).separation_flags()
    assert d.t0 and d.t1 and d.hausdorff and d.regular and d.completely_regular
    i = FiniteSpace.indiscrete(2).separation_flags()
    assert not i.t0 and i.regular and i.completely_regular and not i.hausdorff
    e = FiniteSpace(0, [0]).separation_flags()
    assert e.t0 and e.t1 and e.hausdorff and e.regular and e.completely_regular


def test_separation_flags_against_definition():
    rng = rng_for(0, "separation-oracle")
    spaces = list(all_spaces(4)) + [random_space(rng, 5 + i % 2) for i in range(40)]
    flags = [space.separation_flags() for space in spaces]
    for space, got in zip(spaces, flags):
        assert got == separation_flags_by_definition(space), space
    for name in ("t0", "t1", "regular"):
        assert 0 < sum(getattr(f, name) for f in flags) < len(flags)


def test_separation_implications_exhaustive():
    for space in all_spaces(4):
        r = space.separation_flags()
        if r.hausdorff:
            assert r.t1
        if r.t1:
            assert r.t0
        if r.regular and r.t0:
            assert r.hausdorff
        # finite Hausdorff spaces are discrete
        if r.hausdorff:
            assert len(space.opens) == 1 << space.point_count


def test_completely_regular_matches_two_valued_oracle():
    for space in all_spaces(4):
        assert space.separation_flags().completely_regular == two_valued_separation(space)


def test_map_examples():
    ident = SpaceMap.identity(SIERP)
    assert ident.is_continuous() and ident.is_open_map() and ident.is_surjective()
    d2_to_sierp = SpaceMap(D2, SIERP, [0, 1])
    assert d2_to_sierp.is_continuous()
    assert not d2_to_sierp.is_open_map()
    sierp_to_d2 = SpaceMap(SIERP, D2, [0, 1])
    assert not sierp_to_d2.is_continuous()


def test_continuity_and_openness_against_oracles_exhaustive():
    spaces = all_spaces(3)
    seen = set()
    for dom in spaces:
        for cod in spaces:
            for assign in product(range(cod.point_count), repeat=dom.point_count):
                m = SpaceMap(dom, cod, assign)
                for mask in range(dom.full + 1):
                    assert m.image_of(mask) == image_by_bits(m, mask)
                assert m.is_surjective() == all(a in assign for a in range(cod.point_count))
                verdict = (m.is_continuous(), m.is_open_map())
                assert verdict == (continuous_by_preimages(m), open_by_images(m))
                seen.add(verdict)
    assert len(seen) == 4


def test_skeletal_examples():
    point = FiniteSpace(1, [0, 1])
    collapse = SpaceMap(D2, point, [0, 0])
    assert collapse.is_skeletal()
    d2_to_sierp = SpaceMap(D2, SIERP, [0, 1])
    assert not d2_to_sierp.is_skeletal()
    # the witness: {0} maps to the closed point, whose closure has empty interior
    assert d2_to_sierp.skeletal_witness() == 0b01


def test_skeletal_requires_continuous_surjection():
    sierp_to_d2 = SpaceMap(SIERP, D2, [0, 1])
    with pytest.raises(NotContinuous):
        sierp_to_d2.is_skeletal()
    not_onto = SpaceMap(D2, D2, [0, 0])
    with pytest.raises(NotSurjective):
        not_onto.is_skeletal()
    # a refusal is not kept: asking again raises again
    with pytest.raises(NotContinuous):
        sierp_to_d2.skeletal_witness()
    with pytest.raises(NotSurjective):
        not_onto.skeletal_witness()


def test_skeletal_witness_is_decided_once(monkeypatch):
    maps = [
        m
        for dom in all_spaces(3)
        for cod in all_spaces(3)
        for m in all_surjections(dom, cod)
        if continuous_by_preimages(m)
    ]
    answers = []
    for m in maps:
        twin = SpaceMap(m.domain, m.codomain, m.assign)
        answers.append(m.skeletal_witness())
        assert m == twin and hash(m) == hash(twin)
        assert twin.skeletal_witness() == answers[-1]
    closures = []
    original = FiniteSpace.closure
    monkeypatch.setattr(
        FiniteSpace, "closure", lambda self, mask: closures.append(mask) or original(self, mask)
    )
    assert [m.skeletal_witness() for m in maps] == answers
    assert [m.is_skeletal() for m in maps] == [w is None for w in answers]
    assert closures == []
    assert None in answers and any(answers)


def test_open_continuous_surjections_are_skeletal():
    for dom in all_spaces(3):
        for cod in all_spaces(3):
            if cod.point_count > dom.point_count:
                continue
            for m in all_surjections(dom, cod):
                if m.is_continuous() and m.is_open_map():
                    assert m.is_skeletal()


def test_skeletal_witness_against_opens_scan_exhaustive():
    # every continuous surjection on at most 3 points, then all of them
    # between seeded pairs of spaces from 4 points onto 1-3 points; each
    # is checked by the opens scan and by nowhere-dense preimages
    rng = rng_for(0, "skeletal-witness")
    small = all_spaces(3)
    pairs = [(dom, cod) for dom in small for cod in small]
    doms, cods = list(all_topologies(4)), all_spaces(3, min_points=1)
    pairs += [(rng.choice(doms), rng.choice(cods)) for _ in range(40)]
    failing = 0
    for dom, cod in pairs:
        if cod.point_count > dom.point_count:
            continue
        for m in all_surjections(dom, cod):
            if m.is_continuous():
                witness = m.skeletal_witness()
                assert witness == skeletal_witness_by_opens(m)
                assert (witness is None) == skeletal_by_nowhere_dense(m)
                failing += witness is not None
    assert failing > 100


def test_frink_examples():
    r = frink_conditions(D2, D2.opens)
    assert r.cond1 and r.cond2
    r = frink_conditions(SIERP, [0, 0b10, 0b11])
    assert not r.cond1 and r.cond1_witness == (1, 0b10)
    ind = FiniteSpace.indiscrete(2)
    r = frink_conditions(ind, [0b11])
    assert not r.cond1


def test_frink_base_validation():
    with pytest.raises(NotABase):
        frink_conditions(D2, [0b01])  # cannot generate {1} or X
    with pytest.raises(NotABase):
        frink_conditions(SIERP, [0b01, 0b11])  # {0} is not open


def test_frink_base_check_against_opens_scan():
    # every pool of opens over spaces of at most 3 points
    accepted = rejected = 0
    for space in all_spaces(3):
        for pool in every_family(space):
            witness = least_open_not_a_union(space, pool)
            if witness is None:
                accepted += 1
                frink_conditions(space, pool)
            else:
                rejected += 1
                with pytest.raises(NotABase, match="open %d is not" % witness):
                    frink_conditions(space, pool)
    assert accepted > 100 and rejected > 500


def test_frink_passes_on_hausdorff_spaces():
    for space in all_spaces(4):
        if space.separation_flags().hausdorff:
            r = frink_conditions(space, space.opens)
            assert r.cond1 and r.cond2


def test_completely_regular_iff_frink_on_clopen_unions():
    # the base of all unions of clopen sets passes both conditions exactly
    # when the clopen sets form a base of the space
    for space in all_spaces(4):
        clopen_unions = set()
        frontier = {0}
        clop = space.clopens()
        while frontier:
            clopen_unions |= frontier
            frontier = {a | c for a in clopen_unions for c in clop} - clopen_unions
        flags = space.separation_flags()
        try:
            r = frink_conditions(space, clopen_unions)
            frink_ok = r.cond1 and r.cond2
        except NotABase:
            frink_ok = False
        assert flags.completely_regular == frink_ok


def test_minimal_neighborhood_is_least_and_pi_base():
    for space in all_spaces(4):
        minimal = space.minimal_open_family()
        for x in range(space.point_count):
            m = space.minimal_open_neighborhood(x)
            assert space.is_open(m)
            for o in space.opens:
                if (o >> x) & 1:
                    assert m & ~o == 0
        for o in space.nonempty_opens():
            assert any(m & ~o == 0 for m in minimal)


def test_preorder_enumeration_matches_bruteforce_small():
    for n in range(5):
        via_preorders = {frozenset(s.opens) for s in all_topologies(n)}
        assert via_preorders == opens_families_bruteforce(n) == opens_families_by_raw_filter(n)
    # A000798: 6,942 topologies on 5 labeled points
    assert count_topologies_bruteforce(5) == 6942 == len(list(all_topologies(5)))


def test_empty_space():
    e = FiniteSpace(0, [0])
    assert e.opens == (0,)
    assert e.closure(0) == 0 and e.is_dense(0)
    m = SpaceMap(e, e, ())
    assert m.is_continuous() and m.is_surjective() and m.is_skeletal()
    with pytest.raises(ValueError, match="no map into the empty space"):
        SpaceMap(FiniteSpace(1, [0, 1]), e, [0])
    # the other rejections of outside input, each met directly
    with pytest.raises(ValueError, match="must cover every domain point"):
        SpaceMap(D2, SIERP, [0])
    with pytest.raises(ValueError, match="image point -1 out of range"):
        SpaceMap(D2, SIERP, [0, -1])
    with pytest.raises(ValueError, match="image point 2 out of range"):
        SpaceMap(D2, SIERP, [2, 0])
