import pytest
from hypothesis import given, settings, strategies as st

from topolab import families
from topolab.enumeration import all_spaces, all_topologies
from topolab.errors import NotAPiBase, NotContinuous
from topolab.families import (
    OpenFamily,
    build_quotient,
    families_from_map,
    is_skeletal_family,
    ring_closure,
    seq_family,
    seq_family_bruteforce,
)
from topolab.randgen import random_family, random_space, rng_for
from topolab.spaces import FiniteSpace, SpaceMap, from_subbasis

from oracles import (
    all_surjections,
    base_by_unions_below,
    classes_by_signature,
    continuous_by_preimages,
    every_family,
    kolmogorov_quotient,
    pi_bases_by_filter,
    least_open_without_member,
    ring_closure_by_fixpoint,
    skeletal_by_nowhere_dense,
    skeletal_family_by_opens,
    subbasis_by_meets_and_unions,
)

CHAIN3 = FiniteSpace.chain(3)
SIERP = FiniteSpace.sierpinski()
D2 = FiniteSpace.discrete(2)
D3 = FiniteSpace.discrete(3)


def test_classes_examples():
    assert build_quotient(CHAIN3, [0b001]).classes == (0b001, 0b110)
    assert build_quotient(CHAIN3, []).classes == (0b111,)
    assert build_quotient(CHAIN3, [0b001, 0b011]).classes == (0b001, 0b010, 0b100)


def test_classes_match_signatures_exhaustive():
    for space in all_spaces(3):
        for members in every_family(space):
            assert build_quotient(space, members).classes == classes_by_signature(space, members)


def test_classes_match_signatures_random():
    rng = rng_for(8, "classes")
    for _ in range(2000):
        space = random_space(rng, rng.choice([4, 5]))
        fam = random_family(rng, space)
        assert build_quotient(space, fam.members).classes == classes_by_signature(
            space, fam.members
        ), fam


def test_quotient_classes_against_independent_groupings():
    # build_quotient groups the points by their meet_rows entry; the
    # membership signatures group them independently, so a fault in
    # meet_rows shows (see test_signature_oracle_sees_a_fault_in_meet_rows).
    pairs = [(space, members) for space in all_spaces(3) for members in every_family(space)]
    rng = rng_for(8, "quotient-classes")
    spaces4 = all_spaces(4, min_points=4)
    sample = [(space, random_family(rng, space).members) for space in rng.choices(spaces4, k=1500)]
    for space, members in pairs + sample:
        q = build_quotient(space, members)
        assert q.classes == classes_by_signature(space, members), (space, members)
        for x in range(space.point_count):
            assert (q.classes[q.assign[x]] >> x) & 1
    for space, members in sample:
        q = build_quotient(space, members)
        images = [q.map.image_of(m) for m in members]
        assert q.quotient_space == from_subbasis(len(q.classes), images), (space, members)


def test_identity_check_catches_merged_classes(monkeypatch):
    # A grouping that merges two classes must make the identity check
    # fail, so the check reads the built classes and is no constant.
    # build_quotient groups the points by the meet rows it reads from
    # families.meet_rows, so equal rows for two classes merge them.
    true_meet_rows = families.meet_rows

    def merge_first_two(point_count, sets):
        rows = true_meet_rows(point_count, sets)
        distinct = list(dict.fromkeys(rows))
        if len(distinct) < 2:
            return rows
        return [distinct[0] if r == distinct[1] else r for r in rows]

    monkeypatch.setattr(families, "meet_rows", merge_first_two)
    assert not all(build_quotient(D2, members).identity_holds for members in every_family(D2))


def test_family_must_be_open():
    with pytest.raises(ValueError):
        OpenFamily(SIERP, [0b01])


def test_family_error_names_the_least_member_not_open():
    # 0b010, 0b100 and 0b110 are not open in the chain; 0b001 is
    with pytest.raises(ValueError, match=r"family member 2 is not open"):
        OpenFamily(CHAIN3, [0b110, 0b001, 0b100, 0b010])


def test_quotient_examples():
    q = build_quotient(CHAIN3, [0b001, 0b011])
    assert q.quotient_space == FiniteSpace.chain(3)
    assert q.q_continuous and q.identity_holds

    q2 = build_quotient(CHAIN3, [0b001])
    assert set(q2.quotient_space.opens) == {0, 0b01, 0b11}
    assert q2.map.preimage_of(q2.map.image_of(0b001)) == 0b001


def test_quotient_identity_exhaustive():
    for space in all_spaces(4, min_points=1):
        for members in every_family(space):
            q = build_quotient(space, members)
            assert q.identity_holds


def test_quotient_lemma_exhaustive():
    for space in all_spaces(3):
        for members in every_family(space):
            fam = OpenFamily(space, members)
            q = build_quotient(space, fam)
            if fam.is_intersection_closed():
                assert q.q_continuous
                if fam.union_mask() == space.full:
                    assert q.image_is_base


def test_q_continuous_against_preimage_oracle_exhaustive():
    # true on every pair, since the grouping is sound; the class-count
    # plant in tests/test_mutations.py shows that it can fail
    pairs = 0
    for space in all_spaces(3):
        for members in every_family(space):
            q = build_quotient(space, members)
            assert (q.q_continuous, continuous_by_preimages(q.map)) == (True, True)
            pairs += 1
    assert pairs == 1070


def test_build_quotient_computes_neither_verdict(monkeypatch):
    def unread(*args):
        raise AssertionError("verdict computed")

    monkeypatch.setattr(SpaceMap, "is_continuous", unread)
    monkeypatch.setattr(SpaceMap, "image_of", unread)
    q = build_quotient(CHAIN3, [0b001, 0b011])
    assert q.identity_holds and len(q.classes) == 3
    with pytest.raises(AssertionError, match="verdict computed"):
        q.q_continuous
    with pytest.raises(AssertionError, match="verdict computed"):
        q.image_is_base


def test_image_is_base_against_oracle_exhaustive():
    seen = set()
    for space in all_spaces(3):
        for members in every_family(space):
            q = build_quotient(space, members)
            images = [q.map.image_of(m) for m in members]
            # from_subbasis stays the definition of the quotient topology
            assert q.quotient_space == from_subbasis(len(q.classes), images)
            assert q.quotient_space == subbasis_by_meets_and_unions(len(q.classes), images)
            assert q.image_is_base == base_by_unions_below(q.quotient_space, images)
            seen.add(q.image_is_base)
    assert seen == {False, True}


def test_equal_rows_share_one_quotient_space(monkeypatch):
    monkeypatch.setattr(families, "_QUOTIENT_SPACES", {})
    q1 = build_quotient(CHAIN3, [0b001, 0b011])
    q2 = build_quotient(CHAIN3, [0b011, 0b001])
    assert q1.quotient_space is q2.quotient_space
    assert q2.map.codomain is q1.quotient_space
    # different families, and different spaces, with equal quotient rows
    by_opens = build_quotient(D2, D2.opens)
    by_points = build_quotient(D3, [0b001, 0b110])
    assert by_opens.quotient_space is by_points.quotient_space
    assert by_opens.quotient_space == FiniteSpace.discrete(2)
    assert build_quotient(SIERP, [0b10]).quotient_space is not by_opens.quotient_space


def test_quotient_spaces_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(families, "_QUOTIENT_SPACES", {})
    monkeypatch.setattr(families, "_QUOTIENT_SPACES_CAP", 3)
    after_full = 0
    for space in all_spaces(3):
        for members in every_family(space):
            full = len(families._QUOTIENT_SPACES) == 3
            q = build_quotient(space, members)
            assert len(families._QUOTIENT_SPACES) <= 3
            images = [q.map.image_of(m) for m in members]
            assert q.quotient_space == from_subbasis(len(q.classes), images)
            after_full += full
    assert len(families._QUOTIENT_SPACES) == 3
    assert after_full > 1000


def test_quotient_by_all_opens_is_t0_reflection():
    for space in all_spaces(3):
        q = build_quotient(space, space.opens)
        classes, assign, qspace = kolmogorov_quotient(space)
        assert set(q.classes) == set(classes)
        assert q.quotient_space.point_count == qspace.point_count
        # same labeled topology up to the class orderings, which agree here
        assert q.quotient_space == qspace


def test_seq_examples():
    assert seq_family(OpenFamily(D2, D2.opens)).members == frozenset(D2.opens)
    assert seq_family(OpenFamily(SIERP, [0, 0b10, 0b11])).members == frozenset({0, 0b11})
    assert seq_family(OpenFamily(SIERP, [])).members == frozenset()


def test_seq_nonempty_forces_cover():
    for space in all_spaces(3):
        for members in every_family(space):
            if seq_family(OpenFamily(space, members)).members:
                u = 0
                for m in members:
                    u |= m
                assert u == space.full


def test_seq_closed_form_equals_bruteforce_exhaustive():
    for space in all_spaces(3):
        for members in every_family(space):
            assert (
                seq_family(OpenFamily(space, members)).members
                == seq_family_bruteforce(OpenFamily(space, members)).members
            )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_seq_closed_form_equals_bruteforce_random(seed):
    rng = rng_for(seed, "seqtest")
    space = random_space(rng, rng.choice([4, 5]))
    fam = random_family(rng, space)
    assert seq_family(fam).members == seq_family_bruteforce(fam).members


def test_ring_closure_examples():
    assert ring_closure(OpenFamily(D3, [0b001, 0b010])).members == frozenset(
        {0, 0b001, 0b010, 0b011}
    )
    ring = OpenFamily(D2, D2.opens)
    assert ring_closure(ring).members == ring.members
    assert ring_closure(OpenFamily(D3, [0b011, 0b110])).members == frozenset(
        {0b010, 0b011, 0b110, 0b111}
    )


def test_ring_closure_against_fixpoint_exhaustive():
    checked = 0
    for space in all_spaces(3):
        for members in every_family(space):
            fam = OpenFamily(space, members)
            assert ring_closure(fam).members == ring_closure_by_fixpoint(fam).members
            checked += 1
    assert checked == 1070


def test_ring_unions_stay_in_seq():
    for space in all_spaces(3):
        for members in every_family(space):
            fam = OpenFamily(space, members)
            if not fam.is_ring():
                continue
            seq = seq_family(fam).members
            if not fam.members <= seq:
                continue
            unions = set(fam.members)
            while True:
                extra = {a | b for a in unions for b in unions} - unions
                if not extra:
                    break
                unions |= extra
            assert unions <= seq


def test_seq_quotient_separation_lemmas():
    for space in all_spaces(3):
        for members in every_family(space):
            fam = OpenFamily(space, members)
            seq = seq_family(fam).members
            if not fam.members <= seq:
                continue
            q = build_quotient(space, fam)
            flags = q.quotient_space.separation_flags()
            assert flags.hausdorff
            assert len(q.quotient_space.opens) == 1 << q.quotient_space.point_count
            if fam.members and fam.is_intersection_closed():
                assert flags.regular
            if fam.is_ring():
                assert flags.completely_regular


def test_skeletal_family_examples():
    ok, _ = is_skeletal_family(OpenFamily(SIERP, SIERP.nonempty_opens()))
    assert ok
    ok, witness = is_skeletal_family(OpenFamily(D2, [0b10]))
    assert not ok and witness == 0b01
    ok, _ = is_skeletal_family(OpenFamily(D2, [0b01, 0b10]))
    assert ok


def test_family_from_map_examples():
    ident = SpaceMap.identity(SIERP)
    fam = next(families_from_map(ident, [SIERP.nonempty_opens()]))
    assert fam.members == frozenset(SIERP.nonempty_opens())

    d4 = FiniteSpace.discrete(4)
    pairing = SpaceMap(d4, D2, [0, 0, 1, 1])
    fam = next(families_from_map(pairing, [[0b01, 0b10]]))
    assert fam.members == frozenset({0b0011, 0b1100})

    to_sierp = SpaceMap(D2, SIERP, [0, 1])
    fam = next(families_from_map(to_sierp, [[0b10]]))
    assert fam.members == frozenset({0b10})


# Each boundary converts masks by operator.index: a float or a str is
# refused, not truncated, and a bool passes as the int it is.
FAMILY_BOUNDARIES = {
    "OpenFamily": lambda v: OpenFamily(D2, [v]),
    "families_from_map": lambda v: next(families_from_map(SpaceMap.identity(D2), [[v, 0b10]])),
}


@pytest.mark.parametrize("site", FAMILY_BOUNDARIES)
def test_family_boundaries_refuse_floats_and_strings(site):
    build = FAMILY_BOUNDARIES[site]
    for bad in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            build(bad)
    assert build(True) == build(1)


def test_open_family_init_refuses_members_that_are_not_ints():
    # a float equal to an open passes the open test, so the constructor
    # refuses it by operator.index before union_mask() could meet it
    for bad in (1.0, 1.9, "1"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            OpenFamily(D2, frozenset({bad, 2}))
    assert OpenFamily(D2, frozenset({True, 2})) == OpenFamily(D2, frozenset({1, 2}))
    assert OpenFamily(D2, frozenset({True, 2})).union_mask() == 0b11


def test_family_from_map_validation():
    with pytest.raises(NotAPiBase):
        next(families_from_map(SpaceMap.identity(D2), [[0b01]]))  # misses opens inside {1}
    with pytest.raises(NotAPiBase):
        next(families_from_map(SpaceMap.identity(D2), [[0, 0b01, 0b10]]))  # empty member
    with pytest.raises(NotContinuous):
        next(families_from_map(SpaceMap(SIERP, D2, [0, 1]), [[0b01, 0b10]]))


def pi_bases(space):
    pool = space.nonempty_opens()
    for pick in range(1 << len(pool)):
        members = [pool[k] for k in range(len(pool)) if (pick >> k) & 1]
        if all(any(v & ~o == 0 for v in members) for o in pool):
            yield members


def test_skeletal_family_iff_skeletal_map_exhaustive():
    for dom in all_spaces(3, min_points=1):
        for cod in all_spaces(3, min_points=1):
            if cod.point_count > dom.point_count:
                continue
            for m in all_surjections(dom, cod):
                if not m.is_continuous():
                    continue
                skel = m.is_skeletal()
                for pibase in pi_bases(cod):
                    fam = next(families_from_map(m, [pibase]))
                    assert is_skeletal_family(fam)[0] == skel


def test_families_from_map_match_one_call_per_pi_base():
    maps = checked = 0
    for dom in all_spaces(3, min_points=1):
        for cod in all_spaces(3, min_points=1):
            if cod.point_count > dom.point_count:
                continue
            pibases = list(pi_bases_by_filter(cod))
            for m in all_surjections(dom, cod):
                if not m.is_continuous():
                    continue
                maps += 1
                fams = list(families_from_map(m, pibases))
                assert len(fams) == len(pibases)
                for pibase, fam in zip(pibases, fams):
                    one = next(families_from_map(m, [pibase]))
                    assert fam.space is dom and fam.members == one.members
                    assert is_skeletal_family(fam) == is_skeletal_family(one)
                    checked += 1
    assert maps > 100 and checked > maps


def test_families_from_map_raise_before_the_first_family():
    gen = families_from_map(SpaceMap(SIERP, D2, [0, 1]), [[0b01, 0b10]])
    with pytest.raises(NotContinuous, match="preimage family needs a continuous map"):
        next(gen)


def test_families_from_map_raise_at_the_first_invalid_pi_base():
    for space in all_spaces(3, min_points=1):
        identity = SpaceMap.identity(space)
        valid = list(pi_bases_by_filter(space))
        minimal = valid[0]  # every pi-base holds the minimal opens
        for bad in (minimal + [0], minimal[1:]):
            with pytest.raises(NotAPiBase) as one:
                next(families_from_map(identity, [bad]))
            gen = families_from_map(identity, valid + [bad] + valid)
            for pibase in valid:
                assert next(gen).members == frozenset(pibase)
            with pytest.raises(NotAPiBase) as many:
                next(gen)
            assert str(many.value) == str(one.value)


def test_skeletal_maps_pull_dense_opens_to_dense():
    # a continuous surjection is skeletal exactly when the preimage of
    # every dense open is dense
    maps = skeletal = 0
    for dom in all_spaces(3, min_points=1):
        for cod in all_spaces(3, min_points=1):
            if cod.point_count > dom.point_count:
                continue
            dense = [v for v in cod.opens if cod.is_dense(v)]
            for m in all_surjections(dom, cod):
                if not m.is_continuous():
                    continue
                pulls_dense = all(dom.is_dense(m.preimage_of(v)) for v in dense)
                assert m.is_skeletal() == pulls_dense, m
                maps += 1
                skeletal += pulls_dense
    assert (maps, skeletal) == (1546, 966)


def test_skeletal_family_against_opens_scan_exhaustive():
    # every family on at most 3 points, then seeded families on 4.  A
    # family whose member images form a pi-base of its quotient is the
    # preimage family of that pi-base, so it is skeletal exactly when the
    # quotient map is, which the nowhere-dense route decides.
    rng = rng_for(0, "skeletal-family")
    pairs = [(space, members) for space in all_spaces(3) for members in every_family(space)]
    spaces = list(all_topologies(4))
    for _ in range(400):
        space = rng.choice(spaces)
        pairs.append((space, random_family(rng, space).sorted_members))
    failing = by_map = 0
    for space, members in pairs:
        witness = skeletal_family_by_opens(space, members)
        assert is_skeletal_family(OpenFamily(space, members)) == (witness is None, witness)
        failing += witness is not None
        q = build_quotient(space, members)
        images = [q.map.image_of(m) for m in members if m]
        if least_open_without_member(q.quotient_space, images) is None:
            assert (witness is None) == skeletal_by_nowhere_dense(q.map)
            by_map += 1
    assert failing > 100 and by_map > 100


def test_pi_base_check_against_opens_scan_exhaustive():
    rejected = 0
    for space in all_spaces(3):
        identity = SpaceMap.identity(space)
        for members in every_family(space):
            members = [m for m in members if m]
            witness = least_open_without_member(space, members)
            if witness is None:
                assert next(families_from_map(identity, [members])).members == frozenset(members)
            else:
                rejected += 1
                with pytest.raises(NotAPiBase, match="open %d contains" % witness):
                    next(families_from_map(identity, [members]))
    assert rejected > 100
