import pytest
from hypothesis import given, settings, strategies as st

from topolab import families
from topolab.enumeration import all_spaces
from topolab.errors import NotAPiBase, NotContinuous
from topolab.families import (
    OpenFamily,
    build_quotient,
    classes_of,
    family_from_map,
    is_skeletal_family,
    ring_closure,
    seq_family,
    seq_family_bruteforce,
)
from topolab.randgen import random_family, random_space, rng_for
from topolab.spaces import FiniteSpace, SpaceMap

from oracles import (
    all_surjections,
    base_by_unions_below,
    classes_by_signature,
    every_family,
    kolmogorov_quotient,
    least_open_without_member,
    skeletal_family_by_opens,
    subbasis_by_meets_and_unions,
)

CHAIN3 = FiniteSpace.chain(3)
SIERP = FiniteSpace.sierpinski()
D2 = FiniteSpace.discrete(2)
D3 = FiniteSpace.discrete(3)


def test_classes_examples():
    assert classes_of(OpenFamily.of(CHAIN3, [0b001])) == (0b001, 0b110)
    assert classes_of(OpenFamily.of(CHAIN3, [])) == (0b111,)
    assert classes_of(OpenFamily.of(CHAIN3, [0b001, 0b011])) == (0b001, 0b010, 0b100)


def test_classes_match_signatures_exhaustive():
    for space in all_spaces(3):
        for members in every_family(space):
            assert classes_of(OpenFamily.of(space, members)) == classes_by_signature(space, members)


def test_classes_match_signatures_random():
    rng = rng_for(8, "classes")
    for _ in range(2000):
        space = random_space(rng, rng.choice([4, 5]))
        fam = random_family(rng, space)
        assert classes_of(fam) == classes_by_signature(space, fam.members), fam


def test_identity_check_catches_merged_classes(monkeypatch):
    # A partition that merges two classes must make the identity check
    # fail, so the check reads the built map and is no constant.
    true_classes = families.classes_of

    def merge_first_two(family):
        classes = true_classes(family)
        if len(classes) < 2:
            return classes
        return (classes[0] | classes[1],) + classes[2:]

    monkeypatch.setattr(families, "classes_of", merge_first_two)
    assert not all(build_quotient(D2, members).identity_holds for members in every_family(D2))


def test_family_must_be_open():
    with pytest.raises(ValueError):
        OpenFamily.of(SIERP, [0b01])


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
            fam = OpenFamily.of(space, members)
            q = build_quotient(space, fam)
            if fam.is_intersection_closed():
                assert q.q_continuous
                if fam.union_mask() == space.full:
                    assert q.image_is_base


def test_image_is_base_against_oracle_exhaustive():
    seen = set()
    for space in all_spaces(3):
        for members in every_family(space):
            q = build_quotient(space, members)
            images = [q.map.image_of(m) for m in members]
            assert q.quotient_space == subbasis_by_meets_and_unions(len(q.classes), images)
            assert q.image_is_base == base_by_unions_below(q.quotient_space, images)
            seen.add(q.image_is_base)
    assert seen == {False, True}


def test_quotient_by_all_opens_is_t0_reflection():
    for space in all_spaces(3):
        q = build_quotient(space, space.opens)
        classes, assign, qspace = kolmogorov_quotient(space)
        assert set(q.classes) == set(classes)
        assert q.quotient_space.point_count == qspace.point_count
        # same labeled topology up to the class orderings, which agree here
        assert q.quotient_space == qspace


def test_seq_examples():
    assert seq_family(OpenFamily.of(D2, D2.opens)).members == frozenset(D2.opens)
    assert seq_family(OpenFamily.of(SIERP, [0, 0b10, 0b11])).members == frozenset({0, 0b11})
    assert seq_family(OpenFamily.of(SIERP, [])).members == frozenset()


def test_seq_nonempty_forces_cover():
    for space in all_spaces(3):
        for members in every_family(space):
            if seq_family(OpenFamily.of(space, members)).members:
                u = 0
                for m in members:
                    u |= m
                assert u == space.full


def test_seq_closed_form_equals_bruteforce_exhaustive():
    for space in all_spaces(3):
        for members in every_family(space):
            assert (
                seq_family(OpenFamily.of(space, members)).members
                == seq_family_bruteforce(OpenFamily.of(space, members)).members
            )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_seq_closed_form_equals_bruteforce_random(seed):
    rng = rng_for(seed, "seqtest")
    space = random_space(rng, rng.choice([4, 5]))
    fam = random_family(rng, space)
    assert seq_family(fam).members == seq_family_bruteforce(fam).members


def test_ring_closure_examples():
    assert ring_closure(OpenFamily.of(D3, [0b001, 0b010])).members == frozenset(
        {0, 0b001, 0b010, 0b011}
    )
    ring = OpenFamily.of(D2, D2.opens)
    assert ring_closure(ring).members == ring.members
    assert ring_closure(OpenFamily.of(D3, [0b011, 0b110])).members == frozenset(
        {0b010, 0b011, 0b110, 0b111}
    )


def test_ring_unions_stay_in_seq():
    for space in all_spaces(3):
        for members in every_family(space):
            fam = OpenFamily.of(space, members)
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
            fam = OpenFamily.of(space, members)
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
    ok, _ = is_skeletal_family(OpenFamily.of(SIERP, SIERP.nonempty_opens()))
    assert ok
    ok, witness = is_skeletal_family(OpenFamily.of(D2, [0b10]))
    assert not ok and witness == 0b01
    ok, _ = is_skeletal_family(OpenFamily.of(D2, [0b01, 0b10]))
    assert ok


def test_family_from_map_examples():
    ident = SpaceMap.identity(SIERP)
    fam = family_from_map(ident, SIERP.nonempty_opens())
    assert fam.members == frozenset(SIERP.nonempty_opens())

    d4 = FiniteSpace.discrete(4)
    pairing = SpaceMap(d4, D2, [0, 0, 1, 1])
    fam = family_from_map(pairing, [0b01, 0b10])
    assert fam.members == frozenset({0b0011, 0b1100})

    to_sierp = SpaceMap(D2, SIERP, [0, 1])
    fam = family_from_map(to_sierp, [0b10])
    assert fam.members == frozenset({0b10})


def test_family_from_map_validation():
    with pytest.raises(NotAPiBase):
        family_from_map(SpaceMap.identity(D2), [0b01])  # misses opens inside {1}
    with pytest.raises(NotAPiBase):
        family_from_map(SpaceMap.identity(D2), [0, 0b01, 0b10])  # empty member
    with pytest.raises(NotContinuous):
        family_from_map(SpaceMap(SIERP, D2, [0, 1]), [0b01, 0b10])


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
                    fam = family_from_map(m, pibase)
                    assert is_skeletal_family(fam)[0] == skel


def test_skeletal_maps_pull_dense_opens_to_dense():
    for dom in all_spaces(3, min_points=1):
        for cod in all_spaces(3, min_points=1):
            if cod.point_count > dom.point_count:
                continue
            for m in all_surjections(dom, cod):
                if not m.is_continuous() or not m.is_skeletal():
                    continue
                for v in cod.opens:
                    if cod.is_dense(v):
                        assert dom.is_dense(m.preimage_of(v))


def test_skeletal_family_against_opens_scan_exhaustive():
    failing = 0
    for space in all_spaces(3):
        for members in every_family(space):
            witness = skeletal_family_by_opens(space, members)
            assert is_skeletal_family(OpenFamily.of(space, members)) == (witness is None, witness)
            failing += witness is not None
    assert failing > 100


def test_pi_base_check_against_opens_scan_exhaustive():
    rejected = 0
    for space in all_spaces(3):
        identity = SpaceMap.identity(space)
        for members in every_family(space):
            members = [m for m in members if m]
            witness = least_open_without_member(space, members)
            if witness is None:
                assert family_from_map(identity, members).members == frozenset(members)
            else:
                rejected += 1
                with pytest.raises(NotAPiBase, match="open %d contains" % witness):
                    family_from_map(identity, members)
    assert rejected > 100
