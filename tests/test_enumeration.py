import random

import pytest

from topolab.enumeration import all_topologies
from topolab.spaces import FiniteSpace

from oracles import is_topology, preorders_by_filter, preorders_by_trial, upset_opens


def _rows(n):
    return tuple(s.rows for s in all_topologies(n))


@pytest.mark.parametrize("n", range(5))
def test_preorders_match_filter_in_order(n):
    assert _rows(n) == tuple(preorders_by_filter(n))


@pytest.mark.parametrize("n", range(6))
def test_preorders_match_trial_in_order(n):
    assert _rows(n) == tuple(preorders_by_trial(n))


@pytest.mark.parametrize("n", range(6))
def test_all_topologies_are_the_upset_topologies_of_preorders(n):
    # checked only once every space is built, so a set of opens that a
    # later leaf mutated or shared would show
    spaces = list(all_topologies(n))
    for space in spaces:
        assert set(space.opens) == space._open_set == upset_opens(space.rows), space.rows
        assert type(space._open_set) is frozenset
    assert len({id(space._open_set) for space in spaces}) == len(spaces)


@pytest.mark.parametrize("n, count", [(5, 6942), (6, 209_527)])
def test_preorder_counts_match_oeis_a000798(n, count):
    """Counts, and the documented order: each rows tuple, read from the
    last point down, is strictly greater than the one before."""
    seen = 0
    last = ()
    for space in all_topologies(n):
        key = space.rows[::-1]
        assert last < key, space.rows
        last = key
        seen += 1
    assert seen == count


def _accepts(n, family):
    try:
        FiniteSpace(n, family)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", range(4))
def test_validation_matches_pairwise_check_every_family(n):
    for pick in range(1 << (1 << n)):
        family = [s for s in range(1 << n) if (pick >> s) & 1]
        assert _accepts(n, family) == is_topology(n, family), family


def test_validation_matches_pairwise_check_four_points():
    middle = range(1, 15)
    for pick in range(1 << 14):
        family = [0, 15] + [s for k, s in enumerate(middle) if (pick >> k) & 1]
        assert _accepts(4, family) == is_topology(4, family), family


@pytest.mark.parametrize("n", range(4))
def test_from_preorder_on_any_rows(n):
    for code in range(1 << (n * n)):
        rows = [(code >> (n * i)) & ((1 << n) - 1) for i in range(n)]
        assert set(FiniteSpace.from_preorder(rows).opens) == upset_opens(rows), rows


def test_from_preorder_on_random_four_point_rows():
    rng = random.Random(4)
    for _ in range(2000):
        rows = [rng.randrange(16) for _ in range(4)]
        assert set(FiniteSpace.from_preorder(rows).opens) == upset_opens(rows), rows
