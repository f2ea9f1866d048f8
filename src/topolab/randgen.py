"""Seeded generators for spaces, families and systems.

Everything is driven by explicit random.Random instances seeded from
strings, so identical seeds give identical objects on any platform.
"""

from __future__ import annotations

import random

from .families import OpenFamily
from .spaces import FiniteSpace, SpaceMap, bits_of, from_subbasis
from .systems import DirectedPoset, InverseSystem

__all__ = [
    "rng_for",
    "random_space",
    "random_space_subbasis",
    "random_family",
    "random_clopen_seed",
    "random_quotient_chain",
    "random_union_closed_families",
]


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random("%d|%s" % (seed, tag))


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    """The space of a random relation: each point i is below each other
    point j with probability 0.35, drawn in (i, j) order;
    ``from_preorder`` closes it."""
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                rows[i] |= 1 << j
    return FiniteSpace.from_preorder(rows)


def random_space_subbasis(rng: random.Random, n: int, generators: int | None = None) -> FiniteSpace:
    if generators is None:
        generators = rng.randint(0, n + 1)
    full = (1 << n) - 1
    gens = [rng.randint(0, full) for _ in range(generators)]
    return from_subbasis(n, gens)


def random_family(rng: random.Random, space: FiniteSpace, size: int | None = None) -> OpenFamily:
    pool = list(space.opens)
    if size is None:
        size = rng.randint(0, len(pool))
    size = min(size, len(pool))
    return OpenFamily.of(space, rng.sample(pool, size))


def random_clopen_seed(rng: random.Random, space: FiniteSpace) -> OpenFamily:
    pool = list(space.clopens())
    size = rng.randint(0, len(pool))
    return OpenFamily.of(space, rng.sample(pool, size))


def _random_merge(rng: random.Random, space: FiniteSpace) -> SpaceMap:
    """Random surjection collapsing at most one pair of points, with the
    quotient topology on the image; always continuous and surjective."""
    n = space.point_count
    if n <= 1 or rng.random() < 0.25:
        return SpaceMap.identity(space)
    a, b = rng.sample(range(n), 2)
    if a > b:
        a, b = b, a
    assign = []
    for x in range(n):
        y = a if x == b else x
        assign.append(y - 1 if y > b else y)
    # The quotient preorder is the transitive closure of the pushed-forward one.
    rows = [0] * (n - 1)
    for x, r in enumerate(space.rows):
        for y in bits_of(r):
            rows[assign[x]] |= 1 << assign[y]
    return SpaceMap(space, FiniteSpace.from_preorder(rows), assign)


def random_quotient_chain(
    rng: random.Random, points: int, length: int, discrete_top: bool = False
) -> InverseSystem:
    """A chain system built by repeatedly merging points of a top space.

    Element 0 is the coarsest node; the last element carries the starting
    space.  Merge maps carry the quotient topology, so every bond is a
    continuous surjection by construction.
    """
    top = FiniteSpace.discrete(points) if discrete_top else random_space(rng, points)
    spaces = [top]
    steps: list[SpaceMap] = []
    for _ in range(max(length - 1, 0)):
        step = _random_merge(rng, spaces[-1])
        steps.append(step)
        spaces.append(step.codomain)
    spaces.reverse()  # index 0 = coarsest
    k = len(spaces)
    labels = tuple("n%d" % i for i in range(k))
    leq = [(i, j) for i in range(k) for j in range(i, k)]
    poset = DirectedPoset(labels, leq)
    bonds = {}
    for j in range(k):
        for i in range(j):
            # compose merge steps from level j down to level i
            m = None
            for level in range(k - 1 - j, k - 1 - i):
                m = steps[level] if m is None else steps[level].compose(m)
            bonds[(i, j)] = m
    return InverseSystem(poset=poset, spaces=tuple(spaces), bonds=bonds)


def random_union_closed_families(
    rng: random.Random, space: FiniteSpace, count: int
) -> list[OpenFamily]:
    """A few random families closed under pairwise member-set union, which
    makes the collection directed by inclusion."""
    fams = {random_family(rng, space, rng.randint(0, 3)).members for _ in range(count)}
    while True:
        extra = {a | b for a in fams for b in fams} - fams
        if not extra:
            break
        fams |= extra
    return [OpenFamily(space, f) for f in sorted(fams, key=lambda f: (len(f), sorted(f)))]
