"""The mutation score.  Each row plants one fault in a library decision
that a suite property rests on, runs the suite at small size and requires
a violation of the named property, so the property can fail.  A property
that no planted fault trips is degenerate or unguarded."""

import dataclasses

import pytest

from topolab import suites
from topolab.spaces import FiniteSpace


def always_completely_regular(monkeypatch):
    """``separation_flags`` reports every space completely regular."""
    real = FiniteSpace.separation_flags

    def lying(space):
        return dataclasses.replace(real(space), completely_regular=True)

    monkeypatch.setattr(FiniteSpace, "separation_flags", lying)


def skeletal_family_skipping_last_row(monkeypatch):
    """``is_skeletal_family`` never tests the largest distinct row."""

    def mutant(family):
        members = [m for m in family.members if m]
        for v in sorted(set(family.space.rows))[:-1]:
            if not any(all(u & v for u in members if u & ~w == 0) for w in members):
                return False, v
        return True, None

    monkeypatch.setattr(suites, "is_skeletal_family", mutant)


MUTANTS = [
    (always_completely_regular, suites.quotient_suite, "completely_regular_oracle"),
    (skeletal_family_skipping_last_row, suites.quotient_suite, "skeletal_family_iff_map"),
]


@pytest.mark.parametrize(
    "plant, suite, prop", MUTANTS, ids=[plant.__name__ for plant, _, _ in MUTANTS]
)
def test_mutant_violates_its_property(monkeypatch, plant, suite, prop):
    plant(monkeypatch)
    rep = suite(max_points=3, samples=0, seed=0)
    assert any(v["property"] == prop for v in rep.violations)
