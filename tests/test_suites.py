import hashlib
import json
from pathlib import Path

import pytest

from topolab import cli
from topolab.enumeration import all_spaces
from topolab.jsonio import dumps
from topolab.suites import (
    MAX_SUITE_POINTS,
    MAX_SUITE_SAMPLES,
    SuiteReport,
    _completely_regular_oracle,
    _continuous_surjections,
    _pi_bases,
    game_suite,
    quotient_suite,
    roundtrip_suite,
    run_suite,
    systems_suite,
)

from oracles import continuous_surjections_by_filter, pi_bases_by_filter, two_valued_separation


def test_report_ok_iff_no_violations():
    rep = SuiteReport("demo", 0, 3, 0)
    rep.check(True, "fine", None)
    assert rep.ok and rep.cases_run == 1
    rep.check(False, "broken", {"x": 1})
    assert not rep.ok
    assert rep.to_json()["violations_total"] == 1


def test_reports_are_deterministic():
    for fn in (quotient_suite, game_suite, systems_suite, roundtrip_suite):
        a = fn(max_points=3, samples=30, seed=5)
        b = fn(max_points=3, samples=30, seed=5)
        assert dumps(a.to_json()) == dumps(b.to_json())


def test_all_suites_pass_at_small_scale():
    for rep in run_suite("all", max_points=3, samples=60, seed=1):
        assert rep.ok, (rep.name, rep.violations[:3])


def test_game_suite_counts_topologies():
    rep = game_suite(max_points=4, samples=10, seed=0)
    assert rep.counts["topologies_per_n"][4] == 355
    assert rep.counts["bruteforce_count_n4"] == 355
    assert rep.counts["topologies_examined"] == 389


def test_unknown_suite_name():
    import pytest

    with pytest.raises(ValueError):
        run_suite("nope", max_points=3, samples=1, seed=0)


@pytest.mark.parametrize("samples", [-1, MAX_SUITE_SAMPLES + 1])
def test_samples_outside_the_cap_are_refused(samples):
    with pytest.raises(ValueError, match="samples must be between 0 and 10000"):
        run_suite("game", max_points=1, samples=samples, seed=0)


@pytest.mark.parametrize("max_points", [-1, 0, MAX_SUITE_POINTS + 1])
def test_points_outside_the_cap_are_refused(max_points):
    with pytest.raises(ValueError, match="max_points must be between 1 and 4"):
        run_suite("all", max_points=max_points, samples=0, seed=0)


def test_pi_bases_match_the_filter():
    spaces = all_spaces(4)
    assert len(spaces) == 390  # the 389 spaces on 1-4 points, and the empty one
    listed = 0
    for space in spaces:
        got = list(_pi_bases(space))
        assert got == list(pi_bases_by_filter(space))
        listed += len(got)
    assert listed > len(spaces)


def test_completely_regular_oracle_matches_two_valued_maps():
    spaces = all_spaces(4)
    verdicts = [_completely_regular_oracle(space) for space in spaces]
    assert verdicts == [two_valued_separation(space) for space in spaces]
    assert 0 < sum(verdicts) < len(spaces)


def test_continuous_surjections_match_the_filter():
    small = all_spaces(3)
    found = 0
    for dom in small:
        for cod in small:
            got = list(_continuous_surjections(dom, cod))
            assert got == list(continuous_surjections_by_filter(dom, cod))
            if dom.point_count and cod.point_count:
                found += len(got)
    assert found == 1_546
    assert quotient_suite(max_points=3, samples=0).counts["continuous_surjections"] == found


REFERENCE_DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "reference_digests.json"


@pytest.mark.parametrize("seed", ["0", "42"])
def test_suite_all_report_matches_reference_digest(tmp_path, seed):
    # A fixed seed must give byte-identical report bytes.
    out = tmp_path / "report.json"
    args = ["suite", "all", "--max-points", "4", "--samples", "500", "--seed", seed]
    assert cli.main(args + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == json.loads(REFERENCE_DIGESTS.read_text())[seed]
