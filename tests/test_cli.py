import hashlib
import json
import subprocess
import sys

import pytest

from topolab import cli
from topolab.suites import SUITE_NAMES, SuiteReport

from cli_env import cap_memory_at_1gib, cli_env


def run_cli(args, stdin=None, preexec_fn=None):
    proc = subprocess.run(
        [sys.executable, "-m", "topolab.cli"] + args,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=preexec_fn,
        env=cli_env(),
    )
    return proc


def test_gen_space_deterministic():
    a = run_cli(["gen", "space", "--points", "3", "--seed", "7"])
    b = run_cli(["gen", "space", "--points", "3", "--seed", "7"])
    assert a.returncode == 0 and a.stdout == b.stdout
    obj = json.loads(a.stdout)
    assert obj["points"] == 3


def test_gen_empty_space():
    out = run_cli(["gen", "space", "--points", "0"])
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"points": 0, "opens": [[]]}


def test_gen_system_validates():
    from topolab.jsonio import decode_system
    from topolab.systems import validate_system

    out = run_cli(["gen", "system", "--chain", "2", "--points", "3", "--seed", "1"])
    assert out.returncode == 0
    sys_obj = decode_system(json.loads(out.stdout))
    assert validate_system(sys_obj).ok


def test_gen_system_at_the_chain_cap_keeps_its_bytes(capsys):
    # the largest chain gen system emits; its bonds reuse the bonds above them
    assert cli.main(["gen", "system", "--chain", "64", "--points", "6", "--seed", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ccf0d173e2b1669117b154f25bfe579a5897d1ceae303f77c4d8b8f822ca585d"


def test_gen_rejects_oversize():
    assert run_cli(["gen", "space", "--points", "99"]).returncode == 2


def test_gen_system_chain_stays_decodable(capsys):
    # decode_system refuses more nodes, and the chain's cost grows cubically.
    assert cli.main(["gen", "system", "--chain", "65"]) == 2
    assert capsys.readouterr().err == "error: --chain must be at most 64\n"


@pytest.mark.parametrize("samples", ["-1", "10001", "99999999999999999999"])
def test_suite_samples_outside_the_cap_are_a_usage_error(capsys, samples):
    assert cli.main(["suite", "game", "--max-points", "1", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be between 0 and 10000\n"


@pytest.mark.parametrize("points", ["0", "5"])
def test_suite_points_outside_the_cap_are_a_usage_error(capsys, points):
    assert cli.main(["suite", "all", "--max-points", points, "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_points must be between 1 and 4\n"


@pytest.mark.parametrize("name", ("all",) + SUITE_NAMES)
def test_every_suite_runs_at_one_point(capsys, name):
    assert cli.main(["suite", name, "--max-points", "1", "--samples", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["suites"]


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("TOPOLAB_SEED", "7")
    assert cli.main(["gen", "space", "--points", "3"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("TOPOLAB_SEED")
    assert cli.main(["gen", "space", "--points", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == with_env


@pytest.mark.parametrize("value", ["abc", " "])
@pytest.mark.parametrize(
    "command", [["gen", "space"], ["suite", "quotient", "--max-points", "1", "--samples", "0"]]
)
def test_env_seed_that_is_not_an_integer_is_a_usage_error(monkeypatch, capsys, command, value):
    monkeypatch.setenv("TOPOLAB_SEED", value)
    assert cli.main(command) == 2
    assert capsys.readouterr().err == "error: TOPOLAB_SEED must be an integer, not %r\n" % value


def test_game_solve_stdin():
    sierp = '{"points":2,"opens":[[],[1],[0,1]]}'
    out = run_cli(["game", "solve"], stdin=sierp)
    assert out.returncode == 0
    sol = json.loads(out.stdout)
    assert sol["winner"] == "I"
    assert {"covered": [], "status": "win", "move": [1]} in sol["win_table"]


def test_game_play_transcript():
    d2 = '{"points":2,"opens":[[],[0],[1],[0,1]]}'
    out = run_cli(["game", "play", "--strategy-i", "solver", "--strategy-ii", "echo"], stdin=d2)
    assert out.returncode == 0
    t = json.loads(out.stdout)
    assert t["outcome"] == "I-wins" and len(t["rounds"]) == 2


def test_game_rejects_bad_json():
    assert run_cli(["game", "solve"], stdin="{not json").returncode == 2
    assert run_cli(["game", "solve"], stdin='{"points":2,"opens":[[]]}').returncode == 2


@pytest.mark.parametrize(
    "blob",
    [
        '{"points":3,"opens":5}',
        '{"points":3,"opens":[[0,"a"]]}',
        "[1,2]",
        '{"points":3,"opens":[[1000000000000]]}',
        '{"points":2,"opens":[[],[0]]}',
    ],
)
def test_game_rejects_malformed_space(tmp_path, blob):
    space_file = tmp_path / "bad.json"
    space_file.write_text(blob)
    out = run_cli(["game", "solve", "--in", str(space_file)])
    assert out.returncode == 2
    assert out.stderr.startswith("error: bad space JSON")
    assert "Traceback" not in out.stderr


def test_game_rejects_json_nested_past_the_recursion_limit(tmp_path, capsys):
    space_file = tmp_path / "deep.json"
    space_file.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["game", "solve", "--in", str(space_file)]) == 2
    assert capsys.readouterr().err.startswith("error: bad space JSON")


@pytest.mark.parametrize("rounds", ["0", "-1"])
@pytest.mark.parametrize("mode", ["play", "repl"])
def test_game_max_rounds_below_one_is_a_usage_error(tmp_path, capsys, mode, rounds):
    space_file = tmp_path / "d2.json"
    space_file.write_text('{"points":2,"opens":[[],[0],[1],[0,1]]}')
    assert cli.main(["game", mode, "--in", str(space_file), "--max-rounds", rounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-rounds must be at least 1\n"


@pytest.mark.parametrize("points, code", [(8, 0), (9, 2)])
def test_game_caps_the_number_of_opens(tmp_path, capsys, points, code):
    from topolab.jsonio import dumps, encode_space
    from topolab.spaces import FiniteSpace

    space_file = tmp_path / "discrete.json"
    space_file.write_text(dumps(encode_space(FiniteSpace.discrete(points))))
    assert cli.MAX_GAME_OPENS == 1 << 8  # discrete(8) has exactly that many opens
    assert cli.main(["game", "solve", "--in", str(space_file)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: the game takes spaces with at most 256 opens, this one has 512\n"
    else:
        assert err == ""


def test_game_caps_the_number_of_points(tmp_path, capsys):
    from topolab.jsonio import MAX_SPACE_POINTS, dumps

    n = MAX_SPACE_POINTS + 1
    space_file = tmp_path / "indiscrete.json"
    space_file.write_text(dumps({"points": n, "opens": [[], list(range(n))]}))
    assert cli.main(["game", "solve", "--in", str(space_file)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad space JSON: a space has at most 1024 points, not 1025\n"


def test_game_missing_input_file_is_a_usage_error(tmp_path):
    out = run_cli(["game", "solve", "--in", str(tmp_path / "absent.json")])
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "space", "--points", "2"],
        ["game", "solve"],
        ["suite", "roundtrip", "--max-points", "2", "--samples", "4"],
    ],
)
def test_out_into_missing_directory_is_a_usage_error(tmp_path, args):
    target = tmp_path / "absent" / "out.json"
    sierp = '{"points":2,"opens":[[],[1],[0,1]]}'
    out = run_cli(args + ["--out", str(target)], stdin=sierp)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def test_repl_validates_and_finishes(tmp_path):
    space_file = tmp_path / "d2.json"
    space_file.write_text('{"points":2,"opens":[[],[0],[1],[0,1]]}')
    moves = "0\n\n5\n1\n"  # valid, empty, not open, valid
    out = run_cli(["game", "repl", "--in", str(space_file)], stdin=moves)
    assert out.returncode == 0
    assert "must be nonempty" in out.stdout
    assert "not open" in out.stdout
    assert "Player I wins" in out.stdout


def test_huge_point_indices_rejected_without_allocating(tmp_path):
    # 1 << 100000000000 alone would need about 12.5 GB
    huge = '{"points":100000000000,"opens":[[]]}'
    out = run_cli(["game", "solve"], stdin=huge, preexec_fn=cap_memory_at_1gib)
    assert out.returncode == 2
    assert out.stderr.startswith("error: bad space JSON")
    assert "Traceback" not in out.stderr

    space_file = tmp_path / "d2.json"
    space_file.write_text('{"points":2,"opens":[[],[0],[1],[0,1]]}')
    moves = "100000000000\n0\n1\n"  # out of range, valid, valid
    out = run_cli(["game", "repl", "--in", str(space_file)], stdin=moves, preexec_fn=cap_memory_at_1gib)
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    assert "not open" in out.stdout
    assert "Player I wins" in out.stdout


def test_repl_requires_file():
    assert run_cli(["game", "repl"], stdin="").returncode == 2


def test_suite_exit_codes_and_determinism():
    args = ["suite", "all", "--max-points", "3", "--samples", "40", "--seed", "42"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["violations_total"] == 0
    assert [s["suite"] for s in payload["suites"]] == [
        "quotient",
        "game",
        "systems",
        "roundtrip",
    ]
    assert all(s["cases_run"] > 0 for s in payload["suites"])


def test_suite_text_format():
    out = run_cli(
        ["suite", "game", "--max-points", "2", "--samples", "10", "--format", "text"]
    )
    assert out.returncode == 0
    assert "violations=0" in out.stdout


def test_suite_usage_errors():
    assert run_cli(["suite", "bogus"]).returncode == 2
    assert run_cli(["suite", "all", "--max-points", "9"]).returncode == 2


def test_suite_reports_violations_with_exit_1(monkeypatch, capsys):
    # a deliberately broken report must surface as exit code 1 with witness
    def broken(name, max_points, samples, seed):
        rep = SuiteReport("game", seed, max_points, samples)
        rep.check(False, "injected_failure", lambda: {"detail": "mutation smoke test"})
        return [rep]

    monkeypatch.setattr(cli, "run_suite", broken)
    code = cli.main(["suite", "game", "--samples", "1"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["violations_total"] == 1
    assert payload["suites"][0]["violations"][0]["property"] == "injected_failure"


def test_suite_roundtrip_reparses():
    out = run_cli(["suite", "quotient", "--max-points", "2", "--samples", "5"])
    payload = json.loads(out.stdout)
    from topolab.jsonio import dumps

    assert dumps(payload) == out.stdout
