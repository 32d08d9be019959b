import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import infodist as inf
from infodist import lp
from infodist.catalog import parity_coordination_game
from infodist.cli import _CATALOG_NAMES, _COMMANDS, main

from conftest import random_structure

_MARKOV_GAMES = ("markov", "games", "-N", "4", "--seed", "0", "-l", "1", "-p", "1")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    cat = inf.canonical_examples()
    paths = {}
    for name, structure in cat.items():
        path = tmp_path / f"{name}.json"
        path.write_text(structure.to_json())
        paths[name] = str(path)
    game = inf.ZeroSumGame(
        np.array([[[0.0, 1.0], [0.0, -1.0]], [[-1.0, 0.0], [1.0, 0.0]]])
    )
    paths["game"] = str(tmp_path / "game.json")
    (tmp_path / "game.json").write_text(game.to_json())
    paths["bimatrix"] = str(tmp_path / "bimatrix.json")
    (tmp_path / "bimatrix.json").write_text(parity_coordination_game().to_json())
    paths["tmp"] = tmp_path
    return paths


def test_distance_command(capsys, files):
    code, out, _ = _run(capsys, "distance", files["u1"], files["u2"])
    assert code == 0
    assert out.strip() == "0.5"


def test_value_command_json(capsys, files):
    code, out, _ = _run(
        capsys, "value", files["u2"], files["game"], "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-9)


def test_value_strategies_csv_is_valid_csv(capsys, files):
    argv = ("value", files["u2"], files["game"], "--strategies")
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert header == ["value", "strategy1", "strategy2"]
    assert [len(row) for row in rows] == [len(header)]
    _, out, _ = _run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert [json.loads(cell) for cell in rows[0][1:]] == [payload["strategy1"], payload["strategy2"]]


def test_compare_command(capsys, files):
    code, out, _ = _run(capsys, "compare", files["u2"], files["u1"])
    assert code == 0
    assert "u>=v" in out
    code, out, _ = _run(capsys, "compare", files["u2"], files["u1"], "--tolerance", "1e-3")
    assert code == 0
    assert "u>=v" in out


def test_compare_solves_both_directions_as_one_pair(capsys, monkeypatch, two_cpus, tmp_path):
    # A K=4, L=6 pair has 1,800 entries per gap LP: compare hands one of
    # them to a helper thread and reports what two serial solves give.
    rng = np.random.default_rng(20261028)
    paths = []
    for name in ("u", "v"):
        path = tmp_path / f"{name}.json"
        path.write_text(random_structure(rng, 4, 6, 6).to_json())
        paths.append(str(path))
    handed = []
    handoff = lp._Handoff
    monkeypatch.setattr(lp, "_Handoff", lambda problem: handed.append(problem) or handoff(problem))
    code, paired, _ = _run(capsys, "compare", *paths, "--format", "json")
    assert code == 0 and len(handed) == 1
    monkeypatch.setattr(lp.os, "sched_getaffinity", lambda pid: {0})
    code, serial, _ = _run(capsys, "compare", *paths, "--format", "json")
    assert code == 0 and len(handed) == 1
    assert json.loads(paired) == json.loads(serial)


def test_witness_round_trip(capsys, files):
    out_path = files["tmp"] / "witness.json"
    code, out, _ = _run(
        capsys, "witness", files["u1"], files["u2"], "-o", str(out_path)
    )
    assert code == 0
    game = inf.ZeroSumGame.from_json(out_path.read_text())
    # (states, u2's player-1 signals, u1's player-2 signals)
    assert game.payoffs.shape == (2, 2, 2)
    assert np.abs(game.payoffs).max() <= 1.0
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize(
    "argv, parse",
    [
        (("witness", "u1", "u2"), inf.ZeroSumGame.from_json),
        (("reduce", "u1"), inf.InformationStructure.from_json),
        (("decompose", "u1"), json.loads),
        (("feasible", "u2", "bimatrix"), json.loads),
        (("catalog", "f4-xor", "--which", "v_prime"), inf.InformationStructure.from_json),
        (("catalog", "ladder", "--format", "csv"), inf.InformationStructure.from_json),
        (("markov", "sample", "-N", "8", "--seed", "0"), json.loads),
    ],
    ids=["witness", "reduce", "decompose", "feasible", "catalog", "catalog-csv", "markov-sample"],
)
def test_without_output_stdout_holds_only_the_document(capsys, files, argv, parse):
    # The document goes to stdout and the summary, which -o would leave on
    # stdout, to stderr; so a redirected stdout reads back as the document
    # (`infodist catalog ladder > ladder.json` gives a file that loads).
    argv = [files.get(arg, arg) for arg in argv]
    path = files["tmp"] / "document.json"
    code, summary, _ = _run(capsys, *argv, "-o", str(path))
    assert code == 0
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert (out, err) == (path.read_text(), summary)
    parse(out)


def test_witness_command_solves_one_lp(capsys, files, solve_rows):
    # The witness, its bracket and the printed gap all come from one gap
    # solve.
    out_path = files["tmp"] / "witness.json"
    code, _, _ = _run(capsys, "witness", files["u1"], files["u2"], "-o", str(out_path))
    assert code == 0
    # u1 has 3 player-1 signals, u2 has 2 player-1 and 1 player-2 signal:
    # 3 x 2 (c,e) rows and 1 x 2 (d,f) rows.
    assert solve_rows == [8]


def test_d1_dnzs_reduce_decompose(capsys, files, tmp_path):
    code, out, _ = _run(capsys, "d1", files["u1"], files["u2"])
    assert code == 0

    code, out, _ = _run(capsys, "dnzs", files["u2"], files["u2prime"])
    assert code == 0
    assert out.strip() == "2"

    reduced_path = tmp_path / "reduced.json"
    code, _, _ = _run(capsys, "reduce", files["u1"], "-o", str(reduced_path))
    assert code == 0
    assert inf.InformationStructure.from_json(reduced_path.read_text()).shape == (2, 3, 2)

    decomposition_path = tmp_path / "decomposition.json"
    code, _, _ = _run(capsys, "decompose", files["u1"], "-o", str(decomposition_path))
    assert code == 0
    items = json.loads(decomposition_path.read_text())
    assert len(items) == 1
    assert items[0]["weight"] == pytest.approx(1.0)


def test_diameter_command(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text("[0.5, 0.5]")
    q.write_text("[0.5, 0.5]")
    code, out, _ = _run(capsys, "diameter", str(p), str(q), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(0.0)
    assert payload["upper"] == pytest.approx(1.0)


def test_dw_command(capsys, files):
    code, out, _ = _run(capsys, "dw", files["u1"], files["u2"], files["game"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.25, abs=1e-7)


def test_feasible_and_verify_bound(capsys, tmp_path):
    u = inf.counterexample_pairs()["split_secret"]["u"]
    v = inf.counterexample_pairs()["split_secret"]["v"]

    u_path, v_path, g_path = tmp_path / "u.json", tmp_path / "v.json", tmp_path / "g.json"
    u_path.write_text(u.to_json())
    v_path.write_text(v.to_json())
    g_path.write_text(parity_coordination_game().to_json())

    out_path = tmp_path / "hull.json"
    code, _, _ = _run(capsys, "feasible", str(u_path), str(g_path), "-o", str(out_path))
    assert code == 0
    hull = json.loads(out_path.read_text())
    assert [1.0, 1.0] in hull["vertices"]

    code, _, err = _run(
        capsys,
        "verify-bound",
        str(u_path),
        str(v_path),
        str(g_path),
        "--case",
        "cond_indep",
    )
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "HypothesisViolated"


def test_verify_bound_reports_the_library_result(capsys, tmp_path):
    u, v = (inf.blackwell_structure(inf.BlackwellSpec(n, 0, 0.75, 0.75)) for n in (2, 1))
    g = parity_coordination_game()
    paths = [tmp_path / name for name in ("u.json", "v.json", "g.json")]
    for path, item in zip(paths, (u, v, g)):
        path.write_text(item.to_json())

    code, out, _ = _run(capsys, "verify-bound", *map(str, paths), "--case", "cond_indep", "--format", "json")
    assert code == 0
    assert json.loads(out) == dataclasses.asdict(inf.verify_feasible_bound(u, v, g, "cond_indep"))


def test_catalog_round_trip(capsys, tmp_path):
    out = tmp_path / "u1.json"
    code, _, _ = _run(capsys, "catalog", "u1", "-o", str(out))
    assert code == 0
    u1 = inf.InformationStructure.from_json(out.read_text())
    assert np.array_equal(u1.probs, inf.canonical_examples()["u1"].probs)

    code, _, _ = _run(capsys, "catalog", "email", "--eps", "0.2", "--truncation", "4", "-o", str(out))
    assert code == 0
    email = inf.InformationStructure.from_json(out.read_text())
    assert email.shape == (2, 6, 5)


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_catalog_command_builds_every_name(capsys, tmp_path, name):
    out = tmp_path / "structure.json"
    code, _, err = _run(capsys, "catalog", name, "-o", str(out))
    assert code == 0, err
    inf.InformationStructure.from_json(out.read_text())


def test_catalog_rejects_options_its_builder_does_not_read(capsys, tmp_path):
    out = tmp_path / "structure.json"
    for argv in (
        ("u1", "--eps", "0.3", "--n", "7"),
        ("email", "--n", "3"),
        ("ladder", "--states", "0.2", "0.8"),
        ("blackwell", "--eps", "0.1"),
        ("approx-knowledge", "--prior", "0.3"),
        ("no-info", "--truncation", "4"),
        ("f4-xor", "--which", "v_prime", "--p", "0.7"),
    ):
        code, stdout, err = _run(capsys, "catalog", *argv, "-o", str(out))
        assert code == 2, argv
        assert stdout == ""
        assert f"{argv[0]} does not read --" in err
        assert not out.exists()
    # The options a builder reads are still taken.
    code, _, err = _run(capsys, "catalog", "blackwell", "--n", "2", "--m", "1", "--p", "0.7", "--r", "0.6")
    assert code == 0, err


def test_catalog_p_sets_the_blackwell_accuracy(capsys, tmp_path):
    # --p is single-valued: it changes the tensor, and when it is repeated
    # the last value wins, as for --r or any other option.
    def blackwell(*options):
        out = tmp_path / "b.json"
        code, _, err = _run(capsys, "catalog", "blackwell", "--n", "2", *options, "-o", str(out))
        assert code == 0, err
        return inf.InformationStructure.from_json(out.read_text()).probs

    default, high = blackwell(), blackwell("--p", "0.9")
    assert np.array_equal(default, blackwell("--p", "0.75"))
    assert not np.array_equal(high, default)
    assert np.array_equal(blackwell("--p", "0.6", "--p", "0.9"), high)
    assert np.array_equal(blackwell("--r", "0.6", "--r", "0.9"), blackwell("--r", "0.9"))


def test_readme_catalog_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in readme.splitlines()
        if line.startswith("infodist catalog ")
    ]
    assert len(examples) >= 3
    for argv in examples:
        code, _, err = _run(capsys, *argv)
        assert code == 0, (argv, err)


def test_catalog_fixture_members(capsys, tmp_path):
    out = tmp_path / "structure.json"
    code, _, _ = _run(capsys, "catalog", "f4-xor", "--which", "v_prime", "-o", str(out))
    assert code == 0
    want = inf.counterexample_pairs()["xor_state"]["v_prime"]
    assert np.array_equal(inf.InformationStructure.from_json(out.read_text()).probs, want.probs)
    # A member the fixture lacks, or any member but u of a single
    # structure, is a usage error, and nothing is written.
    for name, which in (("opponent_correlation", "v_prime"), ("approx-knowledge", "u_prime"), ("u1", "v")):
        code, _, err = _run(capsys, "catalog", name, "--which", which, "-o", str(tmp_path / which))
        assert code == 2
        assert f"no member {which!r}" in err
        assert not (tmp_path / which).exists()


def test_options_belong_to_the_commands_that_read_them(capsys, files):
    # Only feasible, verify-bound and markov games take --budget, only
    # compare takes --tolerance, and markov sample draws no statistics.
    for argv in (
        ("distance", files["u1"], files["u2"], "--tolerance", "1e-3"),
        ("catalog", "u1", "--budget", "5"),
        ("markov", "sample", "-N", "4", "--seed", "0", "--alpha", "0.1"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--budget", "-3"), ("--budget", "0"), ("--budget", "2.5"), ("--tolerance", "0.5"), ("--tolerance", "0"),
        ("--tolerance", "abc"),
        ("--seed", "-1"), ("--tuples", "-1"), ("--tuples", "0"), ("--nmax", "0"), ("--nmax", "-1"),
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, files, option, value):
    command = {
        "--budget": _MARKOV_GAMES,
        "--tolerance": ("compare", files["u2"], files["u1"]),
        "--seed": ("markov", "sample", "-N", "4"),
        "--tuples": ("markov", "check-ui", "-N", "100", "--seed", "0", "-l", "2"),
        "--nmax": ("blackwell-table",),
    }[option]
    code, out, err = _run(capsys, *command, option, value)
    assert code == 2
    assert out == ""
    assert f"argument {option}" in err


def test_blackwell_table_values_and_determinism(capsys):
    # With --lp, each row's single-agent LP column matches its closed form.
    for extra in ((), ("--lp",)):
        code, out1, _ = _run(capsys, "blackwell-table", "--p", "0.75", "--nmax", "4", *extra)
        assert code == 0
        code, out2, _ = _run(capsys, "blackwell-table", "--p", "0.75", "--nmax", "4", *extra)
        assert out1 == out2
        rows = {}
        for line in out1.strip().splitlines()[1:]:
            p, n, l, d1, *d1_lp = line.split(",")
            rows[(int(n), int(l))] = float(d1)
            assert len(d1_lp) == len(extra)
            for value in d1_lp:
                assert float(value) == pytest.approx(float(d1), abs=1e-9)
        assert rows[(4, 2)] == pytest.approx(0.1875)
        assert rows[(2, 1)] == pytest.approx(0.1875)


def test_repro_canonical_examples(capsys):
    code, out, _ = _run(capsys, "repro-appendix-f")
    assert code == 0
    assert "d(u1,u2)" in out and "0.5" in out
    assert "d(u1,u2prime)" in out and "1" in out


def test_markov_commands(capsys, tmp_path):
    out = tmp_path / "s.json"
    code, _, err = _run(capsys, "markov", "sample", "-N", "4", "-o", str(out))
    assert code == 0
    assert "defaulting to seed 0" in err
    payload = json.loads(out.read_text())
    assert payload["N"] == 4 and payload["seed"] == 0
    assert all(len(row) == 2 for row in payload["rows"])

    code, out_text, _ = _run(
        capsys, "markov", "check-e", "-N", "4", "--seed", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out_text)["exhaustive"] is True

    code, out_text, _ = _run(
        capsys, "markov", "games", "-N", "4", "--seed", "0", "-l", "1", "-p", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out_text)
    assert payload["value"] == pytest.approx(payload["epsilon"], abs=1e-9)

    code, out_text, _ = _run(
        capsys, "markov", "check-ui", "-N", "4", "--seed", "0", "-l", "1"
    )
    assert code == 0


def test_domain_error_exit_code(capsys, files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["a"], "signals1": 1, "signals2": 1, "probs": [[[0.5]]]}))
    code, _, err = _run(capsys, "distance", files["u1"], str(bad))
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "NotNormalized"


def _domain_error(capsys, *argv):
    """The error class a command reports: exit 1, one JSON line on stderr."""
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    return json.loads(err)["error"]


def test_diameter_rejects_a_nan_state_distribution(capsys, tmp_path):
    (tmp_path / "n.json").write_text("[0.5, NaN]")
    (tmp_path / "p.json").write_text("[0.5, 0.5]")
    args = (str(tmp_path / "n.json"), str(tmp_path / "p.json"))
    assert _domain_error(capsys, "diameter", *args) == "NotNormalized"


@pytest.mark.parametrize(
    "command, text, error",
    [
        (("distance", "{bad}", "u1"), "not json", "InvalidParameters"),
        (("distance", "{bad}", "u1"), '{"states": 2, "signals1": 1}', "InvalidParameters"),
        (("distance", "u1", "{bad}"), '{"probs": [[[0.5]], [[0.25, 0.25]]]}', "ShapeMismatch"),
        (("value", "u2", "{bad}"), '{"states": 2, "actions1": 2}', "InvalidParameters"),
        (("value", "u2", "{bad}"), "[", "InvalidParameters"),
        (("feasible", "u2", "{bad}"), '{"payoffs1": [[[1]]]}', "InvalidParameters"),
        (("feasible", "u2", "{bad}"), '{"payoffs1": [[[1]]], "payoffs2": [[1], [[1]]]}', "ShapeMismatch"),
        (("diameter", "{bad}", "{bad}"), "0.5, 0.5", "InvalidParameters"),
        (("diameter", "{bad}", "{bad}"), "[[0.5], 0.5]", "ShapeMismatch"),
    ],
)
def test_malformed_input_files_are_domain_errors(capsys, files, command, text, error):
    bad = files["tmp"] / "bad.json"
    bad.write_text(text)
    argv = [str(bad) if arg == "{bad}" else files.get(arg, arg) for arg in command]
    assert _domain_error(capsys, *argv) == error


@pytest.mark.parametrize(
    "command",
    [
        ("distance", "u1", "{bad}"),
        ("distance", "{bad}", "u1"),
        ("value", "u2", "{bad}"),
        ("feasible", "u2", "{bad}"),
        ("diameter", "{p}", "{bad}"),
    ],
)
def test_a_loader_error_names_the_file_that_failed(capsys, files, command):
    bad = files["tmp"] / "bad.json"
    bad.write_text('{"probs": [1, 2')
    (files["tmp"] / "p.json").write_text("[0.5, 0.5]")
    paths = {"{bad}": str(bad), "{p}": str(files["tmp"] / "p.json")}
    argv = [paths.get(arg) or files.get(arg, arg) for arg in command]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "InvalidParameters"
    assert report["message"].startswith(f"{bad}: ")
    assert report["message"].count(str(files["tmp"])) == 1


def test_domain_errors_print_plain_numbers(capsys, files):
    # Sums of numpy arrays, reported as numbers rather than np.float64(...).
    bad = files["tmp"] / "bad.json"
    bad.write_text("[0.5, 0.6]")
    code, _, err = _run(capsys, "diameter", str(bad), str(bad))
    assert (code, json.loads(err)["message"]) == (1, f"{bad}: state distribution sums to 1.1")
    bad.write_text(json.dumps({"states": ["0", "1"], "signals1": 1, "signals2": 1, "probs": [[[0.5]], [[0.6]]]}))
    code, _, err = _run(capsys, "distance", files["u1"], str(bad))
    assert (code, json.loads(err)["message"]) == (1, f"{bad}: structure mass is 1.1, not 1 within 1e-09")


def test_check_e_rejects_alpha_outside_the_band(capsys):
    argv = ("markov", "check-e", "-N", "4", "--seed", "0", "--alpha", "2")
    assert _domain_error(capsys, *argv) == "InvalidParameters"


def test_a_file_that_is_not_utf8_is_a_domain_error(capsys, files):
    bad = files["tmp"] / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert _domain_error(capsys, "distance", str(bad), files["u1"]) == "InvalidParameters"


_TOP_LEVEL_COMMANDS = (
    "value", "distance", "compare", "witness", "d1", "diameter", "dw", "reduce", "decompose", "dnzs",
    "feasible", "verify-bound", "catalog", "blackwell-table", "repro-appendix-f", "markov",
)


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_every_registered_command_has_help_listing_format(capsys, name):
    code, out, _ = _run(capsys, *name.split(), "--help")
    assert code == 0
    assert "--format {text,json,csv}" in out


def test_help_lists_the_commands_in_order(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(_TOP_LEVEL_COMMANDS) + "}" in out
    code, out, _ = _run(capsys, "markov", "--help")
    assert code == 0
    assert "{sample,check-e,check-ui,games}" in out


def test_usage_error_exit_code(capsys):
    assert main(["distance"]) == 2
    assert main(["no-such-command"]) == 2


def test_a_usage_error_names_the_command_as_argparse_does(capsys, monkeypatch, files):
    monkeypatch.setenv("INFODIST_BUDGET", "abc")
    code, _, err = _run(capsys, *_MARKOV_GAMES)
    assert code == 2
    assert err.startswith("infodist markov games: error: INFODIST_BUDGET")
    code, _, err = _run(capsys, "feasible", files["u1"], files["bimatrix"])
    assert code == 2
    assert err.startswith("infodist feasible: error: INFODIST_BUDGET")


def test_budget_env_override(monkeypatch):
    from infodist.config import default_budget

    monkeypatch.setenv("INFODIST_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("INFODIST_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_budget()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_budget_env_is_a_usage_error(capsys, monkeypatch, files, value):
    monkeypatch.setenv("INFODIST_BUDGET", value)
    for argv in (
        ("feasible", files["u1"], files["bimatrix"]),
        ("verify-bound", files["u1"], files["u2"], files["bimatrix"], "--case", "public"),
        _MARKOV_GAMES,
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "INFODIST_BUDGET" in err
    # An explicit --budget does not read the variable, and commands without
    # --budget never do.
    assert _run(capsys, "feasible", files["u1"], files["bimatrix"], "--budget", "64")[0] == 0
    assert _run(capsys, *_MARKOV_GAMES, "--budget", "64")[0] == 0
    assert _run(capsys, "distance", files["u1"], files["u2"])[0] == 0
    assert _run(capsys, "catalog", "u1")[0] == 0


def test_seeded_markov_output_is_reproducible(capsys):
    code, out1, _ = _run(
        capsys, "markov", "check-e", "-N", "100", "--seed", "3", "--tuples", "5000",
        "--format", "csv",
    )
    assert code == 0
    code, out2, _ = _run(
        capsys, "markov", "check-e", "-N", "100", "--seed", "3", "--tuples", "5000",
        "--format", "csv",
    )
    assert out1 == out2


def test_structure_json_round_trip_via_cli(capsys, files, tmp_path):
    out = tmp_path / "copy.json"
    code, _, _ = _run(capsys, "catalog", "u2prime", "-o", str(out))
    assert code == 0
    original = inf.canonical_examples()["u2prime"]
    loaded = inf.InformationStructure.from_json(out.read_text())
    assert np.array_equal(original.probs, loaded.probs)
