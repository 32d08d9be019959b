import json

import numpy as np
import pytest

import infodist as inf
from infodist.cli import main


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


def test_compare_command(capsys, files):
    code, out, _ = _run(capsys, "compare", files["u2"], files["u1"])
    assert code == 0
    assert "u>=v" in out


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
    from infodist.catalog import parity_coordination_game

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


def test_blackwell_table_values_and_determinism(capsys):
    code, out1, _ = _run(capsys, "blackwell-table", "--p", "0.75", "--nmax", "4")
    assert code == 0
    code, out2, _ = _run(capsys, "blackwell-table", "--p", "0.75", "--nmax", "4")
    assert out1 == out2
    rows = {}
    for line in out1.strip().splitlines()[1:]:
        p, n, l, d1 = line.split(",")
        rows[(int(n), int(l))] = float(d1)
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


def test_usage_error_exit_code(capsys):
    assert main(["distance"]) == 2
    assert main(["no-such-command"]) == 2


def test_budget_env_override(monkeypatch):
    from infodist.config import default_budget

    monkeypatch.setenv("INFODIST_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("INFODIST_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_budget()


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
