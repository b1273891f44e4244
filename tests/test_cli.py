"""CLI toolchain: the full workflow→simulate→build→score→assess loop."""

import json
import os

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    return str(tmp_path)


def run(*argv):
    return main(list(argv))


def test_simulate_and_inspect(workspace, capsys):
    data_path = os.path.join(workspace, "data.csv")
    wf_path = os.path.join(workspace, "wf.json")
    assert run(
        "simulate", "--scenario", "ediamond", "--points", "50",
        "--seed", "3", "--out", data_path, "--workflow-out", wf_path,
    ) == 0
    out = capsys.readouterr().out
    assert "wrote 50 points" in out
    assert os.path.exists(data_path)
    assert run("inspect-workflow", wf_path) == 0
    out = capsys.readouterr().out
    assert "D = X1 + X2 + max(X3 + X5, X4 + X6)" in out
    assert "X2 -> X3" in out


def test_simulate_reporting_loss_masks_service_columns(workspace, capsys):
    from repro.bn.csvio import dataset_from_csv

    data_path = os.path.join(workspace, "lossy.csv")
    assert run(
        "simulate", "--scenario", "ediamond", "--reporting-loss", "0.4",
        "--points", "80", "--seed", "3", "--out", data_path,
    ) == 0
    assert "wrote 80 points" in capsys.readouterr().out
    data = dataset_from_csv(data_path)
    # reporting loss shows up as NaNs in service columns
    services = np.column_stack([data[c] for c in data.columns if c != "D"])
    assert np.isnan(services).any()
    assert not np.isnan(data["D"]).any()  # responses are client-side
    assert run(
        "simulate", "--reporting-loss", "1.5", "--points", "20",
        "--out", data_path,
    ) == 1
    assert "fraction must be in (0, 1]" in capsys.readouterr().err


def test_full_kert_pipeline(workspace, capsys):
    data_path = os.path.join(workspace, "train.csv")
    test_path = os.path.join(workspace, "test.csv")
    wf_path = os.path.join(workspace, "wf.json")
    model_path = os.path.join(workspace, "model.json")
    run("simulate", "--points", "300", "--seed", "1",
        "--out", data_path, "--workflow-out", wf_path)
    run("simulate", "--points", "100", "--seed", "5", "--out", test_path)
    capsys.readouterr()

    assert run(
        "build", "--family", "kert", "--kind", "continuous",
        "--workflow", wf_path, "--data", data_path, "--out", model_path,
    ) == 0
    out = capsys.readouterr().out
    assert "kert-bn/continuous" in out
    assert "construction_seconds=" in out

    assert run("score", "--model", model_path, "--data", test_path) == 0
    out = capsys.readouterr().out
    assert "log10_likelihood=" in out

    assert run(
        "assess", "--model", model_path, "--threshold", "2.0",
        "--set", "X4=0.35",
    ) == 0
    out = capsys.readouterr().out
    assert "E[D]=" in out and "P(D>2)=" in out

    assert run(
        "dcomp", "--model", model_path, "--target", "X4",
        "--observe", "X1=0.2", "--observe", "X2=0.15",
    ) == 0
    out = capsys.readouterr().out
    assert "posterior: mean=" in out


def test_discrete_nrt_pipeline(workspace, capsys):
    data_path = os.path.join(workspace, "train.csv")
    model_path = os.path.join(workspace, "nrt.json")
    run("simulate", "--points", "300", "--seed", "2", "--out", data_path)
    capsys.readouterr()
    assert run(
        "build", "--family", "nrt", "--kind", "discrete",
        "--data", data_path, "--out", model_path, "--restarts", "2",
        "--bins", "4",
    ) == 0
    out = capsys.readouterr().out
    assert "nrt-bn/discrete" in out
    with open(model_path) as fh:
        bundle = json.load(fh)
    assert bundle["family"] == "nrtbn"
    assert "discretizer" in bundle


def test_build_kert_without_workflow_fails(workspace):
    with pytest.raises(SystemExit):
        run("build", "--family", "kert", "--data", "x.csv", "--out", "m.json")


def test_missing_file_is_reported(workspace, capsys):
    assert run("score", "--model", "/nonexistent.json", "--data", "/nope.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_bad_assignment_rejected(workspace):
    with pytest.raises(SystemExit):
        run("assess", "--model", "m.json", "--set", "X4~0.3")


def test_non_finite_assignment_rejected():
    from repro.cli import _parse_assignments

    assert _parse_assignments(["X1=0.5"]) == {"X1": 0.5}
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit, match="value for 'X2' is not finite"):
            _parse_assignments(["X1=0.5", f"X2={value}"])


def test_random_scenario(workspace, capsys):
    data_path = os.path.join(workspace, "r.csv")
    assert run(
        "simulate", "--scenario", "random", "--n-services", "8",
        "--points", "40", "--seed", "4", "--out", data_path,
    ) == 0
    from repro.bn.csvio import dataset_from_csv

    data = dataset_from_csv(data_path)
    assert data.n_rows == 40
    assert len(data.columns) == 9


def test_localize_subcommand(workspace, capsys):
    data_path = os.path.join(workspace, "train.csv")
    wf_path = os.path.join(workspace, "wf.json")
    model_path = os.path.join(workspace, "model.json")
    run("simulate", "--points", "300", "--seed", "9",
        "--out", data_path, "--workflow-out", wf_path)
    run("build", "--family", "kert", "--kind", "continuous",
        "--workflow", wf_path, "--data", data_path, "--out", model_path)
    capsys.readouterr()

    assert run(
        "localize", "--model", model_path, "--top", "2",
        "--observe", "X4=2.5", "--observe", "X1=0.17",
    ) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + top-2
    assert "X4" in lines[1]  # the anomalous service ranks first

    with pytest.raises(SystemExit):
        run("localize", "--model", model_path)


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_slo_budgets_blame_follows_the_model_kind(workspace, capsys, kind):
    """Continuous models take blame from their cached assessor, discrete
    ones from the compiled engine's joints; ``--no-blame`` skips both."""
    from repro.bn.budgets import discrete_blame
    from repro.core.persistence import load_model

    data_path = os.path.join(workspace, "train.csv")
    wf_path = os.path.join(workspace, "wf.json")
    model_path = os.path.join(workspace, "model.json")
    out_path = os.path.join(workspace, "budgets.json")
    run("simulate", "--points", "300", "--seed", "9",
        "--out", data_path, "--workflow-out", wf_path)
    run("build", "--family", "kert", "--kind", kind,
        "--workflow", wf_path, "--data", data_path, "--out", model_path)
    args = ("slo", "budgets", "--model", model_path, "--sla", "3.5",
            "--target", "0.1", "--json", out_path)
    assert run(*args) == 0
    with open(out_path) as fh:
        payload = json.load(fh)
    model = load_model(model_path)
    budgets = {b["service"]: b["budget"] for b in payload["budgets"]}
    if kind == "continuous":
        expected = model.assessor.blame(budgets, 3.5)
    else:
        expected = discrete_blame(
            model.network.compiled(), model.discretizer, model.response,
            budgets, 3.5,
        )
    assert payload["blame"] == expected and any(expected.values())
    assert run(*args, "--no-blame") == 0
    with open(out_path) as fh:
        assert json.load(fh)["blame"] == {}
    capsys.readouterr()
