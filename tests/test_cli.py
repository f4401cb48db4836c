import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pherm
from pherm.cli import (
    RunConfig,
    cmd_model,
    cmd_table,
    cmd_verify,
    config_from_args,
    build_parser,
    render_document,
)


def run_cli(*args):
    # the child runs the package these tests imported, installed or not
    path = [str(Path(pherm.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "pherm.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )


def test_table_default_rows_and_diffs():
    doc = cmd_table(RunConfig(command="table"))
    assert doc["schema_version"] == "1"
    by_label = {(r["family"], tuple(r["params"])): r for r in doc["models"]}
    row = by_label[("su_pq", (2, 1))]
    assert row["status"] == "ok"
    assert abs(row["c0_prime"] - 1.0 / 3.0) < 1e-8
    assert abs(row["kappa"] + 1.0 / 3.0) < 1e-8
    assert row["c0_prime_abs_diff"] < 1e-8
    flat = by_label[("heisenberg", (3,))]
    assert flat["status"] == "flat"
    assert flat["c0_prime"] is None
    row42 = by_label[("so_p_2", (4,))]
    assert abs(row42["c0_prime"] - 5.0 / 16.0) < 1e-8
    assert abs(row42["kappa"] + 0.25) < 1e-8


def test_table_out_of_scope_row():
    cfg = RunConfig(command="table", models=[["e6_spin10", []]])
    doc = cmd_table(cfg)
    row = doc["models"][0]
    assert row["status"] == "out_of_scope"
    assert abs(row["c0_prime_closed_form"] - 3.0 / 16.0) < 1e-12
    assert "c0_prime" not in row


def test_model_command_blocks():
    cfg = RunConfig(command="model", models=[["su_pq", [2, 2]]], samples=40)
    doc = cmd_model(cfg)
    block = doc["models"][0]
    assert block["pseudo_einstein"] is True
    assert block["cm_norm2"] > 0
    assert block["s"] < 0
    assert block["curvature_ranges"]["complex_sectional"][1] <= 1e-10
    with pytest.raises(ValueError):
        cmd_model(RunConfig(command="model"))


def test_report_determinism_byte_identical():
    cfg = RunConfig(command="table", models=[["su_pq", [2, 1]], ["sp_p_R", [2]]])
    a = render_document(cmd_table(cfg))
    b = render_document(cmd_table(cfg))
    assert a == b
    cfgv = RunConfig(command="verify", dims=[(2, 2)], trials=4)
    va = render_document(cmd_verify(cfgv))
    vb = render_document(cmd_verify(cfgv))
    assert va == vb


def test_report_floats_roundtrip():
    cfg = RunConfig(command="table", models=[["su_pq", [2, 1]]])
    doc = cmd_table(cfg)
    text = render_document(doc)
    assert json.loads(text)["models"][0]["c0_prime"] == doc["models"][0]["c0_prime"]


def test_verify_cli_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--trials", "4", "--dims", "2,2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert all(s["passed"] for s in doc["suites"])


def test_verify_cli_negative_control_exit_nonzero():
    res = run_cli("verify", "--trials", "3", "--dims", "2,2", "--negative-control")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert not all(s["passed"] for s in doc["suites"])
    assert all(
        s["max_residual"] >= 1e-3 for s in doc["suites"] if "negative" in s["name"]
    )


def test_cli_config_errors():
    res = run_cli("table", "--family", "su_pq")
    assert res.returncode == 2
    assert "error" in res.stderr
    res = run_cli("model", "--family", "su_pq", "--params", "0,1")
    assert res.returncode == 2
    res = run_cli("verify", "--dims", "2")
    assert res.returncode == 2


def test_cli_io_error_distinct():
    res = run_cli(
        "table",
        "--family",
        "su_pq",
        "--params",
        "2,1",
        "--out",
        "/nonexistent-dir/report.json",
    )
    assert res.returncode == 2
    assert "i/o error" in res.stderr


def test_table_smallest_params_under_time_budget():
    import time

    models = [
        ["su_pq", [1, 1]],
        ["sp_p_R", [1]],
        ["so_p_2", [3]],
        ["so_star_2p", [3]],
        ["heisenberg", [1]],
    ]
    t0 = time.time()
    doc = cmd_table(RunConfig(command="table", models=models))
    assert time.time() - t0 < 60.0
    by_label = {(r["family"], tuple(r["params"])): r for r in doc["models"]}
    # sp(1, R) is isomorphic to the signature-(1,1) model
    assert abs(by_label[("sp_p_R", (1,))]["c0_prime"] - 0.5) < 1e-8
    assert abs(by_label[("sp_p_R", (1,))]["kappa"] + 0.5) < 1e-8


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(command="table", tolerance=0.0)
    with pytest.raises(ValueError):
        RunConfig(command="table", samples=0)


@pytest.mark.parametrize(
    "args",
    [
        ("--trials", "0"),
        ("--trials", "-3"),
        ("--tol", "inf", "--negative-control"),
        ("--tol", "nan"),
        ("--tol", "-inf"),
    ],
)
def test_verify_rejects_vacuous_config(args):
    # each of these would otherwise pass (or fail) every suite regardless
    # of the residuals; they are configuration errors, not verdicts
    res = run_cli("verify", "--dims", "2,2", *args)
    assert res.returncode == 2
    assert "error" in res.stderr
    assert res.stdout == ""


def test_model_rejects_more_than_one_seed():
    models = [["su_pq", [2, 1]]]
    with pytest.raises(ValueError, match="--seed"):
        cmd_model(RunConfig(command="model", models=models, seeds=[1, 2]))
    res = run_cli("model", "--family", "su_pq", "--params", "2,1", "--seed", "1", "--seed", "2")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_parser_roundtrip():
    parser = build_parser()
    args = parser.parse_args(
        ["table", "--family", "su_pq", "--params", "2,1", "--seed", "3", "--tol", "1e-8"]
    )
    cfg = config_from_args(args)
    assert cfg.models == [["su_pq", [2, 1]]]
    assert cfg.seeds == [3]
    assert cfg.tolerance == 1e-8
