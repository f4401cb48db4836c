import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import load_workloads

import pherm
from pherm import algebra, cli, liemodels, maps, spaces
from pherm import make_space, random_curv4
from pherm.invariants import invariants
from pherm.cli import (
    RunConfig,
    cmd_model,
    cmd_table,
    cmd_verify,
    config_from_args,
    build_parser,
    main,
    render_document,
)


def run_python(*args, **env):
    # the child runs the package these tests imported, installed or not
    path = [str(Path(pherm.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )


def run_cli(*args, **env):
    return run_python("-m", "pherm.cli", *args, **env)


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


@pytest.mark.parametrize(
    "family,params,flat,s,cm_norm2",
    [
        ("heisenberg", [2], True, 0.0, 0.0),
        # su(1,1) and sp(1,R) are the same Lie algebra, so the same d = 1 model
        ("su_pq", [1, 1], False, -1.0, None),
        ("sp_p_R", [1], False, -1.0, None),
    ],
)
def test_model_blocks_without_a_trace_decomposition(family, params, flat, s, cm_norm2):
    # the flat and d = 1 blocks carry no sampled ranges and no constants
    block = cmd_model(RunConfig(command="model", models=[[family, params]], samples=5))["models"][0]
    assert set(block) == {"family", "params", "d", "flat", "s", "pseudo_einstein", "cm_norm2"}
    assert block["flat"] is flat
    assert block["s"] == pytest.approx(s, abs=1e-12)
    assert block["pseudo_einstein"] is True
    assert block["cm_norm2"] == cm_norm2


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
    # each subcommand's own flags reach RunConfig; the rest keep its defaults
    cases = [
        (
            ["table", "--family", "su_pq", "--params", "2,1", "--out", "t.json"],
            RunConfig(command="table", models=[["su_pq", [2, 1]]], output_path="t.json"),
        ),
        (
            ["model", "--family", "so_p_2", "--params", "3", "--seed", "3", "--samples", "50",
             "--out", "m.json"],
            RunConfig(command="model", models=[["so_p_2", [3]]], seeds=[3], samples=50,
                      output_path="m.json"),
        ),
        (
            ["verify", "--seed", "1", "--seed", "2", "--tol", "1e-8", "--trials", "7",
             "--dims", "2,3", "--negative-control", "--out", "v.json"],
            RunConfig(command="verify", seeds=[1, 2], tolerance=1e-8, trials=7, dims=[(2, 3)],
                      negative_control=True, output_path="v.json"),
        ),
    ]
    parser = build_parser()
    for argv, expected in cases:
        assert config_from_args(parser.parse_args(argv)) == expected


FOREIGN_FLAGS = {
    "table": ["--seed", "--samples", "--tol", "--trials", "--dims", "--negative-control"],
    "model": ["--tol", "--trials", "--dims", "--negative-control"],
    "verify": ["--family", "--params", "--samples"],
}
FLAG_VALUES = {
    "--seed": ["3"],
    "--samples": ["5"],
    "--tol": ["1e-8"],
    "--trials": ["7"],
    "--dims": ["2,2"],
    "--negative-control": [],
    "--family": ["su_pq"],
    "--params": ["2,1"],
}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in FOREIGN_FLAGS.items() for f in flags]
)
def test_subcommand_rejects_flags_it_does_not_read(command, flag, capsys):
    argv = [command, "--family", "su_pq", "--params", "2,1"] if command == "model" else [command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, *FLAG_VALUES[flag]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


def test_table_out_of_scope_row_ignores_params():
    res = run_cli("table", "--family", "e6_spin10", "--params", "1")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)["models"][0]
    assert row["status"] == "out_of_scope"
    assert row["params"] == [1]


def test_verify_nan_residual_fails(monkeypatch, capsys):
    nan = float("nan")
    # an identity gives one residual per trial of each block
    monkeypatch.setattr(maps, "_IDENTITIES", (("nan_identity", lambda rngs, *a: [nan] * len(rngs), {}),))
    bianchi = iter([nan, 0.0])  # the NaN is not the last trial
    monkeypatch.setattr(cli, "first_bianchi_residual", lambda *a: next(bianchi))
    assert main(["verify", "--trials", "2", "--dims", "2,2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    by_name = {s["name"].split("[")[0]: s for s in doc["suites"]}
    for name in ("nan_identity", "torsion_model_first_bianchi"):
        assert math.isnan(by_name[name]["max_residual"])
        assert by_name[name]["passed"] is False
    assert by_name["canonical_q_constants"]["passed"] is True


@pytest.mark.parametrize("extra", [[], ["--negative-control"]])
def test_verify_crash_exits_3_not_a_verdict(monkeypatch, capsys, extra):
    # exit 1 means "controls detected" under --negative-control, and it is
    # also Python's code for an uncaught exception; a crash gives neither
    def crash(rngs, *args):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(maps, "_IDENTITIES", (("crash_identity", crash, {}),))
    assert main(["verify", "--trials", "2", "--dims", "2,2", *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "TypeError: unsupported operand" in err


def test_model_error_exits_3_not_a_configuration_error(monkeypatch, capsys):
    def broken(mats):
        raise liemodels.ModelError("brackets do not close on the chosen basis")

    monkeypatch.setattr(liemodels, "_structure_constants", broken)
    assert main(["table", "--family", "su_pq", "--params", "2,1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "ModelError: brackets do not close" in err


@pytest.mark.parametrize("fault", [spaces.TagError, spaces.SpaceMismatchError])
def test_tag_and_space_errors_exit_3(monkeypatch, capsys, fault):
    def failing(rngs, *args):
        raise fault("declared tag 'j_plus' fails its projector check")

    monkeypatch.setattr(maps, "_IDENTITIES", (("failing_identity", failing, {}),))
    assert main(["verify", "--trials", "1", "--dims", "2,2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and f"{fault.__name__}: declared tag" in err


def test_internal_key_error_exits_3_not_a_configuration_error(monkeypatch, capsys):
    # no configuration path raises KeyError, so a failed lookup is a program fault
    def lookup(rngs, *args):
        return {}["missing_residual"]

    monkeypatch.setattr(maps, "_IDENTITIES", (("lookup_identity", lookup, {}),))
    assert main(["verify", "--trials", "1", "--dims", "2,2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "KeyError: 'missing_residual'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--family", "su_pqr", "--params", "2,1"],
        ["table", "--family", "su_pq", "--params", "2"],
        ["verify", "--trials", "0"],
        ["verify", "--dims", "3,2"],
    ],
)
def test_configuration_errors_still_exit_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--family", "su_pq", "--params", "2,1"],
        ["model", "--family", "su_pq", "--params", "2,1", "--samples", "5"],
        ["verify", "--trials", "1", "--dims", "2,2"],
    ],
)
def test_a_value_error_once_the_input_is_accepted_exits_3(monkeypatch, capsys, argv):
    # a NaN Killing form fails model_curvature's finiteness check with a plain
    # ValueError; so does the identity below; neither is a configuration error
    build = liemodels.build_model

    def nan_killing(family, params):
        model = build(family, params)
        K = model.killing.copy()
        K[0, 0] = np.nan
        return dataclasses.replace(model, killing=K)

    def invalid(rngs, *args):
        raise ValueError("map data are not finite")

    monkeypatch.setattr(cli, "build_model", nan_killing)
    monkeypatch.setattr(maps, "_IDENTITIES", (("invalid_identity", invalid, {}),))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "\nValueError: " in err and "not finite" in err


def test_a_fault_while_rendering_exits_3(monkeypatch, capsys):
    # json cannot write a numpy integer; a crash outside the commands is a crash too, not exit 1
    monkeypatch.setattr(cli, "closed_form_constants", lambda family, params: (np.int64(0), np.int64(0)))
    assert main(["table", "--family", "su_pq", "--params", "2,1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "TypeError: Object of type int64 is not JSON serializable" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["model", "--family", "su_pq", "--params", "6,5", "--family", "su_pq", "--params", "0,1"],
            "su_pq needs p, q >= 1",
        ),
        (["model", "--family", "su_pq", "--params", "2,1", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["verify", "--dims", "3,2"], "target half-dimension must be at least the source one"),
    ],
)
def test_every_argument_is_decided_before_any_model_or_suite_is_built(monkeypatch, capsys, argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a command ran before its arguments were decided")

    monkeypatch.setattr(cli, "build_model", unreachable)
    monkeypatch.setattr(cli, "identity_suite", unreachable)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_verify_refuses_a_seed_of_2_to_the_64_and_takes_the_largest_below(monkeypatch, capsys):
    # 2**64 would wrap onto the stream of seed 0, so it is refused before any suite runs
    def unreachable(*args, **kwargs):
        raise AssertionError("a suite ran before the seed was decided")

    with monkeypatch.context() as mp:
        mp.setattr(cli, "identity_suite", unreachable)
        assert main(["verify", "--seed", str(2**64)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --seed must be < 2**64, got {2**64}\n"
    assert main(["verify", "--seed", str(2**64 - 1), "--trials", "1", "--dims", "2,2"]) == 0
    assert f"seed={2**64 - 1}]" in capsys.readouterr().out


def test_table_lists_every_family_it_takes_when_it_refuses_one(capsys):
    assert main(["table", "--family", "su_pqr", "--params", "2,1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    families = liemodels.FAMILIES + liemodels.OUT_OF_SCOPE_FAMILIES
    assert err == f"error: unknown family 'su_pqr'; supported: {families}\n"
    assert "'e6_spin10'" in err and "'e7_e6'" in err


def test_each_command_helps_with_its_own_families(capsys):
    helps = {}
    for command in ("table", "model"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        helps[command] = capsys.readouterr().out
    for family in liemodels.FAMILIES + liemodels.OUT_OF_SCOPE_FAMILIES:
        assert f"'{family}'" in helps["table"]
        assert (f"'{family}'" in helps["model"]) == (family in liemodels.FAMILIES), family


def test_model_calls_an_out_of_scope_family_out_of_scope(capsys):
    # `table` lists the exceptional families' closed forms; `model` has no matrix to build
    assert main(["model", "--family", "e6_spin10", "--params", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: family 'e6_spin10' has no matrix model; `pherm table` lists its closed forms\n"


def test_verify_report_is_the_same_with_warm_and_cleared_caches(capsys):
    argv = load_workloads().make_run("verify", 0).argv
    outs = []
    for clear in (False, False, True):
        if clear:
            spaces._make_space.cache_clear()
            algebra._canonical_tensors.cache_clear()
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[1] == outs[0] and outs[2] == outs[0]


def test_model_builds_no_canonical_tensor(capsys):
    # the trace decomposition needs only the Ricci data, no frame-only grid
    algebra._canonical_tensors.cache_clear()
    argv = ["model", "--family", "su_pq", "--params", "2,2", "--family", "so_p_2", "--params", "5"]
    assert main(argv + ["--samples", "50"]) == 0
    capsys.readouterr()
    assert algebra._canonical_tensors.cache_info().currsize == 0


def test_table_never_imports_numpy_random():
    # kappa's Lanczos start is a fixed vector: importing numpy.random costs more than the solve
    code = (
        "import sys\n"
        "from pherm.cli import main\n"
        "assert main(['table']) == 0\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    child = run_python("-c", code)
    assert child.returncode == 0, child.stderr


def test_model_and_verify_never_import_numpy_random():
    # the package's streams are its own: numpy.random would bring secrets, hashlib and libcrypto
    code = (
        "import sys\n"
        "from pherm.cli import main\n"
        "assert main(['model', '--samples', '10', '--family', 'su_pq', '--params', '2,1']) == 0\n"
        "assert main(['verify', '--trials', '1']) == 0\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    child = run_python("-c", code)
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        # rows whose reports depend on the thread count unless C and K are exact
        ["table", "--family", "so_p_2", "--params", "8", "--family", "su_pq", "--params", "5,4"],
        ["model", "--family", "so_p_2", "--params", "8", "--samples", "100"],
        # m = 780 wedge pairs: the sampler's product is longer than a BLAS kernel's block
        ["model", "--family", "su_pq", "--params", "5,4"],
    ],
    ids=["table", "table-so8_2-su5_4", "model-so8_2", "model-su5_4"],
)
def test_reports_are_byte_identical_on_one_and_two_blas_threads(argv):
    one, two = (run_cli(*argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout and two.stdout == one.stdout


def test_plane_curvatures_are_bit_identical_on_one_and_two_blas_threads():
    # real and complex planes, 1 to 128 of them, on grids of side n = 4 to 40 (m = 6 to 780
    # wedge pairs): ragged product columns and inner dimensions past a kernel's block
    code = (
        "import hashlib\n"
        "from pherm.invariants import _plane_curvatures, _wedge_op\n"
        "from pherm.spaces import _Streams, make_space, random_curv4\n"
        "h = hashlib.sha256()\n"
        "for d in (2, 5, 7, 9, 12, 20):\n"
        "    op = _wedge_op(random_curv4(make_space(d), {'pair_symmetric'}, d))\n"
        "    for k in (1, 37, 128):\n"
        "        (v,) = _Streams([(d, k)]).normals((4, k, 2 * d))\n"
        "        X, Y, Z, W = v[0]\n"
        "        h.update(_plane_curvatures(op, X, Y).tobytes())\n"
        "        h.update(_plane_curvatures(op, X + 1j * Y, Z + 1j * W).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    one, two = (run_python("-c", code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout and two.stdout == one.stdout


def test_model_measures_the_flat_block_on_its_grid(monkeypatch):
    # a flat model with d >= 2 reports what its grid gives, so a wrong grid cannot print zeros
    wrong = random_curv4(make_space(2), spaces.KAHLER_TAGS, 5)
    monkeypatch.setattr(cli, "model_curvature", lambda model: wrong)
    block = cmd_model(RunConfig(command="model", models=[["heisenberg", [2]]], samples=5))["models"][0]
    rep = invariants(wrong)
    assert block["flat"] is True
    assert (block["s"], block["pseudo_einstein"], block["cm_norm2"]) == (
        rep.scalar,
        rep.pseudo_einstein,
        rep.cm_norm2,
    )
    assert block["cm_norm2"] > 0 and "kappa" not in block
