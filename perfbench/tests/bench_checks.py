"""Tests of the benchmark's output checks and its metric declaration.

    python3 -m pytest perfbench/tests/bench_checks.py perfbench/tests/bench_tracer.py

The file names keep these tests out of the repository's own test run.
"""
import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pherm.cli  # noqa: E402
from pherm.liemodels import closed_form_constants  # noqa: E402
from run import declaration_mismatches, summarise  # noqa: E402
from workloads import MODEL_MODELS, TABLE_MODELS, Run, check_document, closed_form, make_run  # noqa: E402

SMALL = {
    "table": Run("table", models=(("su_pq", (2, 1)), ("so_p_2", (3,)), ("heisenberg", (2,)))),
    "model": Run("model", models=(("su_pq", (2, 1)), ("sp_p_R", (2,))), seeds=(5,)),
    "verify": Run("verify", seeds=(5,), dims=((2, 2),), trials=2),
}


def pherm_run(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pherm.cli.main(run.argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def reports():
    return {name: pherm_run(run) for name, run in SMALL.items()}


def test_generated_argv_parses_and_counts_ops():
    for name in ("table", "model", "verify"):
        run = make_run(name, 7)
        config = pherm.cli.config_from_args(pherm.cli.build_parser().parse_args(run.argv))
        assert config.command == name
    assert make_run("table", 1) == make_run("table", 2)
    assert make_run("verify", 3).ops == 8 * 3 + 2
    assert make_run("model", -1).seeds == (2**32 - 1,)


def test_closed_forms_agree_with_the_program():
    for family, params in TABLE_MODELS + MODEL_MODELS:
        if family != "heisenberg":
            assert closed_form(family, params) == pytest.approx(closed_form_constants(family, params), rel=1e-15)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_reports_pass(reports, name):
    code, text = reports[name]
    assert code == 0
    assert check_document(SMALL[name], code, text) == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_crash_or_wrong_exit_code_fails_every_op(reports, name):
    run = SMALL[name]
    _, text = reports[name]
    assert check_document(run, 1, text) == run.ops
    assert check_document(run, None, "") == run.ops
    assert check_document(run, 0, text[: len(text) // 2]) == run.ops


def test_passed_flag_over_a_residual_above_tolerance_fails(reports):
    doc = json.loads(reports["verify"][1])
    entry = doc["suites"][3]
    entry["max_residual"] = 10 * entry["tolerance"]
    entry["passed"] = True
    assert check_document(SMALL["verify"], 0, json.dumps(doc)) == 1


def test_inflated_tolerance_fails(reports):
    doc = json.loads(reports["verify"][1])
    doc["suites"][0]["tolerance"] = float("inf")
    assert check_document(SMALL["verify"], 0, json.dumps(doc)) == 1


def test_kappa_shifted_by_1e_6_fails(reports):
    for name in ("table", "model"):
        doc = json.loads(reports[name][1])
        doc["models"][0]["kappa"] += 1e-6
        assert check_document(SMALL[name], 0, json.dumps(doc)) == 1


def test_suite_list_missing_one_entry_fails_the_run(reports):
    doc = json.loads(reports["verify"][1])
    del doc["suites"][2]
    run = SMALL["verify"]
    assert check_document(run, 0, json.dumps(doc)) == run.ops


def test_vacuous_verify_run_fails():
    run = SMALL["verify"]
    vacuous = Run("verify", seeds=run.seeds, dims=run.dims, trials=0)
    code, text = pherm_run(vacuous)
    assert code == 0  # the program accepts 0 trials; the benchmark must not
    assert check_document(run, code, text) == run.ops


def test_model_checks_sampled_curvature_and_space_form(reports):
    doc = json.loads(reports["model"][1])
    doc["models"][1]["curvature_ranges"]["complex_sectional"][1] = 1e-6
    doc["models"][0]["cm_norm2"] = 1e-12  # su(2,1) is a space form
    assert check_document(SMALL["model"], 0, json.dumps(doc)) == 2


def test_heisenberg_row_must_be_flat(reports):
    doc = json.loads(reports["table"][1])
    doc["models"][2]["status"] = "ok"
    assert check_document(SMALL["table"], 0, json.dumps(doc)) == 1


def test_benchmark_json_declares_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declaration_mismatches(declared) == []
    declared["per_layer"].pop()
    declared["end_to_end"][0]["unit"] = "ms"
    problems = declaration_mismatches(declared)
    assert len(problems) == 2


def test_a_crashed_child_gives_no_samples_and_fails_its_ops(reports):
    run = SMALL["table"]
    code, text = reports["table"]
    done = {"report": text, "failed": check_document(run, code, text), "solve_s": 2.0, "setup_s": 0.1,
            "peak_rss_mib": 60.0}
    crashed = {"report": None, "failed": run.ops}  # what `solve` keeps of a child that died at once
    result, samples = summarise(run, [crashed, done, crashed], [])
    assert samples["solve_s"] == [2.0] and samples["setup_s"] == [0.1]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["solve_s"] == 2.0 and values["setup_s"] == 0.1 and values["peak_rss_mib"] == 60.0
    assert result["attempted"] == 3 * run.ops and result["failed"] == 2 * run.ops
    assert result["correct"] is False


def test_a_report_unlike_the_first_fails_its_child(reports):
    run = SMALL["table"]
    code, text = reports["table"]
    children = [{"report": t, "failed": 0, "solve_s": 1.0, "setup_s": 0.1, "peak_rss_mib": 60.0}
                for t in (text, text + " ")]
    result, _ = summarise(run, children, [])
    assert result["failed"] == run.ops
