"""Tests of the span tracer: self-time arithmetic, counts, restoring every
wrapped name, and reports that tracing leaves byte-identical.

    python3 -m pytest perfbench/tests/bench_checks.py perfbench/tests/bench_tracer.py
"""
import contextlib
import io
import os
import sys
from collections import Counter

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pherm.cli  # noqa: E402
import pherm.spaces  # noqa: E402
from run import per_layer_metrics  # noqa: E402
from tracer import Operand, Span, Tracer, einsum_costs, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        Span(0, 0.0, 10.0, -1, False),
        Span(1, 1.0, 4.0, 0, False),
        Span(2, 2.0, 3.0, 1, False),
        Span(1, 5.0, 9.0, 0, False),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_give_calls_self_time_and_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(fail=False):
        if fail:
            raise ValueError("leaf")

    def parent():
        leaf()
        with pytest.raises(ValueError):
            leaf(fail=True)

    leaf = tracer.wrap(leaf, "mod.leaf")
    parent = tracer.wrap(parent, "mod.parent")
    parent()
    # parent [0, 5] holds leaf [1, 2] and the raising leaf [3, 4]
    metrics = tracer.metrics()
    assert metrics["mod.parent.calls"] == 1 and metrics["mod.parent.self_s"] == 3.0
    assert metrics["mod.leaf.calls"] == 2 and metrics["mod.leaf.self_s"] == 2.0
    assert metrics["mod.leaf.errors"] == 1 and metrics["mod.parent.errors"] == 0
    assert metrics["mod.calls"] == 3 and metrics["mod.self_s"] == 5.0
    assert tracer._stack == [-1]


def test_einsum_costs_count_flops_and_bytes():
    key = (("ij,jk->ik", Operand((2, 3), "<f8"), Operand((3, 4), "<f8")), False, Operand((2, 4), "<f8"))
    flops, nbytes = einsum_costs(Counter({key: 3}))
    assert nbytes == 3 * (6 + 12 + 8) * 8
    _, report = np.einsum_path("ij,jk->ik", np.ones((2, 3)), np.ones((3, 4)), optimize=False)
    assert "Optimized FLOP count:  4.900e+01" in report
    assert flops == 3 * 49.0


def _bindings():
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "pherm" or name.startswith("pherm."):
            found.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    found["np.einsum"] = np.einsum
    found["Curv4.__post_init__"] = pherm.spaces.Curv4.__post_init__
    return found


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pherm.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--family", "su_pq", "--params", "2,1", "--family", "heisenberg", "--params", "2"],
        ["model", "--samples", "20", "--family", "su_pq", "--params", "2,1"],
        ["verify", "--trials", "2", "--dims", "2,2"],
    ],
)
def test_traced_run_is_byte_identical_and_restores_every_name(argv):
    before = _bindings()
    plain = _main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        assert pherm.cli.hat is not before[("pherm.cli", "hat")]
        assert np.einsum is not before["np.einsum"]
        traced = _main(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = tracer.metrics()
    declared = set(per_layer_metrics()) - {"trace_overhead_frac"}
    assert declared <= metrics.keys()
    assert metrics["cli.main.calls"] == 1
    assert metrics["numpy.einsum.calls"] > 0 and metrics["numpy.einsum.flops"] > 0
    if argv[0] == "verify":
        assert metrics["maps.identity_suite.trials"] == 8 * 2
        assert metrics["spaces.random_curv4.projections"] > 0
        assert 0 < metrics["algebra.canonical_tensors.repeat_frac"] < 1
