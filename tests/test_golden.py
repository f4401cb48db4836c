"""Report-equality gate: rerun fixed `pherm` command lines and compare each
report with a committed golden copy.

Each file in `tests/golden/` holds the argv, the exit code and the parsed
JSON report of one run.  A rerun must give the same exit code, the same
structure and the same non-float values, and every float within
1e-12 * max(1, |a|, |b|).  To rewrite the golden files from the package on
the path, run `python tests/test_golden.py [NAME ...]`; with no names it
rewrites every file.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pherm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "table": ["table"],
    # the larger rows of the benchmark's table workload, d = 9 to 12
    "table_large": [
        "table", "--family", "su_pq", "--params", "3,3", "--family", "sp_p_R", "--params", "4",
        "--family", "so_p_2", "--params", "8", "--family", "so_star_2p", "--params", "5",
        "--family", "su_pq", "--params", "4,3",
    ],
    "model": [
        "model", "--family", "su_pq", "--params", "2,1",
        "--family", "sp_p_R", "--params", "2", "--samples", "50",
    ],
    # the flat block and the d = 1 blocks, which have no trace decomposition
    "model_small": [
        "model", "--family", "heisenberg", "--params", "2", "--family", "su_pq", "--params", "1,1",
        "--family", "sp_p_R", "--params", "1", "--family", "so_star_2p", "--params", "4",
    ],
    # the benchmark's model workload at seed 7: 1000 samples at d = 2, 4, 6, 6
    "model_bench": [
        "model", "--samples", "1000", "--seed", "7", "--family", "su_pq", "--params", "2,1",
        "--family", "su_pq", "--params", "2,2", "--family", "sp_p_R", "--params", "3",
        "--family", "su_pq", "--params", "3,2",
    ],
    "verify": ["verify", "--trials", "3"],
    "verify_negative_control": ["verify", "--trials", "2", "--negative-control"],
    # the benchmark's verify workload at seed 7: 10 trials at its three dim pairs
    "verify_bench": [
        "verify", "--seed", "7", "--trials", "10", "--dims", "2,2", "--dims", "2,3", "--dims", "3,3",
    ],
    # larger grids, n' = 16 at (6, 8), where the suite evaluates more than one block
    "verify_large": ["verify", "--trials", "4", "--dims", "4,5", "--dims", "6,8"],
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code, "report": json.loads(out.getvalue())}


def mismatches(a, b, path="$"):
    """Paths at which two parsed reports differ beyond float round-off."""
    if isinstance(a, float) and isinstance(b, float):
        ok = abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
        return [] if ok else [f"{path}: {a!r} != {b!r}"]
    if type(a) is not type(b):
        return [f"{path}: {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        return [m for k in a for m in mismatches(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [m for i, (x, y) in enumerate(zip(a, b)) for m in mismatches(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def test_mismatches_flags_each_kind_of_difference():
    assert mismatches({"x": [1.0, "a", 2]}, {"x": [1.0 + 1e-13, "a", 2]}) == []
    assert mismatches(1e6, 1e6 * (1 + 1e-13)) == []
    assert mismatches(1.0, 1.0 + 1e-11)
    assert mismatches(1, 1.0)
    assert mismatches(True, 1)
    assert mismatches({"a": 1}, {"b": 1})
    assert mismatches([1.0], [1.0, 2.0])
    assert mismatches("ok", "flat")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == RUNS[name]
    assert mismatches(run(RUNS[name]), golden) == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or RUNS:
        text = json.dumps(run(RUNS[name]), indent=1, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n", encoding="utf-8")
