"""The benchmark workloads: the `pherm` argv each one runs, and the checks
that decide, op by op, whether the report it printed is correct.

Each workload is one `pherm` command.  Its ops are the units the report is
checked in: one per table row, one per model block, one per verify suite
entry.  The reference constants are written out here from the paper's
closed forms, so the checks do not trust the program under test.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

REL_TOL = 1e-8  # constants vs closed form (acceptance criterion 1)
MAX_COMPLEX_SECTIONAL = 1e-9  # nonpositive complex sectional curvature (criterion 9)
MAX_SPACE_FORM_CM_NORM2 = 1e-18  # su(d,1) has no Chern-Moser part (criterion 3)
VERIFY_TOL = 1e-9  # the verify command's default tolerance
IDENTITIES_PER_SUITE = 8
FIXED_SUITES = 2  # canonical_q_constants and torsion_model_first_bianchi

# the nine default rows of `pherm table`, then larger members of the same
# families, up to d = 12 (grids of side n = 2d = 24)
TABLE_MODELS = (
    ("su_pq", (2, 1)),
    ("su_pq", (2, 2)),
    ("su_pq", (3, 1)),
    ("sp_p_R", (2,)),
    ("sp_p_R", (3,)),
    ("so_p_2", (3,)),
    ("so_p_2", (4,)),
    ("so_star_2p", (4,)),
    ("heisenberg", (3,)),
    ("su_pq", (3, 3)),
    ("sp_p_R", (4,)),
    ("so_p_2", (8,)),
    ("so_star_2p", (5,)),
    ("su_pq", (4, 3)),
)

# mid-size models, d = 2, 4, 6, 6: a child takes about 2 s, so a run holds
# some 15 of them, and over 80 % of it is sampling.  so(8,2) (d = 8) alone
# would take longer than these four and spends less of its time sampling.
MODEL_MODELS = (
    ("su_pq", (2, 1)),
    ("su_pq", (2, 2)),
    ("sp_p_R", (3,)),
    ("su_pq", (3, 2)),
)
MODEL_SAMPLES = 1000

VERIFY_DIMS = ((2, 2), (2, 3), (3, 3))  # the README's default dims
# a child takes about 2 s, so a run holds some 15 of them; the work per
# trial, and so the mix of kernels, does not depend on the trial count
VERIFY_TRIALS = 10

WORKLOADS = ("table", "model", "verify")


def closed_form(family: str, params) -> tuple[float, float]:
    """(c0_prime, kappa) of a family member, from the paper's table."""
    if family == "su_pq":
        p, q = params
        return float(Fraction(p * q + 1, (p + q) ** 2)), float(Fraction(-1, p + q))
    if family == "sp_p_R":
        (p,) = params
        return float(Fraction(1, 4) + Fraction(3 + p, 4 * (p + 1) ** 2)), float(Fraction(-1, p + 1))
    if family == "so_p_2":
        (p,) = params
        return float(Fraction(3, 2 * p) - Fraction(1, p * p)), float(Fraction(-1, p))
    if family == "so_star_2p":
        (p,) = params
        return float(Fraction(1, 4) + Fraction(3 - p, 4 * (p - 1) ** 2)), float(Fraction(-1, 2 * (p - 1)))
    raise ValueError(f"no closed form for {family!r}")


@dataclass(frozen=True)
class Run:
    """One `pherm` command of a workload, with what its checks need."""

    command: str
    models: tuple = ()
    seeds: tuple = ()
    dims: tuple = ()
    trials: int = 0

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        if self.command == "model":
            argv += ["--samples", str(MODEL_SAMPLES)]
        for seed in self.seeds:
            argv += ["--seed", str(seed)]
        if self.command == "verify":
            argv += ["--trials", str(self.trials)]
        for d, dp in self.dims:
            argv += ["--dims", f"{d},{dp}"]
        for family, params in self.models:
            argv += ["--family", family, "--params", ",".join(map(str, params))]
        return argv

    @property
    def ops(self) -> int:
        if self.command == "verify":
            return IDENTITIES_PER_SUITE * len(self.dims) * len(self.seeds) + FIXED_SUITES
        return len(self.models)


def make_run(workload: str, seed: int) -> Run:
    """The run of a workload for a seed; `table` has no randomness and ignores it."""
    pherm_seed = seed % 2**32  # `pherm` takes non-negative seeds
    if workload == "table":
        return Run("table", models=TABLE_MODELS)
    if workload == "model":
        return Run("model", models=MODEL_MODELS, seeds=(pherm_seed,))
    if workload == "verify":
        return Run("verify", seeds=(pherm_seed,), dims=VERIFY_DIMS, trials=VERIFY_TRIALS)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(value, ref: float) -> bool:
    return _num(value) and abs(value - ref) <= REL_TOL * abs(ref)


def _table_row_ok(row: dict, family: str, params: tuple) -> bool:
    if row.get("family") != family or tuple(row.get("params", ())) != params:
        return False
    if family == "heisenberg":
        return row.get("status") == "flat"
    c0, kap = closed_form(family, params)
    return row.get("status") == "ok" and _close(row.get("c0_prime"), c0) and _close(row.get("kappa"), kap)


def _model_block_ok(block: dict, family: str, params: tuple) -> bool:
    if block.get("family") != family or tuple(block.get("params", ())) != params:
        return False
    c0, kap = closed_form(family, params)
    ranges = block.get("curvature_ranges") or {}
    cs = ranges.get("complex_sectional") or [None, None]
    ok = (
        block.get("pseudo_einstein") is True
        and _close(block.get("c0_prime"), c0)
        and _close(block.get("kappa"), kap)
        and _num(cs[1])
        and cs[1] <= MAX_COMPLEX_SECTIONAL
    )
    if family == "su_pq" and params[1] == 1:
        cm = block.get("cm_norm2")
        ok = ok and _num(cm) and cm <= MAX_SPACE_FORM_CM_NORM2
    return ok


_SUITE_LABEL = re.compile(r"\[d=(\d+),d'=(\d+),seed=(\d+)\]$")


def _verify_shape_ok(suites: list, run: Run) -> bool:
    """Exactly 8 identity entries per (dims, seed), each with the requested
    trial count, plus the two fixed suites; a run with 0 trials fails here."""
    per_key = {}
    fixed = 0
    for entry in suites:
        if not isinstance(entry, dict):
            return False
        match = _SUITE_LABEL.search(str(entry.get("name", "")))
        if match is None:
            trials = entry.get("trials")
            fixed += _num(trials) and trials >= 1
            continue
        if entry.get("trials") != run.trials:
            return False
        key = tuple(int(x) for x in match.groups())
        per_key[key] = per_key.get(key, 0) + 1
    wanted = {(d, dp, s): IDENTITIES_PER_SUITE for s in run.seeds for d, dp in run.dims}
    return per_key == wanted and fixed == FIXED_SUITES


def _suite_entry_ok(entry: dict) -> bool:
    resid, tol = entry.get("max_residual"), entry.get("tolerance")
    return (
        entry.get("passed") is True
        and _num(resid)
        and _num(tol)
        and tol <= VERIFY_TOL
        and resid <= tol
    )


def check_document(run: Run, exit_code, text) -> int:
    """The number of failed ops (of `run.ops`) of one `pherm` run.

    A crash, a nonzero exit code, an unparsable document or a document with
    the wrong number of entries fails every op of the run.
    """
    try:
        doc = json.loads(text) if exit_code == 0 and text else None
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or doc.get("command") != run.command:
        return run.ops
    if run.command == "verify":
        suites = doc.get("suites")
        if not isinstance(suites, list) or len(suites) != run.ops or not _verify_shape_ok(suites, run):
            return run.ops
        return sum(not _suite_entry_ok(entry) for entry in suites)
    items = doc.get("models")
    if not isinstance(items, list) or len(items) != run.ops or not all(isinstance(i, dict) for i in items):
        return run.ops
    ok = _table_row_ok if run.command == "table" else _model_block_ok
    return sum(not ok(item, family, params) for item, (family, params) in zip(items, run.models))
