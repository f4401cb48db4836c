"""Command-line front end: model reports, the constants table, verification.

Three subcommands:

  table   one row per requested model with computed and closed-form values
          of the curvature-norm constant and the lowest quadratic-form
          eigenvalue, plus their absolute differences;
  model   full invariant report per model (scalar curvature, Chern-Moser
          norm, pseudo-Einstein flag, sampled curvature ranges);
  verify  the randomized identity and operator-relation suites, exit code 0
          only if every suite passes at the configured tolerance.

Exit codes: 0 success, 1 a verify suite failed, 2 a rejected argument (all
are decided before any model is built) or an unwritable --out, 3 any failure
once the arguments are accepted: a crash, its traceback on stderr, no report.

Reports are deterministic JSON documents (schema_version "1"); floats are
serialized in full round-trip precision.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import hat, ricci_contraction
from .invariants import (
    check_sample_count,
    first_bianchi_residual,
    full_curvature,
    invariants,
    sample_curvatures,
    torsion_curvature,
)
from .liemodels import (
    FAMILIES,
    OUT_OF_SCOPE_FAMILIES,
    build_model,
    check_family,
    closed_form_constants,
    model_constants,
    model_curvature,
)
from .maps import Q_VARIANTS, IdentityResult, canonical_Q, canonical_q_reference, check_suite, fold_residuals
from .maps import identity_suite
from .spaces import check_seed, make_space

SCHEMA_VERSION = "1"

DEFAULT_TABLE_MODELS = (
    ("su_pq", (2, 1)),
    ("su_pq", (2, 2)),
    ("su_pq", (3, 1)),
    ("sp_p_R", (2,)),
    ("sp_p_R", (3,)),
    ("so_p_2", (3,)),
    ("so_p_2", (4,)),
    ("so_star_2p", (4,)),
    ("heisenberg", (3,)),
)

DEFAULT_VERIFY_DIMS = ((2, 2), (2, 3), (3, 3))

TABLE_FAMILIES = FAMILIES + OUT_OF_SCOPE_FAMILIES  # model builds only the FAMILIES


@dataclass
class RunConfig:
    command: str
    models: list = field(default_factory=list)  # (family, params) pairs
    seeds: list = field(default_factory=lambda: [0])
    samples: int = 1000
    tolerance: float = 1e-9
    output_path: str | None = None
    negative_control: bool = False
    dims: list = field(default_factory=lambda: list(DEFAULT_VERIFY_DIMS))
    trials: int = 100

    def __post_init__(self):
        # every argument is decided here, by the rules of the modules that
        # own them, so a failure once a command runs is a fault, not bad input
        for family, params in self.models:
            if self.command != "table" or family in FAMILIES:
                check_family(family, params)
            elif family not in OUT_OF_SCOPE_FAMILIES:  # table also lists their closed forms
                raise ValueError(f"unknown family {family!r}; supported: {TABLE_FAMILIES}")
        if self.command == "model" and not self.models:
            raise ValueError("the model command needs at least one --family/--params pair")
        if self.command == "model" and len(self.seeds) > 1:
            raise ValueError("the model command takes at most one --seed")
        for seed in self.seeds:
            check_seed(seed, "--seed")
        check_suite(self.trials, self.tolerance, *self.dims)
        check_sample_count(self.samples)


def _table_row(family, params):
    if family in OUT_OF_SCOPE_FAMILIES:
        ref_c0, ref_kappa = closed_form_constants(family, params or ())
        return {
            "family": family,
            "params": list(params or ()),
            "status": "out_of_scope",
            "c0_prime_closed_form": ref_c0,
            "kappa_closed_form": ref_kappa,
        }
    model = build_model(family, params)
    s, computed_c0, computed_kappa = model_constants(model)  # from the curvature's factor, no grid
    row = {
        "family": family,
        "params": list(params),
        "d": model.d,
        "status": "flat" if model.flat else "ok",
        "s": s,  # exactly 0.0 on the flat model, whose K[l, l] is 0
    }
    if model.flat:
        return {**row, "c0_prime": None, "kappa": computed_kappa}
    ref_c0, ref_kappa = closed_form_constants(family, params)
    row.update(
        {
            "c0_prime": computed_c0,
            "kappa": computed_kappa,
            "c0_prime_closed_form": ref_c0,
            "kappa_closed_form": ref_kappa,
            "c0_prime_abs_diff": abs(computed_c0 - ref_c0),
            "kappa_abs_diff": abs(computed_kappa - ref_kappa),
        }
    )
    return row


def cmd_table(config: RunConfig) -> dict:
    models = config.models or [list(m) for m in DEFAULT_TABLE_MODELS]
    rows = [_table_row(family, tuple(params)) for family, params in models]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "table",
        "models": rows,
        "suites": [],
    }


def cmd_model(config: RunConfig) -> dict:
    blocks = []
    for family, params in config.models:
        model = build_model(family, tuple(params))
        block = {
            "family": family,
            "params": list(params),
            "d": model.d,
            "flat": model.flat,
        }
        if model.d < 2:
            # the trace decomposition degenerates; rho is a multiple of
            # omega for dimension reasons, so the flag is trivially true
            cm_norm2 = 0.0 if model.flat else None
            block.update({"s": model_constants(model)[0], "pseudo_einstein": True, "cm_norm2": cm_norm2})
        else:
            # the grid serves the trace decomposition and the sampling; c0' and kappa
            # are read from the factor, as in `table`
            rw = model_curvature(model)
            rep = invariants(rw)
            block.update(
                {"s": rep.scalar, "pseudo_einstein": rep.pseudo_einstein, "cm_norm2": rep.cm_norm2}
            )
            if not model.flat:
                ranges = sample_curvatures(rw, config.samples, config.seeds[0])
                _, computed_c0, computed_kappa = model_constants(model)
                block.update(
                    {
                        # s < 0 here: beta is negative definite on l, which holds [p, p] != 0
                        "c0_prime": computed_c0,
                        "kappa": computed_kappa,
                        "curvature_ranges": {name: list(r) for name, r in ranges.items()},
                    }
                )
        blocks.append(block)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "model",
        "models": blocks,
        "suites": [],
    }


def _canonical_q_suite(tolerance: float) -> IdentityResult:
    """Exactness of the canonical tensor traces and Ricci multiples."""
    residuals = []
    for d in (2, 3, 4):
        space = make_space(d, with_torsion=True)
        for variant in Q_VARIANTS:
            Q = canonical_Q(space, variant)
            ref_tr, ref_c = canonical_q_reference(variant, d)
            cvals = ricci_contraction(Q).entries
            residuals.append((abs(hat(Q).trace - ref_tr), np.max(np.abs(cvals - ref_c * space.g))))
    return fold_residuals("canonical_q_constants", residuals, tolerance)


def _bianchi_model_suite(tolerance: float) -> IdentityResult:
    """First Bianchi residual of the assembled torsion-model curvature."""
    residuals = []
    for d in (2, 3):
        space = make_space(d, with_torsion=True)
        rw, _ = torsion_curvature(space)
        residuals.append(first_bianchi_residual(full_curvature(rw)))
    return fold_residuals("torsion_model_first_bianchi", residuals, tolerance)


def cmd_verify(config: RunConfig) -> dict:
    suites = []
    for seed in config.seeds:
        for d, dp in config.dims:
            report = identity_suite(
                d,
                dp,
                seed=seed,
                trials=config.trials,
                tolerance=config.tolerance,
                negative_control=config.negative_control,
            )
            suites.extend(
                {**asdict(res), "name": f"{res.name}[d={d},d'={dp},seed={seed}]"}
                for res in report.results
            )
    if not config.negative_control:
        suites.append(asdict(_canonical_q_suite(max(config.tolerance, 1e-12))))
        suites.append(asdict(_bianchi_model_suite(config.tolerance)))
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "models": [],
        "suites": suites,
    }


def render_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_params(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.replace("(", "").replace(")", "").split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pherm",
        description="curvature models, constants table and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an undeclared flag is absent from the namespace, so its RunConfig
    # field keeps the default; a flag a command does not read is an error
    table, model, verify = (
        sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for name in ("table", "model", "verify")
    )
    for p, families in ((table, TABLE_FAMILIES), (model, FAMILIES)):
        p.add_argument("--family", action="append", help=f"model family, one of {families}")
        p.add_argument(
            "--params",
            action="append",
            help="comma-separated integer parameters, paired with --family in order",
        )
    for p in (model, verify):
        p.add_argument("--seed", dest="seeds", metavar="SEED", action="append", type=int)
    model.add_argument("--samples", type=int)
    verify.add_argument("--tol", dest="tolerance", metavar="TOL", type=float)
    verify.add_argument("--trials", type=int)
    verify.add_argument(
        "--dims",
        action="append",
        help="source,target half-dimension pair for the verify suites",
    )
    verify.add_argument("--negative-control", action="store_true")
    for p in (table, model, verify):
        p.add_argument("--out", dest="output_path", metavar="OUT")
    return parser


def config_from_args(args) -> RunConfig:
    fields = dict(vars(args))
    families, params = fields.pop("family", []), fields.pop("params", [])
    if len(families) != len(params):
        raise ValueError("--family and --params must be given in matching pairs")
    fields["models"] = [[fam, list(_parse_params(par))] for fam, par in zip(families, params)]
    if "dims" in fields:
        fields["dims"] = [tuple(_parse_params(t)) for t in fields["dims"]]
        if any(len(pair) != 2 for pair in fields["dims"]):
            raise ValueError("--dims expects pairs like 2,3")
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = {"table": cmd_table, "model": cmd_model, "verify": cmd_verify}[config.command](config)
        text = render_document(doc)
    except Exception:  # the input is accepted, so this is a crash, never a verdict (0 passed, 1 failed)
        traceback.print_exc()
        return 3

    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if config.command == "verify":
        if not all(s["passed"] for s in doc["suites"]):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
