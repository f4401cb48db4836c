"""Command-line front end: model reports, the constants table, verification.

Three subcommands:

  table   one row per requested model with computed and closed-form values
          of the curvature-norm constant and the lowest quadratic-form
          eigenvalue, plus their absolute differences;
  model   full invariant report per model (scalar curvature, Chern-Moser
          norm, pseudo-Einstein flag, sampled curvature ranges);
  verify  the randomized identity and operator-relation suites, exit code 0
          only if every suite passes at the configured tolerance.

Reports are deterministic JSON documents (schema_version "1"); floats are
serialized in full round-trip precision.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import hat, ricci_contraction
from .invariants import (
    first_bianchi_residual,
    full_curvature,
    invariants,
    scalar_curvature,
    torsion_curvature,
)
from .liemodels import (
    FAMILIES,
    OUT_OF_SCOPE_FAMILIES,
    build_model,
    c0_prime,
    closed_form_constants,
    kappa,
    model_curvature,
)
from .maps import canonical_Q, canonical_q_reference, identity_suite
from .spaces import make_space

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
        # a non-finite tolerance would pass (inf) or fail (nan) every suite
        # whatever the residuals, and zero trials would check nothing
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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
    row = {
        "family": family,
        "params": list(params),
        "d": model.d,
        "status": "ok",
    }
    rw = model_curvature(model)
    if model.flat:
        row.update({"status": "flat", "s": 0.0, "c0_prime": None, "kappa": kappa(rw)})
        return row
    row["s"] = scalar_curvature(rw)
    computed_c0 = c0_prime(rw)
    computed_kappa = kappa(rw)
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
    if not config.models:
        raise ValueError("the model command needs at least one --family/--params pair")
    if len(config.seeds) > 1:
        raise ValueError("the model command takes at most one --seed")
    blocks = []
    for family, params in config.models:
        model = build_model(family, tuple(params))
        rw = model_curvature(model)
        block = {
            "family": family,
            "params": list(params),
            "d": model.d,
            "flat": model.flat,
            "s": scalar_curvature(rw),
        }
        if model.flat:
            block.update({"pseudo_einstein": True, "cm_norm2": 0.0})
        elif model.d < 2:
            # the trace decomposition degenerates; rho is a multiple of
            # omega for dimension reasons, so the flag is trivially true
            block.update({"pseudo_einstein": True, "cm_norm2": None})
        else:
            rep = invariants(rw, samples=config.samples, seed=config.seeds[0])
            block.update(
                {
                    "pseudo_einstein": rep.pseudo_einstein,
                    "cm_norm2": rep.cm_norm2,
                    "c0_prime": c0_prime(rw) if abs(block["s"]) > 1e-12 else None,
                    "kappa": kappa(rw),
                    "curvature_ranges": {
                        "sectional": list(rep.sectional_range),
                        "holomorphic": list(rep.holomorphic_range),
                        "complex_sectional": list(rep.complex_sectional_range),
                    },
                }
            )
        blocks.append(block)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "model",
        "models": blocks,
        "suites": [],
    }


def _canonical_q_suite(tolerance: float) -> dict:
    """Exactness of the canonical tensor traces and Ricci multiples."""
    worst = 0.0
    trials = 0
    for d in (2, 3, 4):
        space = make_space(d, with_torsion=True)
        for variant in ("jminus", "jplus_primitive", "tau_jminus", "tau_jplus_primitive"):
            Q = canonical_Q(space, variant)
            ref_tr, ref_c = canonical_q_reference(variant, d)
            worst = max(worst, abs(hat(Q).trace - ref_tr))
            cvals = ricci_contraction(Q).entries
            worst = max(worst, float(np.max(np.abs(cvals - ref_c * space.g))))
            trials += 1
    return {
        "name": "canonical_q_constants",
        "trials": trials,
        "max_residual": worst,
        "tolerance": tolerance,
        "passed": bool(worst <= tolerance),
    }


def _bianchi_model_suite(tolerance: float) -> dict:
    """First Bianchi residual of the assembled torsion-model curvature."""
    worst = 0.0
    trials = 0
    for d in (2, 3):
        space = make_space(d, with_torsion=True)
        rw, _ = torsion_curvature(space, -2.0 * d)
        worst = max(worst, first_bianchi_residual(full_curvature(rw), space))
        trials += 1
    return {
        "name": "torsion_model_first_bianchi",
        "trials": trials,
        "max_residual": worst,
        "tolerance": tolerance,
        "passed": bool(worst <= tolerance),
    }


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
            for res in report.results:
                suites.append(
                    {
                        "name": f"{res.name}[d={d},d'={dp},seed={seed}]",
                        "trials": res.trials,
                        "max_residual": res.max_residual,
                        "tolerance": res.tolerance,
                        "passed": res.passed,
                    }
                )
    if not config.negative_control:
        suites.append(_canonical_q_suite(max(config.tolerance, 1e-12)))
        suites.append(_bianchi_model_suite(config.tolerance))
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
    for name in ("table", "model", "verify"):
        p = sub.add_parser(name)
        p.add_argument(
            "--family",
            action="append",
            default=[],
            help=f"model family, one of {FAMILIES + OUT_OF_SCOPE_FAMILIES}",
        )
        p.add_argument(
            "--params",
            action="append",
            default=[],
            help="comma-separated integer parameters, paired with --family in order",
        )
        p.add_argument("--seed", action="append", type=int, default=[])
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None)
        p.add_argument("--negative-control", action="store_true")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument(
            "--dims",
            action="append",
            default=[],
            help="source,target half-dimension pair for the verify suites",
        )
    return parser


def config_from_args(args) -> RunConfig:
    if len(args.family) != len(args.params):
        raise ValueError("--family and --params must be given in matching pairs")
    models = [[fam, list(_parse_params(par))] for fam, par in zip(args.family, args.params)]
    dims = [tuple(_parse_params(t)) for t in args.dims] or list(DEFAULT_VERIFY_DIMS)
    for pair in dims:
        if len(pair) != 2:
            raise ValueError("--dims expects pairs like 2,3")
    return RunConfig(
        command=args.command,
        models=models,
        seeds=args.seed or [0],
        samples=args.samples,
        tolerance=args.tol,
        output_path=args.out,
        negative_control=args.negative_control,
        dims=dims,
        trials=args.trials,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if config.command == "table":
            doc = cmd_table(config)
        elif config.command == "model":
            doc = cmd_model(config)
        else:
            doc = cmd_verify(config)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_document(doc)
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
