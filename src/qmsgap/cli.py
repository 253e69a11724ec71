"""Command-line front end: gap computation, power curves, campaign runs.

    qmsgap gap <model.json> --f <gns|anti-gns|kms|bkm|power:A|measure:PATH>
    qmsgap curve <model.json> --grid a:b:n
    qmsgap verify <campaign.json> [--seed N] [--out PATH]

All CSV goes to standard output (or the --out files) with '.' decimals,
newline line endings, unquoted fields, 17 significant digits (round-trip
exact for doubles) and the string "inf" for infinite gaps.  Exit codes are
a stable contract: 0 ok, 1 property failure, 2 model ill-posed, 3 input
error.  Diagnostics go to standard error; verbosity is controlled by the
QMSGAP_LOG environment variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .errors import (
    ConfigError,
    KernelDecisionError,
    NoFaithfulInvariantStateError,
    NonUniqueInvariantStateError,
    NotFaithfulError,
    QmsGapError,
)
from .gap import gap_curve, spectral_gap_f
from .metric import f_metric
from .qms import invariant_state

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_MODEL_ILL_POSED = 2
EXIT_INPUT_ERROR = 3

log = logging.getLogger("qmsgap")


def fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmsgap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gap_p = sub.add_parser("gap", help="gap of one model for one metric")
    gap_p.add_argument("config", help="model config JSON")
    gap_p.add_argument(
        "--f", default="kms", dest="f_spec",
        help="metric: gns|anti-gns|kms|bkm|power:ALPHA|measure:PATH",
    )

    curve_p = sub.add_parser("curve", help="power-family gap curve")
    curve_p.add_argument("config", help="model config JSON")
    curve_p.add_argument(
        "--grid", default="0:1:11",
        help="alpha grid as start:stop:count with 0 <= start <= stop <= 1",
    )

    verify_p = sub.add_parser("verify", help="run a property campaign")
    verify_p.add_argument("config", help="campaign config JSON")
    verify_p.add_argument("--seed", type=int, default=None,
                          help="override the config seed")
    verify_p.add_argument("--out", default=None,
                          help="write the text report here (CSV alongside)")
    return parser


def _configure_logging():
    level = os.environ.get("QMSGAP_LOG", "warn").lower()
    mapping = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr, format="qmsgap: %(levelname)s: %(message)s"
    )
    log.setLevel(mapping.get(level, logging.WARNING))


def _load_model(path):
    model, rho = cfgmod.model_from_dict(cfgmod.load_json(path))
    return model, invariant_state(model) if rho is None else rho


def cmd_gap(args) -> int:
    f = cfgmod.parse_f_spec(args.f_spec)
    model, rho = _load_model(args.config)
    metric = f_metric(rho, f)
    report = spectral_gap_f(model, rho, metric)

    alpha = "" if f.kind != "power" else fmt(f.alpha)
    min_spectrum = (
        math.inf if report.spectrum.size == 0 else float(report.spectrum[0])
    )
    residual = max(report.residuals.values(), default=0.0)
    sys.stdout.write("f,alpha,lambda,kernel_dim,min_spectrum,residual\n")
    sys.stdout.write(
        f"{f.kind},{alpha},{fmt(report.lambda_f)},{report.kernel_dim},"
        f"{fmt(min_spectrum)},{fmt(residual)}\n"
    )
    return EXIT_OK


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc
    if not (0.0 <= start <= stop <= 1.0):
        raise ConfigError(f"grid range must satisfy 0 <= start <= stop <= 1: {spec!r}")
    if count < 1 or (count == 1 and start != stop):
        raise ConfigError(f"grid count must fit the range: {spec!r}")
    if count == 1:
        return [start]
    return [start + (stop - start) * k / (count - 1) for k in range(count)]


def cmd_curve(args) -> int:
    alphas = _parse_grid(args.grid)
    model, rho = _load_model(args.config)
    curve = gap_curve(model, rho, alphas)

    sys.stdout.write("alpha,lambda,symmetry_defect,monotonicity_defect\n")
    for alpha, lam in curve.points:
        sys.stdout.write(f"{fmt(alpha)},{fmt(lam)},,\n")
    sys.stdout.write(
        f",,{fmt(curve.symmetry_defect)},{fmt(curve.monotonicity_defect)}\n"
    )
    if not (curve.symmetric and curve.monotone):
        log.warning(
            "curve structure violated: symmetry defect %s, monotonicity "
            "defect %s, tolerance %s",
            fmt(curve.symmetry_defect), fmt(curve.monotonicity_defect),
            fmt(curve.tolerance),
        )
    return EXIT_OK


def _write(path: Path, text: str) -> None:
    """Write text to path: ConfigError (exit 3) naming it if that fails."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_verify(args) -> int:
    # imported here: gap and curve never need the campaign runner, and a
    # cold process compiles every module it imports
    from .harness import CampaignConfig, run_campaign

    doc = cfgmod.load_json(args.config)
    cfg = CampaignConfig.from_dict(doc, seed=args.seed)
    log.info("running campaign seed=%d n_models=%d", cfg.seed, cfg.n_models)
    report = run_campaign(cfg)

    text = report.render_text()
    if args.out is not None:
        out = Path(args.out)
        _write(out, text)
        _write(Path(str(out) + ".csv"), report.to_csv())
        sys.stdout.write(f"report written to {out}\n")
    else:
        sys.stdout.write(text)

    if not report.all_passed:
        counter_path = (
            Path(str(args.out) + ".counterexamples.json")
            if args.out is not None
            else Path("qmsgap_counterexamples.json")
        )
        _write(counter_path, json.dumps(report.counterexamples(), indent=2))
        sys.stdout.write(f"counterexamples written to {counter_path}\n")
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gap":
            return cmd_gap(args)
        if args.command == "curve":
            return cmd_curve(args)
        return cmd_verify(args)
    except ConfigError as exc:
        sys.stderr.write(f"qmsgap: input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (
        KernelDecisionError,
        NoFaithfulInvariantStateError,
        NonUniqueInvariantStateError,
        NotFaithfulError,
    ) as exc:
        sys.stderr.write(f"qmsgap: model ill-posed: {exc}\n")
        return EXIT_MODEL_ILL_POSED
    except QmsGapError as exc:
        sys.stderr.write(f"qmsgap: error: {exc}\n")
        return EXIT_PROPERTY_FAILURE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
