#!/usr/bin/env python3
"""Scan random GKSL models for strict KMS > GNS gap separation.

Usage: python scripts/strict_gap_scan.py [--seed N] [--draws N] [--dims 2,3]

Prints the best absolute margin lambda_kms - lambda_gns found, its
relative size, and the serialized model so the find replays standalone.
Detailed-balanced generators collapse the whole gap family, so any
positive margin demonstrates genuine non-normality of the restricted
generator across the metric family.
"""

import argparse
import json
import sys

from qmsgap.errors import ConfigError
from qmsgap.harness import CampaignConfig, _check_dims, strict_gap_search


def dims_list(spec: str) -> tuple[int, ...]:
    """The comma-separated dimensions of --dims, checked as a campaign's dims."""
    dims = tuple(int(d) for d in spec.split(","))
    try:
        _check_dims(dims)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {spec!r}") from exc
    return dims


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--dims", type=dims_list, default=(2, 3))
    args = parser.parse_args()

    cfg = CampaignConfig(seed=args.seed, counts={"strict_gap": args.draws})
    result = strict_gap_search(cfg, dims=args.dims)

    print(f"draws: {result.n_draws}   rejected: {result.n_rejected}")
    print(f"best margin  lambda_kms - lambda_gns = {result.best_margin:.6g}")
    print(f"             relative to lambda_gns  = {result.best_ratio:.6g}")
    print(f"largest relative separation observed = {result.max_ratio:.6g}")
    print(f"target (margin > 1e-3 lambda_gns) met: {result.found}")
    if result.best_model is not None:
        print("\nbest model (replayable config):")
        print(json.dumps(result.best_model, indent=2))
    return 0 if result.found else 1


if __name__ == "__main__":
    sys.exit(main())
