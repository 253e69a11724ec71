#!/usr/bin/env python3
"""Transverse-drive sweep on a thermal qubit: how the gap family spreads.

Usage: python scripts/drive_sweep.py [--gamma-up G] [--gamma-down G]
                                     [--omega-max W] [--steps N]

With no drive the thermal qubit is detailed balanced and every f-gap
equals (gamma_up + gamma_down)/2.  A transverse field H = omega sigma_x
does not commute with the invariant state, the restricted generator
becomes non-normal in the state geometry, and the gaps separate: the GNS
gap drops below the KMS gap.  Emits CSV omega,lambda_gns,lambda_kms,
lambda_bkm,ratio on standard output.
"""

import argparse
import sys

import numpy as np

from qmsgap.gap import gap_sweep
from qmsgap.metric import f_metrics
from qmsgap.monotone import bkm, gns, kms
from qmsgap.qms import SIGMA_X, GKSLModel, invariant_state, thermal_qubit


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma-up", type=float, default=0.25)
    parser.add_argument("--gamma-down", type=float, default=1.0)
    parser.add_argument("--omega-max", type=float, default=2.0)
    parser.add_argument("--steps", type=int, default=21)
    args = parser.parse_args()

    jumps = thermal_qubit(args.gamma_up, args.gamma_down).jumps
    print("omega,lambda_gns,lambda_kms,lambda_bkm,ratio")
    for omega in np.linspace(0.0, args.omega_max, args.steps):
        model = GKSLModel(hamiltonian=omega * SIGMA_X, jumps=jumps)
        rho = invariant_state(model)
        metrics = f_metrics(rho, (gns(), kms(), bkm()))
        lam = {r.f_label: r.lambda_f for r in gap_sweep(model, rho, metrics)}
        ratio = (lam["kms"] - lam["gns"]) / lam["gns"]
        print(
            f"{omega:.17g},{lam['gns']:.17g},{lam['kms']:.17g},"
            f"{lam['bkm']:.17g},{ratio:.17g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
