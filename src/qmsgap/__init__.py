"""Spectral-gap comparison for quantum Markov semigroups on M_d(C).

A faithful invariant state induces a family of inner products indexed by
operator monotone functions f with f(1) = 1 (GNS, KMS, BKM, the power
family and everything in between).  This package builds GKSL semigroups,
realizes the f-inner products through the modular weight matrix, computes
f-spectral gaps from the symmetrized generator on the decaying subspace,
and certifies by seeded randomized testing that the GNS gap lower-bounds
every f-gap, along with the surrounding structure (contractivity,
transpose symmetry of the gap, the power-curve shape, detailed-balance
collapse and the degenerate fixed-point variant).
"""

import importlib

from .errors import QmsGapError
from .gap import (
    GapCurve,
    GapReport,
    decaying_subspace,
    empirical_decay_rate,
    f_operator_norm,
    f_operator_norms,
    function_norms,
    function_sweeps,
    gap_curve,
    gap_curves,
    gap_sweep,
    spectral_gap_f,
)
from .linalg import Superoperator, choi_matrix, unvec, vec
from .metric import (
    FMetric,
    f_adjoint,
    f_gram,
    f_inner,
    f_metric,
    f_metric_table,
    f_metrics,
    loewner_order_probe,
    moreau_form,
)
from .monotone import (
    MonotoneFunction,
    anti_gns,
    bkm,
    check_om1_bounds,
    from_measure,
    gns,
    h_kernel,
    kms,
    power,
    transpose,
)
from .qms import (
    DensityMatrix,
    FixedPointStructure,
    GKSLModel,
    check_invariance,
    density_matrix,
    depolarizing_qubit,
    fixed_point_structure,
    fixed_point_structures,
    generator,
    invariant_state,
    random_faithful_model,
    random_faithful_models,
    random_model,
    semigroup,
    semigroups,
    thermal_qubit,
)

__version__ = "0.1.0"

# The campaign runner is loaded on first use: the gap and curve commands
# never need it, and a cold process compiles every module it imports.
_HARNESS_NAMES = frozenset(
    (
        "CampaignConfig",
        "CampaignReport",
        "acceptance_config",
        "degenerate_block_model",
        "detailed_balance_model",
        "random_detailed_balance",
        "run_campaign",
        "strict_gap_search",
    )
)


def __getattr__(name):
    if name == "harness" or name in _HARNESS_NAMES:
        harness = importlib.import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
