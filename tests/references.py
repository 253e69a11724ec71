"""Reference constructions the tests check the package against."""

import numpy as np

from qmsgap.config import SCHEMA_VERSION
from qmsgap.harness import CampaignConfig
from qmsgap.linalg import kron
from qmsgap.qms import DensityMatrix


def gns_gram_matrix(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of <x, y> = tr(x^H y rho): right multiplication by rho."""
    return kron(rho.rho.T, np.eye(rho.dim, dtype=complex))


def campaign_config_to_dict(cfg: CampaignConfig) -> dict:
    """The JSON document CampaignConfig.from_dict reads back as cfg."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "n_models": cfg.n_models,
        "dims": list(cfg.dims),
        "f_suite": [dict(d) for d in cfg.f_suite],
        "t_grid": list(cfg.t_grid),
        "tolerances": dict(cfg.tolerances),
        "counts": dict(cfg.counts),
        "model_override": cfg.model_override,
        "properties": list(cfg.properties),
    }
