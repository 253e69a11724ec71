"""Reference constructions the tests check the package against."""

import math

import numpy as np

from qmsgap.config import SCHEMA_VERSION
from qmsgap.harness import CampaignConfig, CampaignReport, PropertyResult
from qmsgap.errors import FunctionDomainError, NotPSDError
from qmsgap.linalg import DEFAULT_TOL, Superoperator, dag, herm_eig, kron
from qmsgap.qms import DensityMatrix, FixedPointStructure, GKSLModel


def gns_gram_matrix(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of <x, y> = tr(x^H y rho): right multiplication by rho."""
    return kron(rho.rho.T, np.eye(rho.dim, dtype=complex))


def projector(fps: FixedPointStructure) -> Superoperator:
    """The d^2 x d^2 matrix of E = B R, formed from its rank-dim N factors."""
    return Superoperator(
        dim=math.isqrt(len(fps.columns)), matrix=fps.columns @ fps.coefficients
    )


def psd_function(a, g) -> np.ndarray:
    """U g(values) U^H for a positive semidefinite a = U diag(values) U^H.

    Eigenvalues inside the PSD tolerance band are clipped to zero before g
    is applied, so functions like sqrt never see round-off negatives; one
    below the band is a NotPSDError, and a non-finite g a FunctionDomainError.
    """
    eig = herm_eig(a)
    floor = -DEFAULT_TOL * max(1.0, float(np.abs(eig.values).max(initial=0.0)))
    if eig.values.min(initial=0.0) < floor:
        raise NotPSDError(f"matrix has eigenvalue {eig.values.min():.3e} below {floor:.3e}")
    with np.errstate(all="ignore"):
        gv = np.asarray(g(np.clip(eig.values, 0.0, None)), dtype=float)
    if not np.isfinite(gv).all():
        raise FunctionDomainError("scalar function non-finite on the spectrum")
    return (eig.vectors * gv) @ dag(eig.vectors)


def random_model_by_matrix(rng: np.random.Generator, dim: int) -> GKSLModel:
    """qms.random_model drawn one Ginibre matrix at a time: the real part
    and then the imaginary part of H, then the jump count, then each jump."""
    scale = 1.0 / np.sqrt(dim)

    def ginibre():
        return (
            (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            / np.sqrt(2.0)
            * scale
        )

    a = ginibre()
    h = (a + a.conj().T) / 2.0
    n_jumps = int(rng.integers(1, 4))
    return GKSLModel(hamiltonian=h, jumps=tuple(ginibre() for _ in range(n_jumps)))


def property_result(report: CampaignReport, name: str) -> PropertyResult:
    """The report's result for the property name."""
    for r in report.results:
        if r.name == name:
            return r
    raise KeyError(name)


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


def bkm_masked(t: np.ndarray) -> np.ndarray:
    """(t - 1) / log t by three masked branches: 0 at t = 0, the Taylor
    expansion 1 + s/2 - s^2/12 in s = t - 1 where |log t| < 1e-8, and the
    quotient elsewhere."""
    out = np.empty_like(t)
    zero = t == 0.0
    s = t - 1.0
    near_one = (~zero) & (np.abs(np.log(np.where(zero, 1.0, t))) < 1e-8)
    generic = ~(zero | near_one)
    out[zero] = 0.0
    sn = s[near_one]
    out[near_one] = 1.0 + sn / 2.0 - sn * sn / 12.0
    with np.errstate(divide="ignore"):
        out[generic] = s[generic] / np.log(t[generic])
    return out
