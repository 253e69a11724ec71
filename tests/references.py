"""Reference constructions the tests check the package against."""

import math

import numpy as np

from qmsgap.config import SCHEMA_VERSION
from qmsgap.harness import CampaignConfig, CampaignReport, PropertyResult
from qmsgap.errors import FunctionDomainError, NotPSDError
from qmsgap.linalg import DEFAULT_TOL, Superoperator, dag, herm_eigs, kron
from qmsgap.qms import DensityMatrix, FixedPointStructure, GKSLModel, generator


def gns_gram_matrix(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of <x, y> = tr(x^H y rho): right multiplication by rho."""
    return kron(rho.rho.T, np.eye(rho.dim, dtype=complex))


def with_generator(model: GKSLModel, matrix: np.ndarray) -> GKSLModel:
    """A fresh copy of model that keeps the map `matrix` as its generator,
    unchecked: a model whose one generator is foreign to its H and jumps."""
    twin = GKSLModel(hamiltonian=model.hamiltonian, jumps=model.jumps)
    object.__setattr__(twin, "_generator", Superoperator(dim=model.dim, matrix=matrix))
    return twin


def solved_for(
    fps: FixedPointStructure, model: GKSLModel, rho: DensityMatrix
) -> FixedPointStructure:
    """fps marked as solved for model and rho, unchecked: the one-model gap
    routines then take as the model's own an E foreign to its generator or
    to rho."""
    object.__setattr__(fps, "_solved_for", (generator(model), rho))
    return fps


def gksl_generator_matrix(model: GKSLModel) -> np.ndarray:
    """L(x) = i [H, x] + sum_j (V_j^H x V_j - {V_j^H V_j, x} / 2) of one model
    in column-stacking coordinates, term by term: vec(a x b) is
    (b^T (x) a) vec(x), each term one 2-D np.kron, the jumps in turn."""
    eye = np.eye(model.dim, dtype=complex)
    h = model.hamiltonian
    mat = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in model.jumps:
        v_h = v.conj().T
        v_h_v = v_h @ v
        mat += np.kron(v.T, v_h)
        mat -= 0.5 * (np.kron(eye, v_h_v) + np.kron(v_h_v.T, eye))
    return mat


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
    (values,), (vectors,), _ = herm_eigs(np.asarray(a, dtype=complex)[None])
    floor = -DEFAULT_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))
    if values.min(initial=0.0) < floor:
        raise NotPSDError(f"matrix has eigenvalue {values.min():.3e} below {floor:.3e}")
    with np.errstate(all="ignore"):
        gv = np.asarray(g(np.clip(values, 0.0, None)), dtype=float)
    if not np.isfinite(gv).all():
        raise FunctionDomainError("scalar function non-finite on the spectrum")
    return (vectors * gv) @ dag(vectors)


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
