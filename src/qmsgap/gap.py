"""f-spectral gaps of GKSL generators and direct semigroup certificates.

The f-spectral gap of a semigroup Phi_t with faithful invariant state is
the largest lambda such that

    |Phi_t(x)|_f <= exp(-lambda t) |x|_f    for all t >= 0

and all x in the decaying subspace: ker of the state (non-degenerate fixed
points) or ker of the conditional expectation E when the fixed-point
algebra is larger.  For a semigroup on a finite-dimensional Hilbert space
this uniform-in-t bound holds exactly when Re <xi, L xi>_f <= -lambda
|xi|_f^2 on the subspace, so the gap equals the smallest eigenvalue of the
Hermitian part of minus the generator, expressed in an f-orthonormal basis
of the decaying subspace.  That eigenvalue computation is the primary
route; fitting decay curves of |Phi_t x|_f is demoted to a cross-check
oracle (`empirical_decay_rate`) because eigensolves are exact to machine
precision while curve fits are noisy.

Two structural facts make all of this well-posed: the GNS-orthogonal
conditional expectation E satisfies E L = L E = 0, so the decaying
subspace is invariant under both L and its f-adjoints, and
<x, 1>_f = conj(tr(rho x)), so the subspace is f-orthogonal to the
identity for every f simultaneously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import NegativeGapWarning, RankDeficiencyError
from .linalg import HermitianEigen, Superoperator, dag, vec
from .metric import FMetric, f_adjoint, f_gram, f_gram_sqrt, f_metric
from .monotone import power
from .qms import (
    DensityMatrix,
    FixedPointStructure,
    GKSLModel,
    fixed_point_structure,
    generator,
    gns_gram_matrix,
)

SUBSPACE_DROP_TOL = 1e-10


@dataclass(frozen=True)
class GapReport:
    """Computed gap with diagnostics.

    spectrum lists the eigenvalues of the symmetrized negative generator
    restricted to the decaying subspace, ascending; lambda_f is its
    smallest element, or math.inf when nothing decays (serialized as the
    string "inf", never as a float literal).  residuals carry the
    orthonormalization, adjoint-consistency and subspace-invariance
    defects of the computation.
    """

    f_label: str
    lambda_f: float
    kernel_dim: int
    spectrum: np.ndarray
    residuals: dict[str, float]

    @property
    def empty(self) -> bool:
        return math.isinf(self.lambda_f)


def decaying_subspace(metric: FMetric, fps: FixedPointStructure) -> np.ndarray:
    """f-orthonormal basis (columns in C^{d^2}) of ker E.

    ker E is the GNS-orthogonal complement of the fixed-point algebra, so
    its raw basis is the null space of B_N^H G_GNS; that basis is then
    orthonormalized for <., .>_f through a rank-revealing factorization of
    the restricted f-Gram.  Raises RankDeficiencyError if the numerical
    rank falls below d^2 - dim N.
    """
    d = metric.dim
    n_fixed = fps.dim
    expected = d * d - n_fixed
    if expected == 0:
        return np.zeros((d * d, 0), dtype=complex)

    rho = density_from_metric(metric)
    gram_gns = gns_gram_matrix(rho)
    fixed_vecs = np.column_stack([vec(m) for m in fps.basis])
    constraints = dag(fixed_vecs) @ gram_gns
    _, _, vh = np.linalg.svd(constraints)
    raw = vh[n_fixed:].conj().T  # null space of the constraint rows

    restricted = dag(raw) @ f_gram(metric).matrix @ raw
    restricted = (restricted + dag(restricted)) / 2.0
    vals, vecs = np.linalg.eigh(restricted)
    keep = vals > SUBSPACE_DROP_TOL * vals.max(initial=0.0)
    if int(keep.sum()) < expected:
        raise RankDeficiencyError(
            f"f-Gram rank {int(keep.sum())} below expected {expected}"
        )
    return raw @ vecs[:, keep] / np.sqrt(vals[keep])


def density_from_metric(metric: FMetric) -> DensityMatrix:
    """Rebuild the state carried by a metric (descending spectral data)."""
    eig = HermitianEigen(
        values=metric.eigenvalues[::-1].copy(),
        vectors=metric.basis[:, ::-1].copy(),
    )
    return DensityMatrix(rho=eig.reconstruct(), eigen=eig, faithful=True)


def spectral_gap_f(
    model: GKSLModel,
    rho: DensityMatrix,
    metric: FMetric,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapReport:
    """Gap from the Hermitian part of the restricted generator.

    Expresses the generator in an f-orthonormal basis of the decaying
    subspace, symmetrizes -(M + M^H)/2 and returns the smallest eigenvalue
    with diagnostics.  An empty subspace (nothing decays) reports
    lambda_f = +inf.  A gap below -1e-8 signals a non-contraction bug
    upstream and raises NegativeGapWarning.
    """
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)

    basis = decaying_subspace(metric, fps)
    if basis.shape[1] == 0:
        return GapReport(
            f_label=metric.f.label,
            lambda_f=math.inf,
            kernel_dim=fps.dim,
            spectrum=np.empty(0),
            residuals={},
        )

    gram = f_gram(metric).matrix
    compressed = dag(basis) @ gram @ gen.matrix @ basis
    herm = -(compressed + dag(compressed)) / 2.0
    spectrum = np.linalg.eigvalsh(herm)
    lam = float(spectrum[0])
    if lam < -1e-8:
        warnings.warn(
            f"negative gap {lam:.3e}: restricted generator is not dissipative",
            NegativeGapWarning,
            stacklevel=2,
        )

    ortho = float(
        np.abs(dag(basis) @ gram @ basis - np.eye(basis.shape[1])).max()
    )
    adjoint = f_adjoint(metric, gen)
    adjoint_res = float(
        np.abs(dag(basis) @ gram @ adjoint.matrix @ basis - dag(compressed)).max()
    )
    leak = float(
        np.linalg.norm(fps.projector.matrix @ gen.matrix @ basis)
        / max(1.0, np.linalg.norm(gen.matrix @ basis))
    )
    return GapReport(
        f_label=metric.f.label,
        lambda_f=lam,
        kernel_dim=fps.dim,
        spectrum=spectrum,
        residuals={
            "orthonormality": ortho,
            "adjoint_consistency": adjoint_res,
            "subspace_invariance": leak,
        },
    )


def f_operator_norm(metric: FMetric, s: Superoperator) -> float:
    """Operator norm of the represented map for |.|_f on all of M:
    the largest singular value of G_f^{1/2} S G_f^{-1/2}."""
    root, inv_root = f_gram_sqrt(metric)
    return float(np.linalg.norm(root @ s.matrix @ inv_root, 2))


@dataclass(frozen=True)
class GapCurve:
    """Power-family gap curve with symmetry/monotonicity diagnostics.

    The curve alpha -> lambda_alpha is symmetric about 1/2 and
    nondecreasing on [0, 1/2]; defects measure the worst violation on the
    supplied grid, with tolerance 1e-7 * max(1, lambda at 1/2).
    """

    points: tuple[tuple[float, float], ...]
    symmetry_defect: float
    monotonicity_defect: float
    tolerance: float

    @property
    def symmetric(self) -> bool:
        return self.symmetry_defect <= self.tolerance

    @property
    def monotone(self) -> bool:
        return self.monotonicity_defect <= self.tolerance


def gap_curve(
    model: GKSLModel,
    rho: DensityMatrix,
    alphas,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapCurve:
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)

    points = []
    for alpha in alphas:
        metric = f_metric(rho, power(float(alpha)))
        report = spectral_gap_f(model, rho, metric, fps=fps, gen=gen)
        points.append((float(alpha), report.lambda_f))

    lambdas = dict(points)
    finite = [lam for _, lam in points if not math.isinf(lam)]
    half = min(lambdas, key=lambda a: abs(a - 0.5))
    scale = max(1.0, lambdas[half]) if finite else 1.0
    tolerance = 1e-7 * scale

    symmetry = 0.0
    for alpha, lam in points:
        partner = 1.0 - alpha
        for other, lam2 in points:
            if abs(other - partner) < 1e-12 and not (
                math.isinf(lam) and math.isinf(lam2)
            ):
                symmetry = max(symmetry, abs(lam - lam2))
    lower = sorted((a, l) for a, l in points if a <= 0.5 + 1e-12)
    monotonicity = 0.0
    for (_, lam1), (_, lam2) in zip(lower, lower[1:]):
        if not (math.isinf(lam1) or math.isinf(lam2)):
            monotonicity = max(monotonicity, lam1 - lam2)
    return GapCurve(
        points=tuple(points),
        symmetry_defect=symmetry,
        monotonicity_defect=monotonicity,
        tolerance=tolerance,
    )


def empirical_decay_rate(
    model: GKSLModel,
    rho: DensityMatrix,
    metric: FMetric,
    rng: np.random.Generator,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> float:
    """Slowest decay rate of |Phi_t x|_f measured directly on the semigroup.

    Samples 200 random x in the decaying subspace, evaluates
    r(x, t) = -log(|Phi_t x|_f / |x|_f) / t over a 31-point t-grid in
    (0, 5], and returns the infimum with a short-time Richardson
    extrapolation on the slowest sample.  Every r(x, t) upper-bounds the
    gap, and the bound tightens linearly as t -> 0, so the extrapolated
    infimum recovers the gap itself.

    Random sampling alone cannot localize the worst direction of a
    quadratic form to high relative accuracy, so the sample is
    augmented with the candidate slowest vector of the symmetrized
    restricted generator; all decay values are still measured through the
    matrix exponential and the f-norm, independently of any eigensolve.
    """
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)
    basis = decaying_subspace(metric, fps)
    n = basis.shape[1]
    if n == 0:
        return math.inf

    coeffs = rng.standard_normal((n, 200)) + 1j * rng.standard_normal((n, 200))
    gram = f_gram(metric).matrix
    compressed = dag(basis) @ gram @ gen.matrix @ basis
    herm = -(compressed + dag(compressed)) / 2.0
    _, vecs = np.linalg.eigh(herm)
    samples = basis @ np.column_stack([coeffs, vecs[:, 0]])
    norms0 = np.sqrt(np.real(np.einsum("ij,ij->j", samples.conj(), gram @ samples)))

    t_small = 1e-4
    t_grid = np.concatenate(
        [[t_small, 2 * t_small, 4 * t_small], np.geomspace(0.01, 5.0, 28)]
    )
    rates = np.full((t_grid.size, samples.shape[1]), np.inf)
    for k, t in enumerate(t_grid):
        phi = expm(t * gen.matrix)
        evolved = phi @ samples
        norms = np.sqrt(
            np.real(np.einsum("ij,ij->j", evolved.conj(), gram @ evolved))
        )
        rates[k] = -np.log(norms / norms0) / t

    best = float(rates.min())
    # Quadratic extrapolation of r(t) = gap + c1 t + c2 t^2 + O(t^3) to
    # t = 0 on the slowest sample, nodes (t, 2t, 4t).
    slowest = int(np.unravel_index(np.argmin(rates), rates.shape)[1])
    extrapolated = (
        8.0 * rates[0, slowest] - 6.0 * rates[1, slowest] + rates[2, slowest]
    ) / 3.0
    return min(best, float(extrapolated))
