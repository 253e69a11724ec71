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
route; `empirical_decay_rate` cross-checks it on the semigroup itself,
without solving that eigenproblem.

Two structural facts make all of this well-posed: the GNS-orthogonal
conditional expectation E satisfies E L = L E = 0, so the decaying
subspace is invariant under both L and its f-adjoints, and
<x, 1>_f = conj(tr(rho x)), so the subspace is f-orthogonal to the
identity for every f simultaneously.

The eigen frame
---------------
With rho = U diag(p) U^H and W = conj(U) (x) U, so that
W^H vec(x) = vec(U^H x U), every f-Gram is diagonal:
G_f = W diag(w_f) W^H with w_f = vec(p_j f(p_i / p_j)).  Only w_f depends
on f, and ker E does not depend on f at all.  So each model is rotated into
its frame once per call:

* L~ = W^H L W and P~ = W^H E W;
* a raw basis R~ of ker E: the null space, from one SVD, of the
  fixed-point constraints B~_N^H diag(p_j), the GNS Gram being diag(p_j)
  in these coordinates.

A function then contributes only its weight vector.  `gap_sweep` stacks
the restricted f-Grams R~^H diag(w_f) R~, whitens them with one batched
eigh into f-orthonormal bases B~_f, and takes one batched eigvalsh of
-(C + C^H)/2 with C = B~_f^H diag(w_f) L~ B~_f.  `f_operator_norms`
rotates a map S once and takes the 2-norms of
diag(sqrt w_f) S~ diag(1/sqrt w_f).  `spectral_gap_f`, `gap_curve`,
`decaying_subspace` and `f_operator_norm` are thin wrappers over the two.

Chunk rule: the batched routines stack at most CHUNK_BYTES (64 KiB) of
d^2 x d^2 complex data at a time, i.e. max(1, 4096 // d^4) functions per
chunk: the 13-function suite is one chunk at d <= 4, and d = 8 goes one
function at a time, so peak memory does not grow with the number of
functions.  `empirical_decay_rate` exponentiates one stack of three
matrices (192 KiB at d = 8).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeGapWarning,
    QmsGapError,
    RankDeficiencyError,
)
from .linalg import Superoperator, dag, expm, vec
from .metric import (
    FMetric,
    eigenbasis_rotation,
    f_metrics,
    warn_if_ill_conditioned,
)
from .monotone import power
from .qms import (
    DensityMatrix,
    FixedPointStructure,
    GKSLModel,
    fixed_point_structure,
    generator,
)

SUBSPACE_DROP_TOL = 1e-10
CHUNK_BYTES = 64 * 1024  # stacked d^2 x d^2 complex data per batch


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


def _chunks(metrics: Sequence[FMetric]):
    """Consecutive slices of at most max(1, 4096 // d^4) metrics."""
    step = max(1, CHUNK_BYTES // (16 * metrics[0].dim ** 4))
    for start in range(0, len(metrics), step):
        yield metrics[start : start + step]


def _weights(metrics: Sequence[FMetric]) -> np.ndarray:
    """Rows w_f = vec(p_j f(p_i / p_j)), the diagonal f-Grams of the frame."""
    return np.stack([m.weights.ravel(order="F") for m in metrics])


def _rotation(metrics: Sequence[FMetric], dim: int, what: str) -> np.ndarray:
    """W for the eigenbasis that the metrics share.

    They must come from one state (QmsGapError) on the d of the model or
    map they measure (DimensionMismatchError); metrics built by one
    f_metrics call share their arrays and pass without a comparison.
    """
    first = metrics[0]
    if first.dim != dim:
        raise DimensionMismatchError(
            f"metric of dimension {first.dim} for a {what} of dimension {dim}"
        )
    for m in metrics[1:]:
        if m.basis is first.basis and m.eigenvalues is first.eigenvalues:
            continue
        if not (
            np.array_equal(m.basis, first.basis)
            and np.array_equal(m.eigenvalues, first.eigenvalues)
        ):
            raise QmsGapError("metrics of one call must come from one state")
    return eigenbasis_rotation(first)


def _raw_kernel(
    rotation: np.ndarray, metric: FMetric, fps: FixedPointStructure
) -> np.ndarray:
    """Raw basis R~ of ker E in the frame (columns): the null space of the
    fixed-point constraints B~_N^H diag(p_j)."""
    d = metric.dim
    n_fixed = fps.dim
    if n_fixed == d * d:
        return np.zeros((d * d, 0), dtype=complex)
    fixed = dag(rotation) @ np.column_stack([vec(m) for m in fps.basis])
    constraints = dag(fixed) * np.repeat(metric.eigenvalues, d)
    _, _, vh = np.linalg.svd(constraints)
    return dag(vh[n_fixed:])


def _whiten(
    raw: np.ndarray, metrics: Sequence[FMetric], weights: np.ndarray
) -> np.ndarray:
    """f-orthonormal bases B~_f = R~ V_f diag(v_f)^{-1/2}, stacked, from one
    batched eigh of the restricted f-Grams R~^H diag(w_f) R~.

    Raises RankDeficiencyError if some f-Gram keeps fewer than dim ker E
    eigenvalues above SUBSPACE_DROP_TOL times its largest.
    """
    gram = dag(raw) @ (weights[:, :, None] * raw)
    vals, vecs = np.linalg.eigh((gram + dag(gram)) / 2.0)
    floor = SUBSPACE_DROP_TOL * np.maximum(vals[:, -1:], 0.0)
    rank = np.sum(vals > floor, axis=1)
    expected = raw.shape[1]
    for metric, r in zip(metrics, rank):
        if r < expected:
            raise RankDeficiencyError(
                f"f-Gram rank {int(r)} below expected {expected} "
                f"for {metric.f.label}"
            )
    return raw @ (vecs / np.sqrt(vals)[:, None, :])


class _Frame(NamedTuple):
    raw: np.ndarray        # R~
    gen: np.ndarray        # L~ = W^H L W
    projector: np.ndarray  # P~ = W^H E W


def _sweep_chunk(
    frame: _Frame, metrics: Sequence[FMetric], kernel_dim: int
) -> list[GapReport]:
    weights = _weights(metrics)
    basis = _whiten(frame.raw, metrics, weights)
    w = weights[:, :, None]
    gen_basis = frame.gen @ basis
    weighted = w * basis
    compressed = dag(basis) @ (w * gen_basis)
    spectra = np.linalg.eigvalsh(-(compressed + dag(compressed)) / 2.0)

    eye = np.eye(basis.shape[2])
    ortho = np.abs(dag(basis) @ weighted - eye).max(axis=(1, 2))
    adjoint = np.abs(
        dag(basis) @ (dag(frame.gen) @ weighted) - dag(compressed)
    ).max(axis=(1, 2))
    leak = np.linalg.norm(frame.projector @ gen_basis, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(gen_basis, axis=(1, 2))
    )

    reports = []
    for k, metric in enumerate(metrics):
        lam = float(spectra[k, 0])
        if lam < -1e-8:
            warnings.warn(
                f"negative gap {lam:.3e} for {metric.f.label}: restricted "
                f"generator is not dissipative",
                NegativeGapWarning,
                stacklevel=3,
            )
        reports.append(
            GapReport(
                f_label=metric.f.label,
                lambda_f=lam,
                kernel_dim=kernel_dim,
                spectrum=spectra[k],
                residuals={
                    "orthonormality": float(ortho[k]),
                    "adjoint_consistency": float(adjoint[k]),
                    "subspace_invariance": float(leak[k]),
                },
            )
        )
    return reports


def gap_sweep(
    model: GKSLModel,
    rho: DensityMatrix,
    metrics: Sequence[FMetric],
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> list[GapReport]:
    """Gap reports for every metric (all built from rho), in order.

    Builds the model's eigen frame once and batches the functions over it
    (see the module docstring).  No metrics give no reports.  An empty
    decaying subspace (nothing decays) reports lambda_f = +inf.  Warns
    IllConditionedWarning for weights spread beyond COND_GUARD and
    NegativeGapWarning for a gap below -1e-8, which signals a
    non-contraction bug upstream; raises RankDeficiencyError when an
    f-Gram loses rank on ker E and DimensionMismatchError for metrics on
    another d than the model.
    """
    if not metrics:
        return []
    rotation = _rotation(metrics, model.dim, "model")
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)
    for metric in metrics:
        warn_if_ill_conditioned(metric)

    raw = _raw_kernel(rotation, metrics[0], fps)
    if raw.shape[1] == 0:
        return [
            GapReport(
                f_label=m.f.label,
                lambda_f=math.inf,
                kernel_dim=fps.dim,
                spectrum=np.empty(0),
                residuals={},
            )
            for m in metrics
        ]
    frame = _Frame(
        raw=raw,
        gen=dag(rotation) @ gen.matrix @ rotation,
        projector=dag(rotation) @ fps.projector.matrix @ rotation,
    )
    reports: list[GapReport] = []
    for chunk in _chunks(metrics):
        reports += _sweep_chunk(frame, chunk, fps.dim)
    return reports


def spectral_gap_f(
    model: GKSLModel,
    rho: DensityMatrix,
    metric: FMetric,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapReport:
    """Gap for one metric: gap_sweep over [metric]."""
    return gap_sweep(model, rho, [metric], fps=fps, gen=gen)[0]


def decaying_subspace(metric: FMetric, fps: FixedPointStructure) -> np.ndarray:
    """f-orthonormal basis (columns in C^{d^2}) of ker E.

    The frame's raw basis of ker E, whitened for <., .>_f and rotated back
    to column-stacking coordinates.  Raises RankDeficiencyError if the
    numerical rank falls below d^2 - dim N.
    """
    rotation = _rotation([metric], fps.projector.dim, "fixed-point structure")
    raw = _raw_kernel(rotation, metric, fps)
    if raw.shape[1] == 0:
        return raw
    return rotation @ _whiten(raw, [metric], _weights([metric]))[0]


def f_operator_norms(metrics: Sequence[FMetric], s: Superoperator) -> np.ndarray:
    """Operator norm of the represented map for each |.|_f on all of M.

    The largest singular value of G_f^{1/2} S G_f^{-1/2}, which in the
    eigen frame is diag(sqrt w_f) S~ diag(1/sqrt w_f) with S~ = W^H S W;
    S is rotated once for all metrics (built from one state).  No metrics
    give an empty array.
    """
    if not metrics:
        return np.empty(0)
    rotation = _rotation(metrics, s.dim, "map")
    rotated = dag(rotation) @ s.matrix @ rotation
    norms = []
    for chunk in _chunks(metrics):
        root = np.sqrt(_weights(chunk))
        scaled = root[:, :, None] * rotated / root[:, None, :]
        norms.append(np.linalg.norm(scaled, 2, axis=(1, 2)))
    return np.concatenate(norms)


def f_operator_norm(metric: FMetric, s: Superoperator) -> float:
    """Operator norm of the represented map for |.|_f: f_operator_norms([metric], s)."""
    return float(f_operator_norms([metric], s)[0])


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
    """Power-family gaps on the alpha grid (QmsGapError if it is empty)."""
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise QmsGapError("gap curve needs at least one alpha")
    metrics = f_metrics(rho, [power(alpha) for alpha in alphas])
    reports = gap_sweep(model, rho, metrics, fps=fps, gen=gen)
    points = [(alpha, r.lambda_f) for alpha, r in zip(alphas, reports)]

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
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> float:
    """Decay rate of Phi_t on the decaying subspace, from the semigroup.

    r(t) = -log |Phi_t on ker E|_f / t is the exact worst rate over all x
    at time t (no sampling); by Lumer-Phillips it tends to the gap as
    t -> 0, linearly in t, and (8 r(t) - 6 r(2t) + r(4t)) / 3 at t = 1e-4
    extrapolates it there.  The norm is the 2-norm of
    diag(sqrt w_f) Phi~_t B~_f in the eigen frame, B~_f an f-orthonormal
    basis of ker E; no eigensolve of the restricted generator is involved.
    math.inf when nothing decays.
    """
    rotation = _rotation([metric], model.dim, "model")
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)
    raw = _raw_kernel(rotation, metric, fps)
    if raw.shape[1] == 0:
        return math.inf
    weights = _weights([metric])
    basis = _whiten(raw, [metric], weights)[0]
    times = np.array([1e-4, 2e-4, 4e-4])
    phis = expm(times[:, None, None] * (dag(rotation) @ gen.matrix @ rotation))
    scaled = np.sqrt(weights[0])[:, None] * (phis @ basis)
    rates = -np.log(np.linalg.norm(scaled, 2, axis=(1, 2))) / times
    return float((8.0 * rates[0] - 6.0 * rates[1] + rates[2]) / 3.0)
