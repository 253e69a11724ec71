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
G_f = W diag(w_f) W^H with w_f = vec(p_j f(p_i / p_j)) = w_gns * f(Delta),
the modular operator Delta being diag(p_i / p_j) here.  Only w_f depends on
f, and ker E does not depend on f at all.  So each model is rotated into
its frame once per call:

* L~ = W^H L W and P~ = W^H E W;
* an orthonormal basis V of diag(sqrt w_gns) ker E: the null space, from
  one SVD, of the fixed-point constraints B~_N^H diag(sqrt p_j), the GNS
  Gram being diag(w_gns) = diag(p_j) in these coordinates.

E is the rho-preserving conditional expectation onto the fixed-point
algebra, so it commutes with the modular group (Takesaki, J. Funct. Anal.
9, 1972) and ker E is invariant under Delta, hence under every diagonal
f(Delta)^{-1/2}.  So B~_f = diag(w_f)^{-1/2} V = diag(w_gns)^{-1/2}
f(Delta)^{-1/2} V still spans ker E, and B~_f^H diag(w_f) B~_f = V^H V = I:
one basis V serves every f, and no function needs an eigensolve of its
own to orthonormalize.  The theorem is checked at run time: the residual
kernel_membership = |P~ B~_f| / |B~_f| must stay below MEMBERSHIP_TOL, or
PostconditionError is raised.

A function then contributes only its weight vector.  `gap_sweep` stacks
the rescaled bases B~_f and takes one batched eigvalsh of -(C + C^H)/2
with C = B~_f^H diag(w_f) L~ B~_f.  `f_operator_norms` rotates a map S
once and takes the 2-norms of diag(sqrt w_f) S~ diag(1/sqrt w_f).
`spectral_gap_f`, `gap_curve`, `decaying_subspace` and `f_operator_norm`
are thin wrappers over the two.  `empirical_decay_rate`, the oracle for
the gap, whitens its basis of ker E with an eigh of its own f-Gram instead
of rescaling V, so it checks the shortcut rather than repeating it.

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
    PostconditionError,
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
MEMBERSHIP_TOL = 1e-9  # the margin fixed_point_structure asserts E's identities at
CHUNK_BYTES = 64 * 1024  # stacked d^2 x d^2 complex data per batch


@dataclass(frozen=True)
class GapReport:
    """Computed gap with diagnostics.

    spectrum lists the eigenvalues of the symmetrized negative generator
    restricted to the decaying subspace, ascending; lambda_f is its
    smallest element, or math.inf when nothing decays (serialized as the
    string "inf", never as a float literal).  residuals (empty when nothing
    decays) carry four defects of the computation, with B the f-basis of
    ker E, G the f-Gram, L the generator and P the matrix of E:

    * orthonormality: max |B^H G B - I|;
    * adjoint_consistency: max |B^H L^H G B - C^H|, C = B^H G L B;
    * subspace_invariance: |P L B| / max(1, |L B|);
    * kernel_membership: |P B| / |B|, at most MEMBERSHIP_TOL.
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


def _kernel(
    rotation: np.ndarray, metric: FMetric, fps: FixedPointStructure
) -> np.ndarray:
    """Orthonormal basis V (columns) of diag(sqrt w_gns) ker E in the frame:
    the null space, from one SVD, of the fixed-point constraints
    B~_N^H diag(sqrt p_j)."""
    d = metric.dim
    n_fixed = fps.dim
    if n_fixed == d * d:
        return np.zeros((d * d, 0), dtype=complex)
    fixed = dag(rotation) @ np.column_stack([vec(m) for m in fps.basis])
    constraints = dag(fixed) * np.sqrt(np.repeat(metric.eigenvalues, d))
    _, _, vh = np.linalg.svd(constraints)
    return dag(vh[n_fixed:])


def _f_bases(
    kernel: np.ndarray, metrics: Sequence[FMetric], weights: np.ndarray
) -> np.ndarray:
    """f-orthonormal bases B~_f = diag(w_f)^{-1/2} V of ker E, stacked.

    Raises RankDeficiencyError when min(w_f) / max(w_f) falls below
    SUBSPACE_DROP_TOL.  By Cauchy interlacing the eigenvalues of the f-Gram
    on ker E lie in [min(w_f), max(w_f)], so it can fall below that
    fraction of its largest eigenvalue only when this fires.
    """
    spread = weights.min(axis=1) / weights.max(axis=1)
    for metric, s in zip(metrics, spread):
        if s < SUBSPACE_DROP_TOL:
            raise RankDeficiencyError(
                f"f-weight spread {s:.3e} below {SUBSPACE_DROP_TOL:.1e} "
                f"for {metric.f.label}: the f-Gram on ker E may lose rank"
            )
    return kernel / np.sqrt(weights)[:, :, None]


def _kernel_membership(
    projector: np.ndarray, basis: np.ndarray, metrics: Sequence[FMetric]
) -> np.ndarray:
    """|P B_f| / |B_f| for each stacked basis, P the matrix of E in the
    coordinates of B_f.  Raises PostconditionError above MEMBERSHIP_TOL: the
    rescaled basis has then left ker E, i.e. ker E is not Delta-invariant to
    that margin."""
    membership = np.linalg.norm(projector @ basis, axis=(1, 2)) / np.linalg.norm(
        basis, axis=(1, 2)
    )
    for metric, m in zip(metrics, membership):
        if m > MEMBERSHIP_TOL:
            raise PostconditionError(
                f"f-basis leaves ker E by {m:.3e} for {metric.f.label}"
            )
    return membership


class _Frame(NamedTuple):
    kernel: np.ndarray     # V
    gen: np.ndarray        # L~ = W^H L W
    projector: np.ndarray  # P~ = W^H E W


def _sweep_chunk(
    frame: _Frame, metrics: Sequence[FMetric], kernel_dim: int
) -> list[GapReport]:
    weights = _weights(metrics)
    basis = _f_bases(frame.kernel, metrics, weights)
    membership = _kernel_membership(frame.projector, basis, metrics)
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
                    "kernel_membership": float(membership[k]),
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
    non-contraction bug upstream; raises RankDeficiencyError when some
    f-weights spread beyond 1 / SUBSPACE_DROP_TOL, PostconditionError when
    an f-basis leaves ker E by more than MEMBERSHIP_TOL and
    DimensionMismatchError for metrics on another d than the model.
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

    kernel = _kernel(rotation, metrics[0], fps)
    if kernel.shape[1] == 0:
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
        kernel=kernel,
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

    diag(w_f)^{-1/2} V rotated back to column-stacking coordinates (see the
    module docstring).  Raises RankDeficiencyError when the f-weights spread
    beyond 1 / SUBSPACE_DROP_TOL and PostconditionError when the basis is not
    annihilated by E to MEMBERSHIP_TOL.
    """
    rotation = _rotation([metric], fps.projector.dim, "fixed-point structure")
    kernel = _kernel(rotation, metric, fps)
    if kernel.shape[1] == 0:
        return kernel
    basis = rotation @ _f_bases(kernel, [metric], _weights([metric]))
    _kernel_membership(fps.projector.matrix, basis, [metric])
    return basis[0]


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
    B~_f comes from its own eigh of the f-Gram on the GNS-orthonormal basis
    diag(w_gns)^{-1/2} V, not from rescaling V, so this oracle does not rest
    on the Delta-invariance of ker E that gap_sweep uses.
    Raises RankDeficiencyError when that f-Gram loses rank; math.inf when
    nothing decays.
    """
    rotation = _rotation([metric], model.dim, "model")
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)
    kernel = _kernel(rotation, metric, fps)
    if kernel.shape[1] == 0:
        return math.inf
    weights = _weights([metric])[0]
    raw = kernel / np.sqrt(np.repeat(metric.eigenvalues, metric.dim))[:, None]
    gram = dag(raw) @ (weights[:, None] * raw)
    vals, vecs = np.linalg.eigh((gram + dag(gram)) / 2.0)
    if vals[0] <= SUBSPACE_DROP_TOL * vals[-1]:
        raise RankDeficiencyError(
            f"f-Gram on ker E loses rank for {metric.f.label}: "
            f"eigenvalues {vals[0]:.3e} .. {vals[-1]:.3e}"
        )
    basis = raw @ (vecs / np.sqrt(vals))
    times = np.array([1e-4, 2e-4, 4e-4])
    phis = expm(times[:, None, None] * (dag(rotation) @ gen.matrix @ rotation))
    scaled = np.sqrt(weights)[:, None] * (phis @ basis)
    rates = -np.log(np.linalg.norm(scaled, 2, axis=(1, 2))) / times
    return float((8.0 * rates[0] - 6.0 * rates[1] + rates[2]) / 3.0)
