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
f.  So a model's frame is built once: L~ = W^H L W; Q = W^H B_N and
R~ = R W from the factors E = B_N R that fixed_point_structure solved
for (the frame solves nothing); and, from one SVD of the fixed-point
constraints C = Q^H diag(sqrt w_gns), a unitary [V Y] with Y spanning
diag(sqrt w_gns) N and V its null space diag(sqrt w_gns) ker E.  A frame
holds these for a stack of models, model axis first.  A frame of one
model is kept on its FixedPointStructure, keyed by the eigendata arrays
rho keeps (metric.py) and by the generator L~ came from, so
`spectral_gap_f` one f at a time, `gap_curve`, `decaying_subspace` and
`empirical_decay_rate` (with its exp(t L~)) build it only once.

E is the rho-preserving conditional expectation onto the fixed-point
algebra, so it commutes with the modular group (Takesaki, J. Funct. Anal.
9, 1972) and N and ker E are invariant under every diagonal f(Delta)^{1/2}.
In f-coordinates diag(sqrt w_f) x = diag(sqrt w_gns) f(Delta)^{1/2} x,
where the generator is M_f = diag(sqrt w_f) L~ diag(1/sqrt w_f), N and
ker E are thus span Y and span V for every f.  L N = 0 and E L = 0 give
M_f Y = 0 = Y^H M_f, so H_f = -(M_f + M_f^H) / 2 vanishes on span Y and on
span V is minus the symmetrized generator in the f-orthonormal basis
B~_f = diag(w_f)^{-1/2} V of ker E.  The gap spectrum is the d^2 - dim N
lowest eigenvalues of H_f + c_f Y Y^H, c_f = 1 + 2 |M_f|_F lying above all
of H_f's: a coupling of span Y and span V left by round-off moves them by
at most its square over the shift.  The theorem is checked at run time,
independently of the SVD: kernel_membership = |P~ B~_f| / |B~_f| must stay
below MEMBERSHIP_TOL, or PostconditionError is raised.  The frame keeps no
d^2 x d^2 P~ = W^H E W: it applies P~ = Q R~ as its rank-dim N factors.

A function then contributes only its weight vector: a slice (one model,
one f) is one eigvalsh of the deflated H_f plus a fixed handful of
O(dim N d^4) numpy calls, Q (R~ diag(w_f)^{-1/2} V) among them, with Y Y^H
and |V_i|^2 (|B~_f|^2 = sum_i |V_i|^2 / w_f,i) kept on the frame; one
stacked eigvalsh serves a chunk of slices.  `f_operator_norms` rotates a
map S once (a read-only S keeps S~ = W^H S W, keyed by rho's eigendata)
and takes the 2-norms of A_f = diag(sqrt w_f) S~ diag(1/sqrt w_f) as
sqrt(lambda_max(A_f^H A_f)); `spectral_gap_f`, `decaying_subspace` and
`f_operator_norm` are thin wrappers over the two.  `empirical_decay_rate`,
the oracle for the gap, whitens its basis of ker E with an eigh of its own
f-Gram instead of rescaling V and takes its 2-norms by SVD, so it repeats
neither shortcut.

Batches of models
-----------------
`gap_sweeps`, `gap_curves` and `semigroup_norms` take many models.  Models
of one d and one dim N share stacks: their frame is one stack, built by
one stacked SVD, and each (model, function) pair, or (model, time,
function) triple, is one slice of one chunked computation that gathers
its model's arrays from that stack.  numpy's stacked matmul, eigvalsh,
svd and solve treat each slice as the 2-d call would, so each model gets
exactly the numbers it gets alone; the one-model routines are these on
one model, whose frame broadcasts over its slices.  A frame of several
models is not kept.  A batch runs each stage for all its models before
the next, so its first error is that of the first failing stage; the
campaign restores model order by running a batch that raises or warns
again one model at a time (harness._drawn_then_batched).  Every stack
holds at most linalg.CHUNK_BYTES (64 KiB) of d^2 x d^2 complex data:
max(1, 4096 // d^4) slices or models (256 at d = 2, 16 at d = 4, one at
d = 8), so peak memory grows with neither the number of models nor of
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeGapWarning,
    PostconditionError,
    QmsGapError,
    RankDeficiencyError,
    warn,
)
from .linalg import (
    Superoperator, batches, chunks, dag, expm, frobenius_norms, kron, pick,
    same_lengths,
)
from .metric import COND_GUARD, FMetric, f_metric_table, warn_if_ill_conditioned
from .monotone import power
from .qms import (
    DensityMatrix,
    FixedPointStructure,
    GKSLModel,
    fixed_point_structure,
    fixed_point_structures,
    generator,
    semigroups,
)

SUBSPACE_DROP_TOL = 1e-10
MEMBERSHIP_TOL = 1e-9  # the margin fixed_point_structure asserts E's identities at
_DECAY_TIMES = np.array([1e-4, 2e-4, 4e-4])  # empirical_decay_rate's t, 2t, 4t
_RESIDUALS = ("orthonormality", "adjoint_consistency", "subspace_invariance",
              "kernel_membership")


@dataclass(frozen=True)
class GapReport:
    """Computed gap with diagnostics.

    spectrum lists the eigenvalues of the symmetrized negative generator
    restricted to the decaying subspace, ascending; lambda_f is its
    smallest element, or math.inf when nothing decays (serialized as the
    string "inf", never as a float literal).  residuals (empty when nothing
    decays) carry four defects of the computation, |.| the Frobenius norm
    and M_f, [V Y] and B the f-coordinate generator, the frame's unitary
    and the f-basis of ker E (see the module docstring), Z = Y^H M_f and
    P = Q R the matrix of E from its rank-dim N factors:

    * orthonormality: max |[V Y]^H [V Y] - I|, one value per frame;
    * adjoint_consistency: |Z| / max(1, |M_f|), zero as Y^H M_f = 0;
    * subspace_invariance: |Z V| / max(1, |M_f|), what deflation drops, at
      most the adjoint defect as V has orthonormal columns: |Z V| <= |Z|;
    * kernel_membership: |Q (R B)| / |B|, at most MEMBERSHIP_TOL.
    """

    f_label: str
    lambda_f: float
    kernel_dim: int
    spectrum: np.ndarray
    residuals: dict[str, float]

    @property
    def empty(self) -> bool:
        return math.isinf(self.lambda_f)


class _Frame:
    """The eigen frame (see the module docstring) of models of one d and
    dim N, stacked on a leading model axis: its state part (W, the
    orthonormality of [V Y] and the slice parts V, |V_i|^2, Y^H, Y Y^H, Q
    and R~) is keyed by the eigendata of model 0's state, its generator
    part (L~ and model 0's decay stack) by model 0's generator.  Only a
    one-model frame is kept, so only its keys are ever read."""

    __slots__ = ("basis", "eigenvalues", "rotation", "orthonormality", "parts",
                 "source", "gen", "decay")

    def __init__(self, metric: FMetric, rotation, ortho, parts):
        self.basis, self.eigenvalues = metric.basis, metric.eigenvalues
        self.rotation, self.orthonormality, self.parts = rotation, ortho, parts
        self.source = self.gen = self.decay = None


def _one_state(a, b) -> bool:
    """Whether a and b (metrics or frames) carry the eigendata of one state:
    every metric of a state shares the arrays it keeps (see metric.py)."""
    return a.basis is b.basis and a.eigenvalues is b.eigenvalues


def _weights(metrics: Sequence[FMetric]) -> np.ndarray:
    """Rows w_f = vec(p_j f(p_i / p_j)), the diagonal f-Grams of the frame."""
    return np.array([m.weights.T for m in metrics]).reshape(len(metrics), -1)


def _same_state(metrics: Sequence[FMetric], dim: int, what: str) -> None:
    """The metrics must come from one state (QmsGapError) on the d of the
    model or map they measure (DimensionMismatchError)."""
    first = metrics[0]
    if first.dim != dim:
        raise DimensionMismatchError(
            f"metric of dimension {first.dim} for a {what} of dimension {dim}"
        )
    if not all(_one_state(m, first) for m in metrics[1:]):
        raise QmsGapError("metrics of one call must come from one state")


def _build_frame(
    fpss: Sequence[FixedPointStructure], states: Sequence[FMetric]
) -> _Frame:
    """State part of the frame of models with one d and one dim N: Q and R~
    from E's factors, and [V Y], the conjugate transpose of the right
    singular vectors, from one stacked SVD, of the fixed-point constraints
    C = Q^H diag(sqrt w_gns) (see the module docstring)."""
    d, n_fixed = states[0].dim, fpss[0].dim
    u = np.array([m.basis for m in states])
    rotation = kron(u.conj(), u)
    span = dag(rotation) @ np.array([fps.columns for fps in fpss])
    root_gns = np.sqrt(np.repeat(np.array([m.eigenvalues for m in states]), d, axis=1))
    constraints = dag(span) * root_gns[:, None, :]
    unitary = dag(np.linalg.svd(constraints)[2])
    ortho = np.maximum.reduce(
        np.abs(dag(unitary) @ unitary - np.eye(d * d)), axis=(1, 2)
    )
    coords = np.array([fps.coefficients for fps in fpss]) @ rotation
    # C order, as a gathered stack has it, for bit-identical products
    kernel = np.ascontiguousarray(unitary[:, :, n_fixed:])
    fixed = np.ascontiguousarray(unitary[:, :, :n_fixed])
    fixed_h = dag(fixed)
    rows = np.add.reduce((kernel.conj() * kernel).real, axis=-1)
    parts = (kernel, rows, np.ascontiguousarray(fixed_h), fixed @ fixed_h, span, coords)
    return _Frame(states[0], rotation, ortho, parts)


def _frame(
    fpss: Sequence[FixedPointStructure],
    states: Sequence[FMetric],
    gens: Optional[Sequence[Superoperator]] = None,
) -> _Frame:
    """The frame of models (states[i] a metric of model i's state) that
    share one d and one dim N and fit one chunk (linalg.chunks); with gens,
    their L~ too.

    One model takes the frame kept on its FixedPointStructure when that
    frame serves the state, and otherwise builds and keeps one; its L~ is
    rotated again only for another generator.  Several models build their
    frame as one stack, rotate their generators as another and keep
    nothing: such a frame serves once, and keeping a whole pool's frames
    would hold their memory for as long as the pool lives."""
    frame = fpss[0]._frame if len(fpss) == 1 else None
    if frame is None or not _one_state(frame, states[0]):
        frame = _build_frame(fpss, states)
        if len(fpss) == 1:
            object.__setattr__(fpss[0], "_frame", frame)
    if gens is not None and frame.source is not gens[0]:
        rotation = frame.rotation
        frame.gen = dag(rotation) @ np.array([gen.matrix for gen in gens]) @ rotation
        frame.source, frame.decay = gens[0], None
    return frame


def _f_basis_defects(kernel, rows, span, coords, weights, root, ratios, metrics):
    """Memberships |P~ B~_f| / |B~_f| of the f-bases B~_f = diag(w_f)^{-1/2} V
    of ker E of stacked slices (root = sqrt(w_f), ratios = max / min of w_f).

    RankDeficiencyError when min(w_f) / max(w_f) < SUBSPACE_DROP_TOL: by
    Cauchy interlacing the f-Gram on ker E has its eigenvalues in
    [min(w_f), max(w_f)].  PostconditionError for a membership above
    MEMBERSHIP_TOL: ker E is then not Delta-invariant to that margin."""
    for metric, ratio in zip(metrics, ratios):
        if ratio > 1.0 / SUBSPACE_DROP_TOL:
            raise RankDeficiencyError(
                f"f-weight spread {1.0 / ratio:.3e} below {SUBSPACE_DROP_TOL:.1e} "
                f"for {metric.f.label}: the f-Gram on ker E may lose rank"
            )
    reduced = (coords / root[:, None, :]) @ kernel  # R~ diag(w_f)^{-1/2} V
    basis_norm = np.sqrt(np.add.reduce(rows / weights, axis=-1))  # |B~_f|
    membership = (frobenius_norms(span @ reduced) / basis_norm).tolist()
    for metric, m in zip(metrics, membership):
        if m > MEMBERSHIP_TOL:
            raise PostconditionError(
                f"f-basis leaves ker E by {m:.3e} for {metric.f.label}"
            )
    return membership


def _sweep_chunk(kernel, rows, fixed_h, deflator, span, coords, gen, weights, ratios,
                 ortho, metrics, kernel_dim: int) -> list[GapReport]:
    """Reports of stacked slices: slice s is metrics[s] (weights[s], their
    ratio max / min) on the frame of slice parts kernel[s], ..., gen[s] (one
    frame's arrays broadcast) and orthonormality ortho[s].  The spectrum is
    the d^2 - dim N lowest eigenvalues of the deflated H_f + c_f Y Y^H."""
    root = np.sqrt(weights)
    membership = _f_basis_defects(
        kernel, rows, span, coords, weights, root, ratios, metrics
    )
    scaled = root[:, :, None] * gen / root[:, None, :]  # M_f
    size = frobenius_norms(scaled)
    deflated = (1.0 + 2.0 * size)[:, None, None] * deflator - (
        scaled + dag(scaled)
    ) / 2.0
    spectra = np.linalg.eigvalsh(deflated)[:, : gen.shape[-1] - kernel_dim]
    scale = np.maximum(1.0, size)
    drift = fixed_h @ scaled  # Z = Y^H M_f
    adjoint = (frobenius_norms(drift) / scale).tolist()
    leak = (frobenius_norms(drift @ kernel) / scale).tolist()
    reports = []
    for metric, spectrum, lam, *residuals in zip(
        metrics, spectra, spectra[:, 0].tolist(), ortho, adjoint, leak, membership
    ):
        if lam < -1e-8:
            warn(
                f"negative gap {lam:.3e} for {metric.f.label}: restricted "
                f"generator is not dissipative",
                NegativeGapWarning,
            )
        residuals = dict(zip(_RESIDUALS, residuals))
        reports.append(GapReport(metric.f.label, lam, kernel_dim, spectrum, residuals))
    return reports


def gap_sweeps(
    models: Sequence[GKSLModel],
    rhos: Sequence[DensityMatrix],
    metric_lists: Sequence[Sequence[FMetric]],
    fpss: Optional[Sequence[Optional[FixedPointStructure]]] = None,
    gens: Optional[Sequence[Optional[Superoperator]]] = None,
) -> list[list[GapReport]]:
    """Gap reports of each model for each of its metrics (all built from its
    state), in order; the batched form of gap_sweep.

    A missing fps or gen is computed.  The models that share d and dim N
    are stacked: their frames are built together and every (model, metric)
    pair is one slice of the same chunked sweep (see the module docstring),
    with the result each model gets alone.  Each stage runs for all models
    before the next, so the error raised is that of the first failing stage
    (see the module docstring); lists of unequal lengths raise
    DimensionMismatchError."""
    same_lengths(models=models, rhos=rhos, metric_lists=metric_lists, fpss=fpss,
                 gens=gens)
    n = len(models)
    fpss, gens = list(fpss or [None] * n), list(gens or [None] * n)
    todo = []
    for i, metrics in enumerate(metric_lists):
        if metrics:
            _same_state(metrics, models[i].dim, "model")
            if gens[i] is None:
                gens[i] = generator(models[i])
            if fpss[i] is None:
                todo.append(i)
    if todo:
        computed = fixed_point_structures(
            pick(models, todo), pick(rhos, todo), pick(gens, todo)
        )
        for i, fps in zip(todo, computed):
            fpss[i] = fps

    reports: list[list[GapReport]] = [[] for _ in models]
    keys = [(m.dim, fps.dim) if metrics else None
            for m, fps, metrics in zip(models, fpss, metric_lists)]
    for rows in batches(keys):
        lists = pick(metric_lists, rows)
        frame = _frame(pick(fpss, rows), [ms[0] for ms in lists], pick(gens, rows))
        out = iter(_sweep_group(frame, lists, fpss[rows[0]].dim))
        for i, metrics in zip(rows, lists):
            reports[i] = [next(out) for _ in metrics]
    return reports


def _sweep_group(frame: _Frame, metric_lists, n_fixed: int) -> list[GapReport]:
    """Reports of models with one d and one dim N, metric_lists[g] on model
    g of the frame, in model order.  Warns IllConditionedWarning for
    weights spread beyond COND_GUARD, also when nothing decays."""
    metrics = [m for ms in metric_lists for m in ms]
    weights = _weights(metrics)
    ordered = np.sort(weights, axis=1)  # one sort gives min(w_f) and max(w_f)
    ratios = (ordered[:, -1] / ordered[:, 0]).tolist()
    for metric, ratio in zip(metrics, ratios):
        if ratio > COND_GUARD:
            warn_if_ill_conditioned(metric)
    d = metrics[0].dim
    if n_fixed == d * d:
        return [GapReport(m.f.label, math.inf, n_fixed, np.empty(0), {})
                for m in metrics]
    owner = np.repeat(np.arange(len(metric_lists)), [len(ms) for ms in metric_lists])
    ortho = frame.orthonormality[owner].tolist()
    stacks = (*frame.parts, frame.gen)
    arrays = [stack[0] for stack in stacks]  # one model broadcasts alone
    reports = []
    for c in chunks(len(metrics), d):
        if len(metric_lists) > 1:  # each slice takes the frame of its model
            arrays = [stack[owner[c]] for stack in stacks]
        reports += _sweep_chunk(
            *arrays, weights[c], ratios[c], ortho[c], metrics[c], n_fixed
        )
    return reports


def gap_sweep(
    model: GKSLModel,
    rho: DensityMatrix,
    metrics: Sequence[FMetric],
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> list[GapReport]:
    """Gap reports for every metric (all built from rho), in order:
    gap_sweeps for one model.

    Builds the model's eigen frame on first use, keeps it on fps and batches
    the functions over it (see the module docstring).  No metrics give no
    reports.  An empty decaying subspace (nothing decays) reports
    lambda_f = +inf.  Warns IllConditionedWarning for weights spread beyond
    COND_GUARD and NegativeGapWarning for a gap below -1e-8, which signals a
    non-contraction bug upstream; raises RankDeficiencyError when some
    f-weights spread beyond 1 / SUBSPACE_DROP_TOL, PostconditionError when
    an f-basis leaves ker E by more than MEMBERSHIP_TOL and
    DimensionMismatchError for metrics on another d than the model.
    """
    return gap_sweeps([model], [rho], [metrics], [fps], [gen])[0]


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
    _same_state([metric], math.isqrt(len(fps.columns)), "fixed-point structure")
    frame = _frame([fps], [metric])
    kernel, rows, _, _, span, coords = (part[0] for part in frame.parts)
    if kernel.shape[1] == 0:
        return kernel
    weights = _weights([metric])
    root = np.sqrt(weights)
    ratios = (weights.max(axis=1) / weights.min(axis=1)).tolist()
    _f_basis_defects(kernel, rows, span, coords, weights, root, ratios, [metric])
    return frame.rotation[0] @ (kernel / root[0][:, None])


def _rotations(
    metric_lists: Sequence[Sequence[FMetric]], maps: np.ndarray
) -> np.ndarray:
    """S~ = W^H S W for each map maps[g, t], W the frame of metric_lists[g]."""
    u = np.array([metrics[0].basis for metrics in metric_lists])
    rotation = kron(u.conj(), u)[:, None]
    return dag(rotation) @ maps @ rotation


def _operator_norms(
    metric_lists: Sequence[Sequence[FMetric]], rotated: np.ndarray
) -> np.ndarray:
    """Norms [g, t, f] of the maps rotated[g, t] = S~ for metric_lists[g][f],
    all of one d and one length: the 2-norms of
    A = diag(sqrt w_f) S~ diag(1/sqrt w_f), as sqrt(lambda_max(A^H A)), one
    slice per (g, t, f)."""
    n_maps, n_times = rotated.shape[:2]
    n_metrics = len(metric_lists[0])
    rotated = rotated.reshape((n_maps * n_times,) + rotated.shape[2:])
    root = np.sqrt(np.concatenate([_weights(metrics) for metrics in metric_lists]))
    slices = np.arange(n_maps * n_times * n_metrics)
    which_map = slices // n_metrics
    which_root = slices // (n_times * n_metrics) * n_metrics + slices % n_metrics
    norms = np.empty(slices.size)
    for c in chunks(slices.size, metric_lists[0][0].dim):
        r = root[which_root[c]]
        # one map broadcasts over the slices; several are gathered per slice
        maps_c = rotated[0] if len(rotated) == 1 else rotated[which_map[c]]
        scaled = r[:, :, None] * maps_c / r[:, None, :]
        norms[c] = np.sqrt(np.linalg.eigvalsh(dag(scaled) @ scaled)[:, -1])
    return norms.reshape(n_maps, n_times, n_metrics)


def f_operator_norms(metrics: Sequence[FMetric], s: Superoperator) -> np.ndarray:
    """Operator norm of the represented map for each |.|_f on all of M.

    The largest singular value of G_f^{1/2} S G_f^{-1/2}, which in the
    eigen frame is diag(sqrt w_f) S~ diag(1/sqrt w_f) with S~ = W^H S W;
    S is rotated once for all metrics (built from one state), and a
    read-only S keeps S~ for later calls with metrics of that state.  No
    metrics give an empty array.
    """
    if not metrics:
        return np.empty(0)
    _same_state(metrics, s.dim, "map")
    kept = s._rotated
    if kept is None or not _one_state(kept[0], metrics[0]):
        kept = (metrics[0], _rotations([metrics], s.matrix[None, None]))
        if not s.matrix.flags.writeable:
            object.__setattr__(s, "_rotated", kept)
    return _operator_norms([metrics], kept[1])[0, 0]


def f_operator_norm(metric: FMetric, s: Superoperator) -> float:
    """Operator norm of the represented map for |.|_f: f_operator_norms([metric], s)."""
    return float(f_operator_norms([metric], s)[0])


def semigroup_norms(
    models: Sequence[GKSLModel],
    metric_lists: Sequence[Sequence[FMetric]],
    times,
) -> list[np.ndarray]:
    """f_operator_norms of Phi_t for each model, time and metric of the
    model's state: one (len(times), len(metrics)) array per model.

    The models of one d and one metric count share stacked expms over all
    times (qms.semigroups) and chunked norm stacks (linalg.batches), with
    the result each model gets alone; lists of unequal lengths raise
    DimensionMismatchError."""
    same_lengths(models=models, metric_lists=metric_lists)
    for model, metrics in zip(models, metric_lists):
        if metrics:
            _same_state(metrics, model.dim, "model")
    out = [np.empty((len(times), len(metrics))) for metrics in metric_lists]
    keys = ((m.dim, len(metrics)) if metrics else None
            for m, metrics in zip(models, metric_lists))
    for rows in batches(keys, len(times)):
        lists = pick(metric_lists, rows)
        phis = np.array(semigroups(pick(models, rows), times))
        for i, norms in zip(rows, _operator_norms(lists, _rotations(lists, phis))):
            out[i] = norms
    return out


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


def _curve(alphas: list[float], reports: Sequence[GapReport]) -> GapCurve:
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


def gap_curves(
    models: Sequence[GKSLModel],
    rhos: Sequence[DensityMatrix],
    alphas,
    fpss: Optional[Sequence[Optional[FixedPointStructure]]] = None,
    gens: Optional[Sequence[Optional[Superoperator]]] = None,
) -> list[GapCurve]:
    """Power-family gap curve of each model on one alpha grid (QmsGapError
    if it is empty, DimensionMismatchError for lists of unequal lengths):
    one f_metric_table and one gap_sweeps for all models."""
    same_lengths(models=models, rhos=rhos, fpss=fpss, gens=gens)
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise QmsGapError("gap curve needs at least one alpha")
    metric_lists = f_metric_table(rhos, [power(alpha) for alpha in alphas])
    reports = gap_sweeps(models, rhos, metric_lists, fpss, gens)
    return [_curve(alphas, row) for row in reports]


def gap_curve(
    model: GKSLModel,
    rho: DensityMatrix,
    alphas,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapCurve:
    """Power-family gaps on the alpha grid: gap_curves for one model."""
    return gap_curves([model], [rho], alphas, [fps], [gen])[0]


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
    on the Delta-invariance of ker E that gap_sweep uses.  Phi~_t at the
    three times is exponentiated once per frame and serves every metric.
    Raises RankDeficiencyError when that f-Gram loses rank; math.inf when
    nothing decays.
    """
    _same_state([metric], model.dim, "model")
    if gen is None:
        gen = generator(model)
    if fps is None:
        fps = fixed_point_structure(model, rho, gen=gen)
    frame = _frame([fps], [metric], [gen])
    kernel = frame.parts[0][0]
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
    if frame.decay is None:
        frame.decay = expm(_DECAY_TIMES[:, None, None] * frame.gen[0])
    scaled = np.sqrt(weights)[:, None] * (frame.decay @ basis)
    rates = -np.log(np.linalg.norm(scaled, 2, axis=(1, 2))) / _DECAY_TIMES
    return float((8.0 * rates[0] - 6.0 * rates[1] + rates[2]) / 3.0)
