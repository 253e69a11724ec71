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
f, and W only on rho (formed on the state's first use, then kept).  So a
model's frame is built once: L~ = W^H L W; Q = W^H B_N and
R~ = R W from the factors E = B_N R that fixed_point_structure solved
for (the frame solves nothing); and, from one SVD of the fixed-point
constraints C = Q^H diag(sqrt w_gns), a unitary [V Y] with Y spanning
diag(sqrt w_gns) N and V its null space diag(sqrt w_gns) ker E.  A frame
holds these for a stack of models, model axis first, each from the
generator and state its FixedPointStructure was solved for.  A one-model
call takes only the structure fixed_point_structure returned for its model
and state (QmsGapError for any other) and keeps its frame on it, built once
(`_kept_frame`), so `spectral_gap_f` one f at a time, `gap_curve`,
`decaying_subspace` and `empirical_decay_rate` (with its exp(t L~)) share
it; `gap_sweep` and `gap_curve` hand it straight to the sweep core, and the
one-model chain gathers no stack of one.

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
map S once (a read-only S keeps S~ = W^H S W, keyed by the state rho)
and takes the 2-norms of A_f = diag(sqrt w_f) S~ diag(1/sqrt w_f) as
sqrt(lambda_max(A_f^H A_f)); `spectral_gap_f`, `decaying_subspace` and
`f_operator_norm` are thin wrappers over the two.  `empirical_decay_rate`,
the oracle for the gap, whitens its basis of ker E with an eigh of its own
f-Gram instead of rescaling V and takes its 2-norms by SVD, so it repeats
neither shortcut.

Batches of models
-----------------
`function_sweeps`, `gap_curves` and `function_norms` take many models and
one list of functions; `gap_sweep`, `gap_curve` and `f_operator_norms`
are their one-model counterparts.  Models of one d, one dim N and one
function count share stacks: their frame is one stack, built by one
stacked SVD, and their weight rows are one table (n, k, d^2) of
metric.weight_table.  The cores (`_sweep_group`, `_operator_norms`) take
such a table, with labels for their warnings and errors, and return
arrays: the gap, spectrum and residuals of each (model, function) and the
norm of each (model, time, function).  Each (model, row) pair is one slice
of a sweep, each (model, row, time) triple one slice of a norm, also where
two functions give equal rows.  A chunk of slices is one stacked
computation that gathers each slice's arrays from its model's stack.
numpy's stacked matmul, eigvalsh, svd and solve treat each slice as the
2-d call would, so each model gets exactly the numbers it gets alone; the
one-model routines run the same core on their kept frame, a stack of one
model that broadcasts over its slices.  The batched routines build no
FMetric or GapReport; the campaign's properties use them, and `gap_sweep`
builds its GapReports from the arrays at the end (`Sweep.reports`).  A
batched call keeps no frame, also for a group of one model, and reads
none.  A batch runs each stage for all its models before the
next, so its first error is that of the first failing stage, and it warns
of negative gaps once its group is swept; the campaign restores model
order by running a batch that raises or warns again one model at a time
(harness._pool).  Every stack holds at most linalg.CHUNK_BYTES (64 KiB)
of d^2 x d^2 complex data: max(1, 4096 // d^4) slices or models (256 at
d = 2, 16 at d = 4, one at d = 8), so peak memory grows with neither the
number of models nor of functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    NegativeGapWarning,
    PostconditionError,
    QmsGapError,
    RankDeficiencyError,
    warn,
)
from .linalg import (
    Superoperator, _stack, batches, chunks, dag, expm, frobenius_norms, pick,
    same_lengths,
)
from .metric import (
    COND_GUARD, FMetric, same_state, warn_if_ill_conditioned, weight_rows,
    weight_table,
)
from .monotone import power
from .qms import (
    MEMBERSHIP_TOL,
    DensityMatrix,
    FixedPointStructure,
    GKSLModel,
    _check_generator,
    _check_state_dim,
    fixed_point_structures,
    semigroups,
)

SUBSPACE_DROP_TOL = 1e-10
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


class Sweep(NamedTuple):
    """The gaps of one model for a list of functions, as arrays: lambdas
    (k,), spectra (k, d^2 - kernel_dim) and residuals (k, 4) in the order
    GapReport names them, (k, 0) when nothing decays."""

    kernel_dim: int
    lambdas: np.ndarray
    spectra: np.ndarray
    residuals: np.ndarray

    def reports(self, labels: Sequence[str]) -> list[GapReport]:
        """One GapReport per function, under its label."""
        return [
            GapReport(label, lam, self.kernel_dim, spectrum, dict(zip(_RESIDUALS, res)))
            for label, lam, spectrum, res in zip(
                labels, self.lambdas.tolist(), self.spectra, self.residuals.tolist()
            )
        ]


@dataclass
class _Frame:
    """The eigen frame (see the module docstring) of models of one d and
    dim N, stacked on a leading model axis: the orthonormality of [V Y], the
    slice parts V, |V_i|^2, Y^H, Y Y^H, Q and R~, L~ and, once
    empirical_decay_rate asks, model 0's decay stack exp(t L~)."""

    orthonormality: np.ndarray
    parts: tuple
    gen: np.ndarray
    decay: Optional[np.ndarray] = None


def _build_frame(fpss: Sequence[FixedPointStructure]) -> _Frame:
    """The frame of models with one d and one dim N, from the generator and
    state each structure was solved for: Q and R~ from E's factors, L~, and
    [V Y], the conjugate transpose of the right singular vectors, from one
    stacked SVD of the fixed-point constraints C = Q^H diag(sqrt w_gns) (see
    the module docstring)."""
    gens, rhos = zip(*(fps._solved_for for fps in fpss))
    d, n_fixed = rhos[0].dim, fpss[0].dim
    rotation = _stack([rho.rotation for rho in rhos])
    span = dag(rotation) @ _stack([fps.columns for fps in fpss])
    root_gns = np.sqrt(np.repeat(_stack([rho.eigenvalues for rho in rhos]), d, axis=1))
    constraints = dag(span) * root_gns[:, None, :]
    unitary = dag(np.linalg.svd(constraints)[2])
    ortho = np.maximum.reduce(
        np.abs(dag(unitary) @ unitary - np.eye(d * d)), axis=(1, 2)
    )
    coords = _stack([fps.coefficients for fps in fpss]) @ rotation
    # C order, as a gathered stack has it, for bit-identical products
    kernel = np.ascontiguousarray(unitary[:, :, n_fixed:])
    fixed = np.ascontiguousarray(unitary[:, :, :n_fixed])
    fixed_h = dag(fixed)
    rows = np.add.reduce((kernel.conj() * kernel).real, axis=-1)
    parts = (kernel, rows, np.ascontiguousarray(fixed_h), fixed @ fixed_h, span, coords)
    gen = dag(rotation) @ _stack([g.matrix for g in gens]) @ rotation  # L~
    return _Frame(ortho, parts, gen)


def _kept_frame(fps: FixedPointStructure) -> _Frame:
    """The frame of the model and state fps was solved for, built once and
    kept on fps: the one-model routines read theirs here.  The batched ones
    keep none, also for a group of one model (every group at d = 8): such a
    frame serves once, and a pool's frames would live as long as the pool."""
    if fps._frame is None:
        object.__setattr__(fps, "_frame", _build_frame([fps]))
    return fps._frame


def _own_fps(model, rho, fps: Optional[FixedPointStructure]) -> FixedPointStructure:
    """fps, or fixed_point_structure(model, rho) when None: QmsGapError
    unless fixed_point_structure returned fps for this model and state."""
    if fps is None:
        return fixed_point_structures([model], [rho])[0]
    owner = fps._solved_for
    if owner is None or owner[0] is not model._generator or owner[1] is not rho:
        raise QmsGapError("fps must be fixed_point_structure(model, rho) of this call")
    return fps


def _f_basis_defects(kernel, rows, span, coords, weights, root, ratios, label):
    """Memberships |P~ B~_f| / |B~_f| of the f-bases B~_f = diag(w_f)^{-1/2} V
    of ker E of stacked slices (root = sqrt(w_f), ratios = max / min of w_f
    as a list; label(s) names slice s).

    RankDeficiencyError when min(w_f) / max(w_f) < SUBSPACE_DROP_TOL: by
    Cauchy interlacing the f-Gram on ker E has its eigenvalues in
    [min(w_f), max(w_f)].  PostconditionError for a membership above
    MEMBERSHIP_TOL: ker E is then not Delta-invariant to that margin.  Each
    names the first failing slice."""
    for s, ratio in enumerate(ratios):
        if ratio > 1.0 / SUBSPACE_DROP_TOL:
            raise RankDeficiencyError(
                f"f-weight spread {1.0 / ratio:.3e} below {SUBSPACE_DROP_TOL:.1e} "
                f"for {label(s)}: the f-Gram on ker E may lose rank"
            )
    reduced = (coords / root[:, None, :]) @ kernel  # R~ diag(w_f)^{-1/2} V
    basis_norm = np.sqrt(np.add.reduce(rows / weights, axis=-1))  # |B~_f|
    membership = frobenius_norms(span @ reduced) / basis_norm
    for s, m in enumerate(membership.tolist()):
        if m > MEMBERSHIP_TOL:
            raise PostconditionError(f"f-basis leaves ker E by {m:.3e} for {label(s)}")
    return membership


def _sweep_chunk(kernel, rows, fixed_h, deflator, span, coords, gen, weights, ratios,
                 label, out):
    """The spectra of stacked slices, their adjoint, invariance and
    membership residuals written to columns 1-3 of out: slice s has
    weights[s] (their ratio max / min) on the frame of slice parts
    kernel[s], ..., gen[s] (one frame's arrays broadcast), and label(s)
    names it.  The spectrum is the d^2 - dim N lowest eigenvalues of the
    deflated H_f + c_f Y Y^H."""
    root = np.sqrt(weights)
    out[:, 3] = _f_basis_defects(
        kernel, rows, span, coords, weights, root, ratios, label
    )
    scaled = root[:, :, None] * gen / root[:, None, :]  # M_f
    size = frobenius_norms(scaled)
    deflated = (1.0 + 2.0 * size)[:, None, None] * deflator - (
        scaled + dag(scaled)
    ) / 2.0
    scale = np.maximum(1.0, size)
    drift = fixed_h @ scaled  # Z = Y^H M_f
    out[:, 1] = frobenius_norms(drift) / scale
    out[:, 2] = frobenius_norms(drift @ kernel) / scale
    return np.linalg.eigvalsh(deflated)[:, : kernel.shape[-1]]


def _sweep_group(frame: _Frame, rows: np.ndarray, labels, n_fixed: int):
    """Gaps of n models with one d and one dim N for k weight rows each:
    rows[g] (n, k, d^2) on model g of the frame, labels[g] naming them.
    Returns a Sweep's lambdas, spectra and residuals for each model,
    stacked (n, k, ...).

    Each (model, row) pair is one slice.  Warns IllConditionedWarning for
    weights spread beyond COND_GUARD, also when nothing decays, and then,
    once the group is swept, NegativeGapWarning for a gap below -1e-8: each
    once per label, in order."""
    n, k, size = rows.shape
    weights = rows.reshape(n * k, size)
    spreads = (weights.max(axis=1) / weights.min(axis=1)).tolist()
    for ratio in spreads:
        if ratio > COND_GUARD:
            warn_if_ill_conditioned(ratio)
    if n_fixed == size:
        return np.full((n, k), math.inf), np.empty((n, k, 0)), np.empty((n, k, 0))

    def label(s):  # of row s = g k + f
        return labels[s // k][s % k]

    stacks = (*frame.parts, frame.gen)
    arrays = [stack[0] for stack in stacks]  # one model broadcasts alone
    spectra = np.empty((n * k, size - n_fixed))
    residuals = np.empty((n * k, len(_RESIDUALS)))
    residuals[:, 0] = frame.orthonormality.repeat(k)
    for c in chunks(n * k, math.isqrt(size)):
        if n > 1:  # each slice takes the frame of its model
            owner = np.arange(n * k)[c] // k
            arrays = [stack[owner] for stack in stacks]
        spectra[c] = _sweep_chunk(
            *arrays, weights[c], spreads[c], lambda s, c=c: label(c.start + s),
            residuals[c],
        )
    for s, lam in enumerate(spectra[:, 0].tolist()):
        if lam < -1e-8:
            warn(
                f"negative gap {lam:.3e} for {label(s)}: restricted "
                f"generator is not dissipative",
                NegativeGapWarning,
            )
    spectra = spectra.reshape(n, k, size - n_fixed)
    return spectra[:, :, 0], spectra, residuals.reshape(n, k, len(_RESIDUALS))


def _sweeps(models, rhos, rows, labels) -> list:
    """The Sweep of each model for its k_i weight rows rows[i] (each d^2
    entries in vec order, of the state rhos[i]) under labels[i].

    The models that share d, dim N and k are stacked: their frames are
    built together and every (model, row) pair is one slice of the same
    chunked sweep (see the module docstring), with the result each model
    gets alone; no frame is kept.  Each stage runs for all models before
    the next, so the error raised is that of the first failing stage."""
    fpss = fixed_point_structures(models, rhos)
    out: list = [None] * len(models)
    keys = [(m.dim, fps.dim, len(r)) for m, fps, r in zip(models, fpss, rows)]
    for idx in batches(keys):
        frame = _build_frame(pick(fpss, idx))
        d, n_fixed, k = keys[idx[0]]
        stack = np.array(pick(rows, idx)).reshape(len(idx), k, d * d)
        arrays = _sweep_group(frame, stack, pick(labels, idx), n_fixed)
        for i, lambdas, spectra, residuals in zip(idx, *arrays):
            out[i] = Sweep(n_fixed, lambdas, spectra, residuals)
    return out


def _kept_sweep(model, rho, rows, labels, fps) -> Sweep:
    """The Sweep of one model for its weight rows (k, d^2) of the state rho
    under labels, as _sweeps gives it, on the frame kept on _own_fps."""
    fps = _own_fps(model, rho, fps)
    arrays = _sweep_group(_kept_frame(fps), rows[None], [labels], fps.dim)
    return Sweep(fps.dim, *(array[0] for array in arrays))


def _table_columns(models, rhos, functions) -> tuple[list, list]:
    """For each model, its state's weight rows for the functions (one
    metric.weight_table) and their labels: what _sweeps takes."""
    functions = tuple(functions)
    rows = weight_table(rhos, functions)
    for model, rho in zip(models, rhos):
        _check_state_dim(model, rho.dim)
    return rows, [[f.label for f in functions]] * len(rhos)


def _check_metrics(model: GKSLModel, rho: DensityMatrix, metrics) -> None:
    """The metrics must be on the model's d (DimensionMismatchError) and
    come from rho, the one state of the call (QmsGapError)."""
    same_state(metrics, model.dim, "model")
    if metrics[0].state is not rho:
        raise QmsGapError("the metrics of a call must come from its state rho")


def function_sweeps(
    models: Sequence[GKSLModel], rhos: Sequence[DensityMatrix], functions
) -> list[Sweep]:
    """The Sweep of each model for each function on its state, in order;
    the batched form of gap_sweep, with no FMetric or GapReport.

    The models that share d and dim N are stacked (_sweeps), with the
    result each model gets alone.  Each stage runs for all models before
    the next, so the error raised is that of the first failing stage (see
    the module docstring); lists of unequal lengths raise
    DimensionMismatchError."""
    same_lengths(models=models, rhos=rhos)
    return _sweeps(models, rhos, *_table_columns(models, rhos, functions))


def gap_sweep(
    model: GKSLModel,
    rho: DensityMatrix,
    metrics: Sequence[FMetric],
    fps: Optional[FixedPointStructure] = None,
) -> list[GapReport]:
    """Gap reports for every metric (all built from rho), in order.

    Builds the model's eigen frame on first use, keeps it on fps and batches
    the functions over it (see the module docstring); fps, computed when
    None, must be fixed_point_structure(model, rho) (QmsGapError).  No
    metrics give no reports.  An empty decaying subspace (nothing decays)
    reports lambda_f = +inf.  Warns IllConditionedWarning for weights spread
    beyond COND_GUARD and NegativeGapWarning for a gap below -1e-8, which
    signals a non-contraction bug upstream; raises RankDeficiencyError when
    some f-weights spread beyond 1 / SUBSPACE_DROP_TOL, PostconditionError
    when an f-basis leaves ker E by more than MEMBERSHIP_TOL, QmsGapError
    for metrics of another state than rho and DimensionMismatchError for
    metrics on another d than the model.
    """
    if not metrics:
        return []
    _check_metrics(model, rho, metrics)
    labels = [m.f.label for m in metrics]
    return _kept_sweep(model, rho, weight_rows(metrics), labels, fps).reports(labels)


def spectral_gap_f(
    model: GKSLModel,
    rho: DensityMatrix,
    metric: FMetric,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapReport:
    """Gap for one metric: gap_sweep over [metric]; gen, if given, must be
    generator(model) (QmsGapError)."""
    _check_generator(model, gen)
    return gap_sweep(model, rho, [metric], fps=fps)[0]


def decaying_subspace(metric: FMetric, fps: FixedPointStructure) -> np.ndarray:
    """f-orthonormal basis (columns in C^{d^2}) of ker E.

    diag(w_f)^{-1/2} V rotated back to column-stacking coordinates (see the
    module docstring).  QmsGapError unless fps was solved under the
    metric's state, RankDeficiencyError when the f-weights spread beyond
    1 / SUBSPACE_DROP_TOL and PostconditionError when the basis is not
    annihilated by E to MEMBERSHIP_TOL.
    """
    same_state([metric], math.isqrt(len(fps.columns)), "fixed-point structure")
    if fps._solved_for is None or fps._solved_for[1] is not metric.state:
        raise QmsGapError("fps must be solved under the metric's state")
    frame = _kept_frame(fps)
    kernel, rows, _, _, span, coords = (part[0] for part in frame.parts)
    if kernel.shape[1] == 0:
        return kernel
    weights = weight_rows([metric])
    root = np.sqrt(weights)
    ratios = weights.max(axis=1) / weights.min(axis=1)
    _f_basis_defects(
        kernel, rows, span, coords, weights, root, ratios, lambda s: metric.f.label
    )
    return metric.state.rotation @ (kernel / root[0][:, None])


def _operator_norms(rows: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    """Norms [g, t, f] of the maps rotated[g, t] = S~ for the weight rows
    rows[g, f] (n, k, d^2) of model g's state: the 2-norms of
    A = diag(sqrt w_f) S~ diag(1/sqrt w_f), as sqrt(lambda_max(A^H A)), one
    slice per (model, row, time)."""
    n, n_times = rotated.shape[:2]
    k, size = rows.shape[1:]
    root = np.sqrt(rows.reshape(n * k, size))
    maps = rotated.reshape(n * n_times, size, size)
    which_root, when = np.divmod(np.arange(n * k * n_times), n_times)
    which_map = which_root // k * n_times + when
    norms = np.empty(which_root.size)
    for c in chunks(norms.size, math.isqrt(size)):
        r = root[which_root[c]]
        # one map broadcasts over the slices; several are gathered per slice
        maps_c = maps[0] if len(maps) == 1 else maps[which_map[c]]
        scaled = r[:, :, None] * maps_c / r[:, None, :]
        norms[c] = np.sqrt(np.linalg.eigvalsh(dag(scaled) @ scaled)[:, -1])
    return norms.reshape(n, k, n_times).swapaxes(1, 2)


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
    same_state(metrics, s.dim, "map")
    state = metrics[0].state
    kept = s._rotated
    if kept is None or kept[0] is not state:
        w = state.rotation[None, None]
        kept = (state, dag(w) @ s.matrix[None, None] @ w)
        if not s.matrix.flags.writeable:
            object.__setattr__(s, "_rotated", kept)
    return _operator_norms(weight_rows(metrics)[None], kept[1])[0, 0]


def f_operator_norm(metric: FMetric, s: Superoperator) -> float:
    """Operator norm of the represented map for |.|_f: f_operator_norms([metric], s)."""
    return float(f_operator_norms([metric], s)[0])


def function_norms(
    models: Sequence[GKSLModel], rhos: Sequence[DensityMatrix], functions, times
) -> list[np.ndarray]:
    """f_operator_norms of Phi_t for each model, time and function on the
    model's state: one (len(times), len(functions)) array per model.

    The models of one d share stacked expms over all times (qms.semigroups)
    and chunked norm stacks (linalg.batches), with the result each model
    gets alone.  Lists of unequal lengths raise DimensionMismatchError."""
    same_lengths(models=models, rhos=rhos)
    rows, _ = _table_columns(models, rhos, functions)
    out = [np.empty((len(times), len(r))) for r in rows]
    keys = [(m.dim,) if len(r) else None for m, r in zip(models, rows)]
    for idx in batches(keys, len(times)):
        phis = np.array(semigroups(pick(models, idx), times))
        w = np.array([rhos[i].rotation for i in idx])[:, None]
        stack = np.array(pick(rows, idx))
        for i, norms in zip(idx, _operator_norms(stack, dag(w) @ phis @ w)):
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


def _curve(alphas: list[float], lambdas: list[float]) -> GapCurve:
    points = list(zip(alphas, lambdas))

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
    models: Sequence[GKSLModel], rhos: Sequence[DensityMatrix], alphas
) -> list[GapCurve]:
    """Power-family gap curve of each model on one alpha grid (QmsGapError
    if it is empty, DimensionMismatchError for lists of unequal lengths):
    one function_sweeps for all models."""
    same_lengths(models=models, rhos=rhos)
    alphas, functions = _powers(alphas)
    sweeps = _sweeps(models, rhos, *_table_columns(models, rhos, functions))
    return [_curve(alphas, sweep.lambdas.tolist()) for sweep in sweeps]


def gap_curve(
    model: GKSLModel,
    rho: DensityMatrix,
    alphas,
    fps: Optional[FixedPointStructure] = None,
    gen: Optional[Superoperator] = None,
) -> GapCurve:
    """Power-family gaps on the alpha grid: gap_curves for one model, on
    the frame kept on its fps (taken as gap_sweep takes it); gen, if given,
    must be generator(model) (QmsGapError)."""
    _check_generator(model, gen)
    alphas, functions = _powers(alphas)
    (rows,), (labels,) = _table_columns([model], [rho], functions)
    return _curve(alphas, _kept_sweep(model, rho, rows, labels, fps).lambdas.tolist())


def _powers(alphas) -> tuple[list, list]:
    """The alpha grid as floats and its power functions; QmsGapError if it
    is empty."""
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise QmsGapError("gap curve needs at least one alpha")
    return alphas, [power(alpha) for alpha in alphas]


def empirical_decay_rate(
    model: GKSLModel,
    rho: DensityMatrix,
    metric: FMetric,
    fps: Optional[FixedPointStructure] = None,
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
    Raises RankDeficiencyError when that f-Gram loses rank, QmsGapError for
    a metric of another state than rho or an fps other than
    fixed_point_structure(model, rho); math.inf when nothing decays.
    """
    _check_metrics(model, rho, [metric])
    frame = _kept_frame(_own_fps(model, rho, fps))
    kernel = frame.parts[0][0]
    if kernel.shape[1] == 0:
        return math.inf
    weights = weight_rows([metric])[0]
    raw = kernel / np.sqrt(np.repeat(rho.eigenvalues, rho.dim))[:, None]
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
