"""GKSL models and their quantum Markov semigroups in the Heisenberg picture.

A model is a Hamiltonian H plus jump operators V_j on M_d(C).  The
Heisenberg generator

    L(x) = i [H, x] + sum_j ( V_j^H x V_j - (1/2) {V_j^H V_j, x} )

is unital (L(1) = 0), *-preserving and conditionally completely positive,
so Phi_t = exp(t L) is a semigroup of unital completely positive maps
(Lindblad; Gorini, Kossakowski and Sudarshan), and `generator` asserts all
three on every matrix it builds, reading them from its Choi matrix.
States evolve under the trace dual L_*, whose matrix in column-stacking
coordinates is the conjugate transpose of the generator matrix.

The fixed-point algebra N = {x : L(x) = 0} carries a state-preserving
conditional expectation E, realized here as the GNS-orthogonal projection
onto N and kept as its two rank-dim N factors (FixedPointStructure); the
defining identities E^2 = E, E(1) = 1 and tr(rho E(x)) = tr(rho x) are
asserted on those factors after construction, and *-preservation on the
Choi matrix of E = B R, formed for that check alone.

Models are immutable: a GKSLModel keeps read-only copies of H and the
jumps (the caller's arrays stay as they were), so `generator` builds and
checks the generator matrix once per model, keeps it on the model and
returns that same read-only Superoperator on every later call.  Every
routine that takes a model runs that one generator; the few that still
accept `gen=` take only that object.  The invariant state spans
ker L_* and the fixed-point algebra is ker L, so both come from one SVD and
one kernel decision per model, also kept on the model (`_kernels`).

Every build, check and solve here runs on stacks: `_generators`,
`_kernels`, `_invariant_states`, `fixed_point_structures` and `semigroups`
serve the models of one d with one stacked call per stage, each model
getting bit for bit what it gets alone, and `generator`, `invariant_state`,
`fixed_point_structure` and `semigroup` are them on one model.
`random_faithful_models` decides a batch of draws as one stack.  States too: `density_matrices`
checks a stack of them with one eigh, and `_random_states` builds
`random_density`'s states from draws of one d (`_state_draw`) taken
earlier, in stream order, with one QR.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    KernelDecisionError,
    NoFaithfulInvariantStateError,
    NonUniqueInvariantStateError,
    NotHermitianError,
    PostconditionError,
    QmsGapError,
)
from .linalg import (
    DEFAULT_TOL,
    Superoperator,
    _as_complex_square,
    _stack,
    batches,
    choi_matrix,
    dag,
    expm,
    frobenius,
    frobenius_norms,
    herm_eigs,
    kron,
    pick,
    same_lengths,
    unvec,
    vec,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|

FAITHFULNESS_THRESHOLD = 1e-8
KERNEL_TOL = 1e-8
INVARIANCE_TOL = 1e-9  # the bar |L_*(rho)|_F of every state taken as invariant
MEMBERSHIP_TOL = 1e-9  # E's identities are held to it, and so gap's f-bases of ker E
MAX_DRAWS = 20  # random_faithful_model gives up after this many draws
DRAW_EIG_FLOOR = 1e-4  # random_faithful_model's floor on min eig of rho
DENSITY_EIG_FLOOR = 1e-3  # random_density's floor on its spectrum


@dataclass(frozen=True)
class GKSLModel:
    """Hamiltonian plus jump operators; H must be Hermitian within 1e-10.

    Holds read-only complex copies of its arrays, so the generator and the
    kernel split kept on the model (`_generator`, `_kernels`) cannot go
    stale.
    """

    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = field(default_factory=tuple)
    _generator: Optional[Superoperator] = field(
        default=None, init=False, repr=False, compare=False
    )
    _kernels: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        h = _as_complex_square(self.hamiltonian, "Hamiltonian").copy()
        if frobenius(h - dag(h)) > DEFAULT_TOL * max(1.0, frobenius(h)):
            raise NotHermitianError("Hamiltonian is not Hermitian within tolerance")
        jumps = tuple(_as_complex_square(v, "jump").copy() for v in self.jumps)
        if any(v.shape != h.shape for v in jumps):
            raise DimensionMismatchError("jump operator dimension mismatch")
        for a in (h, *jumps):
            a.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A state rho = U diag(p) U^H, PSD and of trace one, faithful iff min p >
    threshold: eigenvalues p descending, basis U matching, both read-only."""

    rho: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    faithful: bool

    @functools.cached_property
    def rotation(self) -> np.ndarray:
        """W = conj(U) (x) U, so W^H vec(x) = vec(U^H x U): read-only, formed
        on first use."""
        w = kron(self.basis.conj(), self.basis)
        w.setflags(write=False)
        return w

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def density_matrix(
    rho, faithfulness_threshold: float = FAITHFULNESS_THRESHOLD
) -> DensityMatrix:
    """The state rho: density_matrices of one matrix."""
    return density_matrices(_as_complex_square(rho)[None], faithfulness_threshold)[0]


def density_matrices(
    rhos: np.ndarray, faithfulness_threshold: float = FAITHFULNESS_THRESHOLD
) -> list[DensityMatrix]:
    """The state of each matrix of a finite stack (n, d, d), rebuilt from
    its eigendecomposition by one herm_eigs: QmsGapError for the first that
    has a trace other than 1 or a negative eigenvalue (beyond DEFAULT_TOL)."""
    values, vectors, rebuilt = herm_eigs(rhos)
    for trace, low in zip(np.trace(rhos, axis1=1, axis2=2).real.tolist(), values[:, 0]):
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise QmsGapError(f"state trace {trace!r} is not 1 within tolerance")
        if low < -DEFAULT_TOL:
            raise QmsGapError(f"state has negative eigenvalue {low:.3e}")
    return _states(values, vectors, rebuilt, faithfulness_threshold)


def _states(values, vectors, rebuilt, threshold: float) -> list[DensityMatrix]:
    """The states rebuilt[g] of a stack from its ascending herm_eigs pairs,
    each a row of one descending, read-only copy of them."""
    p, u = values[:, ::-1].copy(), vectors[:, :, ::-1].copy()
    p.setflags(write=False)
    u.setflags(write=False)
    return [
        DensityMatrix(rho=rho, eigenvalues=w, basis=v, faithful=bool(w[-1] > threshold))
        for rho, w, v in zip(rebuilt, p, u)
    ]


def generator(model: GKSLModel) -> Superoperator:
    """Matrix of the Heisenberg generator, checked to generate a semigroup
    of unital completely positive maps for every t >= 0: _generators for
    one model.

    That holds exactly when the Choi matrix C of L meets three conditions
    (Lindblad, Commun. Math. Phys. 48, 1976; Gorini, Kossakowski and
    Sudarshan, J. Math. Phys. 17, 1976): its diagonal d x d blocks sum to
    L(1) = 0, it is Hermitian (L is *-preserving), and P C P is positive
    semidefinite for P = 1 - Omega Omega^H, Omega = vec(1) / sqrt(d) (L is
    conditionally completely positive).  C decides all three:
    PostconditionError unless |L(1)|_F, |C - C^H|_F and minus the floor of
    P C P are within max(1, max |L|) times 1e-10, 1e-9 and 1e-9.
    Built and checked on the first call for a model; the model keeps the
    result, with a read-only matrix, and later calls return that object.
    """
    if model._generator is not None:
        return model._generator
    return _generators([model])[0]


def _generators(models: Sequence[GKSLModel]) -> list[Superoperator]:
    """Each model's generator, as generator gives it.

    Those not yet kept are built and checked as stacks of one d
    (linalg.batches, _generator_stack): the PostconditionError of the first
    failing model of a stack, whose models then keep no generator.  Each
    model of several keeps a copy of its own matrix, not a view of the
    stack; a lone one keeps the view, its stack being its own.  A model
    listed twice keeps the first."""
    keys = ((m.dim,) if m._generator is None else None for m in models)
    for idx in batches(keys):
        mats = _generator_stack(pick(models, idx))
        _check_generators(mats)
        for i, mat in zip(idx, mats):
            if models[i]._generator is None:
                mat = mat.copy() if len(idx) > 1 else mat
                mat.setflags(write=False)
                gen = Superoperator(dim=models[i].dim, matrix=mat)
                object.__setattr__(models[i], "_generator", gen)
    return [m._generator for m in models]


def _check_generator(model: GKSLModel, gen: Optional[Superoperator]) -> None:
    """QmsGapError unless gen is None or the generator the model keeps:
    every routine runs the model's one generator.  Builds nothing."""
    if gen is not None and gen is not model._generator:
        raise QmsGapError("gen must be generator(model), the model's own generator")


def _generator_stack(models: Sequence[GKSLModel]) -> np.ndarray:
    """L of each model of one d in column-stacking coordinates, stacked in
    the models' order: i (1 (x) H - H^T (x) 1), then for each jump V in turn
    + V^T (x) V^H - (1 (x) V^H V + (V^H V)^T (x) 1) / 2.

    Jump k updates the rows of the models that have a k-th jump: the cross
    term is one np.kron per model and jump, each term with an identity side
    one np.kron for those rows (2 + 3 n_jumps calls for one model).  Each
    row is updated in place through its view, where mat[have] would gather
    and scatter the stack.  Every entry is the same product and the same
    sequence of sums as the model built alone."""
    d = models[0].dim
    eye = np.eye(d, dtype=complex)
    h = _stack([m.hamiltonian for m in models])
    mat = 1j * (np.kron(eye, h) - np.kron(_transposes(h), eye))
    for k in range(max(len(m.jumps) for m in models)):
        have = [i for i, m in enumerate(models) if len(m.jumps) > k]
        v = _stack([models[i].jumps[k] for i in have])
        v_t = _transposes(v)  # contiguous factors spare np.kron a copy
        vdag_v = dag(v) @ v
        sides = 0.5 * (np.kron(eye, vdag_v) + np.kron(_transposes(vdag_v), eye))
        for i, a, b, side in zip(have, v_t, v_t.conj(), sides):
            row = mat[i]
            row += np.kron(a, b)
            row -= side
    return mat


def _transposes(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack, C-contiguous."""
    return np.ascontiguousarray(a.swapaxes(1, 2))


def _check_generators(mats: np.ndarray) -> None:
    """PostconditionError for the first stacked generator matrix of one d
    that fails one of generator's three conditions, naming the first of
    them it fails; all three are read from its Choi matrix C."""
    d = math.isqrt(mats.shape[-1])
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    margin = 1e-9 * scale
    choi = choi_matrix(mats)  # block (i, j) is L(|i><j|)
    ones = np.trace(choi.reshape(-1, d, d, d, d), axis1=1, axis2=3)  # L(1)
    unital = frobenius_norms(ones) <= DEFAULT_TOL * scale
    star = frobenius_norms(choi - dag(choi)) <= margin  # C Hermitian
    off = _off_identity(d)
    blocks = off @ choi @ off  # P C P, Omega's eigenvalue 0
    blocks.reshape(len(mats), -1)[:, :: d * d + 1] += margin[:, None]
    try:  # succeeds iff no P C P has an eigenvalue below -margin
        np.linalg.cholesky(blocks)
        floors = -margin
    except np.linalg.LinAlgError:  # the floors decide which fail
        floors = np.linalg.eigvalsh(blocks)[:, 0] - margin
    for g in range(len(mats)):
        if not unital[g]:
            raise PostconditionError("generator fails unitality L(1) = 0")
        if not star[g]:
            raise PostconditionError("generator is not *-preserving")
        if floors[g] < -margin[g]:
            raise PostconditionError(
                f"generator is not conditionally completely positive: projected "
                f"Choi floor {floors[g]:.3e} below {-margin[g]:.3e}"
            )


@functools.lru_cache(maxsize=None)
def _off_identity(d: int) -> np.ndarray:
    """P = 1 - Omega Omega^H for Omega = vec(1) / sqrt(d), read-only."""
    omega = np.eye(d).reshape(-1) / math.sqrt(d)
    off = np.eye(d * d) - np.outer(omega, omega)
    off.setflags(write=False)
    return off


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise QmsGapError(
            f"semigroup parameter t must be finite and nonnegative, got {t!r}"
        )


def semigroup(
    model: GKSLModel, t: float, gen: Optional[Superoperator] = None
) -> Superoperator:
    """Phi_t = exp(t L) as a superoperator with a read-only matrix; t must
    be finite and nonnegative: semigroups for one model and one time."""
    _check_time(t)
    _check_generator(model, gen)
    phi = semigroups([model], [t])[0][0]
    phi.setflags(write=False)
    return Superoperator(dim=model.dim, matrix=phi)


def semigroups(models: Sequence[GKSLModel], times) -> list[np.ndarray]:
    """The matrices of Phi_t = exp(t L) for each model at each time: one
    (len(times), d^2, d^2) array per model.

    The models of one d are exponentiated as stacks (linalg.batches), each
    model getting the entries it gets alone (linalg.expm).
    """
    times = np.array([float(t) for t in times])
    for t in times:
        _check_time(float(t))
    out: list = [None] * len(models)
    for idx in batches(((m.dim,) for m in models), len(times)):
        gens = _stack([generator(models[i]).matrix for i in idx])
        phis = expm(times[None, :, None, None] * gens[:, None])
        for g, i in enumerate(idx):
            out[i] = phis[g]
    return out


def _kernels(models: Sequence[GKSLModel]) -> list:
    """For each model, columns spanning ker L_* and ker L from one SVD of
    L_* = L^H, L its generator.

    L_* = U S V^H gives L = V S U^H, so for the singular values at most
    tau0 = 100 d^2 eps_mach s_max, the right singular vectors span ker L_*
    and the left ones ker L (PostconditionError when there are none).  A
    singular value in (tau0, KERNEL_TOL s_max] is too close to call, as
    round-off or as a slow mode, and raises KernelDecisionError; a model
    whose slowest mode lies below tau0 is decoupled to working precision
    and counts it as a fixed point.  The model keeps the columns,
    read-only.  The generators of one d share a stacked SVD; the first
    model of a stack that fails raises.
    """
    gens = _generators(models)
    out = [m._kernels for m in models]
    for idx in batches((m.dim,) if k is None else None for m, k in zip(models, out)):
        stack = _stack([gens[i].matrix for i in idx]).conj().swapaxes(1, 2)
        us, svals, vhs = np.linalg.svd(stack)
        d = models[idx[0]].dim
        top = np.maximum(svals[:, :1], 1e-300)
        edges = top * np.array([100 * d**2 * np.finfo(float).eps, KERNEL_TOL])
        # how many singular values lie at or below the zero edge and the cut;
        # svd sorts them descending, so the smallest thin one is at -1 - n_zero
        counts = np.add.reduce(svals[:, None] <= edges[:, :, None], axis=2).tolist()
        for g, (n_zero, n_cut) in enumerate(counts):
            if n_cut > n_zero:
                zero, cut = edges[g]
                raise KernelDecisionError(
                    f"generator singular value {svals[g, -1 - n_zero]:.3e} lies "
                    f"between the zero edge {zero:.3e} and the kernel cut "
                    f"{cut:.3e}: the kernel dimension is too close to call"
                )
            if n_zero == 0:
                raise PostconditionError("generator kernel is empty; 1 should be fixed")
        for i, u, vh, (k, _) in zip(idx, us, vhs, counts):
            out[i] = (vh[-k:].conj().T, u[:, -k:].copy())
            for columns in out[i]:
                columns.setflags(write=False)
            object.__setattr__(models[i], "_kernels", out[i])
    return out


def _check_state_dim(model: GKSLModel, dim: int) -> None:
    if dim != model.dim:
        raise DimensionMismatchError(
            f"state of dimension {dim} for a model of dimension {model.dim}"
        )


def invariant_state(
    model: GKSLModel, gen: Optional[Superoperator] = None
) -> DensityMatrix:
    """Solve L_*(rho) = 0 for the unique trace-one positive solution.

    ker L_* is the model's kernel split (`_kernels`).  Raises
    NonUniqueInvariantStateError if it has dimension greater than one
    (callers may still proceed with a supplied state), and
    NoFaithfulInvariantStateError if the solution is not faithful.
    """
    _check_generator(model, gen)
    return _invariant_states([model])[0]


def _invariant_states(models: Sequence[GKSLModel]) -> list[DensityMatrix]:
    """Each model's invariant state, as invariant_state gives it; the models
    of one d share the stacked solves, and the first model of a stack that
    fails a check raises.

    The candidate is the last column of ker L_*, scaled to trace one and
    Hermitized; PostconditionError if its trace is below 1e-12 or if the
    residual |L_*(rho)| exceeds INVARIANCE_TOL, ConvergenceFailureError if
    its herm_eigs fails or fails to reconstruct it."""
    splits = _kernels(models)
    for dual_kernel, _ in splits:
        if dual_kernel.shape[1] > 1:
            raise NonUniqueInvariantStateError(
                f"kernel of the dual generator has dimension {dual_kernel.shape[1]}"
            )
    out: list = [None] * len(models)
    for idx in batches((m.dim,) for m in models):
        d = models[idx[0]].dim
        cands = _stack([splits[i][0][:, -1] for i in idx]).reshape(-1, d, d, order="F")
        traces = cands.trace(axis1=1, axis2=2)
        if (np.abs(traces) < 1e-12).any():
            raise PostconditionError("invariant-state candidate is traceless")
        cands = cands / traces[:, None, None]
        cands = (cands + dag(cands)) / 2.0  # exactly Hermitian from here on
        cands = cands / cands.trace(axis1=1, axis2=2).real[:, None, None]
        values, vectors, rhos = herm_eigs(cands)
        floors = values[:, 0]
        if (floors <= FAITHFULNESS_THRESHOLD).any():
            raise NoFaithfulInvariantStateError(
                f"invariant state has eigenvalue {floors.min():.3e} "
                f"at or below {FAITHFULNESS_THRESHOLD:.1e}"
            )
        duals = dag(_stack([models[i]._generator.matrix for i in idx]))
        residuals = frobenius_norms(duals @ rhos.reshape(-1, d * d, 1, order="F"))
        if (residuals > INVARIANCE_TOL).any():
            raise PostconditionError(f"invariant-state residual {residuals.max():.3e}")
        states = _states(values, vectors, rhos, FAITHFULNESS_THRESHOLD)
        for i, state in zip(idx, states):
            out[i] = state
    return out


def _not_invariant(residual: float) -> str:
    """What a state with |L_*(rho)|_F = residual above INVARIANCE_TOL is."""
    bar = np.format_float_scientific(INVARIANCE_TOL, trim="-", exp_digits=1)
    return f"not invariant: residual |L_*(rho)| {residual:.3e} exceeds {bar}"


def check_invariance(model: GKSLModel, rho) -> float:
    """Frobenius norm of L_*(rho) for a d x d rho; invariant to INVARIANCE_TOL."""
    mat = rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    _check_state_dim(model, len(mat))
    return float(np.linalg.norm(generator(model).matrix.conj().T @ vec(mat)))


@dataclass(frozen=True)
class FixedPointStructure:
    """Fixed-point algebra N = ker L with its conditional expectation E = B R,
    the GNS-orthogonal projection onto N, as its rank-dim N factors: columns
    B = [vec(b_j)], the b_j spanning N, and coefficients
    R = (B^H G B)^{-1} (G B)^H, G the GNS Gram.  basis, dim and degenerate
    (dim N > 1) derive from them; E itself, d^2 x d^2, is not kept, only
    formed for the Choi matrix of its *-check (_check_expectations).
    The one-model gap routines take it only for the generator and state it
    was solved for (`_solved_for`; None when built by hand) and keep their
    frame of them in `_frame` (gap._kept_frame); the batched ones keep none."""

    columns: np.ndarray
    coefficients: np.ndarray
    _solved_for: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _frame: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(unvec(column) for column in self.columns.T)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def degenerate(self) -> bool:
        return self.dim > 1


def fixed_point_structure(
    model: GKSLModel, rho: DensityMatrix, gen: Optional[Superoperator] = None
) -> FixedPointStructure:
    """Kernel of the generator plus the GNS-orthogonal projection onto it:
    fixed_point_structures for one model."""
    _check_generator(model, gen)
    return fixed_point_structures([model], [rho])[0]


def fixed_point_structures(
    models: Sequence[GKSLModel], rhos: Sequence[DensityMatrix]
) -> list[FixedPointStructure]:
    """The fixed-point structure of each model under its state, in order.

    Requires lists of one length and faithful states of the model's d
    (DimensionMismatchError, QmsGapError) that the model leaves invariant:
    QmsGapError when |L_*(rho)|_F exceeds INVARIANCE_TOL, the bar computed
    invariant states are held to.  B is the model's split of ker L
    (`_kernels`), R solves with G B = [vec(b_j rho)] and no d^2 x d^2 Gram,
    E's identities are asserted (_check_expectations; PostconditionError), and
    models of one d and dim N share stacked solves (linalg.batches)."""
    same_lengths(models=models, rhos=rhos)
    for model, rho in zip(models, rhos):
        _check_state_dim(model, rho.dim)
        if not rho.faithful:
            raise QmsGapError("fixed-point structure needs a faithful state")
    kernels = [split[1] for split in _kernels(models)]
    out: list = [None] * len(models)
    for idx in batches((m.dim, ker.shape[1]) for m, ker in zip(models, kernels)):
        d, k = models[idx[0]].dim, kernels[idx[0]].shape[1]
        vecs = _stack(pick(kernels, idx))  # columns span ker L
        state = _stack([rhos[i].rho for i in idx])
        states = state.reshape(len(idx), d * d, order="F")  # vec(rho) per row
        duals = dag(_stack([models[i]._generator.matrix for i in idx]))
        for residual in frobenius_norms(duals @ states[:, :, None]).tolist():
            if residual > INVARIANCE_TOL:
                raise QmsGapError(f"state is {_not_invariant(residual)}")
        # rows vec(b_j rho)^T: the b_j^T are the C-order d x d blocks of vecs
        blocks = vecs.reshape(len(idx), d, d, k).transpose(0, 3, 1, 2)
        weighted = (state.swapaxes(1, 2)[:, None] @ blocks).reshape(len(idx), k, d * d)
        coeffs = np.linalg.solve(weighted.conj() @ vecs, weighted.conj())
        coeffs.setflags(write=False)
        for g, i in enumerate(idx):
            out[i] = FixedPointStructure(columns=kernels[i], coefficients=coeffs[g])
            object.__setattr__(out[i], "_solved_for", (models[i]._generator, rhos[i]))
        _check_expectations(vecs, coeffs, states)
    return out


def _check_expectations(columns, coeffs, states) -> None:
    """Assert R B = I (so E^2 = E), E(1) = 1, tr(rho E(x)) = tr(rho x) and
    *-preservation at MEMBERSHIP_TOL for stacked factors E = B R; states
    holds vec(rho) per row.  E's d^2 x d^2 matrices are formed for this
    stack alone and not kept: *-preservation is their Choi matrices'
    Hermiticity."""
    one = np.eye(math.isqrt(columns.shape[1])).reshape(-1, 1)  # vec(1)
    choi = choi_matrix(columns @ coeffs)
    states = states[:, :, None]
    preserved = dag(coeffs) @ (dag(columns) @ states)  # E^H vec(rho)
    idempotent = np.abs(coeffs @ columns - np.eye(columns.shape[2])).max(axis=(1, 2))
    unital = frobenius_norms(columns @ (coeffs @ one) - one)
    defects = np.array([idempotent, unital, frobenius_norms(preserved - states),
                        frobenius_norms(choi - dag(choi))])
    failing = defects.max(axis=0) > MEMBERSHIP_TOL
    if failing.any():
        g = int(failing.argmax())
        names = ("idempotent", "unital", "state-preserving", "star-preserving")
        row = dict(zip(names, defects[:, g].tolist()))
        raise PostconditionError(f"conditional-expectation identities fail: {row!r}")


# ---------------------------------------------------------------------------
# Named example models and random ensembles
# ---------------------------------------------------------------------------


def depolarizing_qubit(gamma: float) -> GKSLModel:
    """Jumps sqrt(gamma/2) sigma_{x,y,z}; acts as x -> -2 gamma x on
    traceless x, so the decay rate of every nontrivial mode is 2 gamma."""
    scale = np.sqrt(gamma / 2.0)
    return GKSLModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=(scale * SIGMA_X, scale * SIGMA_Y, scale * SIGMA_Z),
    )


def thermal_qubit(
    gamma_up: float, gamma_down: float, splitting: float = 0.0
) -> GKSLModel:
    """Decay sqrt(gamma_down) sigma_- and absorption sqrt(gamma_up) sigma_+,
    H = (splitting/2) sigma_z, basis ordered (excited, ground).  The
    invariant state is diag(gamma_up, gamma_down)/(gamma_up + gamma_down)."""
    jumps = []
    if gamma_down > 0:
        jumps.append(np.sqrt(gamma_down) * SIGMA_MINUS)
    if gamma_up > 0:
        jumps.append(np.sqrt(gamma_up) * SIGMA_PLUS)
    return GKSLModel(
        hamiltonian=(splitting / 2.0) * SIGMA_Z, jumps=tuple(jumps)
    )


def _state_draw(rng: np.random.Generator, dim: int) -> tuple:
    """What random_density takes from the stream: a Dirichlet spectrum and
    a Ginibre matrix for the basis."""
    raw = rng.dirichlet(np.ones(dim))
    return raw, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_states(draws) -> list[DensityMatrix]:
    """random_density's state of each _state_draw of one d: the spectrum
    floored by DENSITY_EIG_FLOOR in the Haar-ish basis of the QR
    decomposition, from one stacked QR and one density_matrices."""
    raw, z = (np.array(column) for column in zip(*draws))
    p = (raw + 2.0 * DENSITY_EIG_FLOOR) / (1.0 + 2.0 * DENSITY_EIG_FLOOR * raw.shape[1])
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (phases / np.abs(phases))[:, None, :]
    return density_matrices((u * p[:, None, :]) @ dag(u))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random faithful state: _random_states of one _state_draw."""
    return _random_states([_state_draw(rng, dim)])[0]


def random_model(rng: np.random.Generator, dim: int) -> GKSLModel:
    """H with complex Gaussian entries / sqrt(d) (Hermitized) and one to
    three Gaussian jumps scaled by 1 / sqrt(d).  Each Ginibre stack takes
    its real and imaginary parts from one standard_normal call, in the
    stream order of one matrix at a time."""
    scale = 1.0 / np.sqrt(dim)

    def ginibre(k):
        z = rng.standard_normal((k, 2, dim, dim))
        return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0) * scale

    a = ginibre(1)[0]
    h = (a + dag(a)) / 2.0
    n_jumps = int(rng.integers(1, 4))
    return GKSLModel(hamiltonian=h, jumps=tuple(ginibre(n_jumps)))


def random_faithful_model(
    rng: np.random.Generator, dim: int
) -> tuple[GKSLModel, DensityMatrix, int]:
    """Draw random models until the invariant state is unique and faithful
    with min eigenvalue above DRAW_EIG_FLOOR; returns the rejected-draw
    count.  A draw whose kernel dimension is too close to call is rejected.

    The eigenvalue floor keeps the modular spectrum, and with it every
    f-weight matrix, inside comfortable double-precision range.
    """
    rejected = 0
    for _ in range(MAX_DRAWS):
        model = random_model(rng, dim)
        try:
            rho = invariant_state(model)
        except (KernelDecisionError, NonUniqueInvariantStateError,
                NoFaithfulInvariantStateError):
            rejected += 1
            continue
        if rho.eigenvalues.min() > DRAW_EIG_FLOOR:
            return model, rho, rejected
        rejected += 1
    raise QmsGapError(
        f"no well-conditioned invariant state in {MAX_DRAWS} draws at d={dim}"
    )


def random_faithful_models(
    rng: np.random.Generator, dims: Sequence[int]
) -> Iterator[tuple[GKSLModel, DensityMatrix, int]]:
    """What random_faithful_model(rng, d) returns for each d of dims in turn,
    bit for bit, with rng left where those calls leave it once every model
    is taken; the error of the first draw that raises, after the models
    before it.

    One candidate is drawn for each d as if every one will be accepted, and
    all are decided at once (_invariant_states).  That is exact because
    random_model consumes the stream by d alone and an accepted draw
    consumes nothing more.  If any candidate is rejected or raises, the
    stream is set back to where the batch began and random_faithful_model
    draws the batch again, one d at a time.
    """
    dims = list(dims)
    start = rng.bit_generator.state
    models = [random_model(rng, d) for d in dims]
    try:
        states = _invariant_states(models)
    except (QmsGapError, np.linalg.LinAlgError):
        states = []
    if len(states) == len(models) and all(
        state.eigenvalues.min() > DRAW_EIG_FLOOR for state in states
    ):
        return iter([(model, state, 0) for model, state in zip(models, states)])
    rng.bit_generator.state = start
    return (random_faithful_model(rng, d) for d in dims)
