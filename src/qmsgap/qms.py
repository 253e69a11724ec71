"""GKSL models and their quantum Markov semigroups in the Heisenberg picture.

A model is a Hamiltonian H plus jump operators V_j on M_d(C).  The
Heisenberg generator

    L(x) = i [H, x] + sum_j ( V_j^H x V_j - (1/2) {V_j^H V_j, x} )

is unital (L(1) = 0), *-preserving and conditionally completely positive,
so Phi_t = exp(t L) is a semigroup of unital completely positive maps
(Lindblad; Gorini, Kossakowski and Sudarshan), and `generator` asserts all
three on every matrix it builds.  States evolve under the trace dual
L_*, whose matrix in column-stacking coordinates is the conjugate
transpose of the generator matrix.

The fixed-point algebra N = {x : L(x) = 0} carries a state-preserving
conditional expectation E, realized here as the GNS-orthogonal projection
onto N and kept as its two rank-dim N factors (FixedPointStructure); the
defining identities E^2 = E, E(1) = 1, tr(rho E(x)) = tr(rho x) and
*-preservation are asserted on those factors after construction.

Models are immutable: a GKSLModel keeps read-only copies of H and the
jumps (the caller's arrays stay as they were), so `generator` builds and
checks the generator matrix once per model, keeps it on the model and
returns that same read-only Superoperator on every later call.  Every
routine that takes a model therefore shares one generator per model, with
or without the optional `gen=` argument.  The invariant state spans
ker L_* and the fixed-point algebra is ker L, so both come from one SVD and
one kernel decision per model, also kept on the model (`_kernels`).

Every check and solve here runs on stacks: `_generators`, `_kernels`,
`_invariant_states` and `fixed_point_structures` serve the models of one d
with one stacked call per stage, each model getting bit for bit what it
gets alone, and `generator`, `invariant_state` and `fixed_point_structure`
are them on one model.  `random_faithful_models` decides a batch of draws
as one stack.  States too: `density_matrices` checks a stack of them with
one eigh, and `_random_states` builds `random_density`'s states from
draws of one d (`_state_draw`) taken earlier, in stream order, with one QR.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ConvergenceFailureError,
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
    HermitianEigen,
    Superoperator,
    _as_complex_square,
    batches,
    choi_matrix,
    dag,
    expm,
    frobenius,
    frobenius_norms,
    herm_eigs,
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
    """A state rho: PSD, trace one; faithful iff min eigenvalue > threshold."""

    rho: np.ndarray
    eigen: HermitianEigen
    faithful: bool

    @functools.cached_property
    def _split(self) -> tuple:
        """Descending eigenvalues p, their basis and the modular ratios
        p_i / p_j, read-only: made once, shared by the state's f-metrics."""
        p = self.eigen.values[::-1].copy()
        split = (p, self.eigen.vectors[:, ::-1].copy(), p[:, None] / p[None, :])
        for part in split:
            part.setflags(write=False)
        return split

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
    """The state of each matrix of a finite stack (n, d, d), from one
    herm_eigs: QmsGapError for the first that has a trace other than 1 or
    a negative eigenvalue (beyond DEFAULT_TOL)."""
    values, vectors = herm_eigs(rhos)
    for trace, low in zip(np.trace(rhos, axis1=1, axis2=2).real.tolist(), values[:, 0]):
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise QmsGapError(f"state trace {trace!r} is not 1 within tolerance")
        if low < -DEFAULT_TOL:
            raise QmsGapError(f"state has negative eigenvalue {low:.3e}")
    return [
        DensityMatrix(rho=(v * w) @ dag(v), eigen=HermitianEigen(values=w, vectors=v),
                      faithful=bool(w[0] > faithfulness_threshold))
        for w, v in zip(values, vectors)
    ]


def generator(model: GKSLModel) -> Superoperator:
    """Matrix of the Heisenberg generator, checked to generate a semigroup
    of unital completely positive maps for every t >= 0: _generators for
    one model.

    That holds exactly when L(1) = 0, L is *-preserving and L is
    conditionally completely positive: its Choi matrix is positive
    semidefinite off Omega = vec(1) / sqrt(d) (Lindblad, Commun. Math. Phys.
    48, 1976; Gorini, Kossakowski and Sudarshan, J. Math. Phys. 17, 1976).
    PostconditionError unless each holds within max(1, max |L|) times
    1e-10, 1e-9 and 1e-9 (the floor of the compressed Choi matrix).
    Built and checked on the first call for a model; the model keeps the
    result, with a read-only matrix, and later calls return that object.
    """
    if model._generator is not None:
        return model._generator
    return _generators([model])[0]


def _generators(models: Sequence[GKSLModel], gens=None) -> list[Superoperator]:
    """gens (None: all omitted) with each omitted one replaced by its
    model's generator, as generator gives it.

    Each is built from its own np.kron terms, and those of one d are
    checked as stacks (linalg.batches): the PostconditionError of the first
    failing model of a stack, whose models then keep no generator.  A model
    listed twice keeps the first."""
    out = list(gens or [None] * len(models))
    mats = [
        _generator_matrix(m) if g is None and m._generator is None else None
        for m, g in zip(models, out)
    ]
    keys = ((m.dim,) if x is not None else None for m, x in zip(models, mats))
    for idx in batches(keys):
        _check_generators(_stack(pick(mats, idx)))
        for i in idx:
            if models[i]._generator is None:
                mats[i].setflags(write=False)
                gen = Superoperator(dim=models[i].dim, matrix=mats[i])
                object.__setattr__(models[i], "_generator", gen)
    return [m._generator if g is None else g for m, g in zip(models, out)]


def _stack(arrays: list) -> np.ndarray:
    """The arrays of one shape as one stack: a view of a lone one."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _generator_matrix(model: GKSLModel) -> np.ndarray:
    """L in column-stacking coordinates, from 2 + 3 n_jumps np.kron terms."""
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian
    mat = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in model.jumps:
        vdag_v = dag(v) @ v
        mat += np.kron(v.T, dag(v))
        mat -= 0.5 * (np.kron(eye, vdag_v) + np.kron(vdag_v.T, eye))
    return mat


def _check_generators(mats: np.ndarray) -> None:
    """PostconditionError for the first stacked generator matrix of one d
    that fails one of generator's three conditions, naming the first of
    them it fails."""
    d = math.isqrt(mats.shape[-1])
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    margin = 1e-9 * scale
    images = mats @ _probes(d)[0]  # L(1), L(x), L(x^H)
    unital = frobenius_norms(images[:, :, :1]) <= DEFAULT_TOL * scale
    image = images[:, :, 1].reshape(-1, d, d, order="F")
    star = images[:, :, 2].reshape(-1, d, d, order="F") - dag(image)
    star = frobenius_norms(star) <= margin
    blocks = _compressed_choi(mats, margin)
    try:  # succeeds iff no compression has an eigenvalue below -margin
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
                f"generator is not conditionally completely positive: compressed "
                f"Choi floor {floors[g]:.3e} below {-margin[g]:.3e}"
            )


def _compressed_choi(mats: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Q^H C Q + shift I for the Choi matrix C of each stacked map, one
    shift each, and an isometry Q onto the complement of Omega = vec(1) /
    sqrt(d) (_omega_complement): a gather of C and two d-wide products, in
    place, with no d^2-wide product."""
    d = math.isqrt(mats.shape[-1])
    gather, w = _omega_complement(d)
    c = choi_matrix(mats).reshape(len(mats), -1)[:, gather]
    c.reshape(len(mats), -1)[:, :: d * d + 1] += shift[:, None]  # Q^H Q = I
    m = d * d - d  # the off-diagonal units, then the diagonal ones
    c[:, :, m:-1] = c[:, :, m:] @ w
    c[:, m:-1] = w.T @ c[:, m:]
    return c[:, :-1, :-1]


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise QmsGapError(
            f"semigroup parameter t must be finite and nonnegative, got {t!r}"
        )


def semigroup(
    model: GKSLModel, t: float, gen: Optional[Superoperator] = None
) -> Superoperator:
    """Phi_t = exp(t L) as a superoperator with a read-only matrix; t must
    be finite and nonnegative."""
    _check_time(t)
    if gen is None:
        gen = generator(model)
    phi = expm(t * gen.matrix)
    phi.setflags(write=False)
    return Superoperator(dim=model.dim, matrix=phi)


def semigroups(models: Sequence[GKSLModel], times) -> list[np.ndarray]:
    """The matrices of Phi_t = exp(t L) for each model at each time: one
    (len(times), d^2, d^2) array per model.

    The models of one d are exponentiated as stacks (linalg.batches), with
    the same entries as semigroup(model, t) gives each of them.
    """
    times = np.array([float(t) for t in times])
    for t in times:
        _check_time(float(t))
    out: list = [None] * len(models)
    for idx in batches(((m.dim,) for m in models), len(times)):
        gens = np.array([generator(models[i]).matrix for i in idx])
        phis = expm(times[None, :, None, None] * gens[:, None])
        for g, i in enumerate(idx):
            out[i] = phis[g]
    return out


def _kernels(models: Sequence[GKSLModel], gens: Sequence[Superoperator]) -> list:
    """For each model under its generator gens[i], columns spanning ker L_*
    and ker L from one SVD of L_* = L^H.

    L_* = U S V^H gives L = V S U^H, so for the singular values at most
    tau0 = 100 d^2 eps_mach s_max, the right singular vectors span ker L_*
    and the left ones ker L (PostconditionError when there are none).  A
    singular value in (tau0, KERNEL_TOL s_max] is too close to call, as
    round-off or as a slow mode, and raises KernelDecisionError; a model
    whose slowest mode lies below tau0 is decoupled to working precision
    and counts it as a fixed point.  The model keeps the columns,
    read-only, for its own generator but not another gen.  The generators
    of one d share a stacked SVD; the first model of a stack that fails
    raises.
    """
    out = [m._kernels if g is m._generator else None for m, g in zip(models, gens)]
    for idx in batches((m.dim,) if k is None else None for m, k in zip(models, out)):
        stack = _stack([gens[i].matrix for i in idx]).conj().swapaxes(1, 2)
        for i, u, svals, vh in zip(idx, *np.linalg.svd(stack)):
            top, d = max(float(svals[0]), 1e-300), models[i].dim
            zero, cut = 100 * d**2 * np.finfo(float).eps * top, KERNEL_TOL * top
            thin = svals[(svals > zero) & (svals <= cut)]
            if thin.size:
                raise KernelDecisionError(
                    f"generator singular value {thin[-1]:.3e} lies between the "
                    f"zero edge {zero:.3e} and the kernel cut {cut:.3e}: the "
                    f"kernel dimension is too close to call"
                )
            k = int(np.sum(svals <= zero))
            if k == 0:
                raise PostconditionError("generator kernel is empty; 1 should be fixed")
            out[i] = (vh[-k:].conj().T, u[:, -k:].copy())
            for columns in out[i]:
                columns.setflags(write=False)
            if gens[i] is models[i]._generator:
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
    return _invariant_states([model], [gen])[0]


def _invariant_states(models: Sequence[GKSLModel], gens=None) -> list[DensityMatrix]:
    """Each model's invariant state, as invariant_state gives it; the models
    of one d share the stacked solves, and the first model of a stack that
    fails a check raises.

    The candidate is the last column of ker L_*, scaled to trace one and
    Hermitized; PostconditionError if its trace is below 1e-12 or if the
    residual |L_*(rho)| exceeds 1e-9, ConvergenceFailureError if its eigh
    fails or fails to reconstruct it."""
    gens = _generators(models, gens)
    splits = _kernels(models, gens)
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
        try:
            values, vectors = np.linalg.eigh(cands)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigh did not converge: {exc}") from exc
        rhos = (vectors * values[:, None, :]) @ dag(vectors)
        scale = np.maximum(1.0, frobenius_norms(cands))
        if (frobenius_norms(rhos - cands) > DEFAULT_TOL * scale).any():
            raise ConvergenceFailureError("eigendecomposition fails reconstruction")
        floors = values[:, 0]
        if (floors <= FAITHFULNESS_THRESHOLD).any():
            raise NoFaithfulInvariantStateError(
                f"invariant state has eigenvalue {floors.min():.3e} "
                f"at or below {FAITHFULNESS_THRESHOLD:.1e}"
            )
        duals = dag(_stack([gens[i].matrix for i in idx]))
        residuals = frobenius_norms(duals @ rhos.reshape(-1, d * d, 1, order="F"))
        if (residuals > 1e-9).any():
            raise PostconditionError(f"invariant-state residual {residuals.max():.3e}")
        for g, i in enumerate(idx):
            eigen = HermitianEigen(values=values[g], vectors=vectors[g])
            out[i] = DensityMatrix(rho=rhos[g], eigen=eigen, faithful=True)
    return out


def check_invariance(
    model: GKSLModel, rho, gen: Optional[Superoperator] = None
) -> float:
    """Frobenius norm of L_*(rho) for a d x d rho; invariant below 1e-9."""
    mat = rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    _check_state_dim(model, len(mat))
    return float(np.linalg.norm((gen or generator(model)).matrix.conj().T @ vec(mat)))


@dataclass(frozen=True)
class FixedPointStructure:
    """Fixed-point algebra N = ker L with its conditional expectation E = B R,
    the GNS-orthogonal projection onto N, as its rank-dim N factors: columns
    B = [vec(b_j)], the b_j spanning N, and coefficients
    R = (B^H G B)^{-1} (G B)^H, G the GNS Gram.  basis, dim and degenerate
    (dim N > 1) derive from them; E itself, d^2 x d^2, is never formed.
    The gap routines keep the model's eigen frame in `_frame` (see gap.py),
    checked against the state and generator on every use."""

    columns: np.ndarray
    coefficients: np.ndarray
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
    return fixed_point_structures([model], [rho], [gen])[0]


def fixed_point_structures(
    models: Sequence[GKSLModel],
    rhos: Sequence[DensityMatrix],
    gens: Optional[Sequence[Optional[Superoperator]]] = None,
) -> list[FixedPointStructure]:
    """The fixed-point structure of each model under its state, in order.

    Requires lists of one length and faithful states of the model's d
    (DimensionMismatchError, QmsGapError).  B is the model's split of ker L
    (`_kernels`), R solves with G B = [vec(b_j rho)] and no d^2 x d^2 Gram,
    E's identities are asserted on the factors (PostconditionError), and
    models of one d and dim N share stacked solves (linalg.batches)."""
    same_lengths(models=models, rhos=rhos, gens=gens)
    gens = gens or [None] * len(models)
    for model, rho in zip(models, rhos):
        _check_state_dim(model, rho.dim)
        if not rho.faithful:
            raise QmsGapError("fixed-point structure needs a faithful state")
    kernels = [split[1] for split in _kernels(models, _generators(models, gens))]
    out: list = [None] * len(models)
    for idx in batches((m.dim, ker.shape[1]) for m, ker in zip(models, kernels)):
        d, k = models[idx[0]].dim, kernels[idx[0]].shape[1]
        vecs = np.array(pick(kernels, idx))  # columns span ker L
        state = np.array([rhos[i].rho for i in idx])
        # rows vec(b_j rho)^T: the b_j^T are the C-order d x d blocks of vecs
        blocks = vecs.reshape(len(idx), d, d, k).transpose(0, 3, 1, 2)
        weighted = (state.swapaxes(1, 2)[:, None] @ blocks).reshape(len(idx), k, d * d)
        coeffs = np.linalg.solve(weighted.conj() @ vecs, weighted.conj())
        coeffs.setflags(write=False)
        for g, i in enumerate(idx):
            out[i] = FixedPointStructure(columns=kernels[i], coefficients=coeffs[g])
        _check_expectations(vecs, coeffs, state.reshape(len(idx), d * d, order="F"))
    return out


@functools.lru_cache(maxsize=None)
def _probes(d: int) -> tuple[np.ndarray, float]:
    """Columns vec(1), vec(x), vec(x^H) for a fixed probe x, read-only, and
    max(1, |x|)."""
    n = d * d
    probe = np.arange(1, n + 1) - 0.25j * np.arange(n)  # vec(x)
    probe_h = probe.reshape((d, d), order="F").conj().reshape(n)
    columns = np.stack([np.eye(d, dtype=complex).reshape(n), probe, probe_h], axis=1)
    columns.setflags(write=False)
    return columns, max(1.0, float(np.linalg.norm(probe)))


@functools.lru_cache(maxsize=None)
def _omega_complement(d: int) -> tuple[np.ndarray, np.ndarray]:
    """An isometry Q onto the complement of Omega = vec(1) / sqrt(d) in Choi
    coordinates, as a gather and a small block, both read-only: the
    positions i d + a of the off-diagonal units (i != a), then those of the
    diagonal units i d + i, and a real d x (d - 1) isometry W onto the
    diagonal vectors orthogonal to (1, ..., 1): the Householder reflection
    that takes e_1 to -(1, ..., 1) / sqrt(d), less its first column.  So
    Q = diag(I, W) after the gather."""
    units = np.arange(d * d).reshape(d, d)
    order = np.concatenate([units[~np.eye(d, dtype=bool)], np.diagonal(units)])
    gather = order[:, None] * (d * d) + order  # flat positions in C
    u = np.full(d, 1.0 / math.sqrt(d))
    u[0] += 1.0
    reflection = np.eye(d) - (2.0 / (u @ u)) * np.outer(u, u)
    w = reflection[:, 1:].astype(complex)
    for part in (gather, w):
        part.setflags(write=False)
    return gather, w


def _check_expectations(columns, coeffs, states) -> None:
    """Assert R B = I (so E^2 = E), E(1) = 1, tr(rho E(x)) = tr(rho x) and
    *-preservation at 1e-9 for stacked factors E = B R, with no d^2 x d^2
    product; states holds vec(rho) per row."""
    d = math.isqrt(columns.shape[1])
    probes, scale = _probes(d)
    images = columns @ (coeffs @ probes)  # E(1), E(x), E(x^H)
    image = images[:, :, 1].reshape(-1, d, d, order="F")
    star = images[:, :, 2].reshape(-1, d, d, order="F") - dag(image)
    preserved = dag(coeffs) @ (dag(columns) @ states[:, :, None])  # E^H vec(rho)
    residuals = np.stack([images[:, :, 0] - probes[:, 0], preserved[:, :, 0] - states,
                          star.reshape(-1, d * d) / scale], axis=1)
    norms = np.linalg.norm(residuals, axis=2)
    idempotent = np.abs(coeffs @ columns - np.eye(columns.shape[2])).max(axis=(1, 2))
    failing = np.maximum(idempotent, norms.max(axis=1)) > 1e-9
    if failing.any():
        g = int(failing.argmax())
        names = ("idempotent", "unital", "state-preserving", "star-preserving")
        row = dict(zip(names, map(float, (idempotent[g], *norms[g]))))
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
        if rho.eigen.values.min() > DRAW_EIG_FLOOR:
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
        state.eigen.values.min() > DRAW_EIG_FLOOR for state in states
    ):
        return iter([(model, state, 0) for model, state in zip(models, states)])
    rng.bit_generator.state = start
    return (random_faithful_model(rng, d) for d in dims)
