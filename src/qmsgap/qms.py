"""GKSL models and their quantum Markov semigroups in the Heisenberg picture.

A model is a Hamiltonian H plus jump operators V_j on M_d(C).  The
Heisenberg generator

    L(x) = i [H, x] + sum_j ( V_j^H x V_j - (1/2) {V_j^H V_j, x} )

is unital (L(1) = 0) and *-preserving, and Phi_t = exp(t L) is a semigroup
of unital completely positive maps.  States evolve under the trace dual
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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    HermitianEigen,
    Superoperator,
    _as_complex_square,
    batches,
    dag,
    expm,
    frobenius,
    herm_eig,
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
    rho = np.asarray(rho, dtype=complex)
    eig = herm_eig(rho)
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > DEFAULT_TOL:
        raise QmsGapError(f"state trace {trace!r} is not 1 within tolerance")
    if eig.values.min() < -DEFAULT_TOL:
        raise QmsGapError(
            f"state has negative eigenvalue {eig.values.min():.3e}"
        )
    return DensityMatrix(
        rho=eig.reconstruct(),
        eigen=eig,
        faithful=bool(eig.values.min() > faithfulness_threshold),
    )


def generator(model: GKSLModel) -> Superoperator:
    """Matrix of the Heisenberg generator; checks unitality and *-preservation.

    Built and checked on the first call for a model; the model keeps the
    result, with a read-only matrix, and later calls return that object.
    """
    if model._generator is not None:
        return model._generator
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian
    mat = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in model.jumps:
        vdag_v = dag(v) @ v
        mat += np.kron(v.T, dag(v))
        mat -= 0.5 * (np.kron(eye, vdag_v) + np.kron(vdag_v.T, eye))
    gen = Superoperator(dim=d, matrix=mat)

    scale = max(1.0, float(np.abs(mat).max()))
    images = mat @ _probes(d)[0]  # L(1), L(x), L(x^H)
    if np.linalg.norm(images[:, 0]) > DEFAULT_TOL * scale:
        raise PostconditionError("generator fails unitality L(1) = 0")
    image = images[:, 1].reshape((d, d), order="F")
    if frobenius(images[:, 2].reshape((d, d), order="F") - dag(image)) > 1e-9 * scale:
        raise PostconditionError("generator is not *-preserving")
    mat.setflags(write=False)
    object.__setattr__(model, "_generator", gen)
    return gen


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


def _kernels(model: GKSLModel, gen: Optional[Superoperator] = None) -> tuple:
    """Columns spanning ker L_* and ker L, from one SVD of L_* = L^H.

    L_* = U S V^H gives L = V S U^H, so for the singular values at most
    tau0 = 100 d^2 eps_mach s_max, the right singular vectors span ker L_*
    and the left ones ker L (PostconditionError when there are none).  A
    singular value in (tau0, KERNEL_TOL s_max] is too close to call, as
    round-off or as a slow mode, and raises KernelDecisionError; a model
    whose slowest mode lies below tau0 is decoupled to working precision
    and counts it as a fixed point.  The model keeps the columns,
    read-only, for its own generator but not another gen.
    """
    own = gen is None or gen is model._generator
    if own and model._kernels is not None:
        return model._kernels
    u, svals, vh = np.linalg.svd((gen or generator(model)).matrix.conj().T)
    top = max(float(svals[0]), 1e-300)
    zero, cut = 100 * model.dim**2 * np.finfo(float).eps * top, KERNEL_TOL * top
    thin = svals[(svals > zero) & (svals <= cut)]
    if thin.size:
        raise KernelDecisionError(
            f"generator singular value {thin[-1]:.3e} lies between the zero "
            f"edge {zero:.3e} and the kernel cut {cut:.3e}: the kernel "
            f"dimension is too close to call"
        )
    k = int(np.sum(svals <= zero))
    if k == 0:
        raise PostconditionError("generator kernel is empty; 1 should be fixed")
    split = (vh[-k:].conj().T, u[:, -k:].copy())
    for columns in split:
        columns.setflags(write=False)
    if own:
        object.__setattr__(model, "_kernels", split)
    return split


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
    dual_kernel, _ = _kernels(model, gen)
    kernel_dim = dual_kernel.shape[1]
    if kernel_dim > 1:
        raise NonUniqueInvariantStateError(
            f"kernel of the dual generator has dimension {kernel_dim}"
        )
    candidate = unvec(dual_kernel[:, -1])
    trace = complex(np.trace(candidate))
    if abs(trace) < 1e-12:
        raise PostconditionError("invariant-state candidate is traceless")
    candidate = candidate / trace
    candidate = (candidate + dag(candidate)) / 2.0
    candidate = candidate / float(np.trace(candidate).real)

    eig = herm_eig(candidate)
    if eig.values.min() <= FAITHFULNESS_THRESHOLD:
        raise NoFaithfulInvariantStateError(
            f"invariant state has eigenvalue {eig.values.min():.3e} "
            f"at or below {FAITHFULNESS_THRESHOLD:.1e}"
        )
    state = DensityMatrix(rho=eig.reconstruct(), eigen=eig, faithful=True)
    residual = check_invariance(model, state, gen=gen)
    if residual > 1e-9:
        raise PostconditionError(f"invariant-state residual {residual:.3e}")
    return state


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
    kernels = [_kernels(m, g)[1] for m, g in zip(models, gens)]
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


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random faithful state: Dirichlet spectrum floored by DENSITY_EIG_FLOOR,
    Haar-ish basis."""
    raw = rng.dirichlet(np.ones(dim))
    p = (raw + 2.0 * DENSITY_EIG_FLOOR) / (1.0 + 2.0 * DENSITY_EIG_FLOOR * dim)
    u = random_unitary(rng, dim)
    return density_matrix((u * p) @ dag(u))


def random_model(rng: np.random.Generator, dim: int) -> GKSLModel:
    """H with complex Gaussian entries / sqrt(d) (Hermitized) and one to
    three Gaussian jumps scaled by 1 / sqrt(d)."""
    scale = 1.0 / np.sqrt(dim)

    def ginibre():
        return (
            (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            / np.sqrt(2.0)
            * scale
        )

    a = ginibre()
    h = (a + dag(a)) / 2.0
    n_jumps = int(rng.integers(1, 4))
    return GKSLModel(hamiltonian=h, jumps=tuple(ginibre() for _ in range(n_jumps)))


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
