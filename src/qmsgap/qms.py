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
onto N; the defining identities E^2 = E, E(1) = 1, tr(rho E(x)) = tr(rho x)
and *-preservation are asserted after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatchError,
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
    dag,
    frobenius,
    herm_eig,
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


@dataclass(frozen=True)
class GKSLModel:
    """Hamiltonian plus jump operators; H must be Hermitian within 1e-10."""

    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError("Hamiltonian must be square")
        if frobenius(h - dag(h)) > DEFAULT_TOL * max(1.0, frobenius(h)):
            raise NotHermitianError("Hamiltonian is not Hermitian within tolerance")
        jumps = tuple(np.asarray(v, dtype=complex) for v in self.jumps)
        for v in jumps:
            if v.shape != h.shape:
                raise DimensionMismatchError("jump operator dimension mismatch")
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
    """Matrix of the Heisenberg generator; checks unitality and *-preservation."""
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
    if frobenius(gen.apply(eye)) > DEFAULT_TOL * scale:
        raise PostconditionError("generator fails unitality L(1) = 0")
    probe = (np.arange(1, d * d + 1) + 0.5j * np.arange(d * d)).reshape((d, d))
    if frobenius(gen.apply(dag(probe)) - dag(gen.apply(probe))) > 1e-9 * scale:
        raise PostconditionError("generator is not *-preserving")
    return gen


def semigroup(
    model: GKSLModel, t: float, gen: Optional[Superoperator] = None
) -> Superoperator:
    """Phi_t = exp(t L) as a superoperator; t must be nonnegative."""
    if t < 0:
        raise QmsGapError("semigroup parameter t must be nonnegative")
    if gen is None:
        gen = generator(model)
    return Superoperator(dim=model.dim, matrix=expm(t * gen.matrix))


def dual_generator_matrix(gen: Superoperator) -> np.ndarray:
    """Matrix of the trace dual L_* under the Hilbert-Schmidt pairing."""
    return gen.matrix.conj().T


def invariant_state(
    model: GKSLModel, gen: Optional[Superoperator] = None
) -> DensityMatrix:
    """Solve L_*(rho) = 0 for the unique trace-one positive solution.

    Raises NonUniqueInvariantStateError if the kernel of L_* has dimension
    greater than one (callers may still proceed with a supplied state), and
    NoFaithfulInvariantStateError if the solution is not faithful.
    """
    if gen is None:
        gen = generator(model)
    dual = dual_generator_matrix(gen)
    _, svals, vh = np.linalg.svd(dual)
    top = max(float(svals[0]), 1e-300)
    kernel_dim = int(np.sum(svals <= KERNEL_TOL * top))
    if kernel_dim == 0:
        raise PostconditionError("dual generator has trivial kernel")
    if kernel_dim > 1:
        raise NonUniqueInvariantStateError(
            f"kernel of the dual generator has dimension {kernel_dim}"
        )
    candidate = unvec(vh[-1].conj())
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
    """Frobenius norm of L_*(rho); invariance is accepted below 1e-9."""
    if gen is None:
        gen = generator(model)
    mat = rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(np.linalg.norm(dual_generator_matrix(gen) @ vec(mat)))


@dataclass(frozen=True)
class FixedPointStructure:
    """Fixed-point algebra N = ker L with its conditional expectation E.

    basis holds matrices spanning N; projector is the GNS-orthogonal
    projection onto N (state-preserving by construction); degenerate flags
    dim N > 1.
    """

    basis: tuple[np.ndarray, ...]
    projector: Superoperator
    degenerate: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


def gns_gram_matrix(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of <x, y> = tr(x^H y rho): right multiplication by rho."""
    return np.kron(rho.rho.T, np.eye(rho.dim, dtype=complex))


def fixed_point_structure(
    model: GKSLModel, rho: DensityMatrix, gen: Optional[Superoperator] = None
) -> FixedPointStructure:
    """Kernel of the generator plus the GNS-orthogonal projection onto it.

    Requires a faithful invariant state.  The projector's conditional
    expectation identities are asserted post hoc at 1e-9.
    """
    if not rho.faithful:
        raise QmsGapError("fixed-point structure needs a faithful state")
    if gen is None:
        gen = generator(model)
    d = model.dim

    _, svals, vh = np.linalg.svd(gen.matrix)
    top = max(float(svals[0]), 1e-300)
    k = int(np.sum(svals <= KERNEL_TOL * top))
    if k == 0:
        raise PostconditionError("generator kernel is empty; 1 should be fixed")
    basis_vecs = vh[d * d - k :].conj().T  # columns span ker L

    gram = gns_gram_matrix(rho)
    overlap = dag(basis_vecs) @ gram @ basis_vecs
    proj = basis_vecs @ np.linalg.solve(overlap, dag(basis_vecs) @ gram)
    projector = Superoperator(dim=d, matrix=proj)

    eye = np.eye(d, dtype=complex)
    checks = {
        "idempotent": float(np.abs(proj @ proj - proj).max()),
        "unital": frobenius(projector.apply(eye) - eye),
        "state-preserving": float(
            np.linalg.norm(dag(proj) @ vec(rho.rho) - vec(rho.rho))
        ),
    }
    probe = (np.arange(1, d * d + 1) - 0.25j * np.arange(d * d)).reshape((d, d))
    checks["star-preserving"] = frobenius(
        projector.apply(dag(probe)) - dag(projector.apply(probe))
    ) / max(1.0, frobenius(probe))
    worst = max(checks.values())
    if worst > 1e-9:
        raise PostconditionError(
            f"conditional-expectation identities fail: {checks!r}"
        )

    basis = tuple(unvec(basis_vecs[:, i]) for i in range(k))
    return FixedPointStructure(basis=basis, projector=projector, degenerate=k > 1)


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


def random_density(
    rng: np.random.Generator, dim: int, min_eig: float = 1e-3
) -> DensityMatrix:
    """Random faithful state: floored Dirichlet spectrum, Haar-ish basis."""
    raw = rng.dirichlet(np.ones(dim))
    p = (raw + 2.0 * min_eig) / (1.0 + 2.0 * min_eig * dim)
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
    rng: np.random.Generator,
    dim: int,
    min_eig: float = 1e-4,
) -> tuple[GKSLModel, DensityMatrix, int]:
    """Draw random models until the invariant state is unique and faithful
    with min eigenvalue above min_eig; returns the rejected-draw count.

    The eigenvalue floor keeps the modular spectrum, and with it every
    f-weight matrix, inside comfortable double-precision range.
    """
    rejected = 0
    for _ in range(MAX_DRAWS):
        model = random_model(rng, dim)
        try:
            rho = invariant_state(model)
        except (NonUniqueInvariantStateError, NoFaithfulInvariantStateError):
            rejected += 1
            continue
        if rho.eigen.values.min() > min_eig:
            return model, rho, rejected
        rejected += 1
    raise QmsGapError(
        f"no well-conditioned invariant state in {MAX_DRAWS} draws at d={dim}"
    )
