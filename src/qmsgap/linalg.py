"""Dense complex linear algebra for matrix algebras and superoperators.

Everything in this package lives on full matrix algebras M_d(C) at small
dimension, so the routines here are dense, eigendecomposition-based and
tolerance-checked rather than asymptotically clever.

Conventions
-----------
* Vectorization is column stacking throughout::

      vec(x)[i + d*j] = x[i, j],

  so ``vec(a @ x @ b) == kron(b.T, a) @ vec(x)``.  Superoperators are
  d^2-by-d^2 matrices acting on these coordinates.  One convention
  everywhere prevents transpose bugs in modular operators and adjoints.
* Hermitian inputs are symmetrized to (a + a^H)/2 after the Hermiticity
  tolerance check, so eigensolves see exactly Hermitian data.
* The default absolute/relative tolerance is 1e-10, configurable per call;
  double precision at d <= 8 supports it comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    FunctionDomainError,
    NotHermitianError,
    NotPSDError,
)

DEFAULT_TOL = 1e-10


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _as_complex_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition a = U diag(values) U^H with ascending eigenvalues."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ dag(self.vectors)

    def apply(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """U g(values) U^H for a scalar function g applied to the spectrum."""
        gv = _eval_on_spectrum(g, self.values)
        return (self.vectors * gv) @ dag(self.vectors)


def herm_eig(a, tol: float = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix with reconstruction check.

    Raises NotHermitianError if ``||a - a^H||_F > tol * max(1, ||a||_F)``;
    otherwise the input is symmetrized and handed to the solver.
    """
    a = _as_complex_square(a)
    scale = max(1.0, frobenius(a))
    defect = frobenius(a - dag(a))
    if defect > tol * scale:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    a = (a + dag(a)) / 2.0
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigh did not converge: {exc}") from exc
    eig = HermitianEigen(values=values, vectors=vectors)
    if frobenius(eig.reconstruct() - a) > tol * scale:
        raise ConvergenceFailureError("eigendecomposition fails reconstruction")
    return eig


def _eval_on_spectrum(g, values: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        try:
            gv = np.asarray(g(values), dtype=float)
            if gv.shape != values.shape:
                raise TypeError
        except (TypeError, ValueError):
            gv = np.asarray([float(g(v)) for v in values], dtype=float)
    if not np.all(np.isfinite(gv)):
        bad = values[~np.isfinite(gv)][0]
        raise FunctionDomainError(f"scalar function non-finite at eigenvalue {bad!r}")
    return gv


def matrix_function(a, g, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``U g(L) U^H`` for a positive semidefinite ``a = U L U^H``.

    Eigenvalues inside the PSD tolerance band are clipped to zero before g
    is applied, so functions like sqrt never see round-off negatives.
    """
    eig = herm_eig(a, tol=tol)
    floor = -tol * max(1.0, float(np.abs(eig.values).max(initial=0.0)))
    if eig.values.min(initial=0.0) < floor:
        raise NotPSDError(
            f"matrix has eigenvalue {eig.values.min():.3e} below PSD floor {floor:.3e}"
        )
    clipped = np.clip(eig.values, 0.0, None)
    return HermitianEigen(values=clipped, vectors=eig.vectors).apply(g)


def vec(x) -> np.ndarray:
    """Column-stack a matrix into a vector: vec(x)[i + d*j] = x[i, j]."""
    x = np.asarray(x, dtype=complex)
    return x.reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Inverse of vec; requires len(v) to be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatchError(f"vector of length {v.size} is not d*d")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Matrix form of a linear map on M_d(C) in column-stacking coordinates.

    ``matrix @ vec(x) == vec(S(x))`` for the represented map S.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.dim * self.dim
        if self.matrix.shape != (d2, d2):
            raise DimensionMismatchError(
                f"superoperator matrix must be {d2}x{d2}, got {self.matrix.shape}"
            )

    def apply(self, x) -> np.ndarray:
        return unvec(self.matrix @ vec(x))

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(dim=dim, matrix=np.eye(dim * dim, dtype=complex))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) S(|i><j|).

    Positive semidefinite iff the represented map is completely positive.
    """
    d = s.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            block = s.apply(unit)
            choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return choi
