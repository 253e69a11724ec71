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
* herm_eigs is the one Hermitian eigensolve, of a stack (n, d, d); one
  matrix is a stack of one.  It symmetrizes its input to (a + a^H)/2
  after the Hermiticity tolerance check, so eigh sees exactly Hermitian data.
* The absolute/relative tolerance is DEFAULT_TOL = 1e-10; double
  precision at d <= 8 supports it comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    FunctionDomainError,
    NotHermitianError,
)

DEFAULT_TOL = 1e-10
CHUNK_BYTES = 64 * 1024  # stacked d^2 x d^2 complex data per batch


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """|a_s|_F of each matrix of a stack: numpy.linalg.norm(a, axis=(-2, -1))
    by numpy's own expression (bit for bit) without its argument handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix in a stack for ndim > 2."""
    return a.swapaxes(-1, -2).conj()


def _as_complex_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise FunctionDomainError(f"{name} contains non-finite entries")
    return a


def herm_eigs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of each matrix of a finite
    stack (n, d, d) of Hermitian matrices, from one stacked eigh, and the
    stack of reconstructions U diag(values) U^H it checked.

    Raises NotHermitianError if ``||a - a^H||_F > DEFAULT_TOL * max(1, ||a||_F)``;
    otherwise the input is symmetrized and handed to the solver, and
    ConvergenceFailureError unless U diag(values) U^H reconstructs it as
    closely.  A stack raises the error of its first failing matrix.
    """
    scale = np.maximum(1.0, frobenius_norms(a))
    defects = frobenius_norms(a - dag(a))
    a = (a + dag(a)) / 2.0
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigh did not converge: {exc}") from exc
    rebuilt = (vectors * values[:, None]) @ dag(vectors)
    residuals = frobenius_norms(rebuilt - a)
    failed = np.maximum(defects, residuals) > DEFAULT_TOL * scale
    if failed.any():
        k = failed.argmax()  # the first failing matrix
        if defects[k] > DEFAULT_TOL * scale[k]:
            raise NotHermitianError(
                f"Hermiticity defect {defects[k]:.3e} exceeds "
                f"{DEFAULT_TOL:.1e} * {scale[k]:.3e}"
            )
        raise ConvergenceFailureError("eigendecomposition fails reconstruction")
    return values, vectors, rebuilt


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26 (2005) 1179).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or of each matrix in a stack.

    Pade [13/13] scaling and squaring (Higham 2005), the number of
    squarings chosen per matrix from its 1-norm; each squaring round
    gathers only the matrices that still need it.  Only numpy products and
    one solve: at d^2 <= 16 none of them is large enough for the BLAS to
    hand work to a second thread, a handoff that costs more than the
    product itself and whose latency depends on what else the machine runs.
    Each matrix of a stack gets exactly the result it gets on its own.
    Raises FunctionDomainError for non-finite input (or an infinite 1-norm).
    """
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norm1).all():
        raise FunctionDomainError("expm needs a matrix with finite entries")
    squarings = np.ceil(np.log2(np.maximum(norm1 / _PADE13_THETA, 1.0)))
    a = a / (2.0**squarings)[..., None, None]
    ident = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0.0))):
        todo = squarings > k  # only the matrices with a k-th squaring left
        left = r[todo]
        r[todo] = left @ left
    return r


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

    ``matrix @ vec(x) == vec(S(x))`` for the represented map S.  When the
    matrix is read-only, the f-operator norms keep (rho, W^H S W) in
    `_rotated`, rho the state they measured in (see gap.py).
    """

    dim: int
    matrix: np.ndarray
    _rotated: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, as np.kron computes it, or
    of each pair in two stacks of them (leading axes broadcast).

    One broadcast multiply and a reshape, the same products np.kron forms
    (so the same entries bit for bit) without its argument handling, which
    costs more than the product at d <= 8.
    """
    n, m = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (n * m, n * m))


def choi_matrix(s) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) S(|i><j|).

    s is a Superoperator, or an array of superoperator matrices stacked
    along leading axes (one Choi matrix each).  Positive semidefinite iff
    the represented map is completely positive.  Column i + d*j of the
    matrix is vec(S(|i><j|)), so the Choi matrix only permutes its entries:
    entry (i*d + a, j*d + b) is matrix entry (a + d*b, i + d*j).
    """
    m = s.matrix if isinstance(s, Superoperator) else np.asarray(s)
    n = m.shape[-1]
    d = math.isqrt(n)
    lead = m.shape[:-2]
    k = len(lead)
    return (
        m.reshape(lead + (d, d, d, d))
        .transpose(*range(k), k + 3, k + 1, k + 2, k)
        .reshape(lead + (n, n))
    )


def grouped(keys) -> dict:
    """Positions of equal keys, keys in first-seen order: {key: [i, ...]}."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def chunks(n: int, d: int, per_item: int = 1):
    """Consecutive slices of range(n) whose stacked d^2 x d^2 complex
    matrices, per_item for each item, fill at most CHUNK_BYTES; at least
    one item each."""
    step = max(1, CHUNK_BYTES // (16 * d**4 * max(1, per_item)))
    for start in range(0, n, step):
        yield slice(start, start + step)


def batches(keys, per_item: int = 1) -> list:
    """Positions of items with equal keys, each key a tuple whose first
    entry is the items' d, or None for an item to leave out: one list per
    group and chunk (see chunks).

    The batched routines stack the models that share a shape this way, so
    peak memory grows with neither the number of models nor of functions.
    A lone item skips the grouping: the one-model routines run this way.
    """
    keys = list(keys)
    if len(keys) == 1:
        return [] if keys[0] is None else [[0]]
    return [
        idx[c]
        for key, idx in grouped(keys).items() if key is not None
        for c in chunks(len(idx), key[0], per_item)
    ]


def pick(items, idx) -> list:
    """The items at the positions idx (one batch's rows of a column)."""
    return [items[i] for i in idx]


def _stack(arrays: list) -> np.ndarray:
    """The arrays of one shape as one stack: a view of a lone one."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def same_lengths(**lists) -> None:
    """The per-model lists of one batched call must have one length:
    DimensionMismatchError naming them otherwise."""
    if len({len(items) for items in lists.values()}) > 1:
        named = ", ".join(f"{name} {len(items)}" for name, items in lists.items())
        raise DimensionMismatchError(f"per-model lists differ in length: {named}")
