"""State-induced inner products on M_d(C) and the modular machinery behind them.

For a faithful state rho with spectral decomposition rho = U diag(p) U^H,
the modular operator acts as Delta(x) = rho x rho^{-1}; on matrix units of
the eigenbasis it is diagonal with Delta(E_ij) = (p_i / p_j) E_ij.  Every
operator monotone f with f(1) = 1 induces an inner product

    <x, y>_f = <f(Delta)^{1/2} x Omega, f(Delta)^{1/2} y Omega>,
    Omega = rho^{1/2},

which in the eigenbasis reduces to the weighted sum

    <x, y>_f = sum_ij w_ij conj(x~_ij) y~_ij,
    w_ij = p_j f(p_i / p_j),   x~ = U^H x U.

All f-computations here go through this weight matrix rather than through
a d^2 x d^2 eigendecomposition of f(Delta): the diagonal structure is
exact, weights cost O(d^2), and no spurious non-normality enters.
A DensityMatrix keeps its descending eigen split, as a GKSLModel keeps its
generator, so every metric of a state, from any call, shares its read-only
`eigenvalues` and `basis`: that identity is how the gap routines recognize
metrics of one state.  `f_metric_table` evaluates each function once on
the stacked modular ratios of all states of one d, and `f_grams` builds
the Grams of a stack of metrics at once; `f_gram` is its stack of one.

Notable members: f = 1 gives the GNS product tr(x^H y rho) (w_ij = p_j),
f = t the anti-GNS product tr(y x^H rho) (w_ij = p_i), f = sqrt t the KMS
product tr(x^H rho^(1/2) y rho^(1/2)) (w_ij = sqrt(p_i p_j)), and
f = (t-1)/log t the BKM product, the s-integral of tr(x^H rho^s y rho^(1-s)).

The module also provides Moreau regularization of quadratic forms,
Q^(lam)(xi) = inf_eta Q(eta) + |xi - eta|^2 / lam = <xi, A(1 + lam A)^{-1} xi>,
and an order probe checking that A <= B propagates to resolvents and to
f(A) <= f(B) for operator monotone f.  Both are stacked routines
(`moreau_forms`, `_loewner_order_probes`) that give each form or pair what
it gets alone; `moreau_form` and `loewner_order_probe` are their stacks of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FunctionDomainError,
    IllConditionedWarning,
    NotFaithfulError,
    NotPSDError,
    OrderViolationError,
    PostconditionError,
    QmsGapError,
    warn,
)
from .linalg import (
    DEFAULT_TOL,
    Superoperator,
    _as_complex_square,
    dag,
    grouped,
    herm_eig,
    herm_eigs,
    kron,
    vec,
)
from .monotone import MonotoneFunction, builtin_functions
from .qms import DensityMatrix

COND_GUARD = 1e12
_RESOLVENT_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)  # loewner_order_probe's lam


@dataclass(frozen=True)
class FMetric:
    """Spectral data of rho plus the weight matrix of <., .>_f.

    eigenvalues are descending, basis columns match them, and
    weights[i, j] = eigenvalues[j] * f(eigenvalues[i] / eigenvalues[j]).
    """

    f: MonotoneFunction
    eigenvalues: np.ndarray
    basis: np.ndarray
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def condition_number(self) -> float:
        return float(self.weights.max() / self.weights.min())


def f_metrics(rho: DensityMatrix, functions) -> list[FMetric]:
    """The metric of each function, in order, from one split of rho's
    eigendata: f_metric_table for one state."""
    return f_metric_table([rho], functions)[0]


def f_metric_table(rhos: Sequence[DensityMatrix], functions) -> list[list[FMetric]]:
    """For each state, the metric of each function, in order.

    The metrics of a state share its kept eigenvalues and basis arrays
    (descending; see the module docstring).  The states of one d are
    stacked, and each function is evaluated once on the stack of their
    modular ratios, with the entries it gives each state alone.  Raises
    NotFaithfulError for a state that is not faithful, DimensionMismatchError
    when f does not return one value per ratio and PostconditionError when
    some weight is <= 0.
    """
    functions = tuple(functions)
    for rho in rhos:
        if not rho.faithful:
            raise NotFaithfulError("f-metric needs a faithful state")
    table: list = [None] * len(rhos)
    for idx in grouped(rho.dim for rho in rhos).values():
        splits = [rhos[i]._split for i in idx]
        p = np.array([split[0] for split in splits])
        ratios = np.array([split[2] for split in splits])
        weights = []
        for f in functions:
            values = f(ratios)
            if np.shape(values) != ratios.shape:
                raise DimensionMismatchError(
                    f"{f.label} gives shape {np.shape(values)} on modular ratios "
                    f"of shape {ratios.shape}: f must act entrywise"
                )
            w = p[:, None, :] * values
            if not (w > 0).all():  # NaN weights fail too
                raise PostconditionError("f-weights must be strictly positive")
            weights.append(w)
        for g, (i, (pg, ug, _)) in enumerate(zip(idx, splits)):
            table[i] = [
                FMetric(f=f, eigenvalues=pg, basis=ug, weights=w[g])
                for f, w in zip(functions, weights)
            ]
    return table


def f_metric(rho: DensityMatrix, f: MonotoneFunction) -> FMetric:
    """The metric of one function: f_metrics(rho, [f])[0]."""
    return f_metrics(rho, [f])[0]


def to_eigenbasis(metric: FMetric, x) -> np.ndarray:
    return dag(metric.basis) @ np.asarray(x, dtype=complex) @ metric.basis


def f_inner(metric: FMetric, x, y) -> complex:
    """<x, y>_f = sum_ij w_ij conj(x~_ij) y~_ij in the eigenbasis of rho."""
    xt = to_eigenbasis(metric, x)
    yt = to_eigenbasis(metric, y)
    return complex(np.sum(metric.weights * xt.conj() * yt))


def eigenbasis_rotation(metric: FMetric) -> np.ndarray:
    """Unitary W = conj(U) (x) U, so that W^H vec(x) = vec(U^H x U)."""
    return kron(metric.basis.conj(), metric.basis)


def warn_if_ill_conditioned(metric: FMetric) -> None:
    """IllConditionedWarning when the weight spread exceeds COND_GUARD; f-adjoints
    and gaps computed from such weights carry amplified round-off.  The
    warning names the line that called into the package (errors.warn)."""
    if metric.condition_number > COND_GUARD:
        warn(
            f"f-Gram condition number {metric.condition_number:.3e} exceeds "
            f"{COND_GUARD:.1e}; results may lose accuracy",
            IllConditionedWarning,
        )


def f_gram(metric: FMetric) -> Superoperator:
    """Positive definite G_f with <vec(x), G_f vec(y)> = <x, y>_f: f_grams
    of one metric."""
    return Superoperator(dim=metric.dim, matrix=f_grams([metric])[0])


def f_grams(metrics: Sequence[FMetric]) -> np.ndarray:
    """The Grams G_f of metrics of one d, stacked (n, d^2, d^2).

    Each is diagonal with entries w_ij in matrix-unit coordinates of its
    eigenbasis, conjugated back with W = conj(U) (x) U.
    """
    basis = np.array([m.basis for m in metrics])
    weights = np.array([m.weights for m in metrics])
    w = kron(basis.conj(), basis)
    g = (w * weights.swapaxes(1, 2).reshape(len(metrics), 1, -1)) @ dag(w)
    return (g + dag(g)) / 2.0


def f_gram_sqrt(metric: FMetric) -> tuple[np.ndarray, np.ndarray]:
    """(G_f^{1/2}, G_f^{-1/2}) built from the exact diagonal weights.

    No library routine calls it (gap.f_operator_norms scales by the weights
    in the eigen frame); it is the materialized reference that tests check
    f-operator norms against, and perfbench traces it by name.
    """
    w = eigenbasis_rotation(metric)
    root = np.sqrt(vec(metric.weights).real)
    return (w * root) @ dag(w), (w / root) @ dag(w)


def f_adjoint(metric: FMetric, s: Superoperator) -> Superoperator:
    """Adjoint of s for <., .>_f: G_f^{-1} s^H G_f, via the diagonal weights.

    Warns (IllConditionedWarning) when the weight spread exceeds 1e12 and
    proceeds; the result then carries amplified round-off.
    """
    warn_if_ill_conditioned(metric)
    w = eigenbasis_rotation(metric)
    weights = vec(metric.weights).real
    inner = dag(w) @ s.matrix.conj().T @ w
    adj = (w / weights) @ (inner * weights) @ dag(w)
    return Superoperator(dim=metric.dim, matrix=adj)


# ---------------------------------------------------------------------------
# Quadratic forms, Moreau regularization and the Loewner order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Q(xi) = <xi, A xi> for a PSD matrix A on C^n (eigenvalue floor -1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        eig = herm_eig(self.matrix)
        if eig.values.min() < -DEFAULT_TOL * max(1.0, eig.values.max(initial=0.0)):
            raise NotPSDError("quadratic form requires a PSD matrix")
        object.__setattr__(self, "_eigen", eig)

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=complex)
        return float(np.real(xi.conj() @ (self.matrix @ xi)))


def moreau_form(q: QuadraticForm, lam: float, xi) -> float:
    """Moreau regularization Q^(lam)(xi) = <xi, A(1 + lam A)^{-1} xi>:
    moreau_forms of one form at one lam.  Increases to Q(xi) as lam
    decreases to 0."""
    return float(moreau_forms([q], [[lam]], [xi])[0, 0])


def moreau_forms(forms: Sequence[QuadraticForm], lams, xis) -> np.ndarray:
    """Q^(lam)(xi) of each form of one d at each lam of its row of lams
    (n, k), for its xi (n, d): an (n, k) array.

    Also evaluates the variational form at its closed-form minimizer
    eta* = (1 + lam A)^{-1} xi and requires both to agree within 1e-10
    (PostconditionError for the first form and lam that fails).
    OrderViolationError unless every lam is > 0.
    """
    lams = np.asarray(lams, dtype=float)
    if not (lams > 0).all():  # NaN fails too
        raise OrderViolationError("Moreau parameter lam must be positive")
    xis = np.asarray(xis, dtype=complex)
    vals = np.clip(np.array([q._eigen.values for q in forms]), 0.0, None)[:, None]
    vectors = np.array([q._eigen.vectors for q in forms])
    coords = (dag(vectors) @ xis[..., None])[:, None, :, 0]
    shrink = 1.0 + lams[..., None] * vals
    closed = np.sum(vals / shrink * np.abs(coords) ** 2, axis=-1)

    eta = (vectors[:, None] @ (coords / shrink)[..., None])[..., 0]
    image = (np.array([q.matrix for q in forms])[:, None] @ eta[..., None])[..., 0]
    miss = xis[:, None] - eta
    variational = (eta.conj() * image + miss.conj() * miss / lams[..., None]).sum(-1).real
    for c, v in zip(closed.flat, variational.flat):
        if abs(c - v) > 1e-10 * max(1.0, abs(c)):
            raise PostconditionError(f"Moreau closed form {c!r} vs minimizer value {v!r}")
    return closed


@dataclass(frozen=True)
class OrderProbeReport:
    """Worst eigenvalue margins of the order checks (>= 0 means satisfied)."""

    base_margin: float
    resolvent_margins: tuple[tuple[float, float], ...]   # (lam, margin)
    function_margins: tuple[tuple[str, float], ...]      # (label, margin)


def loewner_order_probe(a, b, floor: float = 1e-9) -> OrderProbeReport:
    """Check A <= B, then resolvent order A(1+lam A)^{-1} <= B(1+lam B)^{-1}
    for lam = 1e-3, 1e-2, ..., 1e3 and f(A) <= f(B) for each function of
    monotone.builtin_functions: _loewner_order_probes of one pair.

    Raises OrderViolationError naming the failing lam or f.  Margins are
    smallest eigenvalues of the differences, floored at -floor * scale.
    QmsGapError unless floor is finite and >= 0.
    """
    a = _as_complex_square(a, "A")[None]
    return _loewner_order_probes(a, _as_complex_square(b, "B")[None], floor)[0]


def _loewner_order_probes(a, b, floor: float) -> list[OrderProbeReport]:
    """loewner_order_probe of each pair (a[k], b[k]) of two finite stacks
    (n, d, d), each entry of each report as that pair gives it alone.

    One herm_eigs of the A stack and one of the B stack, then one stacked
    eigvalsh of the 14 differences of every pair: B - A, the 7 resolvents
    and the 6 functions.  A failing pair raises its own error, that of the
    first failing pair: NotPSDError naming A or B, or OrderViolationError
    naming the precondition, lam or f (a stack that is not Hermitian
    raises for its A matrices first).
    """
    if not (np.isfinite(floor) and floor >= 0):
        raise QmsGapError(f"order floor must be finite and >= 0, got {floor!r}")
    values, vectors = (np.stack(x, axis=1) for x in zip(herm_eigs(a), herm_eigs(b)))
    top = np.maximum(1.0, values.max(axis=-1))  # (n, 2): A's and B's scale
    psd = values.min(axis=-1) >= -DEFAULT_TOL * top
    clipped = np.clip(values, 0.0, None)[:, :, None]
    functions = builtin_functions()
    lams = np.array(_RESOLVENT_GRID)[:, None]
    with np.errstate(all="ignore"):
        spectra = np.concatenate(
            [clipped / (1.0 + lams * clipped)] + [f(clipped) for f in functions], axis=2
        )  # (n, 2, 13, d): each function of each spectrum
    if not np.isfinite(spectra).all():
        raise FunctionDomainError("an order probe function is non-finite on a spectrum")
    images = (vectors[:, :, None] * spectra[..., None, :]) @ dag(vectors)[:, :, None]
    diffs = np.concatenate([(b - a)[:, None], images[:, 1] - images[:, 0]], axis=1)
    margins = np.linalg.eigvalsh((diffs + dag(diffs)) / 2.0)[..., 0]  # (n, 14)
    # f(B) = U f(clipped spectrum of B) U^H is Hermitian: its 2-norm is max |f|
    fscale = np.maximum(1.0, np.abs(spectra[:, 1, len(lams):]).max(axis=-1))
    scale = top[:, 1:]  # B's
    bounds = np.hstack([DEFAULT_TOL * scale, np.repeat(floor * scale, len(lams), 1),
                        floor * fscale])
    checks = ["precondition A <= B fails: min eig(B - A) = {:.3e}"]
    checks += [f"resolvent order fails at lam = {lam!r}: margin {{:.3e}}"
               for lam in _RESOLVENT_GRID]
    checks += [f"monotone order fails for f = {f.label}: margin {{:.3e}}"
               for f in functions]
    for k in range(len(a)):
        for name, ok in zip("AB", psd[k]):
            if not ok:
                raise NotPSDError(f"{name} is not PSD")
        for j in np.flatnonzero(margins[k] < -bounds[k])[:1]:
            raise OrderViolationError(checks[j].format(margins[k, j]))
    return [
        OrderProbeReport(
            base_margin=row[0],
            resolvent_margins=tuple(zip(_RESOLVENT_GRID, row[1:8])),
            function_margins=tuple(zip([f.label for f in functions], row[8:])),
        )
        for row in margins.tolist()
    ]
