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
A DensityMatrix keeps p (descending) and U as read-only fields, and forms
the eigen-frame rotation W = conj(U) (x) U (so that W^H vec(x) =
vec(U^H x U)) on first use, there and nowhere else.  Every FMetric points
at its state (`metric.state`), and the gap routines recognize metrics of
one state by that identity.  `weight_table` is the one evaluator of the
weights: for the states of one d it evaluates each function once on the
modular ratios p_i / p_j of their stacked p and writes a table (n, k, d^2)
of rows w_f = vec(p_j f(p_i / p_j)) in column-stacking order, the
vectorization of the weights in that frame.  The gap and norm engines and
the campaign read those rows; `f_metric_table`, `f_metrics` and `f_metric`
hand out FMetric views of them (weights is a row read as a d x d matrix),
and `weight_rows` stacks the rows of given metrics.

Notable members: f = 1 gives the GNS product tr(x^H y rho) (w_ij = p_j),
f = t the anti-GNS product tr(y x^H rho) (w_ij = p_i), f = sqrt t the KMS
product tr(x^H rho^(1/2) y rho^(1/2)) (w_ij = sqrt(p_i p_j)), and
f = (t-1)/log t the BKM product, the s-integral of tr(x^H rho^s y rho^(1-s)).

The module also provides Moreau regularization of the quadratic form
Q(xi) = <xi, A xi> of a PSD matrix A,
Q^(lam)(xi) = inf_eta Q(eta) + |xi - eta|^2 / lam = <xi, A(1 + lam A)^{-1} xi>,
and an order probe checking that A <= B propagates to resolvents and to
f(A) <= f(B) for operator monotone f.  Both take stacks of matrices and
return arrays that give each matrix or pair what it gets alone:
`moreau_forms` its values from one herm_eigs of the stack, and
`_loewner_order_probes` its margins from one herm_eigs of each side.
`moreau_form` and `loewner_order_probe` are their stacks of one; only the
latter labels its margins, as an OrderProbeReport.
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
    _stack,
    dag,
    grouped,
    herm_eigs,
)
from .monotone import MonotoneFunction, builtin_functions
from .qms import DensityMatrix

COND_GUARD = 1e12
_RESOLVENT_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)  # loewner_order_probe's lam


@dataclass(frozen=True)
class FMetric:
    """The weights[i, j] = p_j f(p_i / p_j) of <., .>_f in the eigen frame
    of its state, p the state's descending eigenvalues."""

    f: MonotoneFunction
    state: DensityMatrix
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.state.dim


def f_metrics(rho: DensityMatrix, functions) -> list[FMetric]:
    """The metric of each function, in order, from one split of rho's
    eigendata: f_metric_table for one state."""
    return f_metric_table([rho], functions)[0]


def f_metric_table(rhos: Sequence[DensityMatrix], functions) -> list[list[FMetric]]:
    """For each state, the metric of each function, in order: views of
    its rows of weight_table.

    The metrics of a state point at it (see the module docstring), and
    each metric's weights are its weight row read as a d x d matrix.
    Forms no W.  Raises as weight_table does.
    """
    functions = tuple(functions)
    table = []
    for rho, rows in zip(rhos, weight_table(rhos, functions)):
        weights = rows.reshape(len(functions), rho.dim, rho.dim).swapaxes(1, 2)
        table.append([FMetric(f, rho, wf) for f, wf in zip(functions, weights)])
    return table


def weight_table(rhos: Sequence[DensityMatrix], functions) -> list[np.ndarray]:
    """For each state, its weight rows w_f = vec(p_j f(p_i / p_j)) for each
    function, (len(functions), d^2): the rows weight_rows stacks.

    The states of one d are one (n, k, d^2) table, and each function is
    evaluated once on the modular ratios p_i / p_j of their stacked
    eigenvalues, with the entries it gives each state alone; each state's
    rows are a view of its table.
    Raises NotFaithfulError for a state that is not faithful and
    PostconditionError when some weight is <= 0 (or NaN).
    """
    functions = tuple(functions)
    for rho in rhos:
        if not rho.faithful:
            raise NotFaithfulError("f-metric needs a faithful state")
    out: list = [None] * len(rhos)
    for idx in grouped(rho.dim for rho in rhos).values():
        p = _stack([rhos[i].eigenvalues for i in idx])
        ratios = p[:, :, None] / p[:, None, :]
        n, d = p.shape
        table = np.empty((n, len(functions), d, d))  # [g, f, j, i]: rows in vec order
        for k, f in enumerate(functions):
            w = np.multiply(p[:, None, :], f(ratios), out=table[:, k].swapaxes(1, 2))
            if not (w > 0).all():  # NaN weights fail too
                raise PostconditionError("f-weights must be strictly positive")
        rows = table.reshape(n, len(functions), d * d)
        for g, i in enumerate(idx):
            out[i] = rows[g]
    return out


def f_metric(rho: DensityMatrix, f: MonotoneFunction) -> FMetric:
    """The metric of one function: f_metrics(rho, [f])[0]."""
    return f_metrics(rho, [f])[0]


def same_state(metrics: Sequence[FMetric], dim: int, what: str) -> None:
    """The metrics must come from one state (QmsGapError) on the d of the
    model or map they measure (DimensionMismatchError)."""
    first = metrics[0]
    if first.dim != dim:
        raise DimensionMismatchError(
            f"metric of dimension {first.dim} for a {what} of dimension {dim}"
        )
    if any(m.state is not first.state for m in metrics[1:]):
        raise QmsGapError("metrics of one call must come from one state")


def weight_rows(metrics: Sequence[FMetric]) -> np.ndarray:
    """Rows w_f = vec(p_j f(p_i / p_j)) of metrics of one d, stacked
    (n, d^2): the diagonal f-Grams in the eigen frame; of one metric, a
    view of its row."""
    return _stack([m.weights.T for m in metrics]).reshape(len(metrics), -1)


def f_inner(metric: FMetric, x, y) -> complex:
    """<x, y>_f = sum_ij w_ij conj(x~_ij) y~_ij, x~ = U^H x U in the
    eigenbasis of rho; DimensionMismatchError unless x and y are d x d."""
    u = metric.state.basis
    pair = [np.asarray(z, dtype=complex) for z in (x, y)]
    for z in pair:
        if z.shape != u.shape:
            raise DimensionMismatchError(
                f"metric of dimension {metric.dim} for a matrix of shape {z.shape}"
            )
    xt, yt = (dag(u) @ z @ u for z in pair)
    return complex(np.sum(metric.weights * xt.conj() * yt))


def warn_if_ill_conditioned(condition: float) -> None:
    """IllConditionedWarning when a weight spread max / min exceeds COND_GUARD;
    f-adjoints and gaps computed from such weights carry amplified
    round-off.  The warning names the line that called into the package
    (errors.warn)."""
    if condition > COND_GUARD:
        warn(
            f"f-Gram condition number {condition:.3e} exceeds "
            f"{COND_GUARD:.1e}; results may lose accuracy",
            IllConditionedWarning,
        )


def f_gram(metric: FMetric) -> Superoperator:
    """Positive definite G_f with <vec(x), G_f vec(y)> = <x, y>_f: _grams
    of its state's rotation and the metric's weight row."""
    gram = _grams(metric.state.rotation[None], weight_rows([metric]))[0]
    return Superoperator(dim=metric.dim, matrix=gram)


def _grams(rotations: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """G = W diag(w) W^H for each rotation W (n, d^2, d^2) and weight row w
    (n, d^2): diagonal with entries w_ij in matrix-unit coordinates of the
    eigenbasis, conjugated back with the state's W = conj(U) (x) U."""
    g = (rotations * rows[:, None]) @ dag(rotations)
    return (g + dag(g)) / 2.0


def f_gram_sqrt(metric: FMetric) -> tuple[np.ndarray, np.ndarray]:
    """(G_f^{1/2}, G_f^{-1/2}) built from the exact diagonal weights.

    No library routine calls it (gap.f_operator_norms scales by the weights
    in the eigen frame); it is the materialized reference that tests check
    f-operator norms against, and perfbench traces it by name.
    """
    w = metric.state.rotation
    root = np.sqrt(weight_rows([metric])[0])
    return (w * root) @ dag(w), (w / root) @ dag(w)


def f_adjoint(metric: FMetric, s: Superoperator) -> Superoperator:
    """Adjoint of s for <., .>_f: G_f^{-1} s^H G_f, via the diagonal weights.

    Warns (IllConditionedWarning) when the weight spread exceeds 1e12 and
    proceeds; the result then carries amplified round-off.
    DimensionMismatchError for s on another d than the metric.
    """
    same_state([metric], s.dim, "map")
    adj = _adjoint(metric.state.rotation, weight_rows([metric])[0], s.matrix)
    return Superoperator(dim=metric.dim, matrix=adj)


def _adjoint(w: np.ndarray, weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """G^{-1} S^H G for G = W diag(weights) W^H, as f_adjoint gives it."""
    warn_if_ill_conditioned(float(weights.max() / weights.min()))
    inner = dag(w) @ matrix.conj().T @ w
    return (w / weights) @ (inner * weights) @ dag(w)


# ---------------------------------------------------------------------------
# Moreau regularization and the Loewner order
# ---------------------------------------------------------------------------


def moreau_form(a, lam: float, xi) -> float:
    """Moreau regularization Q^(lam)(xi) = <xi, A(1 + lam A)^{-1} xi> of
    Q(xi) = <xi, A xi> for a PSD matrix A: moreau_forms of one matrix at
    one lam.  Increases to Q(xi) as lam decreases to 0."""
    return float(moreau_forms(_as_complex_square(a)[None], [[lam]], [xi])[0, 0])


def moreau_forms(a, lams, xis) -> np.ndarray:
    """Q^(lam)(xi) of each PSD matrix A of a finite stack a (n, d, d) at
    each lam of its row of lams (n, k), for its xi (n, d): an (n, k) array,
    from one herm_eigs of the stack.

    NotPSDError for a matrix with an eigenvalue below -1e-10 max(1, its
    largest); then OrderViolationError unless every lam is > 0.  Also
    evaluates the variational form at its closed-form minimizer
    eta* = (1 + lam A)^{-1} xi and requires both to agree within 1e-10
    (PostconditionError for the first matrix and lam that fails).
    """
    a = np.asarray(a, dtype=complex)
    values, vectors, _ = herm_eigs(a)
    if (values[:, 0] < -DEFAULT_TOL * np.maximum(1.0, values[:, -1])).any():
        raise NotPSDError("quadratic form requires a PSD matrix")
    lams = np.asarray(lams, dtype=float)
    if not (lams > 0).all():  # NaN fails too
        raise OrderViolationError("Moreau parameter lam must be positive")
    xis = np.asarray(xis, dtype=complex)
    vals = np.clip(values, 0.0, None)[:, None]
    coords = (dag(vectors) @ xis[..., None])[:, None, :, 0]
    shrink = 1.0 + lams[..., None] * vals
    closed = np.sum(vals / shrink * np.abs(coords) ** 2, axis=-1)

    eta = (vectors[:, None] @ (coords / shrink)[..., None])[..., 0]
    image = (a[:, None] @ eta[..., None])[..., 0]
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
    monotone.builtin_functions: the margins of _loewner_order_probes of one
    pair, labelled.

    Raises OrderViolationError naming the failing lam or f.  Margins are
    smallest eigenvalues of the differences, floored at -floor * scale.
    QmsGapError unless floor is finite and >= 0.
    """
    a = _as_complex_square(a, "A")[None]
    row = _loewner_order_probes(a, _as_complex_square(b, "B")[None], floor)[0].tolist()
    return OrderProbeReport(
        base_margin=row[0],
        resolvent_margins=tuple(zip(_RESOLVENT_GRID, row[1:8])),
        function_margins=tuple(zip([f.label for f in builtin_functions()], row[8:])),
    )


def _loewner_order_probes(a, b, floor: float) -> np.ndarray:
    """The margins (n, 14) of each pair (a[k], b[k]) of two finite stacks
    (n, d, d), each row as loewner_order_probe gives that pair alone: the
    smallest eigenvalue of B - A, of the 7 resolvent differences and of
    the 6 function differences, in that order.

    One herm_eigs of the A stack and one of the B stack, then one stacked
    eigvalsh of the 14 differences of every pair.  A failing pair raises
    its own error, that of the first failing pair: NotPSDError naming A or
    B, or OrderViolationError naming the precondition, lam or f (a stack
    that is not Hermitian raises for its A matrices first).
    """
    if not (np.isfinite(floor) and floor >= 0):
        raise QmsGapError(f"order floor must be finite and >= 0, got {floor!r}")
    eigs = zip(herm_eigs(a)[:2], herm_eigs(b)[:2])
    values, vectors = (np.stack(x, axis=1) for x in eigs)
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
    return margins
