"""Operator monotone functions on the nonnegative half-line, normalized at 1.

A function f: R+ -> R+ is operator monotone when A <= B implies
f(A) <= f(B) in the Loewner order.  Every such f admits the integral
representation

    f(t) = integral over [0, inf] of h(t, lam) dm(lam),
    h(t, lam) = (1 + lam) t / (t + lam),   h(t, 0) = 1,  h(t, inf) = t,

with a finite Borel measure m; f(1) = 1 exactly when m is a probability
measure.  This module provides the named members used by the state-induced
inner products (GNS f = 1, anti-GNS f = t, KMS f = sqrt t, BKM
f = (t - 1)/log t, the power family t^alpha), discrete-measure and
closed-form representations, the transpose f~(t) = t f(1/t), and
diagnostic checks of the normalized bounds f(1) = 1, f(t) <= t + 1 and
monotonicity.

The infinity atom of a discrete measure is encoded by ``math.inf``; the
kernel is evaluated by its limit h(t, inf) = t there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundViolationError,
    NegativeArgumentError,
    QmsGapError,
)

NORMALIZATION_TOL = 1e-12

# Switch to the Taylor branch of (t-1)/log t when |t - 1| is this small;
# the direct quotient degenerates to 0/0 there.
_BKM_TAYLOR_CUTOFF = 1e-8


def _check_nonnegative(t: np.ndarray):
    if np.any(t < 0):
        raise NegativeArgumentError("operator monotone functions need t >= 0")


def h_kernel(t, lam):
    """Loewner kernel h(t, lam) = (1 + lam) t / (t + lam).

    Endpoint conventions: h(t, 0) = 1 and h(t, inf) = t.  Accepts scalar or
    array t; lam is a scalar in [0, inf].
    """
    t_arr = np.asarray(t, dtype=float)
    _check_nonnegative(t_arr)
    if lam < 0:
        raise NegativeArgumentError("kernel parameter lam must be in [0, inf]")
    if lam == 0:
        out = np.ones_like(t_arr)
    elif math.isinf(lam):
        out = t_arr.copy()
    else:
        out = (1.0 + lam) * t_arr / (t_arr + lam)
    return float(out) if np.isscalar(t) else out


def _bkm_values(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    zero = t == 0.0
    s = t - 1.0
    near_one = (~zero) & (np.abs(np.log(np.where(zero, 1.0, t))) < _BKM_TAYLOR_CUTOFF)
    generic = ~(zero | near_one)
    out[zero] = 0.0
    # three-term expansion of (t-1)/log t around t = 1 in s = t - 1
    sn = s[near_one]
    out[near_one] = 1.0 + sn / 2.0 - sn * sn / 12.0
    with np.errstate(divide="ignore"):
        out[generic] = s[generic] / np.log(t[generic])
    return out


@dataclass(frozen=True)
class MonotoneFunction:
    """An operator monotone function f: R+ -> R+ with f(1) = 1.

    kind is one of "gns" (f = 1), "anti-gns" (f = t), "kms" (f = sqrt t),
    "bkm" (f = (t-1)/log t), "power" (f = t^alpha, alpha in [0, 1]),
    "measure" (discrete Loewner measure, atoms = ((lam, weight), ...)) or
    "closed-form" (arbitrary evaluator, normalization checked at build).
    """

    kind: str
    alpha: Optional[float] = None
    atoms: Optional[tuple[tuple[float, float], ...]] = None
    fn: Optional[Callable] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind == "power":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise QmsGapError(
                    f"power exponent must lie in [0, 1], got {self.alpha!r}"
                )
        elif self.kind == "measure":
            if not self.atoms:
                raise QmsGapError("measure kind needs at least one atom")
            weights = np.array([w for _, w in self.atoms], dtype=float)
            if np.any(weights <= 0):
                raise QmsGapError("measure weights must be positive")
            if abs(weights.sum() - 1.0) > NORMALIZATION_TOL:
                raise QmsGapError(
                    f"measure weights sum to {weights.sum()!r}, expected 1"
                )
            if any(lam < 0 for lam, _ in self.atoms):
                raise NegativeArgumentError("measure atoms must lie in [0, inf]")
        elif self.kind == "closed-form":
            if self.fn is None:
                raise QmsGapError("closed-form kind needs an evaluator")
            at_one = float(np.asarray(self.fn(np.asarray([1.0]))).reshape(())[()])
            if abs(at_one - 1.0) > NORMALIZATION_TOL:
                raise QmsGapError(f"f(1) = {at_one!r} violates the normalization")
        elif self.kind not in ("gns", "anti-gns", "kms", "bkm"):
            raise QmsGapError(f"unknown monotone function kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"power({self.alpha:g})"
        if self.kind == "closed-form" and self.name:
            return self.name
        return self.kind

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        _check_nonnegative(t_arr)
        if self.kind == "gns":
            out = np.ones_like(t_arr)
        elif self.kind == "anti-gns":
            out = t_arr.copy()
        elif self.kind == "kms":
            out = np.sqrt(t_arr)
        elif self.kind == "bkm":
            out = _bkm_values(t_arr)
        elif self.kind == "power":
            out = np.power(t_arr, self.alpha)
        elif self.kind == "measure":
            out = np.zeros_like(t_arr)
            for lam, weight in self.atoms:
                out += weight * h_kernel(t_arr, lam)
        else:
            out = np.asarray(self.fn(t_arr), dtype=float)
        return float(out) if np.isscalar(t) else out


def gns() -> MonotoneFunction:
    """f = 1: induces the GNS inner product tr(x^H y rho)."""
    return MonotoneFunction(kind="gns")


def anti_gns() -> MonotoneFunction:
    """f = t: induces the anti-GNS inner product tr(y x^H rho)."""
    return MonotoneFunction(kind="anti-gns")


def kms() -> MonotoneFunction:
    """f = sqrt t: induces the KMS inner product tr(x^H rho^1/2 y rho^1/2)."""
    return MonotoneFunction(kind="kms")


def bkm() -> MonotoneFunction:
    """f = (t-1)/log t: induces the BKM inner product."""
    return MonotoneFunction(kind="bkm")


def power(alpha: float) -> MonotoneFunction:
    """f = t^alpha for alpha in [0, 1]; alpha outside that range is rejected
    because t^alpha is then not operator monotone."""
    return MonotoneFunction(kind="power", alpha=float(alpha))


def from_measure(atoms) -> MonotoneFunction:
    """Discrete Loewner measure sum_j w_j h(t, lam_j); weights must sum to 1."""
    return MonotoneFunction(
        kind="measure", atoms=tuple((float(l), float(w)) for l, w in atoms)
    )


def closed_form(fn, name: str | None = None) -> MonotoneFunction:
    """Arbitrary evaluator; only the normalization f(1) = 1 is checked here.
    Use check_om1_bounds to probe the monotone bounds."""
    return MonotoneFunction(kind="closed-form", fn=fn, name=name)


def builtin_functions() -> tuple[MonotoneFunction, ...]:
    """Named members plus representative powers, for order/collapse probes."""
    return (gns(), anti_gns(), kms(), bkm(), power(0.25), power(0.75))


def transpose(f: MonotoneFunction) -> MonotoneFunction:
    """The transpose f~(t) = t f(1/t).

    Named kinds map to named kinds (gns <-> anti-gns, kms and bkm are
    self-transpose, power(alpha) -> power(1 - alpha)).  For a discrete
    measure the transpose is the pushforward of the atoms under
    lam -> 1/lam, because t h(1/t, lam) = h(t, 1/lam).
    """
    if f.kind == "gns":
        return anti_gns()
    if f.kind == "anti-gns":
        return gns()
    if f.kind in ("kms", "bkm"):
        return MonotoneFunction(kind=f.kind)
    if f.kind == "power":
        return power(1.0 - f.alpha)
    if f.kind == "measure":
        flipped = []
        for lam, weight in f.atoms:
            if lam == 0.0:
                flipped.append((math.inf, weight))
            elif math.isinf(lam):
                flipped.append((0.0, weight))
            else:
                flipped.append((1.0 / lam, weight))
        return from_measure(flipped)

    base = f.fn

    def transposed(t):
        t = np.asarray(t, dtype=float)
        positive = t > 0
        safe = np.where(positive, t, 1.0)
        out = safe * np.asarray(base(1.0 / safe), dtype=float)
        if np.any(~positive):
            # limit of t f(1/t) at 0, approximated just inside the domain
            tiny = 1e-14
            out = np.where(positive, out, tiny * float(base(1.0 / tiny)))
        return out

    name = f"transpose({f.label})"
    return closed_form(transposed, name=name)


@dataclass(frozen=True)
class OmBoundsReport:
    """Worst margins of the normalized operator-monotone bounds on a log grid.

    upper_margin is min over the grid of t + 1 - f(t) (nonnegative for any
    normalized operator monotone f); monotonicity_margin is the most
    negative forward difference of f (>= 0 for perfectly monotone data).
    """

    upper_margin: float
    upper_argmin: float
    monotonicity_margin: float
    n_points: int


def check_om1_bounds(
    f: MonotoneFunction,
    t_range: tuple[float, float] = (1e-6, 1e6),
    n_points: int = 241,
    upper_slack: float = 1e-9,
    monotone_slack: float = 1e-12,
) -> OmBoundsReport:
    """Probe f(t) <= t + 1 and monotonicity of f on a log grid.

    Raises BoundViolationError naming the first failing t; returns the
    worst observed margins otherwise.
    """
    t_grid = np.geomspace(t_range[0], t_range[1], n_points)
    values = f(t_grid)
    upper = t_grid + 1.0 - values
    idx = int(np.argmin(upper))
    if upper[idx] < -upper_slack:
        raise BoundViolationError(
            f"f(t) = {float(values[idx]):.6g} exceeds t + 1 "
            f"at t = {float(t_grid[idx]):.6g}"
        )
    diffs = np.diff(values)
    slack = monotone_slack * np.maximum(1.0, np.abs(values[:-1]))
    bad = np.nonzero(diffs < -slack)[0]
    if bad.size:
        k = int(bad[0])
        raise BoundViolationError(
            f"f decreases between t = {float(t_grid[k]):.6g} "
            f"and t = {float(t_grid[k + 1]):.6g}"
        )
    return OmBoundsReport(
        upper_margin=float(upper[idx]),
        upper_argmin=float(t_grid[idx]),
        monotonicity_margin=float(diffs.min(initial=0.0)),
        n_points=n_points,
    )
