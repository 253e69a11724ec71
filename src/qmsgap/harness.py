"""Seeded property-test campaign over random GKSL models.

Each property certifies one numerically checkable fact about the gap
family: the GNS gap lower-bounds every f-gap, semigroups are f-contractive,
eigenvalue gaps match measured decay, gaps are invariant under the
function transpose, the power-family curve is symmetric about 1/2 and
monotone below it, the closed form of Moreau regularization matches the
exact minimum of its variational problem (an LU solve, no eigensolve) to
1e-12, the normalized monotone bounds and the Gram sandwich hold, the
Loewner order survives resolvents and monotone functions, the KMS/BKM
inner products match their trace formulas, detailed balance collapses all
gaps to one value, a strict KMS > GNS gap separation exists, and the
degenerate fixed-point mode reproduces the comparison on ker E.

Reproducibility: every random draw flows from a named spawn key of the
campaign seed (numpy SeedSequence / PCG64), so identical configs produce
identical reports on one build; RNG streams may drift across numpy
versions.  Property streams are independent, so the report is the same
regardless of evaluation order.  Rejected model draws (no unique faithful
invariant state) are counted, never silently dropped.

Batching: a property takes its models _BATCH at a time (48: draws cycling
d = 2, 3, 4 give a batch 16 models of each d).  Its random draws
are one stack (qms.random_faithful_models: the candidates are decided
together, and the stream is replayed exactly at a rejection), so each
model, state and rejected count is the one a draw-by-draw loop over the
stream gives.  The work after the draws is done for the whole batch by
the batched routines of metric, qms and gap (weight_table,
fixed_point_structures, function_sweeps, gap_curves, function_norms),
which stack the models of one shape and give each what its one-model
counterpart gives it.  They return arrays and build no FMetric or
GapReport; only decay_equivalence and metric_closed_forms, which check
that API, build metrics.  The
matrix-analysis properties (moreau_identity, om1_bounds, loewner_order,
metric_closed_forms) draw their cases one by one too and decide each batch
in stacks of one d (_stacked), their states included; moreau_forms and
_loewner_order_probes return arrays of values and margins, and build no
object per matrix or pair.  The cases come out with the same ids in the
same order.  Those routines run each stage for
all models before the next, so a batch that raises or warns is run again
one draw at a time (_pool, the one place that restores model order):
errors and warnings are then those of a model-by-model run, a pair that
violates the Loewner order gets inf alone, and a draw that fails is
raised after the models drawn before it are checked.  No admission stage
is needed: qms.generator checks that each generator gives a unital
completely positive semigroup, and the gap routines assert E's identities.
decay_equivalence redraws on the gaps it sees, so it alone draws stacks
of one (_draws) and checks its cases one at a time.

Defects in reports are normalized: a case's defect is its worst violation
measured in units of the property tolerance, so defect <= 1 passes.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import config as cfgmod
from .errors import (
    ConfigError,
    OrderViolationError,
    QmsGapError,
    RateMismatchError,
)
from .gap import (
    empirical_decay_rate,
    function_norms,
    function_sweeps,
    gap_curves,
    gap_sweep,
)
from .linalg import batches, chunks, dag, frobenius, grouped, kron, pick
from .metric import (
    _adjoint,
    _grams,
    _loewner_order_probes,
    f_inner,
    f_metric_table,
    f_metrics,
    moreau_forms,
    weight_table,
)
from .monotone import (
    MonotoneFunction,
    anti_gns,
    bkm,
    check_om1_bounds,
    gns,
    kms,
    transpose,
)
from .qms import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    DensityMatrix,
    GKSLModel,
    _random_states,
    _state_draw,
    density_matrix,
    fixed_point_structure,
    generator,
    invariant_state,
    random_faithful_models,
)

PROPERTY_ORDER = (
    "gap_comparison",
    "contractivity",
    "decay_equivalence",
    "transpose_symmetry",
    "alpha_curve",
    "moreau_identity",
    "om1_bounds",
    "loewner_order",
    "metric_closed_forms",
    "detailed_balance_collapse",
    "strict_gap",
    "degenerate_gap",
)

DEFAULT_TOLERANCES = {
    "gap_comparison": 1e-7,
    "contractivity": 1e-8,
    "decay_equivalence": 1e-6,
    "transpose_symmetry": 1e-7,
    "alpha_curve": 1e-7,
    "moreau_identity": 1e-12,      # the oracle is an exact solve
    "om1_bounds": 1e-9,
    "loewner_order": 1e-9,
    "metric_closed_forms": 1e-9,   # BKM quadrature; the KMS check uses 1e-11
    "detailed_balance_collapse": 1e-7,
    "strict_gap": 1e-3,            # required (kms - gns) / gns separation
    "degenerate_gap": 1e-7,
}

DEFAULT_COUNTS = {
    "decay_equivalence": 20,
    "transpose_symmetry": 50,
    "alpha_curve": 50,
    "moreau_identity": 50,
    "om1_bounds": 50,
    "loewner_order": 50,
    "metric_closed_forms": 100,
    "detailed_balance_collapse": 20,
    "strict_gap": 500,
    "degenerate_gap": 10,
}

KMS_CLOSED_FORM_TOL = 1e-11
# models drawn, then checked as one batch, at a time.  The batched routines
# stack the models of one d, so draws cycling d = 2, 3, 4 give 16 models a
# d: exactly one d = 4 chunk (linalg.chunks: CHUNK_BYTES // (16 * 4^4)).
# On a 2-core box, 48 cut perfbench's acceptance wall time by 12% against
# 16 (seeds 42 and 7, 10 of 10 alternating pairs each).  A larger batch
# only adds chunks, and holds more metrics and reports at once
_BATCH = 48
# lambda_gns at or below this is an exact zero gap that round-off may have
# made positive (single-jump d = 2 models); strict_gap_search skips it
GNS_GAP_FLOOR = 1e-10
_DECAY_GAP_FLOOR = 1e-3
BALANCE_TOL = 1e-10  # detailed_balance_model's relative tolerance on each flow
_TRANSPOSE_SET = ({"kind": "gns"}, {"kind": "power", "alpha": 0.3}, {"kind": "bkm"})
_DECAY_SET = (
    {"kind": "gns"},
    {"kind": "kms"},
    {"kind": "bkm"},
    {"kind": "power", "alpha": 0.3},
)
_CURVE_ALPHAS = tuple(round(0.05 * k, 10) for k in range(21))


def _check_dims(dims) -> None:
    """ConfigError unless dims is a nonempty list of integers 2..8."""
    if not dims or any(_integer(d, "dims entry") < 2 or d > 8 for d in dims):
        raise ConfigError("dims must be a nonempty subset of {2, ..., 8}")


def default_f_suite() -> tuple[dict, ...]:
    suite = [{"kind": "power", "alpha": round(0.1 * k, 10)} for k in range(11)]
    suite += [{"kind": "kms"}, {"kind": "bkm"}]
    return tuple(suite)


@dataclass(frozen=True)
class CampaignConfig:
    """Seeded campaign parameters; see run_campaign.  A model_override is
    parsed once, on build, and its (model, rho) kept in `_override`."""

    seed: int
    n_models: int = 50
    dims: tuple[int, ...] = (2, 3, 4)
    f_suite: tuple[dict, ...] = field(default_factory=default_f_suite)
    t_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    tolerances: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    model_override: Optional[dict] = None
    properties: tuple[str, ...] = PROPERTY_ORDER
    _override: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if _integer(self.seed, "seed") < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if _integer(self.n_models, "n_models") < 1:
            raise ConfigError("n_models must be at least 1")
        _check_dims(self.dims)
        if not self.f_suite:
            raise ConfigError("f_suite must not be empty")
        if not self.t_grid or any(_finite(t, "t_grid entry") < 0 for t in self.t_grid):
            raise ConfigError("t_grid must be nonempty with t >= 0")
        for name in self.properties:
            if name not in PROPERTY_ORDER:
                raise ConfigError(f"unknown property {name!r}")
        if not self.properties:
            raise ConfigError("property list is empty (vacuous run)")
        if len(set(self.properties)) != len(self.properties):
            raise ConfigError("property list contains duplicates")
        for name, count in self.counts.items():
            if name not in PROPERTY_ORDER:
                raise ConfigError(f"count for unknown property {name!r}")
            if name in _SharedPool.READERS:
                raise ConfigError(f"count for {name!r}: it runs on all n_models models")
            if _integer(count, f"count for {name!r}") < 1:
                raise ConfigError(f"count for {name!r} must be >= 1 (vacuous run)")
        for name, tol in self.tolerances.items():
            if name not in PROPERTY_ORDER:
                raise ConfigError(f"tolerance for unknown property {name!r}")
            if _finite(tol, f"tolerance for {name!r}") <= 0:
                raise ConfigError(f"tolerance for {name!r} must be > 0, got {tol!r}")
        for descriptor in self.f_suite:
            cfgmod.function_from_descriptor(descriptor)
        if self.model_override is not None:
            object.__setattr__(
                self, "_override", cfgmod.model_from_dict(self.model_override)
            )

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def count(self, name: str) -> int:
        return int(self.counts.get(name, DEFAULT_COUNTS[name]))

    def functions(self) -> tuple[MonotoneFunction, ...]:
        return tuple(cfgmod.function_from_descriptor(d) for d in self.f_suite)

    @classmethod
    def from_dict(cls, doc: dict, seed: Optional[int] = None) -> "CampaignConfig":
        if not isinstance(doc, dict):
            raise ConfigError("campaign config must be a JSON object")
        keys = {f.name for f in fields(cls) if f.init} | {"schema_version"}
        unknown = sorted(set(doc) - keys)
        if unknown:
            raise ConfigError(f"unknown keys in campaign config: {unknown}")
        if doc.get("schema_version", cfgmod.SCHEMA_VERSION) != cfgmod.SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        if seed is None:
            seed = doc.get("seed")
        if seed is None:
            raise ConfigError("no seed in config and none supplied")
        kwargs = {"seed": seed}
        if "n_models" in doc:
            kwargs["n_models"] = doc["n_models"]
        for key in ("dims", "f_suite", "t_grid", "properties"):
            if key in doc:
                kwargs[key] = tuple(_json_typed(doc, key, list))
        for key in ("tolerances", "counts"):
            if key in doc:
                kwargs[key] = dict(_json_typed(doc, key, dict))
        if doc.get("model_override") is not None:
            kwargs["model_override"] = dict(_json_typed(doc, "model_override", dict))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad campaign config: {exc}") from exc


def _integer(value, what: str):
    """value if it is an integer (booleans are not), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """value as a float if it is a finite real number, else ConfigError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_typed(doc: dict, key: str, kind: type):
    """doc[key] if it is a JSON list/object as `kind` says, else ConfigError."""
    value = doc[key]
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return value


def acceptance_config(seed: int = 42) -> CampaignConfig:
    """Campaign sized to the full acceptance run: 200 random models at
    d in {2, 3, 4} with the power/KMS/BKM suite and the documented
    per-property case counts."""
    return CampaignConfig(seed=seed, n_models=200, dims=(2, 3, 4))


@dataclass(frozen=True, slots=True)
class CaseRecord:
    case_id: str
    dim: int
    defect: float
    passed: bool


@dataclass
class PropertyResult:
    name: str
    tolerance: float
    cases: list[CaseRecord]
    counterexamples: list[dict] = field(default_factory=list)
    n_rejected: int = 0
    seconds: float = 0.0

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def worst_defect(self) -> float:
        return max((c.defect for c in self.cases), default=math.inf)

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(c.passed for c in self.cases)


@dataclass
class CampaignReport:
    config: CampaignConfig
    results: list[PropertyResult]
    n_rejected_draws: int
    total_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def counterexamples(self) -> list[dict]:
        out = []
        for r in self.results:
            out.extend(r.counterexamples)
        return out

    def to_csv(self) -> str:
        lines = ["property,case,dim,defect,passed"]
        for r in self.results:
            for c in r.cases:
                lines.append(
                    f"{r.name},{c.case_id},{c.dim},{c.defect:.17g},"
                    f"{'pass' if c.passed else 'fail'}"
                )
        return "\n".join(lines) + "\n"

    def render_text(self, include_timing: bool = True) -> str:
        cfg = self.config
        lines = [
            f"campaign seed={cfg.seed} n_models={cfg.n_models} "
            f"dims={','.join(str(d) for d in cfg.dims)} "
            f"f_suite={len(cfg.f_suite)} functions",
            "",
            f"{'property':<28}{'cases':>7}{'worst defect':>16}  result",
        ]
        for r in self.results:
            timing = f"  [{r.seconds:.2f}s]" if include_timing else ""
            lines.append(
                f"{r.name:<28}{r.n_cases:>7}{r.worst_defect:>16.6g}  "
                f"{'PASS' if r.passed else 'FAIL'}{timing}"
            )
        lines.append("")
        verdict = "all properties passed" if self.all_passed else "FAILURES present"
        total = f" in {self.total_seconds:.1f}s" if include_timing else ""
        lines.append(
            f"{len(self.results)} properties, "
            f"{sum(r.n_cases for r in self.results)} cases, "
            f"{self.n_rejected_draws} rejected draws: {verdict}{total}"
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEntry:
    """A drawn model, its state and the draws rejected before it."""

    index: int
    model: GKSLModel
    rho: DensityMatrix
    rejected: int = 0  # draws discarded before this model

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def case_id(self) -> str:
        return f"model-{self.index:03d}"


def _random_draws(rng: np.random.Generator, dims, indices) -> Iterator:
    """For each index, a random faithful model of d = dims[index % len(dims)]
    and the draws rejected before it, drawn as one stack
    (qms.random_faithful_models)."""
    drawn = random_faithful_models(rng, [dims[i % len(dims)] for i in indices])
    return (PoolEntry(i, *x) for i, x in zip(indices, drawn))


def _draws(cfg: CampaignConfig, rng: np.random.Generator, indices) -> Iterator:
    """The pool models at the indices: the override model the config keeps
    if it has one, else random ones drawn as one stack."""
    if cfg.model_override is None:
        return _random_draws(rng, cfg.dims, indices)
    model, rho = cfg._override
    rho = invariant_state(model) if rho is None else rho
    return (PoolEntry(i, model, rho) for i in indices)


def _pool_size(cfg: CampaignConfig, n: int) -> int:
    """n, or 1 for an override model, which never varies."""
    return 1 if cfg.model_override is not None else n


def _pool(draw: Callable, n: int, then: Callable) -> Iterator:
    """Pairs (draw, result) for the draws 0, ..., n - 1, taken in order.

    The draws are taken and then processed _BATCH at a time: draw maps a
    range of indices to an iterator of their draws, and then maps a list of
    draws to a list of one result each; each runs once per batch, and only
    the batch's draws and results are held at once.  When
    then raises or warns on a batch of several draws, it runs again on one
    draw at a time, in order: the warnings then come as a model-by-model
    run gives them, and the first failing draw raises its own error, with
    the same type and message.  A draw that raises ends the drawing; its
    error is raised after then has checked the draws before it, as a
    model-by-model run would have.
    """
    for start in range(0, n, _BATCH):
        draws = []
        error = None
        try:
            for x in draw(range(start, min(n, start + _BATCH))):
                draws.append(x)
        except Exception as exc:  # raised below, after the earlier draws
            error = exc
        results = None
        if len(draws) > 1:
            with warnings.catch_warnings(record=True) as caught:
                try:
                    results = then(draws)
                except Exception:  # any error: the replay below raises it again
                    pass
            if caught:
                results = None
        if results is None:  # a batch of one, or one that raised or warned
            results = [then([x])[0] for x in draws]
        yield from zip(draws, results)
        if error is not None:
            raise error


def _columns(entries: list[PoolEntry]) -> tuple[list, list]:
    """The models and states of the entries."""
    return [e.model for e in entries], [e.rho for e in entries]


class _SharedPool:
    """The models that the READERS, gap comparison and contractivity,
    quantify over, drawn from spawn key 0 on first use, _BATCH at a time.
    run_campaign drops them after the last reader it runs, so they are not
    held through the batches of later properties; n_rejected stays."""

    READERS = ("gap_comparison", "contractivity")

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.entries: Optional[list[PoolEntry]] = None
        self.n_rejected = 0

    def __iter__(self):
        if self.entries is None:
            rng = _rng_for(self.cfg, 0)
            n = _pool_size(self.cfg, self.cfg.n_models)
            draw = partial(_draws, self.cfg, rng)
            self.entries = [entry for entry, _ in _pool(draw, n, list)]
            self.n_rejected = sum(entry.rejected for entry in self.entries)
        return iter(self.entries)


def _rng_for(cfg: CampaignConfig, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key,)))


def _sweeps(functions, entries: list[PoolEntry]) -> list:
    """The gap.Sweep of each entry for the functions: one weight table a d
    and one batched sweep."""
    models, rhos = _columns(entries)
    return function_sweeps(models, rhos, functions)


def _gaps(functions, entries: list[PoolEntry]) -> list[list[float]]:
    """The gaps of _sweeps."""
    return [sweep.lambdas.tolist() for sweep in _sweeps(functions, entries)]


def _contraction_defects(
    functions, t_grid, tol: float, entries: list[PoolEntry]
) -> list[float]:
    """Worst (|Phi_t|_f - 1) / tol over the time grid and the functions, for
    each entry, from one weight table a d and one function_norms call."""
    models, rhos = _columns(entries)
    norms = function_norms(models, rhos, functions, t_grid)
    defects = []
    for per_time in norms:
        defect = -math.inf
        for row in per_time:
            defect = max(defect, (float(row.max()) - 1.0) / tol)
        defects.append(defect)
    return defects


# ---------------------------------------------------------------------------
# Properties
#
# Each property is a generator (cfg, rng, pool) -> Case that checks its
# instances in a fixed order; _run_property turns the cases into records,
# verdicts and counterexamples.
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    """One checked instance; defect <= 1 passes.  model and rho make a
    failing case replayable, extra adds diagnostics to its counterexample,
    and rejected counts the model draws discarded before it."""

    case_id: str
    dim: int
    defect: float
    model: Optional[GKSLModel] = None
    rho: Optional[DensityMatrix] = None
    extra: Optional[dict] = None
    rejected: int = 0


def _gap_comparison(cfg, rng, pool):
    tol = cfg.tolerance("gap_comparison")
    entries = list(pool)
    gaps = partial(_gaps, (gns(),) + cfg.functions())
    draw = partial(map, entries.__getitem__)
    for entry, (lam_gns, *lambdas) in _pool(draw, len(entries), gaps):
        scale = tol * max(1.0, lam_gns)
        defect = -math.inf
        for lam in lambdas:
            defect = max(defect, (lam_gns - lam) / scale)
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho,
            {"lambda_gns": lam_gns},
        )


def _contractivity(cfg, rng, pool):
    tol = cfg.tolerance("contractivity")
    entries = list(pool)
    defects = partial(_contraction_defects, cfg.functions(), cfg.t_grid, tol)
    draw = partial(map, entries.__getitem__)
    for entry, defect in _pool(draw, len(entries), defects):
        yield Case(entry.case_id, entry.dim, defect, entry.model, entry.rho)


def _decay_equivalence(cfg, rng, pool):
    """Eigenvalue gap vs measured decay rate, relative tolerance.

    A relative criterion needs gaps bounded away from zero, and random
    GKSL draws occasionally have numerical abscissa ~ 0 for some f (the
    no-reverse-inequality phenomenon), so draws whose smallest gap over
    the decay set falls below _DECAY_GAP_FLOOR are redrawn and counted;
    a redraw keeps the case's dim, and the cases cycle through cfg.dims.
    Running out of the 20-draws-per-case budget raises.  An override
    model, which never varies, is one case and is never redrawn.
    """
    tol = cfg.tolerance("decay_equivalence")
    functions = tuple(cfgmod.function_from_descriptor(d) for d in _DECAY_SET)
    n_wanted = _pool_size(cfg, cfg.count("decay_equivalence"))

    produced = 0
    attempts = 0
    rejected = 0
    while produced < n_wanted and attempts < 20 * n_wanted:
        attempts += 1
        (entry,) = _draws(cfg, rng, [produced])
        rejected += entry.rejected
        fps = fixed_point_structure(entry.model, entry.rho)
        metrics = f_metrics(entry.rho, functions)
        reports = gap_sweep(entry.model, entry.rho, metrics, fps=fps)
        if (
            min(r.lambda_f for r in reports) < _DECAY_GAP_FLOOR
            and cfg.model_override is None
        ):
            rejected += 1
            continue
        defect = -math.inf
        for metric, report in zip(metrics, reports):
            measured = empirical_decay_rate(entry.model, entry.rho, metric, fps=fps)
            rel = abs(measured - report.lambda_f) / max(report.lambda_f, 1e-12)
            defect = max(defect, rel / tol)
        yield Case(
            f"model-{produced:03d}", entry.dim, defect, entry.model, entry.rho,
            rejected=rejected,
        )
        produced += 1
        rejected = 0
    if produced < n_wanted:
        raise QmsGapError(
            f"decay_equivalence: {attempts} draws produced {produced} of "
            f"{n_wanted} cases with every gap above {_DECAY_GAP_FLOOR:g}"
        )


def _transpose_symmetry(cfg, rng, pool):
    tol = cfg.tolerance("transpose_symmetry")
    functions = tuple(cfgmod.function_from_descriptor(d) for d in _TRANSPOSE_SET)
    transposes = tuple(transpose(f) for f in functions)
    pairs = _pool(
        partial(_draws, cfg, rng), _pool_size(cfg, cfg.count("transpose_symmetry")),
        then=partial(_gaps, functions + transposes),
    )
    for entry, lambdas in pairs:
        n = len(functions)
        defect = -math.inf
        for lam, lam_t in zip(lambdas[:n], lambdas[n:]):
            defect = max(defect, abs(lam - lam_t) / (tol * max(1.0, lam)))
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho,
            rejected=entry.rejected,
        )


def _curves(entries: list[PoolEntry]):
    models, rhos = _columns(entries)
    return gap_curves(models, rhos, _CURVE_ALPHAS)


def _alpha_curve(cfg, rng, pool):
    tol = cfg.tolerance("alpha_curve")
    draw = partial(_draws, cfg, rng)
    for entry, curve in _pool(draw, _pool_size(cfg, cfg.count("alpha_curve")), _curves):
        scale = curve.tolerance * (tol / 1e-7)  # curve tolerance uses 1e-7
        defect = max(curve.symmetry_defect, curve.monotonicity_defect) / scale
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho,
            {"points": [[a, l] for a, l in curve.points]}, rejected=entry.rejected,
        )


def _stacked(per_case: int, decide: Callable, cases: list) -> list:
    """decide's results for the cases (index, d, ...), in order, from one
    call for each stack of the cases of one d.  A case holds per_case d x d
    matrices in the stacks, which fill at most CHUNK_BYTES (linalg.chunks
    counts d^2 x d^2 matrices: ceil(per_case / d^2) a case)."""
    results = {}
    for d, idx in grouped(case[1] for case in cases).items():
        for c in chunks(len(idx), d, -(-per_case // d**2)):
            results.update(zip(idx[c], decide(pick(cases, idx[c]))))
    return [results[i] for i in range(len(cases))]


def _minimize_moreau(a, lam, xi) -> tuple[list[float], np.ndarray]:
    """Minima and minimizers of the strictly convex Q(eta) + |xi - eta|^2 / lam,
    one for each A, lam and xi of the stacks a (n, d, d), lam (n,), xi (n, d).

    Its gradient 2 A eta - 2 (xi - eta) / lam vanishes exactly where
    (A + 1/lam) eta = xi / lam: one stacked LU solve, then each objective
    evaluated directly.  It never touches the eigendecomposition that
    moreau_forms' closed form goes through, so it stays an independent
    oracle.
    """
    lam = np.asarray(lam, dtype=float)
    shifted = a + np.eye(xi.shape[-1]) / lam[:, None, None]
    eta = np.linalg.solve(shifted, (xi / lam[:, None])[..., None])[..., 0]
    image = (a @ eta[..., None])[..., 0]
    minima = [
        float(np.vdot(e, ae).real + np.vdot(x - e, x - e).real / l)
        for e, ae, x, l in zip(eta, image, xi, lam)
    ]
    return minima, eta


def _moreau_identity(cfg, rng, pool):
    tol = cfg.tolerance("moreau_identity")
    descending = (1.0, 0.1, 0.01, 0.001)  # Q^(lam)(xi) must increase along these

    def draw(indices):
        for i in indices:
            d = int(rng.integers(2, 6))
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
            yield i, d, z @ dag(z) / d, xi / np.linalg.norm(xi), lam

    def decide(cases):
        _, _, a, xi, lam = (np.array(column) for column in zip(*cases))
        lams = np.column_stack([lam, np.tile(descending, (len(lam), 1))])
        values = moreau_forms(a, lams, xi)
        minima, _ = _minimize_moreau(a, lam, xi)
        defects = []
        for (closed, *row), minimized in zip(values.tolist(), minima):
            agreement = abs(closed - minimized) / (tol * max(1.0, abs(closed)))
            drop = max(row[k] - row[k + 1] for k in range(len(row) - 1))
            defects.append(max(agreement, max(0.0, drop) / 1e-12))
        return defects

    cases = _pool(draw, cfg.count("moreau_identity"), partial(_stacked, 1, decide))
    for (i, d, *_), defect in cases:
        yield Case(f"case-{i:03d}", d, defect)


def _om1_bounds(cfg, rng, pool):
    tol = cfg.tolerance("om1_bounds")
    functions = (gns(), anti_gns()) + cfg.functions()
    for f in functions[2:]:
        try:
            check_om1_bounds(f)
            defect = 0.0
        except QmsGapError:
            defect = math.inf
        yield Case(f"bounds[{f.label}]", 0, defect)

    def draw(indices):
        for i in indices:
            d = int(rng.integers(2, 6))
            yield i, d, _state_draw(rng, d)

    def then(cases):
        """The worst violation of G_f <= G_gns + G_anti for each state, from
        one weight table a d, then the Grams and one eigvalsh a stack."""
        rhos = _stacked(1, lambda stack: _random_states([c[2] for c in stack]), cases)
        rows = weight_table(rhos, functions)
        defects = [0.0] * len(rhos)
        for idx in batches(((rho.dim,) for rho in rhos), len(functions)):
            w = np.repeat([rhos[i].rotation for i in idx], len(functions), axis=0)
            grams = _grams(w, np.concatenate(pick(rows, idx)))
            grams = grams.reshape((len(idx), len(functions)) + grams.shape[1:])
            diff = (grams[:, 0] + grams[:, 1])[:, None] - grams[:, 2:]
            min_eigs = np.linalg.eigvalsh((diff + dag(diff)) / 2.0)[..., 0]
            for i, row in zip(idx, -min_eigs / tol):
                defects[i] = float(row.max(initial=-math.inf))
        return defects

    for (i, d, _), defect in _pool(draw, cfg.count("om1_bounds"), then):
        yield Case(f"sandwich-{i:03d}", d, defect)


def _loewner_order(cfg, rng, pool):
    tol = cfg.tolerance("loewner_order")

    def draw(indices):
        for i in indices:
            d = int(rng.integers(2, 6))
            z1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            z2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = z1 @ dag(z1) / d
            yield i, d, a, a + z2 @ dag(z2) / d

    def decide(pairs):
        _, _, a, b = (np.array(column) for column in zip(*pairs))
        worst = _loewner_order_probes(a, b, floor=tol).min(axis=1).tolist()
        # max, not np.maximum: a pair whose worst margin is 0.0 gets 0.0, not -0.0
        return [max(0.0, -m) / tol for m in worst]

    def then(pairs):
        """A lone pair that violates the order gets inf; a stack of pairs
        that does raises, to be replayed a pair at a time."""
        try:  # the largest stack holds the 2 x 13 functions of A and B a pair
            return _stacked(26, decide, pairs)
        except OrderViolationError:
            if len(pairs) > 1:
                raise
            return [math.inf]

    for (i, d, *_), defect in _pool(draw, cfg.count("loewner_order"), then):
        yield Case(f"pair-{i:03d}", d, defect)


def _metric_closed_forms(cfg, rng, pool):
    tol_bkm = cfg.tolerance("metric_closed_forms")
    tol_kms = KMS_CLOSED_FORM_TOL
    nodes, glweights = np.polynomial.legendre.leggauss(64)
    s_nodes = (nodes + 1.0) / 2.0
    s_weights = glweights / 2.0

    def draw(indices):
        for i in indices:
            d = int(rng.integers(2, 6))
            state = _state_draw(rng, d)
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            yield i, d, state, x / frobenius(x), y / frobenius(y)

    def decide(triples):
        """f_inner against tr(x^H rho^(1/2) y rho^(1/2)) and the s-integral
        of tr(x^H rho^s y rho^(1-s)), both taken for the stack at once."""
        _, _, states, x, y = zip(*triples)
        rhos, x, y = _random_states(states), np.array(x), np.array(y)
        u = np.array([rho.basis[:, ::-1] for rho in rhos])
        p = np.array([rho.eigenvalues[::-1] for rho in rhos])
        root = (u * np.sqrt(p)[:, None]) @ dag(u)
        kms_directs = np.trace(dag(x) @ root @ y @ root, axis1=-2, axis2=-1)
        n, d = u.shape[:2]

        def powers_times(s, z):
            """rho^s z = U p^s (U^H z) at every node s: (n, 64, d, d), from
            one tall (64 d, d) @ (d, d) product a case."""
            left = (u[:, None] * p[:, None, None] ** s[:, None, None]).reshape(n, -1, d)
            return (left @ (dag(u) @ z)).reshape(n, -1, d, d)

        # tr(x^H rho^s y rho^(1-s)) = tr((rho^s y) (rho^(1-s) x^H)) at every
        # node at once, as sum(A * B^T)
        traces = np.einsum(
            "nkij,nkji->nk", powers_times(s_nodes, y), powers_times(1.0 - s_nodes, dag(x))
        )
        defects = []
        for (kms_metric, bkm_metric), xi, yi, kms_direct, tr in zip(
            f_metric_table(rhos, (kms(), bkm())), x, y, kms_directs, traces
        ):
            kms_val = f_inner(kms_metric, xi, yi)
            kms_defect = abs(kms_val - kms_direct) / (tol_kms * max(1.0, abs(kms_direct)))
            bkm_direct = complex(s_weights @ tr)
            bkm_val = f_inner(bkm_metric, xi, yi)
            bkm_defect = abs(bkm_val - bkm_direct) / (tol_bkm * max(1.0, abs(bkm_direct)))
            defects.append(max(kms_defect, bkm_defect))
        return defects

    then = partial(_stacked, len(s_nodes), decide)
    for (i, d, *_), defect in _pool(draw, cfg.count("metric_closed_forms"), then):
        yield Case(f"triple-{i:03d}", d, defect)


def _detailed_balance_collapse(cfg, rng, pool):
    tol = cfg.tolerance("detailed_balance_collapse")
    functions = cfg.functions() + (gns(),)

    def draw(indices):
        for i in indices:
            d = cfg.dims[i % len(cfg.dims)]
            yield PoolEntry(i, *random_detailed_balance(rng, d))

    count = cfg.count("detailed_balance_collapse")
    for entry, lambdas in _pool(draw, count, partial(_gaps, functions)):
        spread = max(lambdas) - min(lambdas)
        # the sweep ends with gns, so its last gap is lambda_gns
        yield Case(
            f"balanced-{entry.index:03d}", entry.dim, spread / (tol * lambdas[-1]),
            entry.model, entry.rho,
        )


def _strict_gap(cfg, rng, pool):
    tol = cfg.tolerance("strict_gap")
    search = strict_gap_search(cfg, rng=rng, dims=(2,))
    yield Case(
        f"search-{search.n_draws}draws", 2, tol / max(search.max_ratio, 1e-300),
        extra={"best_ratio": search.best_ratio}, rejected=search.n_rejected,
    )


def _degenerate_gap(cfg, rng, pool):
    """The comparison on ker E of degenerate_block_model draws: each case's
    defect is the worst of lambda_gns - lambda_f and the contraction defect.
    The sweep itself raises when an f-basis leaves ker E."""
    tol = cfg.tolerance("degenerate_gap")
    functions = cfg.functions()
    contraction = partial(
        _contraction_defects, functions, cfg.t_grid, cfg.tolerance("contractivity")
    )

    def draw(indices):
        return (PoolEntry(i, *degenerate_block_model(rng)) for i in indices)

    def then(entries):
        return list(zip(_sweeps((gns(),) + functions, entries), contraction(entries)))

    for entry, (sweep, defect) in _pool(draw, cfg.count("degenerate_gap"), then):
        case_id = f"block-{entry.index:03d}"
        if sweep.kernel_dim <= 1:
            yield Case(case_id, entry.dim, math.inf, entry.model, entry.rho)
            continue
        lambdas = sweep.lambdas.tolist()
        lam_gns = lambdas[0]
        scale = tol * max(1.0, lam_gns)
        for lam in lambdas:
            defect = max(defect, (lam_gns - lam) / scale)
        yield Case(case_id, entry.dim, defect, entry.model, entry.rho)


_PROPERTY_CASES: dict[str, Callable[..., Iterator[Case]]] = {
    "gap_comparison": _gap_comparison,
    "contractivity": _contractivity,
    "decay_equivalence": _decay_equivalence,
    "transpose_symmetry": _transpose_symmetry,
    "alpha_curve": _alpha_curve,
    "moreau_identity": _moreau_identity,
    "om1_bounds": _om1_bounds,
    "loewner_order": _loewner_order,
    "metric_closed_forms": _metric_closed_forms,
    "detailed_balance_collapse": _detailed_balance_collapse,
    "strict_gap": _strict_gap,
    "degenerate_gap": _degenerate_gap,
}


def _run_property(cfg: CampaignConfig, name: str, pool: _SharedPool) -> PropertyResult:
    """Check one property: every case is recorded, passes iff its defect is
    at most 1, and carries a counterexample when it fails."""
    rng = _rng_for(cfg, 10 + PROPERTY_ORDER.index(name))
    start = time.perf_counter()
    result = PropertyResult(name=name, tolerance=cfg.tolerance(name), cases=[])
    for case in _PROPERTY_CASES[name](cfg, rng, pool):
        passed = bool(case.defect <= 1.0)
        result.cases.append(CaseRecord(case.case_id, case.dim, case.defect, passed))
        result.n_rejected += case.rejected
        if not passed:
            doc = {
                "property": name,
                "case": case.case_id,
                "defect": case.defect,
                "seed": cfg.seed,
            }
            if case.model is not None:
                doc["model"] = cfgmod.model_to_dict(case.model, case.rho)
            doc.update(case.extra or {})
            result.counterexamples.append(doc)
    result.seconds = time.perf_counter() - start
    if result.n_cases == 0:
        raise ConfigError(f"property {name!r} executed on zero cases")
    return result


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run every configured property on freshly generated models.

    Deterministic given the seed: each property draws from its own spawn
    key of the campaign seed.  Gap comparison and contractivity quantify
    over "the same models" and share one pool, dropped after the last of
    them runs; its rejected draws count toward the campaign total but
    toward no property.
    """
    t0 = time.perf_counter()
    pool = _SharedPool(cfg)
    last_reader = next(
        (name for name in reversed(cfg.properties) if name in _SharedPool.READERS), None
    )
    results = []
    for name in cfg.properties:
        results.append(_run_property(cfg, name, pool))
        if name == last_reader:
            pool.entries = None  # a later reader would draw them again
    return CampaignReport(
        config=cfg,
        results=results,
        n_rejected_draws=pool.n_rejected + sum(r.n_rejected for r in results),
        total_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Constructed model families
# ---------------------------------------------------------------------------


def detailed_balance_model(
    rho: DensityMatrix,
    rates: dict[tuple[int, int], float],
) -> GKSLModel:
    """Jump model satisfying classical detailed balance for a diagonal state.

    rates[(i, j)] attaches the jump sqrt(rate) |i><j|, which moves
    occupation from level j to level i.  Balance requires
    rates[(i, j)] * p_j == rates[(j, i)] * p_i for every pair, relative to
    BALANCE_TOL (RateMismatchError otherwise).  The Hamiltonian is zero:
    any H with distinct level spacings adds a skew-adjoint phase rotation
    on the coherences and would break GNS-self-adjointness.  The constructed
    generator is asserted GNS-self-adjoint within 1e-9, which forces every
    f-gap to coincide.
    """
    d = rho.dim
    off_diag = rho.rho - np.diag(np.diagonal(rho.rho))
    if frobenius(off_diag) > 1e-12:
        raise RateMismatchError("state must be diagonal in the construction basis")
    p = np.diagonal(rho.rho).real

    for (i, j), rate in rates.items():
        if i == j or not (0 <= i < d and 0 <= j < d):
            raise RateMismatchError(f"bad level pair {(i, j)!r}")
        if rate < 0:
            raise RateMismatchError(f"negative rate at {(i, j)!r}")
        reverse = rates.get((j, i), 0.0)
        flow = rate * p[j]
        backflow = reverse * p[i]
        if abs(flow - backflow) > BALANCE_TOL * max(1.0, flow, backflow):
            raise RateMismatchError(
                f"balance fails for pair {(i, j)!r}: "
                f"{rate!r} * p[{j}] = {flow!r} vs {reverse!r} * p[{i}] = {backflow!r}"
            )

    jumps = []
    for (i, j), rate in sorted(rates.items()):
        if rate > 0:
            v = np.zeros((d, d), dtype=complex)
            v[i, j] = np.sqrt(rate)
            jumps.append(v)
    model = GKSLModel(hamiltonian=np.zeros((d, d), dtype=complex), jumps=tuple(jumps))

    gen = generator(model)
    (weights,) = weight_table([rho], [gns()])[0]
    adj = _adjoint(rho.rotation, weights, gen.matrix)
    residual = float(np.abs(adj - gen.matrix).max())
    if residual > 1e-9 * max(1.0, float(np.abs(gen.matrix).max())):
        raise RateMismatchError(
            f"constructed generator is not GNS-self-adjoint: residual {residual:.3e}"
        )
    return model


def random_detailed_balance(
    rng: np.random.Generator, dim: int
) -> tuple[GKSLModel, DensityMatrix]:
    """Balanced jump model over all level pairs of a random diagonal state."""
    raw = rng.dirichlet(np.ones(dim))
    p = (raw + 0.02) / (1.0 + 0.02 * dim)
    rho = density_matrix(np.diag(p.astype(complex)))
    rates: dict[tuple[int, int], float] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            down = float(rng.uniform(0.2, 1.5))
            rates[(i, j)] = down
            rates[(j, i)] = down * p[j] / p[i]
    return detailed_balance_model(rho, rates), rho


def degenerate_block_model(
    rng: np.random.Generator,
) -> tuple[GKSLModel, DensityMatrix]:
    """d = 4 model whose fixed-point algebra is two-dimensional.

    Jumps: a block dephaser sqrt(g_z) sigma_z (x) 1 plus a thermal pair on
    the second factor; H is diagonal.  The fixed-point algebra is
    {diag(a, b) (x) 1}, so the conditional expectation is degenerate, and
    the invariant state 1/2 (x) diag(p) is supplied explicitly because the
    dual kernel is multi-dimensional.
    """
    p_hot = float(rng.uniform(0.55, 0.9))
    p2 = np.array([p_hot, 1.0 - p_hot])
    gamma_down = float(rng.uniform(0.3, 1.2))
    gamma_up = gamma_down * p2[0] / p2[1]
    g_z = float(rng.uniform(0.2, 1.0))

    eye2 = np.eye(2, dtype=complex)
    jumps = (
        np.sqrt(g_z) * kron(SIGMA_Z, eye2),
        np.sqrt(gamma_down) * kron(eye2, SIGMA_MINUS),
        np.sqrt(gamma_up) * kron(eye2, SIGMA_PLUS),
    )
    h = np.diag(rng.standard_normal(4).astype(complex))
    model = GKSLModel(hamiltonian=h, jumps=jumps)
    rho = density_matrix(kron(eye2 / 2.0, np.diag(p2.astype(complex))))
    return model, rho


@dataclass(frozen=True)
class StrictGapResult:
    """Best KMS/GNS gap separation found by a plain random scan.

    best_* describe the draw maximizing the absolute margin
    lambda_kms - lambda_gns, max_ratio is the largest relative separation
    seen, and found records whether it exceeds the target min_ratio.
    """

    n_draws: int
    n_rejected: int
    best_ratio: float          # (lambda_kms - lambda_gns) / lambda_gns
    best_margin: float         # lambda_kms - lambda_gns
    best_lambda_gns: float
    best_model: Optional[dict]
    max_ratio: float
    min_ratio: float

    @property
    def found(self) -> bool:
        return self.max_ratio > self.min_ratio


def strict_gap_search(
    cfg: CampaignConfig,
    rng: Optional[np.random.Generator] = None,
    dims: tuple[int, ...] = (2, 3),
) -> StrictGapResult:
    """Scan cfg.count("strict_gap") random models for a strict KMS > GNS gap
    separation by more than cfg.tolerance("strict_gap") * lambda_gns.

    Detailed-balanced models collapse the family, so generic random draws
    are the natural search space; a plain scan finds positive margins
    quickly at d = 2.  Draws with lambda_gns <= GNS_GAP_FLOOR (or no decay
    at all) are skipped, so a zero gap rounded to either sign never sets a
    ratio.  The floor skips exactly the draws with one jump V (V not a
    multiple of 1): the GNS Dirichlet form is
    (1/2) sum_k tr(rho [x, V_k]^H [x, V_k]), and x = V - tr(rho V) 1 lies in
    ker E and commutes with V, so lambda_gns = 0 exactly there, up to
    round-off.  Exhaustion is reported, not raised: the separation target
    is an empirical goal, not a theorem; dims follow CampaignConfig's rule.
    """
    _check_dims(dims)
    if rng is None:
        rng = _rng_for(cfg, 51)
    n_draws = cfg.count("strict_gap")
    rejected = 0
    max_ratio = best_ratio = best_margin = -math.inf
    best_lambda_gns, best_model = math.nan, None
    draw, gaps = partial(_random_draws, rng, dims), partial(_gaps, (gns(), kms()))
    for entry, (lam_gns, lam_kms) in _pool(draw, n_draws, gaps):
        rejected += entry.rejected
        if lam_gns <= GNS_GAP_FLOOR or math.isinf(lam_gns):
            continue
        margin = lam_kms - lam_gns
        ratio = margin / lam_gns
        max_ratio = max(max_ratio, ratio)
        if margin > best_margin:
            best_ratio, best_margin, best_lambda_gns = ratio, margin, lam_gns
            best_model = cfgmod.model_to_dict(entry.model, entry.rho)
    return StrictGapResult(
        n_draws, rejected, best_ratio, best_margin, best_lambda_gns, best_model,
        max_ratio, cfg.tolerance("strict_gap"),
    )
