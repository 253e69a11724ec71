"""Seeded property-test campaign over random GKSL models.

Each property certifies one numerically checkable fact about the gap
family: the GNS gap lower-bounds every f-gap, semigroups are f-contractive,
eigenvalue gaps match measured decay, gaps are invariant under the
function transpose, the power-family curve is symmetric about 1/2 and
monotone below it, Moreau regularization matches its closed form, the
normalized monotone bounds and the Gram sandwich hold, the Loewner order
survives resolvents and monotone functions, the KMS/BKM inner products
match their trace formulas, detailed balance collapses all gaps to one
value, a strict KMS > GNS gap separation exists, and the degenerate
fixed-point mode reproduces the comparison on ker E.

Reproducibility: every random draw flows from a named spawn key of the
campaign seed (numpy SeedSequence / PCG64), so identical configs produce
identical reports on one build; RNG streams may drift across numpy
versions.  Property streams are independent, so the report is the same
regardless of evaluation order.  Rejected model draws (no unique faithful
invariant state) are counted, never silently dropped.

Defects in reports are normalized: a case's defect is its worst violation
measured in units of the property tolerance, so defect <= 1 passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import config as cfgmod
from .errors import (
    ConfigError,
    OrderViolationError,
    PropertyFailureError,
    QmsGapError,
    RateMismatchError,
)
from .gap import (
    decaying_subspace,
    empirical_decay_rate,
    f_operator_norm,
    gap_curve,
    spectral_gap_f,
)
from .linalg import Superoperator, choi_matrix, dag, frobenius
from .metric import (
    QuadraticForm,
    f_adjoint,
    f_gram,
    f_inner,
    f_metric,
    loewner_order_probe,
    moreau_form,
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
    DensityMatrix,
    GKSLModel,
    density_matrix,
    fixed_point_structure,
    generator,
    invariant_state,
    random_density,
    random_faithful_model,
    semigroup,
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
    "decay_equivalence": 1e-4,
    "transpose_symmetry": 1e-7,
    "alpha_curve": 1e-7,
    "moreau_identity": 1e-8,
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
_DECAY_GAP_FLOOR = 1e-3
_TRANSPOSE_SET = ({"kind": "gns"}, {"kind": "power", "alpha": 0.3}, {"kind": "bkm"})
_DECAY_SET = (
    {"kind": "gns"},
    {"kind": "kms"},
    {"kind": "bkm"},
    {"kind": "power", "alpha": 0.3},
)
_CURVE_ALPHAS = tuple(round(0.05 * k, 10) for k in range(21))


def default_f_suite() -> tuple[dict, ...]:
    suite = [{"kind": "power", "alpha": round(0.1 * k, 10)} for k in range(11)]
    suite += [{"kind": "kms"}, {"kind": "bkm"}]
    return tuple(suite)


@dataclass(frozen=True)
class CampaignConfig:
    """Seeded campaign parameters; see run_campaign."""

    seed: int
    n_models: int = 50
    dims: tuple[int, ...] = (2, 3, 4)
    f_suite: tuple[dict, ...] = field(default_factory=default_f_suite)
    t_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    tolerances: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    model_override: Optional[dict] = None
    properties: tuple[str, ...] = PROPERTY_ORDER

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        if self.n_models < 1:
            raise ConfigError("n_models must be at least 1")
        if not self.dims or any(d < 2 or d > 8 for d in self.dims):
            raise ConfigError("dims must be a nonempty subset of {2, ..., 8}")
        if not self.f_suite:
            raise ConfigError("f_suite must not be empty")
        if not self.t_grid or any(t < 0 for t in self.t_grid):
            raise ConfigError("t_grid must be nonempty with t >= 0")
        for name in self.properties:
            if name not in PROPERTY_ORDER:
                raise ConfigError(f"unknown property {name!r}")
        if len(set(self.properties)) != len(self.properties):
            raise ConfigError("property list contains duplicates")
        for name, count in self.counts.items():
            if name not in PROPERTY_ORDER:
                raise ConfigError(f"count for unknown property {name!r}")
            if count < 1:
                raise ConfigError(f"count for {name!r} must be >= 1 (vacuous run)")
        for descriptor in self.f_suite:
            cfgmod.function_from_descriptor(descriptor)

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def count(self, name: str) -> int:
        return int(self.counts.get(name, DEFAULT_COUNTS.get(name, self.n_models)))

    def functions(self) -> tuple[MonotoneFunction, ...]:
        return tuple(cfgmod.function_from_descriptor(d) for d in self.f_suite)

    def to_dict(self) -> dict:
        return {
            "schema_version": cfgmod.SCHEMA_VERSION,
            "seed": self.seed,
            "n_models": self.n_models,
            "dims": list(self.dims),
            "f_suite": [dict(d) for d in self.f_suite],
            "t_grid": list(self.t_grid),
            "tolerances": dict(self.tolerances),
            "counts": dict(self.counts),
            "model_override": self.model_override,
            "properties": list(self.properties),
        }

    @classmethod
    def from_dict(cls, doc: dict, seed: Optional[int] = None) -> "CampaignConfig":
        if not isinstance(doc, dict):
            raise ConfigError("campaign config must be a JSON object")
        if doc.get("schema_version", cfgmod.SCHEMA_VERSION) != cfgmod.SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {doc.get('schema_version')!r}"
            )
        if seed is None:
            seed = doc.get("seed")
        if seed is None:
            raise ConfigError("no seed in config and none supplied")
        kwargs = {"seed": int(seed)}
        if "n_models" in doc:
            kwargs["n_models"] = int(doc["n_models"])
        if "dims" in doc:
            kwargs["dims"] = tuple(int(d) for d in doc["dims"])
        if "f_suite" in doc:
            kwargs["f_suite"] = tuple(dict(d) for d in doc["f_suite"])
        if "t_grid" in doc:
            kwargs["t_grid"] = tuple(float(t) for t in doc["t_grid"])
        if "tolerances" in doc:
            kwargs["tolerances"] = {k: float(v) for k, v in doc["tolerances"].items()}
        if "counts" in doc:
            kwargs["counts"] = {k: int(v) for k, v in doc["counts"].items()}
        if doc.get("model_override") is not None:
            kwargs["model_override"] = dict(doc["model_override"])
        if "properties" in doc:
            kwargs["properties"] = tuple(doc["properties"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad campaign config: {exc}") from exc


def acceptance_config(seed: int = 42) -> CampaignConfig:
    """Campaign sized to the full acceptance run: 200 random models at
    d in {2, 3, 4} with the power/KMS/BKM suite and the documented
    per-property case counts."""
    return CampaignConfig(seed=seed, n_models=200, dims=(2, 3, 4))


@dataclass(frozen=True)
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

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def counterexamples(self) -> list[dict]:
        out = []
        for r in self.results:
            out.extend(r.counterexamples)
        return out

    def canonical_dict(self) -> dict:
        """Deterministic content of the report; excludes wall-clock timing."""
        return {
            "config": self.config.to_dict(),
            "n_rejected_draws": self.n_rejected_draws,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "n_cases": r.n_cases,
                    "worst_defect": f"{r.worst_defect:.17g}",
                    "cases": [
                        [c.case_id, c.dim, f"{c.defect:.17g}", c.passed]
                        for c in r.cases
                    ],
                }
                for r in self.results
            ],
        }

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

    def raise_on_failure(self):
        if not self.all_passed:
            failed = [r.name for r in self.results if not r.passed]
            raise PropertyFailureError(
                f"properties failed: {', '.join(failed)}",
                counterexamples=self.counterexamples(),
                seed=self.config.seed,
            )


# ---------------------------------------------------------------------------
# Model pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEntry:
    index: int
    model: GKSLModel
    rho: DensityMatrix
    gen: Superoperator
    fps: object

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def case_id(self) -> str:
        return f"model-{self.index:03d}"


def _prepared(index: int, model: GKSLModel, rho: DensityMatrix) -> PoolEntry:
    gen = generator(model)
    return PoolEntry(index, model, rho, gen, fixed_point_structure(model, rho, gen=gen))


def _draw_entry(
    cfg: CampaignConfig, rng: np.random.Generator, index: int
) -> tuple[PoolEntry, int]:
    """One pool model and the draws rejected before it.

    Models enter a pool only after passing the structural probes:
    unitality and *-preservation (checked by generator construction) and a
    complete-positivity check of Phi_1 via the Choi spectrum."""
    rejected = 0
    if cfg.model_override is not None:
        model, rho = cfgmod.model_from_dict(cfg.model_override)
        if rho is None:
            rho = invariant_state(model)
    else:
        dim = cfg.dims[index % len(cfg.dims)]
        model, rho, rejected = random_faithful_model(rng, dim)
    entry = _prepared(index, model, rho)
    choi = choi_matrix(semigroup(model, 1.0, gen=entry.gen))
    choi_floor = float(np.linalg.eigvalsh((choi + dag(choi)) / 2.0)[0])
    if choi_floor < -1e-9:
        raise QmsGapError(
            f"generated map is not completely positive: Choi floor "
            f"{choi_floor:.3e}"
        )
    return entry, rejected


def _draw_pool(
    cfg: CampaignConfig, rng: np.random.Generator, n: int
) -> Iterator[tuple[PoolEntry, int]]:
    # An override model never varies, so one entry is enough.
    for i in range(1 if cfg.model_override is not None else n):
        yield _draw_entry(cfg, rng, i)


class _SharedPool:
    """The models that gap comparison and contractivity quantify over,
    drawn from spawn key 0 on first use."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.entries: Optional[list[PoolEntry]] = None
        self.n_rejected = 0

    def __iter__(self):
        if self.entries is None:
            drawn = list(_draw_pool(self.cfg, _rng_for(self.cfg, 0), self.cfg.n_models))
            self.entries = [entry for entry, _ in drawn]
            self.n_rejected = sum(n_rej for _, n_rej in drawn)
        return iter(self.entries)


def _rng_for(cfg: CampaignConfig, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key,)))


def _lambda(entry: PoolEntry, f: MonotoneFunction) -> float:
    return spectral_gap_f(
        entry.model, entry.rho, f_metric(entry.rho, f), fps=entry.fps, gen=entry.gen
    ).lambda_f


def _contraction_defect(entry: PoolEntry, metrics, t_grid, tol: float) -> float:
    """Worst (|Phi_t|_f - 1) / tol over the time grid and the metrics."""
    defect = -math.inf
    for t in t_grid:
        phi = semigroup(entry.model, float(t), gen=entry.gen)
        for metric in metrics:
            defect = max(defect, (f_operator_norm(metric, phi) - 1.0) / tol)
    return defect


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
    functions = cfg.functions()
    for entry in pool:
        lam_gns = _lambda(entry, gns())
        scale = tol * max(1.0, lam_gns)
        defect = -math.inf
        for f in functions:
            defect = max(defect, (lam_gns - _lambda(entry, f)) / scale)
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho,
            {"lambda_gns": lam_gns},
        )


def _contractivity(cfg, rng, pool):
    tol = cfg.tolerance("contractivity")
    functions = cfg.functions()
    for entry in pool:
        metrics = [f_metric(entry.rho, f) for f in functions]
        defect = _contraction_defect(entry, metrics, cfg.t_grid, tol)
        yield Case(entry.case_id, entry.dim, defect, entry.model, entry.rho)


def _decay_equivalence(cfg, rng, pool):
    """Eigenvalue gap vs measured decay rate, relative tolerance.

    A relative criterion needs gaps bounded away from zero, and random
    GKSL draws occasionally have numerical abscissa ~ 0 for some f (the
    no-reverse-inequality phenomenon), so draws whose smallest gap over
    the decay set falls below _DECAY_GAP_FLOOR are redrawn and counted.
    Running out of the 20-draws-per-case budget raises.
    """
    tol = cfg.tolerance("decay_equivalence")
    functions = tuple(cfgmod.function_from_descriptor(d) for d in _DECAY_SET)
    n_wanted = cfg.count("decay_equivalence")

    produced = 0
    attempts = 0
    rejected = 0
    while produced < n_wanted and attempts < 20 * n_wanted:
        attempts += 1
        entry, n_rej = _draw_entry(cfg, rng, 0)
        rejected += n_rej
        metrics = [f_metric(entry.rho, f) for f in functions]
        reports = [
            spectral_gap_f(entry.model, entry.rho, m, fps=entry.fps, gen=entry.gen)
            for m in metrics
        ]
        if (
            min(r.lambda_f for r in reports) < _DECAY_GAP_FLOOR
            and cfg.model_override is None
        ):
            rejected += 1
            continue
        defect = -math.inf
        for metric, report in zip(metrics, reports):
            measured = empirical_decay_rate(
                entry.model, entry.rho, metric, rng,
                fps=entry.fps, gen=entry.gen,
            )
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
    for entry, n_rej in _draw_pool(cfg, rng, cfg.count("transpose_symmetry")):
        defect = -math.inf
        for f in functions:
            lam = _lambda(entry, f)
            lam_t = _lambda(entry, transpose(f))
            defect = max(defect, abs(lam - lam_t) / (tol * max(1.0, lam)))
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho, rejected=n_rej
        )


def _alpha_curve(cfg, rng, pool):
    tol = cfg.tolerance("alpha_curve")
    for entry, n_rej in _draw_pool(cfg, rng, cfg.count("alpha_curve")):
        curve = gap_curve(
            entry.model, entry.rho, _CURVE_ALPHAS, fps=entry.fps, gen=entry.gen
        )
        scale = curve.tolerance * (tol / 1e-7)  # curve tolerance uses 1e-7
        defect = max(curve.symmetry_defect, curve.monotonicity_defect) / scale
        yield Case(
            entry.case_id, entry.dim, defect, entry.model, entry.rho,
            {"points": [[a, l] for a, l in curve.points]}, rejected=n_rej,
        )


def _minimize_moreau(a: np.ndarray, lam: float, xi: np.ndarray) -> float:
    """Direct descent on Q(eta) + |xi - eta|^2 / lam over real coordinates."""
    # Imported here: scipy.optimize is slow to load and only this oracle uses it.
    from scipy.optimize import minimize

    n = xi.size

    def objective(z):
        eta = z[:n] + 1j * z[n:]
        diff = xi - eta
        val = float(np.real(eta.conj() @ (a @ eta))) + float(
            np.real(diff.conj() @ diff)
        ) / lam
        grad_c = 2.0 * (a @ eta) - 2.0 * diff / lam
        return val, np.concatenate([grad_c.real, grad_c.imag])

    start = np.concatenate([xi.real, xi.imag])
    res = minimize(
        objective, start, jac=True, method="L-BFGS-B",
        options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 2000},
    )
    return float(res.fun)


def _moreau_identity(cfg, rng, pool):
    tol = cfg.tolerance("moreau_identity")
    for i in range(cfg.count("moreau_identity")):
        d = int(rng.integers(2, 6))
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = z @ dag(z) / d
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))

        form = QuadraticForm(matrix=a)
        closed = moreau_form(form, lam, xi)
        minimized = _minimize_moreau(a, lam, xi)
        agreement = abs(closed - minimized) / (tol * max(1.0, abs(closed)))

        values = [moreau_form(form, l, xi) for l in (1.0, 0.1, 0.01, 0.001)]
        drop = max(
            (values[k] - values[k + 1] for k in range(len(values) - 1)),
            default=0.0,
        )
        mono = max(0.0, drop) / 1e-12
        yield Case(f"case-{i:03d}", d, max(agreement, mono))


def _om1_bounds(cfg, rng, pool):
    tol = cfg.tolerance("om1_bounds")
    functions = cfg.functions()
    for f in functions:
        try:
            check_om1_bounds(f)
            defect = 0.0
        except QmsGapError:
            defect = math.inf
        yield Case(f"bounds[{f.label}]", 0, defect)

    for i in range(cfg.count("om1_bounds")):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        g_sum = (
            f_gram(f_metric(rho, gns())).matrix
            + f_gram(f_metric(rho, anti_gns())).matrix
        )
        defect = -math.inf
        for f in functions:
            diff = g_sum - f_gram(f_metric(rho, f)).matrix
            min_eig = float(np.linalg.eigvalsh((diff + dag(diff)) / 2.0)[0])
            defect = max(defect, -min_eig / tol)
        yield Case(f"sandwich-{i:03d}", d, defect)


def _loewner_order(cfg, rng, pool):
    tol = cfg.tolerance("loewner_order")
    for i in range(cfg.count("loewner_order")):
        d = int(rng.integers(2, 6))
        z1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        z2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = z1 @ dag(z1) / d
        b = a + z2 @ dag(z2) / d
        try:
            report = loewner_order_probe(a, b, floor=tol)
            margins = [m for _, m in report.resolvent_margins]
            margins += [m for _, m in report.function_margins]
            margins.append(report.base_margin)
            defect = max(0.0, -min(margins)) / tol
        except OrderViolationError:
            defect = math.inf
        yield Case(f"pair-{i:03d}", d, defect)


def _metric_closed_forms(cfg, rng, pool):
    tol_bkm = cfg.tolerance("metric_closed_forms")
    tol_kms = KMS_CLOSED_FORM_TOL
    nodes, glweights = np.polynomial.legendre.leggauss(64)
    s_nodes = (nodes + 1.0) / 2.0
    s_weights = glweights / 2.0

    for i in range(cfg.count("metric_closed_forms")):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x /= frobenius(x)
        y /= frobenius(y)

        u = rho.eigen.vectors
        p = rho.eigen.values
        root = (u * np.sqrt(p)) @ dag(u)
        kms_direct = complex(np.trace(dag(x) @ root @ y @ root))
        kms_val = f_inner(f_metric(rho, kms()), x, y)
        kms_defect = abs(kms_val - kms_direct) / (
            tol_kms * max(1.0, abs(kms_direct))
        )

        bkm_direct = 0.0 + 0.0j
        for s, w in zip(s_nodes, s_weights):
            rho_s = (u * p**s) @ dag(u)
            rho_1ms = (u * p ** (1.0 - s)) @ dag(u)
            bkm_direct += w * np.trace(dag(x) @ rho_s @ y @ rho_1ms)
        bkm_val = f_inner(f_metric(rho, bkm()), x, y)
        bkm_defect = abs(bkm_val - bkm_direct) / (
            tol_bkm * max(1.0, abs(bkm_direct))
        )
        yield Case(f"triple-{i:03d}", d, max(kms_defect, bkm_defect))


def _detailed_balance_collapse(cfg, rng, pool):
    tol = cfg.tolerance("detailed_balance_collapse")
    functions = cfg.functions() + (gns(),)
    for i in range(cfg.count("detailed_balance_collapse")):
        model, rho = random_detailed_balance(rng, cfg.dims[i % len(cfg.dims)])
        entry = _prepared(i, model, rho)
        lambdas = [_lambda(entry, f) for f in functions]
        spread = max(lambdas) - min(lambdas)
        # the sweep ends with gns, so its last gap is lambda_gns
        yield Case(
            f"balanced-{i:03d}", entry.dim, spread / (tol * lambdas[-1]), model, rho
        )


def _strict_gap(cfg, rng, pool):
    tol = cfg.tolerance("strict_gap")
    search = strict_gap_search(cfg, rng=rng, dims=(2,))
    yield Case(
        f"search-{search.n_draws}draws", 2, tol / max(search.max_ratio, 1e-300),
        extra={"best_ratio": search.best_ratio}, rejected=search.n_rejected,
    )


def _degenerate_gap(cfg, rng, pool):
    tol = cfg.tolerance("degenerate_gap")
    contraction_tol = cfg.tolerance("contractivity")
    functions = cfg.functions()
    for i in range(cfg.count("degenerate_gap")):
        model, rho = degenerate_block_model(rng)
        entry = _prepared(i, model, rho)
        case_id = f"block-{i:03d}"
        if not entry.fps.degenerate:
            yield Case(case_id, model.dim, math.inf, model, rho)
            continue

        metrics = [f_metric(rho, f) for f in functions]
        lam_gns = _lambda(entry, gns())
        scale = tol * max(1.0, lam_gns)
        defect = -math.inf
        for metric in metrics:
            report = spectral_gap_f(model, rho, metric, fps=entry.fps, gen=entry.gen)
            defect = max(defect, (lam_gns - report.lambda_f) / scale)
            basis = decaying_subspace(metric, entry.fps)
            leak = float(
                np.linalg.norm(entry.fps.projector.matrix @ basis, axis=0).max()
            )
            defect = max(defect, leak / 1e-9)
        defect = max(
            defect, _contraction_defect(entry, metrics, cfg.t_grid, contraction_tol)
        )
        yield Case(case_id, model.dim, defect, model, rho)


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
    over "the same models" and share one pool; its rejected draws count
    toward the campaign total but toward no property.
    """
    t0 = time.perf_counter()
    pool = _SharedPool(cfg)
    results = [_run_property(cfg, name, pool) for name in cfg.properties]
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
    balance_tol: float = 1e-10,
) -> GKSLModel:
    """Jump model satisfying classical detailed balance for a diagonal state.

    rates[(i, j)] attaches the jump sqrt(rate) |i><j|, which moves
    occupation from level j to level i.  Balance requires
    rates[(i, j)] * p_j == rates[(j, i)] * p_i for every pair
    (RateMismatchError otherwise).  The Hamiltonian is zero: any H with
    distinct level spacings adds a skew-adjoint phase rotation on the
    coherences and would break GNS-self-adjointness.  The constructed
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
        if abs(flow - backflow) > balance_tol * max(1.0, flow, backflow):
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
    adj = f_adjoint(f_metric(rho, gns()), gen)
    residual = float(np.abs(adj.matrix - gen.matrix).max())
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
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    jumps = (
        np.sqrt(g_z) * np.kron(sz, eye2),
        np.sqrt(gamma_down) * np.kron(eye2, sm),
        np.sqrt(gamma_up) * np.kron(eye2, sp),
    )
    h = np.diag(rng.standard_normal(4).astype(complex))
    model = GKSLModel(hamiltonian=h, jumps=jumps)
    rho = density_matrix(np.kron(eye2 / 2.0, np.diag(p2.astype(complex))))
    return model, rho


@dataclass(frozen=True)
class StrictGapResult:
    """Best KMS/GNS gap separation found by a plain random scan.

    best_* describe the draw maximizing the absolute margin
    lambda_kms - lambda_gns; found records whether any draw exceeded the
    relative target margin > min_ratio * lambda_gns, and max_ratio is the
    largest relative separation seen.
    """

    found: bool
    n_draws: int
    n_rejected: int
    best_ratio: float          # (lambda_kms - lambda_gns) / lambda_gns
    best_margin: float         # lambda_kms - lambda_gns
    best_lambda_gns: float
    best_model: Optional[dict]
    max_ratio: float = -math.inf


def strict_gap_search(
    cfg: CampaignConfig,
    rng: Optional[np.random.Generator] = None,
    dims: tuple[int, ...] = (2, 3),
    n_draws: Optional[int] = None,
    min_ratio: Optional[float] = None,
) -> StrictGapResult:
    """Scan random models for a strict KMS > GNS gap separation.

    Detailed-balanced models collapse the family, so generic random draws
    are the natural search space; a plain scan finds positive margins
    quickly at d = 2.  Exhaustion is reported, not raised: the separation
    target is an empirical goal, not a theorem.
    """
    if rng is None:
        rng = _rng_for(cfg, 51)
    if n_draws is None:
        n_draws = cfg.count("strict_gap")
    if min_ratio is None:
        min_ratio = cfg.tolerance("strict_gap")

    best = StrictGapResult(
        found=False, n_draws=n_draws, n_rejected=0,
        best_ratio=-math.inf, best_margin=-math.inf,
        best_lambda_gns=math.nan, best_model=None,
    )
    found = False
    rejected = 0
    max_ratio = -math.inf
    for k in range(n_draws):
        dim = dims[k % len(dims)]
        model, rho, n_rej = random_faithful_model(rng, dim)
        rejected += n_rej
        gen = generator(model)
        fps = fixed_point_structure(model, rho, gen=gen)
        lam_gns = spectral_gap_f(
            model, rho, f_metric(rho, gns()), fps=fps, gen=gen
        ).lambda_f
        lam_kms = spectral_gap_f(
            model, rho, f_metric(rho, kms()), fps=fps, gen=gen
        ).lambda_f
        if lam_gns <= 0 or math.isinf(lam_gns):
            continue
        margin = lam_kms - lam_gns
        ratio = margin / lam_gns
        max_ratio = max(max_ratio, ratio)
        found = found or ratio > min_ratio
        if margin > best.best_margin:
            best = StrictGapResult(
                found=False,
                n_draws=n_draws,
                n_rejected=rejected,
                best_ratio=ratio,
                best_margin=margin,
                best_lambda_gns=lam_gns,
                best_model=cfgmod.model_to_dict(model, rho),
            )
    return replace(best, found=found, n_rejected=rejected, max_ratio=max_ratio)
