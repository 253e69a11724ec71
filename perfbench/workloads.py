"""The benchmark's four workloads, their seeded inputs and their oracles.

Each workload is a fixed list of items built from the seed at set-up; one
pass runs every item once.  ``run(i)`` calls only public qmsgap functions
(through their modules, so a tracer can see them) or the ``qmsgap`` CLI,
and ``check(outputs)`` returns one list of problems per item.  The oracles
do not rely on the gap routine being right: closed-form gaps of the
example configs, and facts the paper proves for every model (the GNS gap
lower-bounds every f-gap, f and its transpose t f(1/t) give one gap, the
power curve is symmetric and monotone, semigroups are f-contractions).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import qmsgap.cli  # noqa: F401  (set-up imports the CLI like every workload)
from qmsgap import config, gap, harness, metric, monotone, qms

import speed

COMPARISON_TOL = harness.DEFAULT_TOLERANCES["gap_comparison"]
TRANSPOSE_TOL = harness.DEFAULT_TOLERANCES["transpose_symmetry"]
CURVE_TOL = harness.DEFAULT_TOLERANCES["alpha_curve"]
CONTRACTION_TOL = harness.DEFAULT_TOLERANCES["contractivity"]
CLOSED_FORM_RTOL = 1e-9
DISSIPATIVE_FLOOR = -1e-8  # gaps are >= 0; the GNS gap is 0 for many draws

# Closed forms of the example configs: (gamma_up + gamma_down) / 2 for the
# thermal qubit, 2 gamma for the depolarizing qubit, and a KMS gap pinned
# at the undriven thermal value under the transverse drive.
CONFIG_GAPS = {
    "thermal_qubit": {"gns": 0.625, "kms": 0.625, "bkm": 0.625,
                      "power:0.3": 0.625, "curve": 0.625},
    "depolarizing_qubit": {"gns": 0.7, "kms": 0.7, "bkm": 0.7,
                           "power:0.3": 0.7, "curve": 0.7},
    "driven_thermal_qubit": {"kms": 0.625},
}
CONFIG_NAMES = tuple(CONFIG_GAPS)
ROOT = Path(__file__).resolve().parent.parent


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _suite():
    return [config.function_from_descriptor(d) for d in harness.default_f_suite()]


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= CLOSED_FORM_RTOL * abs(expected)


def comparison_problems(lam_gns: float, others: dict) -> list[str]:
    """GNS gap <= every f-gap, within the campaign's relative tolerance."""
    scale = COMPARISON_TOL * max(1.0, lam_gns)
    return [
        f"gns gap {lam_gns!r} above {label} gap {lam!r}"
        for label, lam in others.items()
        if lam_gns - lam > scale
    ]


def curve_problems(points) -> list[str]:
    """Power curve symmetric about 1/2 and nondecreasing on [0, 1/2]."""
    lam = dict(points)
    half = min(lam, key=lambda a: abs(a - 0.5))
    tol = CURVE_TOL * max(1.0, lam[half])
    problems = []
    for alpha, value in points:
        partner = [v for a, v in points if abs(a - (1.0 - alpha)) < 1e-9]
        if partner and abs(value - partner[0]) > tol:
            problems.append(f"curve asymmetric at alpha={alpha!r}")
    lower = sorted((a, v) for a, v in points if a <= 0.5 + 1e-12)
    for (a1, v1), (_, v2) in zip(lower, lower[1:]):
        if v1 - v2 > tol:
            problems.append(f"curve decreasing after alpha={a1!r}")
    return problems


class Workload:
    """Items built at set-up; subclasses define run(i) and check(outputs)."""

    name = ""
    min_passes = 1
    n_items = 0
    # Speedometer class that scales times to a nominal machine speed, or
    # None for raw times (see speed.py).
    speed_reference = None

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process

    def run(self, i: int):
        raise NotImplementedError

    def check(self, outputs) -> list[list[str]]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self, outputs) -> dict[str, float]:
        return {}


class Acceptance(Workload):
    """One item is one acceptance campaign (200 models, 12 properties)."""

    name = "acceptance"
    speed_reference = speed.ChunkSpeedometer
    # three campaigns: the CSV must repeat byte for byte, and the median of
    # three survives one stalled campaign
    min_passes = 3
    n_items = 1

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.cfg = harness.acceptance_config(seed)
        self.first_csv = None

    def run(self, i):
        return harness.run_campaign(self.cfg)

    def expected_cases(self, name: str) -> int:
        cfg = self.cfg
        if name in ("gap_comparison", "contractivity"):
            return cfg.n_models
        if name == "om1_bounds":  # one bounds case per function, then draws
            return len(cfg.f_suite) + cfg.count(name)
        if name == "strict_gap":  # one search
            return 1
        return cfg.count(name)

    def check(self, outputs):
        (report,) = outputs
        if report is None:
            return [[]]
        problems = []
        names = [r.name for r in report.results]
        if names != list(harness.PROPERTY_ORDER):
            problems.append(f"properties run: {names}")
        for r in report.results:
            if not r.passed:
                problems.append(f"{r.name} failed (worst defect {r.worst_defect!r})")
            if r.n_cases != self.expected_cases(r.name):
                problems.append(
                    f"{r.name} ran {r.n_cases} cases, expected "
                    f"{self.expected_cases(r.name)}"
                )
        csv = report.to_csv()
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            problems.append("campaign CSV differs from the run's first campaign")
        return [problems]

    def layer_extras(self, outputs):
        (report,) = outputs
        extras = {f"harness.{r.name}_s": r.seconds for r in report.results}
        extras["harness.pool_s"] = report.total_seconds - sum(
            r.seconds for r in report.results
        )
        extras["harness.rejected_draws"] = float(report.n_rejected_draws)
        return extras


class Scan(Workload):
    """The three example configs, then fresh random draws cycling d = 2, 3, 4;
    each item builds the generator and fixed points and takes gns/kms/bkm."""

    name = "scan"
    speed_reference = speed.ChunkSpeedometer
    n_draws = 600
    dims = (2, 3, 4)

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.docs = [
            config.load_json(ROOT / "configs" / f"{name}.json")
            for name in CONFIG_NAMES
        ]
        self.functions = (monotone.gns(), monotone.kms(), monotone.bkm())
        self.n_items = len(self.docs) + self.n_draws

    def run(self, i):
        if i < len(self.docs):
            model, rho = config.model_from_dict(self.docs[i])
            gen = qms.generator(model)
            if rho is None:
                rho = qms.invariant_state(model, gen=gen)
        else:
            k = i - len(self.docs)
            model, rho, _ = qms.random_faithful_model(
                _rng(self.seed, 1, k), self.dims[k % len(self.dims)]
            )
            gen = qms.generator(model)
        fps = qms.fixed_point_structure(model, rho, gen=gen)
        return {
            f.kind: gap.spectral_gap_f(
                model, rho, metric.f_metric(rho, f), fps=fps, gen=gen
            ).lambda_f
            for f in self.functions
        }

    def check(self, outputs):
        result = []
        for i, lam in enumerate(outputs):
            if lam is None:
                result.append([])
                continue
            problems = comparison_problems(
                lam["gns"], {k: v for k, v in lam.items() if k != "gns"}
            )
            if not all(math.isfinite(v) and v >= DISSIPATIVE_FLOOR for v in lam.values()):
                problems.append(f"negative or infinite gap {lam!r}")
            if i < len(self.docs):
                for label, expected in CONFIG_GAPS[CONFIG_NAMES[i]].items():
                    if label in lam and not _close(lam[label], expected):
                        problems.append(
                            f"{CONFIG_NAMES[i]} {label} gap {lam[label]!r}, "
                            f"closed form {expected!r}"
                        )
            result.append(problems)
        return result


class DenseD8(Workload):
    """Random models at d = 8 (64x64 superoperators); per model the gns +
    13-function sweep, a 21-point power curve and contractivity of Phi_t
    at t in {0.1, 1, 10} for the 13 functions."""

    name = "dense-d8"
    n_models = 12
    t_grid = (0.1, 1.0, 10.0)
    alphas = tuple(round(0.05 * k, 10) for k in range(21))

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        rng = _rng(seed, 2)
        self.models = [
            qms.random_faithful_model(rng, 8)[:2] for _ in range(self.n_models)
        ]
        self.functions = _suite()
        self.n_items = self.n_models

    def run(self, i):
        model, rho = self.models[i]
        gen = qms.generator(model)
        fps = qms.fixed_point_structure(model, rho, gen=gen)
        metrics = [metric.f_metric(rho, f) for f in self.functions]
        lam_gns = gap.spectral_gap_f(
            model, rho, metric.f_metric(rho, monotone.gns()), fps=fps, gen=gen
        ).lambda_f
        sweep = {
            m.f.label: gap.spectral_gap_f(model, rho, m, fps=fps, gen=gen).lambda_f
            for m in metrics
        }
        curve = gap.gap_curve(model, rho, self.alphas, fps=fps, gen=gen)
        norm = 0.0
        for t in self.t_grid:
            phi = qms.semigroup(model, t, gen=gen)
            norm = max([norm] + [gap.f_operator_norm(m, phi) for m in metrics])
        return {"gns": lam_gns, "sweep": sweep, "curve": curve.points, "norm": norm}

    def check(self, outputs):
        result = []
        for out in outputs:
            if out is None:
                result.append([])
                continue
            sweep = out["sweep"]
            problems = comparison_problems(out["gns"], sweep)
            # power(a) and power(1 - a) are transposes of each other.
            for k in range(6):
                lo, hi = sweep[f"power({0.1 * k:g})"], sweep[f"power({1 - 0.1 * k:g})"]
                if abs(lo - hi) > TRANSPOSE_TOL * max(1.0, lo):
                    problems.append(f"transpose pair alpha={0.1 * k:g}: {lo!r} vs {hi!r}")
            problems += curve_problems(out["curve"])
            if out["norm"] > 1.0 + CONTRACTION_TOL:
                problems.append(f"f-operator norm {out['norm']!r} exceeds 1")
            result.append(problems)
        return result


class CliCold(Workload):
    """Cold ``qmsgap gap`` processes on the example configs and a seeded d = 8
    model for four metrics, then ``qmsgap curve`` on each model, one process
    at a time.  With in_process the same argument lists go to cli.main."""

    name = "cli-cold"
    speed_reference = speed.ProcessSpeedometer
    f_specs = ("gns", "kms", "bkm", "power:0.3")
    grid = "0:1:101"

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        model, _, _ = qms.random_faithful_model(_rng(seed, 3), 8)
        d8 = workdir / "model_d8.json"
        d8.write_text(json.dumps(config.model_to_dict(model)))
        paths = {name: f"configs/{name}.json" for name in CONFIG_NAMES}
        paths["d8"] = str(d8)
        self.argvs = []
        for name, path in paths.items():
            for spec in self.f_specs:
                self.argvs.append((name, spec, ["gap", path, "--f", spec]))
            self.argvs.append((name, "curve", ["curve", path, "--grid", self.grid]))
        self.n_items = len(self.argvs)
        self.max_child_rss_kb = 0

    def _run_process(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        out_path = self.workdir / "cli_stdout.txt"
        err_path = self.workdir / "cli_stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qmsgap", *argv],
                cwd=ROOT, env=env, stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text()

    def _run_in_process(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qmsgap.cli.main(argv)
        return code, buf.getvalue()

    def run(self, i):
        argv = self.argvs[i][2]
        if self.in_process:
            return self._run_in_process(argv)
        return self._run_process(argv)

    def peak_rss_mb(self):
        if self.in_process:
            return super().peak_rss_mb()
        return self.max_child_rss_kb / 1024.0

    @staticmethod
    def parse(spec, stdout):
        rows = [line.split(",") for line in stdout.strip().splitlines()]
        if spec == "curve":
            if rows[0] != ["alpha", "lambda", "symmetry_defect", "monotonicity_defect"]:
                raise ValueError(f"curve header {rows[0]!r}")
            return [(float(r[0]), float(r[1])) for r in rows[1:-1]]
        if rows[0][:3] != ["f", "alpha", "lambda"] or len(rows) != 2:
            raise ValueError(f"gap output {rows!r}")
        return float(rows[1][2])

    def check(self, outputs):
        result = []
        parsed = []
        for (name, spec, _), out in zip(self.argvs, outputs):
            code, stdout = out if out is not None else (None, "")
            problems = [] if code in (0, None) else [f"exit code {code}"]
            value = None
            if code == 0:
                try:
                    value = self.parse(spec, stdout)
                except (ValueError, IndexError) as exc:
                    problems.append(f"unparsable output: {exc}")
            parsed.append(value)
            result.append(problems)

        by_model: dict[str, dict] = {}
        for (name, spec, _), value in zip(self.argvs, parsed):
            if value is not None:
                by_model.setdefault(name, {})[spec] = value
        for k, (name, spec, _) in enumerate(self.argvs):
            value, lam = parsed[k], by_model.get(name, {})
            if value is None:
                continue
            problems = result[k]
            expected = CONFIG_GAPS.get(name, {}).get(spec)
            if spec == "curve":
                problems += curve_problems(value)
                at_zero = dict(value).get(0.0)  # power(0) is the GNS metric
                if "gns" in lam and (
                    at_zero is None
                    or abs(at_zero - lam["gns"]) > COMPARISON_TOL * max(1.0, lam["gns"])
                ):
                    problems.append(f"curve at alpha=0 {at_zero!r} != gns gap {lam['gns']!r}")
                if expected is not None:
                    problems += [
                        f"{name} curve point {a!r}: {v!r}, closed form {expected!r}"
                        for a, v in value if not _close(v, expected)
                    ]
                continue
            if not (math.isfinite(value) and value >= DISSIPATIVE_FLOOR):
                problems.append(f"gap {value!r} negative or infinite")
            if expected is not None and not _close(value, expected):
                problems.append(f"{name} {spec} gap {value!r}, closed form {expected!r}")
            if spec != "gns" and "gns" in lam:
                problems += comparison_problems(lam["gns"], {spec: value})
        return result


WORKLOADS = {cls.name: cls for cls in (Acceptance, Scan, DenseD8, CliCold)}


def make(name: str, seed: int, workdir: Path, in_process: bool = False) -> Workload:
    return WORKLOADS[name](seed, workdir, in_process)
