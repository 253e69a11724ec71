#!/usr/bin/env python3
"""qmsgap benchmark: one seeded workload per run, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance|scan|dense-d8|cli-cold \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times untraced passes over the workload for
about S seconds and reports the end-to-end metrics; with ``--trace 1`` it
makes a warm-up pass, then a traced, an untraced and a traced pass, and
reports per-layer metrics and the tracing overhead.  Earlier lines of standard output carry the
environment and the detail (tail percentile, fail ratio); the last line is
one JSON object with the keys correct, attempted, failed and metrics.
Everything the run writes goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("acceptance", "scan", "dense-d8", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    from qmsgap.harness import PROPERTY_ORDER
    from spans import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["cli.main_s"] = "s"
    units["cli.import_s"] = "s"
    units["kernel.kron.bytes"] = "B"
    units["qms.draw_accept_ratio"] = "ratio"
    for name in PROPERTY_ORDER:
        units[f"harness.{name}_s"] = "s"
    units["harness.pool_s"] = "s"
    units["harness.rejected_draws"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH")) if p
    )
    return env


def timed_child(args) -> tuple[float, str]:
    """Wall seconds and stdout of a fresh interpreter running ``args``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args!r} exited {proc.returncode}: {proc.stderr}")
    return elapsed, proc.stdout


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter until qmsgap and qmsgap.cli are imported and the
    workload's inputs are built, repeated SETUP_REPEATS times, in seconds
    at the nominal machine speed (speed.ProcessSpeedometer)."""
    from speed import ProcessSpeedometer

    script = str(Path(__file__).resolve())
    args = [script, "--setup-only", "--workload", workload, "--seed", str(seed)]
    speedo = ProcessSpeedometer()
    raw = []
    for _ in range(SETUP_REPEATS):
        speedo.between_items()
        raw.append(timed_child(args)[0])
    speedo.between_items()
    scale = speedo.scale((0.0, 0), speedo.reading())
    return [s * scale for s in raw]


def import_seconds() -> list[float]:
    """Time of a fresh ``import qmsgap.cli``, measured inside the child."""
    code = (
        "import time; t = time.perf_counter(); import qmsgap.cli; "
        "print(time.perf_counter() - t)"
    )
    return [float(timed_child(["-c", code])[1]) for _ in range(IMPORT_REPEATS)]


def blas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """Commit from .git/HEAD of the checkout itself, if it is a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "qmsgap" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qmsgap source under {SOURCE}\n")
        return 2
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SOURCE))

    if args.setup_only:
        import workloads

        workloads.make(args.workload, args.seed, workdir)
        return 0

    setup = setup_seconds(args.workload, args.seed)
    import measure
    import workloads

    env = environment()
    workload = workloads.make(args.workload, args.seed, workdir, in_process=bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "env": env,
              "setup_s_samples": setup}

    if args.trace:
        result = measure.traced(workload)
        result["layers"]["cli.import_s"] = statistics.median(import_seconds())
        metrics = {
            name: metric(float(result["layers"].get(name, 0.0)), unit)
            for name, unit in per_layer_units().items()
        }
        from spans import write_spans

        write_spans(result["spans"], workdir / "spans.csv")
        detail.update(pass_wall_s=result["pass_wall_s"],
                      count_mismatches=result["count_mismatches"])
        if result["count_mismatches"]:
            sys.stderr.write(
                "perfbench: counts differ between two traced passes of one "
                f"seed: {result['count_mismatches']}\n"
            )
    else:
        result = measure.measure(workload, args.seconds)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": result["wall_s"],
            "items_per_s": result["items_per_s"],
            "item_p50_ms": result["item_p50_ms"],
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        tail = result["tail"]
        detail.update(
            passes=result["passes"],
            raw_pass_wall_s=result["raw_pass_wall_s"],
            speed_scale=result["speed_scale"],
            item_samples=len(result["item_seconds"]),
            # omitted (None) when no percentile has ten samples beyond it
            item_tail_ms=None if tail is None else {
                "percentile": tail[0], "value": 1000.0 * tail[1], "unit": "ms",
                "samples": len(result["item_seconds"]),
            },
        )

    failed = len(result["failures"])
    detail["fail_ratio"] = metric(failed / result["attempted"], "ratio")
    detail["failures"] = result["failures"][:20]
    detail["metrics"] = metrics
    out_name = f"result-trace{args.trace}.json"
    (workdir / out_name).write_text(json.dumps(detail, indent=2) + "\n")
    for message in result["failures"][:20]:
        sys.stderr.write(f"perfbench: {args.workload}: {message}\n")

    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps({k: detail[k] for k in detail
                                  if k not in ("env", "metrics")}, sort_keys=True))
    correct = failed == 0 and not (args.trace and result["count_mismatches"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    if args.trace and result["count_mismatches"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
