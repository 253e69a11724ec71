"""Timed passes over a workload, traced passes, and the statistics reported.

An untimed run of the oracles follows every pass, so checking never counts
as work.  Every workload is a closed loop: one client, the next item starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Optional

from spans import SPAN_NAMES, Tracer, summarize
from speed import Speedometer

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(samples):
    """(percentile, value) for the highest percentile in TAIL_PERCENTILES
    with at least MIN_BEYOND samples beyond it, by nearest rank; None when
    no percentile qualifies."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = -(-round(10 * p) * n // 1000)  # 1-based nearest rank, exact
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


@dataclass
class PassResult:
    item_seconds: list[float]  # raw
    outputs: list  # None where the item raised
    errors: list[Optional[str]]
    wall_s: float  # raw
    scale: float = 1.0  # raw -> nominal-speed seconds, see speed.py


def run_pass(workload, speedo: Optional[Speedometer] = None) -> PassResult:
    """Run every item once; with a speedometer, every item of the pass gets
    the pass's speed scale."""
    clock = time.perf_counter
    item_seconds, outputs, errors = [], [], []
    mark = speedo.reading() if speedo is not None else None
    start = clock()
    for i in range(workload.n_items):
        if speedo is not None:
            speedo.between_items()
        t0 = clock()
        try:
            outputs.append(workload.run(i))
            errors.append(None)
        except Exception as exc:  # a failed item, counted in fail_ratio
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        item_seconds.append(clock() - t0)
    scale = 1.0
    if speedo is not None:
        speedo.between_items()
        scale = speedo.scale(mark, speedo.reading())
    wall_s = sum(item_seconds)
    return PassResult(item_seconds, outputs, errors, wall_s, scale)


def item_failures(workload, result: PassResult) -> list[str]:
    """One message per failed item: its exception, or else the problems the
    oracles found in its output (checks see None for items that raised)."""
    problems = workload.check(result.outputs)
    failures = []
    for i, (error, found) in enumerate(zip(result.errors, problems)):
        if error or found:
            failures.append(f"item {i}: {error or '; '.join(found)}")
    return failures


def measure(workload, seconds: float) -> dict:
    """Untraced passes until the next pass would end after ``seconds``;
    times are at the nominal machine speed where the workload takes a
    speed reference (see speed.py), raw otherwise."""
    passes, failures = [], []
    start = time.perf_counter()
    speedo = workload.speed_reference() if workload.speed_reference else None
    with speedo or contextlib.nullcontext():
        while True:
            result = run_pass(workload, speedo)
            passes.append(result)
            failures += item_failures(workload, result)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= workload.min_passes and elapsed + typical > seconds:
                break
    items = [s * p.scale for p in passes for s in p.item_seconds]
    wall_s = statistics.median(p.wall_s * p.scale for p in passes)
    return {
        "passes": len(passes),
        "raw_pass_wall_s": [p.wall_s for p in passes],
        "speed_scale": [p.scale for p in passes],
        "item_seconds": items,
        "attempted": len(items),
        "failures": failures,
        "wall_s": wall_s,
        # at the median pass's rate, so one stalled pass does not move it
        "items_per_s": workload.n_items / wall_s,
        "item_p50_ms": 1000.0 * statistics.median(items),
        "tail": tail_percentile(items),
    }


def traced(workload) -> dict:
    """A warm-up pass, then traced, untraced and traced passes of the same
    inputs.

    Counts must repeat exactly between the two traced passes; self times
    are their mean; the tracing overhead is their mean wall time minus the
    untraced pass between them.
    """
    def traced_pass():
        with Tracer() as tracer:
            result = run_pass(workload)
        return tracer, result

    warm = run_pass(workload)  # takes lazy set-up and first-call costs
    first = traced_pass()
    plain = run_pass(workload)
    second = traced_pass()
    runs = [first, second]
    passes = [warm, first[1], plain, second[1]]
    failures = [f for p in passes for f in item_failures(workload, p)]

    summaries = [summarize(t.spans) for t, _ in runs]
    counts = [counts_of(s, t.counters) for s, (t, _) in zip(summaries, runs)]
    mismatched = sorted(
        k for k in set(counts[0]) | set(counts[1])
        if counts[0].get(k) != counts[1].get(k)
    )

    layers = {}
    for name in SPAN_NAMES:
        rows = [s.get(name, {"calls": 0, "self_s": 0.0}) for s in summaries]
        layers[f"{name}.calls"] = float(rows[0]["calls"])
        layers[f"{name}.self_s"] = statistics.fmean(r["self_s"] for r in rows)
    layers["cli.main_s"] = statistics.fmean(
        s.get("cli.main", {"total_s": 0.0})["total_s"] for s in summaries
    )
    layers["kernel.kron.bytes"] = float(counts[0]["kernel.kron.bytes"])
    draws = counts[0]["qms.random_faithful_model.calls"]
    attempted_draws = draws + counts[0]["qms.rejected_draws"]
    layers["qms.draw_accept_ratio"] = draws / attempted_draws if attempted_draws else 0.0
    if not any(plain.errors):
        layers.update(workload.layer_extras(plain.outputs))
    layers["trace.overhead_s"] = (
        statistics.fmean(r.wall_s for _, r in runs) - plain.wall_s
    )
    return {
        "attempted": len(passes) * workload.n_items,
        "failures": failures,
        "layers": layers,
        "count_mismatches": {k: [c.get(k) for c in counts] for k in mismatched},
        "spans": runs[0][0].spans,
        "pass_wall_s": [p.wall_s for p in passes],
    }


def counts_of(summary, counters) -> dict[str, float]:
    """The counts that must repeat exactly for one seed."""
    out = {f"{name}.calls": float(summary.get(name, {"calls": 0})["calls"])
           for name in SPAN_NAMES}
    out["kernel.kron.bytes"] = float(counters.get("kernel.kron.bytes", 0.0))
    out["qms.rejected_draws"] = float(counters.get("qms.rejected_draws", 0.0))
    return out
