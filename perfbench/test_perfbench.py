"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from qmsgap import qms  # noqa: E402


def test_self_time_is_span_minus_children():
    synthetic = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],   # overlaps b: the union is counted once
        ["d", 2.0, 3.0, 1],
        ["b", 7.0, 8.0, 0],
    ]
    out = spans.summarize(synthetic)
    assert out["a"]["self_s"] == pytest.approx(10.0 - 6.0)
    assert out["b"]["calls"] == 2
    assert out["b"]["total_s"] == pytest.approx(4.0)
    assert out["b"]["self_s"] == pytest.approx(3.0)
    assert out["c"]["self_s"] == pytest.approx(3.0)
    assert out["d"]["self_s"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_functions():
    original_kron = np.kron
    original_generator = qms.generator
    model = qms.thermal_qubit(0.25, 1.0)
    with spans.Tracer() as tracer:
        qms.generator(model)
    assert np.kron is original_kron
    assert qms.generator is original_generator
    names = [s[0] for s in tracer.spans]
    assert names[0] == "qms.generator"
    assert names.count("kernel.kron") == 2 + 3 * len(model.jumps)
    assert all(s[3] == 0 for s in tracer.spans[1:])
    # each kron of two 2x2 complex matrices is 16 entries of 16 bytes
    assert tracer.counters["kernel.kron.bytes"] == 256 * names.count("kernel.kron")


def test_speedometer_samples_and_scales():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.ChunkSpeedometer() as speedo:
        before = speedo.reading()
        deadline = time.perf_counter() + 6 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            sum(range(1000))
        after = speedo.reading()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert after[1] - before[1] >= 3
    mean_chunk = (after[0] - before[0]) / (after[1] - before[1])
    assert speedo.scale(before, after) == pytest.approx(
        speed.NOMINAL_CHUNK_S / mean_chunk
    )
    # no chunk between two equal readings: the mean over all chunks is used
    assert speedo.scale(after, after) == pytest.approx(
        speed.NOMINAL_CHUNK_S * speedo.refs / speedo.ref_s
    )


@pytest.mark.parametrize(
    "n, expected",
    [(50, None), (99, None), (100, 90.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_rule(n, expected):
    samples = list(range(n, 0, -1))
    tail = measure.tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    percentile, value = tail
    assert percentile == expected
    assert n - value >= measure.MIN_BEYOND  # ten samples lie beyond it


def _small_scan(tmp_path):
    scan = workloads.Scan(seed=3, workdir=tmp_path)
    scan.n_items = len(scan.docs) + 2
    return scan


def test_scan_oracles_pass_on_correct_outputs(tmp_path):
    result = measure.measure(_small_scan(tmp_path), seconds=0.0)
    assert result["failures"] == []


def test_failing_oracle_raises_fail_ratio(tmp_path):
    scan = _small_scan(tmp_path)
    real_run = scan.run

    def wrong_thermal_gap(i):
        out = real_run(i)
        if i == 0:
            out["kms"] = 0.6  # thermal qubit: closed form 0.625
        return out

    scan.run = wrong_thermal_gap
    result = measure.measure(scan, seconds=0.0)
    assert len(result["failures"]) == 1
    assert len(result["failures"]) / result["attempted"] > 0


def test_exceptions_and_exit_codes_count_as_failures(tmp_path):
    cli = workloads.CliCold(seed=3, workdir=tmp_path, in_process=True)
    outputs = [(0, "f,alpha,lambda\ngns,,0.625\n")] * cli.n_items
    outputs[1] = (2, "")
    outputs[2] = None
    errors = [None] * cli.n_items
    errors[2] = "RuntimeError: boom"
    failures = measure.item_failures(
        cli, measure.PassResult([0.0] * cli.n_items, outputs, errors, 0.0)
    )
    assert any(f.startswith("item 1: exit code 2") for f in failures)
    assert any(f.startswith("item 2: RuntimeError") for f in failures)


def test_curve_and_comparison_oracles():
    good = [(0.0, 1.0), (0.25, 1.5), (0.5, 2.0), (0.75, 1.5), (1.0, 1.0)]
    assert workloads.curve_problems(good) == []
    asymmetric = good[:-1] + [(1.0, 1.2)]
    assert workloads.curve_problems(asymmetric)
    dip = [(0.0, 1.0), (0.25, 0.5), (0.5, 2.0), (0.75, 0.5), (1.0, 1.0)]
    assert workloads.curve_problems(dip)
    assert workloads.comparison_problems(1.0, {"kms": 1.0 - 1e-9}) == []
    assert workloads.comparison_problems(1.0, {"kms": 0.9})


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
