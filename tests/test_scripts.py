"""Smoke tests of the scripts under scripts/, run as their own processes."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_drive_sweep_starts_from_the_detailed_balanced_qubit():
    done = run_script("drive_sweep.py", "--steps", "3")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header == "omega,lambda_gns,lambda_kms,lambda_bkm,ratio"
    assert len(rows) == 3
    omega, *gaps, ratio = (float(v) for v in rows[0].split(","))
    # no drive: every gap is (gamma_up + gamma_down) / 2 = (0.25 + 1) / 2
    assert omega == 0.0
    for lam in gaps:
        assert abs(lam - 0.625) <= 1e-12
    assert abs(ratio) <= 1e-12


def test_strict_gap_scan_prints_its_summary():
    done = run_script("strict_gap_scan.py", "--draws", "20", "--dims", "2")
    assert done.returncode in (0, 1), done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("draws: 20   rejected: ")
    for prefix in (
        "best margin  lambda_kms - lambda_gns = ",
        "             relative to lambda_gns  = ",
        "largest relative separation observed = ",
        "target (margin > 1e-3 lambda_gns) met: ",
    ):
        assert any(line.startswith(prefix) for line in lines), prefix
    met = lines[4].rsplit(" ", 1)[1]
    assert done.returncode == (0 if met == "True" else 1)


def test_strict_gap_scan_ratio_is_not_set_by_round_off():
    done = run_script("strict_gap_scan.py", "--draws", "20", "--dims", "2")
    prefix = "largest relative separation observed = "
    (line,) = [l for l in done.stdout.splitlines() if l.startswith(prefix)]
    ratio = float(line[len(prefix):])
    assert math.isfinite(ratio) and ratio < 1e3


def test_strict_gap_scan_dims_outside_2_to_8_are_a_usage_error():
    # exit 2 before any draw: a crash would exit 1, as "not found" does
    for dims in ("0", "2,9", "2,x"):
        done = run_script("strict_gap_scan.py", "--draws", "20", "--dims", dims)
        assert done.returncode == 2 and done.stdout == ""
        assert "argument --dims" in done.stderr and "Traceback" not in done.stderr
