import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmsgap
from qmsgap.cli import main
from qmsgap.config import model_to_dict
from qmsgap.qms import GKSLModel, density_matrix, depolarizing_qubit, thermal_qubit

GAMMA = 0.35


@pytest.fixture
def depolarizing_config(tmp_path):
    path = tmp_path / "depolarizing.json"
    path.write_text(json.dumps(model_to_dict(depolarizing_qubit(GAMMA))))
    return str(path)


@pytest.fixture
def campaign_config(tmp_path):
    doc = {
        "schema_version": 1,
        "seed": 42,
        "n_models": 3,
        "dims": [2],
        "counts": {
            "decay_equivalence": 2,
            "transpose_symmetry": 2,
            "alpha_curve": 2,
            "moreau_identity": 3,
            "om1_bounds": 2,
            "loewner_order": 3,
            "metric_closed_forms": 3,
            "detailed_balance_collapse": 2,
            "strict_gap": 25,
            "degenerate_gap": 1,
        },
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gap_row_for_depolarizing(capsys, depolarizing_config):
    code, out, _ = run(capsys, "gap", depolarizing_config, "--f", "kms")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "f,alpha,lambda,kernel_dim,min_spectrum,residual"
    fields = row.split(",")
    assert fields[0] == "kms" and fields[1] == ""
    assert float(fields[2]) == pytest.approx(2.0 * GAMMA, abs=1e-12)
    assert fields[3] == "1"
    assert float(fields[4]) == float(fields[2])
    # 17 significant digits survive a float round trip
    assert fields[2] == f"{float(fields[2]):.17g}"


def test_gap_power_spec_fills_alpha_column(capsys, depolarizing_config):
    code, out, _ = run(capsys, "gap", depolarizing_config, "--f", "power:0.3")
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert fields[0] == "power"
    assert float(fields[1]) == pytest.approx(0.3)


def test_gap_measure_spec(capsys, tmp_path, depolarizing_config):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps([[0.0, 0.5], ["inf", 0.5]]))
    code, out, _ = run(
        capsys, "gap", depolarizing_config, "--f", f"measure:{measure}"
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[2]) == pytest.approx(
        2.0 * GAMMA, abs=1e-10
    )


@pytest.mark.parametrize("atoms", ["[[1.0, NaN]]", "[[NaN, 1.0]]", "[[-Infinity, 1.0]]"])
def test_gap_exit_3_for_non_finite_measure(capsys, tmp_path, depolarizing_config, atoms):
    measure = tmp_path / "measure.json"
    measure.write_text(atoms)  # json reads NaN and -Infinity literals
    code, out, err = run(
        capsys, "gap", depolarizing_config, "--f", f"measure:{measure}"
    )
    assert code == 3 and out == ""
    assert "bad measure descriptor" in err


def test_gap_exit_2_for_pure_invariant_state(capsys, tmp_path):
    path = tmp_path / "damping.json"
    path.write_text(json.dumps(model_to_dict(thermal_qubit(0.0, 1.0))))
    code, _, err = run(capsys, "gap", str(path))
    assert code == 2
    assert "ill-posed" in err


def test_gap_exit_3_for_malformed_matrix(capsys, tmp_path):
    doc = model_to_dict(depolarizing_qubit(GAMMA))
    doc["hamiltonian"] = doc["hamiltonian"][:-1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "gap", str(path))
    assert code == 3
    assert "hamiltonian" in err


@pytest.mark.parametrize(
    "field, entry",
    [("hamiltonian", [math.nan, 0.0]), ("jumps[0]", [math.inf, 0.0]),
     ("rho", [math.nan, 0.0]), ("hamiltonian", [True, 0.0])],
)
def test_gap_exit_3_for_non_finite_or_boolean_entry(capsys, tmp_path, field, entry):
    model = thermal_qubit(0.25, 1.0)
    doc = model_to_dict(model, density_matrix(np.diag([0.2, 0.8]).astype(complex)))
    matrix = doc["jumps"][0] if field == "jumps[0]" else doc[field]
    matrix[0] = entry
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    code, _, err = run(capsys, "gap", str(path), "--f", "kms")
    assert code == 3
    assert f"{field}: entry 0" in err


def test_gap_exit_3_for_unknown_metric(capsys, depolarizing_config):
    code, _, err = run(capsys, "gap", depolarizing_config, "--f", "nope")
    assert code == 3 and "metric" in err


def test_gap_inf_sentinel(capsys, tmp_path):
    model = GKSLModel(hamiltonian=np.zeros((2, 2), dtype=complex))
    rho = density_matrix(np.eye(2) / 2.0)
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(model_to_dict(model, rho)))
    code, out, _ = run(capsys, "gap", str(path), "--f", "bkm")
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert fields[2] == "inf" and fields[4] == "inf"
    assert fields[3] == "4"


def test_curve_is_flat_for_depolarizing(capsys, depolarizing_config):
    code, out, _ = run(capsys, "curve", depolarizing_config, "--grid", "0:1:11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,lambda,symmetry_defect,monotonicity_defect"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 11
    for fields in rows:
        assert float(fields[1]) == pytest.approx(2.0 * GAMMA, abs=1e-10)
        assert fields[2] == "" and fields[3] == ""
    summary = lines[-1].split(",")
    assert summary[0] == "" and summary[1] == ""
    assert float(summary[2]) <= 1e-7
    assert float(summary[3]) <= 1e-7


def test_curve_rejects_invalid_grid(capsys, depolarizing_config):
    code, _, err = run(capsys, "curve", depolarizing_config, "--grid", "0.6:0.2:5")
    assert code == 3 and "grid" in err
    code, _, _ = run(capsys, "curve", depolarizing_config, "--grid", "0:2:5")
    assert code == 3
    code, _, _ = run(capsys, "curve", depolarizing_config, "--grid", "nonsense")
    assert code == 3


def test_verify_passes_and_writes_reports(capsys, tmp_path, campaign_config):
    path, _ = campaign_config
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", path, "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    text = out_path.read_text()
    assert "all properties passed" in text
    csv_lines = (tmp_path / "report.txt.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "property,case,dim,defect,passed"


def test_verify_csv_is_reproducible(capsys, tmp_path, campaign_config):
    path, _ = campaign_config
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "verify", path, "--out", str(a))[0] == 0
    assert run(capsys, "verify", path, "--out", str(b))[0] == 0
    assert (tmp_path / "a.txt.csv").read_bytes() == (tmp_path / "b.txt.csv").read_bytes()


def test_verify_seed_override_changes_the_run(capsys, tmp_path, campaign_config):
    path, _ = campaign_config
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "verify", path, "--seed", "42", "--out", str(a))[0] == 0
    assert run(capsys, "verify", path, "--seed", "43", "--out", str(b))[0] == 0
    assert (tmp_path / "a.txt.csv").read_bytes() != (tmp_path / "b.txt.csv").read_bytes()


def test_verify_requires_some_seed(capsys, tmp_path, campaign_config):
    path, doc = campaign_config
    del doc["seed"]
    unseeded = tmp_path / "unseeded.json"
    unseeded.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(unseeded))
    assert code == 3 and "seed" in err
    assert run(capsys, "verify", str(unseeded), "--seed", "5")[0] == 0


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 3


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("tolerances", {"contractivity": math.nan}, "tolerance for 'contractivity'"),
        ("tolerances", {"contractivity": 0}, "must be > 0"),
        ("tolerances", {"contractivity": -1e-8}, "must be > 0"),
        ("tolerances", {"no_such_property": 1e-8}, "unknown property"),
        ("tolerances", [1], "tolerances must be an object"),
        ("n_models", "abc", "n_models must be an integer"),
        ("dims", 3, "dims must be a list"),
        ("dims", [2.5], "dims entry must be an integer"),
        ("counts", {"alpha_curve": 1.5}, "count for 'alpha_curve'"),
        ("f_suite", [1], "metric descriptor"),
        ("t_grid", [math.nan], "t_grid entry must be a finite number"),
        ("seed", True, "seed must be an integer"),
        ("seed", 1.7, "seed must be an integer"),
    ],
)
def test_verify_exit_3_for_malformed_campaign_config(
    capsys, tmp_path, campaign_config, key, value, message
):
    path, doc = campaign_config
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes NaN literals
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 3
    assert err.startswith("qmsgap: input error:") and message in err


def test_verify_failure_path_emits_counterexamples(
    capsys, tmp_path, campaign_config, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    path, doc = campaign_config
    doc["tolerances"] = {"contractivity": 1e-18}
    harsh = tmp_path / "harsh.json"
    harsh.write_text(json.dumps(doc))
    out_path = tmp_path / "harsh_report.txt"
    code, out, _ = run(capsys, "verify", str(harsh), "--out", str(out_path))
    assert code == 1
    assert "counterexamples written to" in out
    counter = json.loads((tmp_path / "harsh_report.txt.counterexamples.json").read_text())
    assert counter and counter[0]["property"] == "contractivity"
    assert "model" in counter[0]


def test_unknown_subcommand_is_input_error(capsys):
    code, _, _ = run(capsys, "explode")
    assert code == 3


def test_gap_exit_2_without_unique_state(capsys, tmp_path):
    # trivial generator: every state is invariant, none is selected
    model = GKSLModel(hamiltonian=np.zeros((2, 2), dtype=complex))
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(model_to_dict(model)))
    code, _, err = run(capsys, "gap", str(path))
    assert code == 2 and "ill-posed" in err


COUPLED_BLOCKS = Path(__file__).parent / "data" / "coupled_blocks_1e-4.json"


@pytest.mark.parametrize("command", ["gap", "curve"])
def test_exit_2_for_a_kernel_dimension_too_close_to_call(capsys, command):
    # blocks coupled at eps = 1e-4, rho supplied: the slow mode's singular
    # value lies between the round-off edge and KERNEL_TOL
    code, out, err = run(capsys, command, str(COUPLED_BLOCKS))
    assert code == 2 and out == ""
    assert "ill-posed" in err and "too close to call" in err


def test_log_level_env_var(capsys, depolarizing_config, monkeypatch):
    import logging

    for name, level in (("debug", logging.DEBUG), ("error", logging.ERROR)):
        monkeypatch.setenv("QMSGAP_LOG", name)
        assert run(capsys, "gap", depolarizing_config)[0] == 0
        assert logging.getLogger("qmsgap").level == level


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_TIMINGS = re.compile(r"\[\d+\.\d+s\]| in \d+\.\d+s")


@pytest.mark.parametrize(
    "argv",
    [
        ("gap", str(CONFIGS / "thermal_qubit.json"), "--f", "kms"),
        ("curve", str(CONFIGS / "driven_thermal_qubit.json"), "--grid", "0:1:11"),
        ("verify", str(CONFIGS / "campaign_small.json")),
    ],
    ids=["gap", "curve", "verify"],
)
def test_cli_runs_with_scipy_blocked(capsys, argv):
    # the package never imports scipy; a process that cannot import it
    # prints what one that can prints (campaign timings aside)
    env = dict(os.environ, PYTHONPATH=str(Path(qmsgap.__file__).parents[1]))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from qmsgap.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    blocked = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert blocked.returncode == 0, blocked.stderr
    exit_code, out, _ = run(capsys, *argv)
    assert exit_code == 0
    assert _TIMINGS.sub("", blocked.stdout) == _TIMINGS.sub("", out)


def test_gap_command_leaves_the_campaign_runner_unimported():
    # a fresh process, so that no earlier import in this session hides a
    # module-level import of qmsgap.harness; cold `gap` and `curve` start
    # times depend on it
    env = dict(os.environ, PYTHONPATH=str(Path(qmsgap.__file__).parents[1]))
    code = (
        "import contextlib, io, sys\n"
        "import qmsgap, qmsgap.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = qmsgap.cli.main(['gap', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "assert 'qmsgap.harness' not in sys.modules, 'harness imported'\n"
        "found = {name: getattr(qmsgap, name) for name in qmsgap._HARNESS_NAMES}\n"
        "harness = sys.modules['qmsgap.harness']\n"
        "for name, value in found.items():\n"
        "    assert value is getattr(harness, name), name\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "thermal_qubit.json")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
