import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "campaign_diff.py"
HEADER = "property,case,dim,defect,passed\n"


def diff(tmp_path, a_rows, b_rows):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(HEADER + "".join(a_rows))
    b.write_text(HEADER + "".join(b_rows))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)],
        capture_output=True, text=True,
    )
    return done.returncode, done.stdout


def test_defect_moves_are_counted_per_property(tmp_path):
    a = ["p,model-000,2,0.5,pass\n", "p,model-001,3,0.25,pass\n", "q,c,0,inf,fail\n"]
    b = ["p,model-000,2,0.75,pass\n", "p,model-001,3,0.25,pass\n", "q,c,0,inf,fail\n"]
    code, out = diff(tmp_path, a, b)
    assert code == 0
    assert out.splitlines() == [
        "property,rows,changed,max_abs_delta", "p,2,1,0.25", "q,1,0,0",
    ]


def test_any_other_difference_exits_1(tmp_path):
    a = ["p,model-000,2,0.5,pass\n", "p,model-001,3,0.25,pass\n"]
    for b in (
        ["p,model-000,2,0.5,pass\n", "p,model-001,3,1.5,fail\n"],
        ["p,model-000,2,0.5,pass\n", "p,model-002,3,0.25,pass\n"],
        ["p,model-000,2,0.5,pass\n", "p,model-001,4,0.25,pass\n"],
        ["p,model-000,2,0.5,pass\n", "r,model-001,3,0.25,pass\n"],
        ["p,model-000,2,0.5,pass\n"],
    ):
        code, out = diff(tmp_path, a, b)
        assert code == 1 and "MISMATCH" in out
