import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmsgap

ROOT = Path(__file__).resolve().parents[1]


def _library_tour() -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_names_only_what_qmsgap_exports():
    names = [
        alias.name
        for node in ast.walk(ast.parse(_library_tour()))
        if isinstance(node, ast.ImportFrom) and node.module == "qmsgap"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(qmsgap, name)] == []


def test_library_tour_runs_without_scipy():
    # a fresh process in which importing scipy fails, as after
    # `pip install -e .` with no extras
    block = "import sys\nsys.modules['scipy'] = None\n" + _library_tour()
    done = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    # the tour's first line is the KMS gap its comment states
    assert float(done.stdout.splitlines()[0]) == pytest.approx(0.625, rel=1e-12)
