"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, timeout=600,
    )


def test_the_demos_are_all_here():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name.startswith("05") else [])
     for p in DEMOS],
)
def test_demo_exits_cleanly(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
