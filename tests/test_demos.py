"""Every demo exits 0, writes no stderr and prints its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         encoding="utf-8", env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    recorded = RECORDED / f"{demo.stem}.txt"
    assert run.stdout == recorded.read_text(encoding="utf-8")
