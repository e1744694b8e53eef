"""The project's pytest settings report a failing property as a failure.

``filterwarnings`` turns every warning into an error.  When a hypothesis
property fails, the hypothesis plugin imports ``libcst`` to write its
patch, and that import warns; unfiltered, the warning becomes an
``INTERNALERROR`` that ends the pytest run without the counterexample.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(n):
    assert n < 10
'''


def test_failing_property_is_reported_with_its_counterexample(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_prop.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "Falsifying example: test_below_ten(" in out
    assert "n=10," in out
    assert "1 failed" in out
