"""pyproject.toml's test settings report a failing test instead of crashing the run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(k):
    assert k != k
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis's failure report imports libcst, whose import warns
    # through mypy_extensions; an error:: filter on that warning would
    # end the run with INTERNALERROR before any report.
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
