"""The suite's own pytest settings: with every warning an error, a failing
Hypothesis test must still leave the rest of the run reported."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_leaves_the_next_test_reported(tmp_path):
    # Hypothesis's failure report touches ``mypy_extensions.TypedDict``, whose
    # DeprecationWarning, turned into an error, used to abort the run with an
    # INTERNALERROR after the failing test
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_pair.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
