"""Each demo script runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts next to the tests"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # a child process does not read pyproject's filterwarnings: the demos meet
    # the suite's rule that no numpy RuntimeWarning is raised
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                         capture_output=True, text=True, cwd=tmp_path, env=package_env())
    assert res.returncode == 0, res.stderr
