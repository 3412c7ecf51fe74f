"""Smoke tests of the scripts under ``scripts/``: each runs as its own
process and ends with exit 0 and some output.  ``f2_commutator_survey.py``
enumerates every pair of 3x3 matrices over F_2 and takes about ten seconds,
so it is left to be run by hand."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["demo_witnesses.py", "run_example2.py"])
def test_script_runs(name):
    done = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
