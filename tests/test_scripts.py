"""Smoke tests of the scripts under ``scripts/``: each runs as its own
process and ends with exit 0 and some output.  ``f2_commutator_survey.py``
enumerates every pair of 3x3 matrices over F_2 and takes about ten seconds,
so it is left to be run by hand, as are the scale ladder's rungs above
max-dim 10."""

import json
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


def test_scale_ladder_runs_its_lowest_rung():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "scale_ladder.py"), "10", "--timeout", "120"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)["runs"]
    for field in ("Q", f"Fp:{2**31 - 1}"):
        rung = [(r["command"], r["exit"]) for r in runs if r["field"] == field and r["max_dim"] == 10]
        built = {c: code for c, code in rung if c.startswith("witness")}
        checked = {c: code for c, code in rung if c.startswith("verify")}
        assert rung[0] == ("random", 0) and len(built) == 4
        # over F_p theorem 2 is a construction limitation (exit 3)
        assert all(code == 0 or (field != "Q" and code == 3) for code in built.values()), rung
        assert checked == {f"verify (theorem {c[-1]})": 0 for c, code in built.items() if code == 0}, rung
    assert all(len(r["sha256"]) == 64 and r["out_bytes"] > 0 and r["wall_s"] > 0 for r in runs)
    # a verdict carries no digits; every document and certificate does, F_p
    # residues stay below p, and the Q certificates of this rung stay short
    assert all(isinstance(r["max_entry_digits"], int) and r["max_entry_digits"] >= 0 for r in runs), runs
    made = [r for r in runs if r["exit"] == 0 and not r["command"].startswith("verify")]
    assert all(r["max_entry_digits"] > 0 for r in made), runs
    assert all(r["max_entry_digits"] <= 10 for r in made if r["field"] != "Q"), runs
    assert all(r["max_entry_digits"] <= 60 for r in made if r["field"] == "Q"), runs
    # the peak is null unless the child itself wrote its VmHWM at exit
    assert all(isinstance(r["peak_rss_mib"], float) and r["peak_rss_mib"] > 0 for r in runs), runs
