#!/usr/bin/env python3
"""Time the command-line tool on documents larger than the benchmark's.

For each max-dim given (default 10 and 20) and each field, Q and
F_{2^31-1}, this writes the seed-1 document of ``chaincomm random --length 3
--ensure t2``, builds a certificate with ``witness --theorem N`` for N = 1..4
and re-checks each certificate built with ``verify``.  Every step runs as its
own child process under a timeout.  One JSON object goes to standard output:
per run, the field, max-dim and dims, the command, its exit code (null after
a timeout), wall time, the child's peak resident memory (its own VmHWM,
read inside it at exit), the size and sha256 of what it printed, and
``max_entry_digits``, the most decimal digits of any numerator or
denominator in it (its longest run of digits).

    python3 scripts/scale_ladder.py                 # max-dim 10 and 20
    python3 scripts/scale_ladder.py 10 20 40 --timeout 900
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIELDS = ("Q", f"Fp:{2**31 - 1}")
THEOREMS = (1, 2, 3, 4)
POLL_S = 0.005


# Runs ``python -m chaincomm`` and, at exit, writes the process's own VmHWM
# (peak resident set, KiB) to the file named by its first argument.  Read in
# the child after ``exec``, the figure counts none of the launcher's memory.
CHILD = """
import atexit, runpy, sys

path = sys.argv.pop(1)

def report():
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)

atexit.register(report)
sys.argv[0] = "chaincomm"
runpy.run_module("chaincomm", run_name="__main__", alter_sys=True)
"""


def run(args: list[str], out_path: Path, timeout: float) -> dict:
    """``python -m chaincomm *args`` with standard output to ``out_path``,
    killed after ``timeout`` seconds.  Its peak RSS is the VmHWM the child
    reports at exit, null when it reported none (after a timeout)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peak_path = out_path.with_name(out_path.name + ".vmhwm")
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(peak_path), *args], stdout=out, stderr=subprocess.DEVNULL, env=env
        )
        timed_out = False
        while child.poll() is None:
            if time.perf_counter() - start > timeout:
                child.kill()
                child.wait()
                timed_out = True
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
    output = out_path.read_bytes()
    peak = round(int(peak_path.read_text()) / 1024, 1) if peak_path.exists() else None
    return {
        "exit": None if timed_out else child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mib": peak,
        "out_bytes": len(output),
        "sha256": hashlib.sha256(output).hexdigest(),
        "max_entry_digits": max(map(len, re.findall(rb"\d+", output)), default=0),
    }


def ladder(max_dims: list[int], timeout: float, work: Path) -> list[dict]:
    runs = []
    for max_dim in max_dims:
        for field in FIELDS:
            rung = {"field": field, "max_dim": max_dim}
            document = work / f"{field.replace(':', '')}-{max_dim}.json"
            generate = ["random", "--seed", "1", "--field", field, "--max-dim", str(max_dim), "--length", "3"]
            made = run([*generate, "--ensure", "t2"], document, timeout)
            runs.append({**rung, "command": "random", **made})
            if made["exit"] != 0:
                continue
            rung["dims"] = json.loads(document.read_text())["dims"]
            for theorem in THEOREMS:
                certificate = work / f"{document.stem}-t{theorem}.json"
                built = run(["witness", str(document), "--theorem", str(theorem)], certificate, timeout)
                runs.append({**rung, "command": f"witness --theorem {theorem}", **built})
                if built["exit"] == 0:
                    checked = run(["verify", str(certificate)], work / "verdict.json", timeout)
                    runs.append({**rung, "command": f"verify (theorem {theorem})", **checked})
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("max_dims", nargs="*", type=int, default=[10, 20], metavar="MAX_DIM")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds allowed to each run (default 600)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        runs = ladder(args.max_dims, args.timeout, Path(work))
    machine = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    summary = {"timeout_s": args.timeout, "machine": machine}
    print(json.dumps({**summary, "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
