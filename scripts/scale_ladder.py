#!/usr/bin/env python3
"""Time the command-line tool on documents larger than the benchmark's.

For each max-dim given (default 10 and 20) and each field, Q and
F_{2^31-1}, this writes the seed-1 document of ``chaincomm random --length 3
--ensure t2``, builds a certificate with ``witness --theorem N`` for N = 1..4
and re-checks each certificate built with ``verify``.  Every step runs as its
own child process under a timeout.  One JSON object goes to standard output:
per run, the field, max-dim and dims, the command, its exit code (null after
a timeout), wall time, the child's peak resident memory, and the size and
sha256 of what it printed.

    python3 scripts/scale_ladder.py                 # max-dim 10 and 20
    python3 scripts/scale_ladder.py 10 20 40 --timeout 900
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIELDS = ("Q", f"Fp:{2**31 - 1}")
THEOREMS = (1, 2, 3, 4)
POLL_S = 0.005


def run(args: list[str], out_path: Path, timeout: float) -> dict:
    """``python -m chaincomm *args`` with standard output to ``out_path``.
    The child is reaped with ``os.wait4``, whose resource usage is that one
    child's; ``ru_maxrss`` is in KiB on Linux.  Linux counts in a child's
    peak the memory it had before ``exec``, a copy of this process's, so a
    reading is never below what this process held when it started the
    child, which is at most ``launcher_peak_rss_mib``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "chaincomm", *args], stdout=out, stderr=subprocess.DEVNULL, env=env
        )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                # killed before it is reaped, so the pid cannot have been reused
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    output = out_path.read_bytes()
    return {
        "exit": None if timed_out else child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
        "out_bytes": len(output),
        "sha256": hashlib.sha256(output).hexdigest(),
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
    launcher = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    summary = {"timeout_s": args.timeout, "machine": machine, "launcher_peak_rss_mib": launcher}
    print(json.dumps({**summary, "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
