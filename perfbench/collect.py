"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/collect.py --workload q_chain_certify --seeds 1-10 [--trace 1] [--out FILE]

Runs are made one after another, each in a fresh process, with the settings
in BENCHMARK.json.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median; an end-to-end metric whose
spread is not below a third of its bound is flagged.  ``--out`` writes the
raw values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "samples": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        command = [
            *bench["command"],
            *("--workload", args.workload, "--seed", str(seed)),
            *("--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        *text, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, **result, "notes": [line for line in text if " = " not in line]})
        shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:6])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}; {shown}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([run["metrics"][name]["value"] for run in runs])
        summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
        stats = summary[name]
        flag = ""
        if name in bounds and name != "setup_s" and stats["spread"] >= bounds[name] / 3:
            flag = f"  <-- spread not below a third of the bound {bounds[name]}"
        print(
            f"{name:40s} median {stats['median']:.6g}  quartiles {stats['q1']:.6g} .. {stats['q3']:.6g}"
            f"  spread {stats['spread']:.3f}{flag}"
        )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
