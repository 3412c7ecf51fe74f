"""The chaincomm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop client on one thread: the next request starts
when the previous one has finished.  Requests come a round at a time from the
workload's seeded stream; building a round (instance generation, certificate
prebuilding) is set-up and is timed apart from the requests.

``--trace 0`` serves requests until S seconds of request time and at least
MIN_REQUESTS requests have passed, and reports the end-to-end metrics.
``--trace 1`` serves a fixed number of rounds twice, untraced and then with
every layer of the package wrapped, so that its counts repeat exactly for a
seed; it reports the per-layer metrics and writes the spans to
``perfbench/out/``.  Either way the last line of standard output is one JSON
object, every wrong answer counts as failed, and any failure makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"  # names and units of the metrics
MIN_REQUESTS = 100  # latency_p90_ms then has at least ten samples beyond it
WALL_CAP_S = 150.0  # stay inside the 180 s a run may take, however slow the code


class Pass:
    """Requests served in one pass, and what the metrics need of their outcomes;
    no request or certificate text is kept, so peak memory is the program's."""

    def __init__(self, bits: bool = False) -> None:
        self.latencies: list[float] = []
        self.sizes: list[int] = []
        self.complex_ids: list = []
        self.endomorphism_ids: list = []
        self.tampered = 0
        self.failed = 0
        self.violations = 0
        self.bytes_parsed = 0
        self.max_bits = 0 if bits else None
        self.digest = hashlib.sha256()

    def serve(self, workload, request, tracer=None) -> float:
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = workload.serve(request)
            else:
                with tracer.span("request"):
                    raw = workload.serve(request)
            elapsed = time.perf_counter() - start
            outcome = workload.judge(request, raw)
        except Exception:  # a crash is a failed request, not the end of the run
            elapsed = time.perf_counter() - start
            outcome = None
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
        self.latencies.append(elapsed)
        self.complex_ids.append(request.complex_id)
        self.endomorphism_ids.append(request.endomorphism_id)
        self.tampered += request.tampered
        if outcome is None or not outcome.ok:
            self.failed += 1
            if outcome is not None and self.failed <= 3:
                print(f"failed request {len(self.latencies) - 1}: {outcome.reason}", file=sys.stderr)
        if outcome is None:
            self.digest.update(b"<crash>")
            return elapsed
        self.sizes.append(len(outcome.certificate.encode()))
        self.violations += outcome.violations
        self.bytes_parsed += outcome.bytes_parsed
        if self.max_bits is not None:
            self.max_bits = max(self.max_bits, cert_max_bits(outcome.certificate))
        self.digest.update(outcome.certificate.encode())
        return elapsed


def reuse_share(ids: list) -> tuple[int, int]:
    """Requests whose complex (or endomorphism) an earlier request had."""
    seen, again = set(), 0
    for ident in ids:
        again += ident in seen
        seen.add(ident)
    return again, len(ids)


def measured_run(workload, seconds: float) -> dict:
    run = Pass()
    setup_s: list[float] = []
    busy = 0.0
    wall_start = time.perf_counter()

    def done() -> bool:
        enough = busy >= seconds and len(run.latencies) >= MIN_REQUESTS
        return enough or time.perf_counter() - wall_start > WALL_CAP_S

    while not done():
        start = time.perf_counter()
        batch = workload.next_round()
        setup_s.append(time.perf_counter() - start)
        for request in batch:
            busy += run.serve(workload, request)
            if done():
                break

    attempted = len(run.latencies)
    sizes = run.sizes
    metrics = {
        "throughput_rps": (attempted - run.failed) / busy,
        "latency_p50_ms": statistics.median(run.latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(run.latencies, n=10)[8] * 1000,
        "cert_kib_mean": statistics.fmean(sizes) / 1024 if sizes else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s),
    }
    lines = [
        f"requests {attempted}, failed {run.failed}, failed_ratio {run.failed / attempted:.4f} ({run.failed}/{attempted})",
        f"request time {busy:.2f} s; set-up rounds {len(setup_s)}, {sum(setup_s):.2f} s in all",
        f"latency samples {attempted}; setup_s is the median of {len(setup_s)} rounds",
    ]
    if run.complex_ids[0] is not None:
        c_again, n = reuse_share(run.complex_ids)
        e_again, _ = reuse_share(run.endomorphism_ids)
        lines.append(f"complex reuse {c_again / n:.3f} ({c_again}/{n}), endomorphism reuse {e_again / n:.3f} ({e_again}/{n})")
    else:
        lines.append(f"tampered share {run.tampered / attempted:.3f} ({run.tampered}/{attempted})")
    lines.append(f"certificate digest sha256:{run.digest.hexdigest()}")
    return {"attempted": attempted, "failed": run.failed, "correct": run.failed == 0, "metrics": metrics, "lines": lines}


def _entry_bits(value) -> int:
    if isinstance(value, list):
        return max((_entry_bits(v) for v in value), default=0)
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return max(abs(int(num)).bit_length(), int(den or 1).bit_length())
    return value.bit_length()


def cert_max_bits(certificate: str) -> int:
    doc = json.loads(certificate)
    matrices = [doc["differentials"], doc["endomorphism"]]
    matrices += [v for w in doc.get("witnesses", ()) for k, v in w.items() if k != "type"]
    return _entry_bits(matrices)


def traced_run(make_workload, seed: int, trace_path: Path) -> dict:
    from tracer import BUILDER_SPANS, Tracer

    def pool_of(workload) -> list:
        return [r for _ in range(workload.traced_rounds) for r in workload.next_round()]

    plain = make_workload(seed)
    plain_pool = pool_of(plain)
    untraced = Pass()
    for request in plain_pool:
        untraced.serve(plain, request)

    tracer = Tracer()
    tracer.install()
    try:
        workload = make_workload(seed)
        with tracer.span("setup"):
            pool = pool_of(workload)
        setup_end = len(tracer.spans)
        setup_counts = dict(tracer.counts)
        traced = Pass(bits=True)
        for request in pool:
            traced.serve(workload, request, tracer)
    finally:
        tracer.uninstall()

    stats = tracer.span_stats(setup_end)
    counts = {k: v - setup_counts.get(k, 0) for k, v in tracer.counts.items()}
    request_spans = range(setup_end, len(tracer.spans))

    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    def total(*names: str) -> float:
        return sum(stats.get(n, {}).get("total_s", 0.0) for n in names)

    def outermost(indices, prefix: str) -> list[int]:
        return [
            i
            for i in indices
            if tracer.spans[i][0].startswith(prefix) and not tracer.has_ancestor(i, lambda n: n.startswith(prefix))
        ]

    def duration(indices) -> float:
        return sum(tracer.spans[i][2] - tracer.spans[i][1] for i in indices)

    verify_spans = outermost(request_spans, "verify.")
    generate_spans = outermost(range(setup_end), "generate.")
    cb_rref = sum(
        1
        for i in request_spans
        if tracer.spans[i][0] == "linalg.rref" and tracer.has_ancestor(i, lambda n: n == "linalg.complement_basis")
    )
    invertible_calls = calls("linalg.is_invertible")
    overhead = sum(traced.latencies) / sum(untraced.latencies)
    values = {
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": total("linalg.rref"),
        "linalg.rref_cells": counts.get("linalg.rref_cells", 0),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.complement_basis_s": total("linalg.complement_basis"),
        "linalg.complement_basis_rref_calls": cb_rref,
        "linalg.solve_linear_s": total("linalg.solve_linear"),
        "linalg.is_invertible_true_ratio": (
            counts.get("linalg.is_invertible_true", 0) / invertible_calls if invertible_calls else 0.0
        ),
        "matrices.matmul_calls": calls("matrices.Matrix.__mul__"),
        "matrices.matmul_s": total("matrices.Matrix.__mul__"),
        "matrices.matmul_madds": counts.get("matrices.matmul_madds", 0),
        "matrices.constructed": counts.get("matrices.Matrix.__init__", 0),
        "fields.normalize_calls": counts.get("fields.Rationals.normalize", 0) + counts.get("fields.PrimeField.normalize", 0),
        "fields.cert_max_bits": traced.max_bits,
        "witnesses.build_self_s": sum(stats.get(n, {}).get("self_s", 0.0) for n in BUILDER_SPANS),
        "witnesses.select_separated_pairs_s": total("witnesses.select_separated_pairs"),
        "witnesses.commutator_decomposition_calls": calls("witnesses.commutator_decomposition"),
        "witnesses.commutator_decomposition_s": total("witnesses.commutator_decomposition"),
        "witnesses.zero_diagonal_basis_s": total("witnesses.zero_diagonal_basis"),
        "witnesses.sylvester_solve_calls": calls("linalg.sylvester_solve"),
        "splitting.split_complex_calls": calls("splitting.split_complex"),
        "splitting.split_complex_s": total("splitting.split_complex"),
        "splitting.extract_assemble_s": total("splitting.extract_blocks", "splitting.assemble"),
        "complexes.trace_report_s": total("complexes.trace_report"),
        "complexes.induced_cohomology_map_s": total("complexes.induced_cohomology_map"),
        "complexes.validate_chain_map_calls": calls("complexes.validate_chain_map"),
        "complexes.validate_chain_map_s": total("complexes.validate_chain_map"),
        "jsonio.parse_calls": calls("jsonio.parse_document"),
        "jsonio.parse_s": total("jsonio.parse_document"),
        "jsonio.serialize_s": total("jsonio.serialize_document"),
        "jsonio.bytes_parsed": traced.bytes_parsed,
        "verify.calls": len(verify_spans),
        "verify.verify_s": duration(verify_spans),
        "verify.violations_found": traced.violations,
        "generate.instances_s": duration(generate_spans),
        "trace.overhead_ratio": overhead,
    }

    same_pool = [r.text for r in plain_pool] == [r.text for r in pool]
    same_certificates = untraced.digest.digest() == traced.digest.digest()
    failed = traced.failed + untraced.failed + (not same_pool) + (not same_certificates)
    lines = [
        f"traced requests {len(pool)} in {sum(traced.latencies):.2f} s; untraced {sum(untraced.latencies):.2f} s",
        f"pool identical: {same_pool}; certificates identical: {same_certificates}",
        f"certificate digest sha256:{traced.digest.hexdigest()}",
        "self time by span (top 12):",
    ]
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    lines += [f"  {n:48s} calls {s['calls']:8d}  self {s['self_s']:8.3f} s  total {s['total_s']:8.3f} s" for n, s in ranked]
    tracer.dump(trace_path, {"setup_end": setup_end, "self_time": stats, "counts": counts, "metrics": values})
    lines.append(f"spans written to {trace_path.relative_to(HERE.parent)}")
    return {"attempted": len(pool), "failed": failed, "correct": failed == 0, "metrics": values, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chaincomm" / "__init__.py").is_file():
        print(f"perfbench: the chaincomm sources are missing ({SRC / 'chaincomm'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        result = traced_run(make, args.seed, trace_path)
    else:
        result = measured_run(make(args.seed), args.seconds)

    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result["lines"]:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    summary = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
