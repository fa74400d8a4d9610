"""Benchmark command for the GM stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --repeat <N> [--workload <name>|all] [--seed <n>] ...

One run builds its inputs from ``--seed``, sets the system up, measures it
for ``--seconds`` of operation time, checks every answer against the
oracle in ``oracle.py`` and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A detail object
(failures by operation type and error class, sample counts, tail
percentile, the make-up of the answers, span self times) goes to standard
error.  A wrong answer exits 1 naming the pattern, the graph version and
the first bad occurrence; a checkout without the program's sources exits 2.

``--repeat N`` runs each chosen workload (``all``: those of
``BENCHMARK.json``) N times in fresh processes with seeds
``seed .. seed+N-1`` and prints, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median) against
the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("cold_hybrid", "warm_enum", "remote_enum", "mixed_rw")

#: Samples the tail percentile leaves beyond it.
TAIL_BEYOND = 10


def median_ms(samples):
    return statistics.median(samples) * 1000.0


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(workload) -> dict:
    rec = workload.rec
    reads, writes = rec.latency["read"], rec.latency["write"]
    metrics = {
        "setup_s": (statistics.median(workload.setup_seconds), "s"),
        "query_p50_ms": (median_ms(reads), "ms"),
        "query_tail_ms": (tail(reads)[0] * 1000.0, "ms"),
        "queries_per_s": (rec.phase_reads / rec.phase_seconds, "1/s"),
        "matches_per_s": (rec.phase_matches / rec.phase_seconds, "1/s"),
        "write_p50_ms": (median_ms(writes), "ms"),
        "write_tail_ms": (tail(writes)[0] * 1000.0, "ms"),
        "peak_rss_mb": (workload.peak_rss, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(workload) -> dict:
    tracer, probe = workload.tracer, workload.probe

    def spans(name):
        return median_or_zero(tracer.durations_ms(name))

    def noted(name):
        return median_or_zero(probe.counts.get(name, []))

    def paired(name):
        return median_or_zero(probe.pairs.get(name, []))

    wal = workload.wal
    entries = max(1, int(wal.get("journal_entries", 0)))
    checkpoints = max(1, int(wal.get("checkpoints", 0)))
    hits = probe.counts.get("session.rig_hit", [])
    metrics = {
        "reachability.build_ms": (spans("reachability.build"), "ms"),
        "simulation.prefilter_ms": (spans("simulation.prefilter"), "ms"),
        "simulation.fbsim_ms": (spans("simulation.fbsim"), "ms"),
        "simulation.passes": (noted("simulation.passes"), "count"),
        "simulation.kept_ratio": (noted("simulation.kept_ratio"), "ratio"),
        "rig.build_ms": (spans("rig.build"), "ms"),
        "rig.select_ms": (noted("rig.select_ms"), "ms"),
        "rig.expand_ms": (noted("rig.expand_ms"), "ms"),
        "rig.candidates": (noted("rig.candidates"), "count"),
        "rig.edges": (noted("rig.edges"), "count"),
        "matching.order_ms": (spans("matching.order"), "ms"),
        "matching.mjoin_ms": (spans("matching.mjoin"), "ms"),
        "matching.mjoin_candidates": (noted("matching.mjoin_candidates"), "count"),
        "matching.mjoin_intersections": (noted("matching.mjoin_intersections"), "count"),
        "matching.yield_ratio": (noted("matching.yield_ratio"), "ratio"),
        "session.stream_overhead_ms": (paired("session.stream_overhead_ms"), "ms"),
        "session.rig_cache_entries": (noted("session.rig_cache_entries"), "count"),
        "session.rig_hit_ratio": (sum(hits) / max(1, len(hits)), "ratio"),
        "session.patched": (sum(len(r.patched) for r in workload.apply_reports), "count"),
        "session.invalidated": (sum(len(r.invalidated) for r in workload.apply_reports), "count"),
        "service.overhead_ms": (paired("service.overhead_ms"), "ms"),
        "wire.encode_ms": (spans("wire.encode"), "ms"),
        "wire.decode_ms": (spans("wire.decode"), "ms"),
        "wire.bytes_per_match": (noted("wire.bytes_per_match"), "B"),
        "wire.count_roundtrip_ms": (spans("wire.count_roundtrip"), "ms"),
        "routed.overhead_ms": (paired("routed.overhead_ms"), "ms"),
        "store.apply_ms": (spans("store.apply"), "ms"),
        "dynamic.materialize_ms": (spans("dynamic.materialize"), "ms"),
        "wal.journal_ms": (float(wal.get("journal_seconds", 0.0)) * 1000.0 / entries, "ms"),
        "wal.bytes_per_write": (float(wal.get("journal_bytes", 0)) / entries, "B"),
        "wal.checkpoint_ms": (
            float(wal.get("checkpoint_seconds", 0.0)) * 1000.0 / checkpoints, "ms"
        ),
        "gc.gen2_collections": (probe.gc_collections, "count"),
        "gc.pause_ms": (probe.gc_pause * 1000.0, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def detail_of(workload, seconds: float) -> dict:
    rec = workload.rec
    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": workload.traced,
        "seconds": seconds,
        "operations": {
            kind: {
                "attempted": rec.attempted[kind],
                "failed": rec.failed[kind],
                "errors": {
                    key.split(":", 1)[1]: count
                    for key, count in rec.errors.items()
                    if key.startswith(kind + ":")
                },
            }
            for kind in ("read", "write")
        },
        "setup_seconds": [round(s, 4) for s in workload.setup_seconds],
        "phase_seconds": round(rec.phase_seconds, 3),
    }
    for kind in ("read", "write"):
        samples = rec.latency[kind]
        if samples:
            value, percentile = tail(samples)
            detail[f"{kind}_samples"] = len(samples)
            detail[f"{kind}_tail_percentile"] = round(percentile, 2)
            detail[f"{kind}_p50_ms"] = round(median_ms(samples), 3)
    detail.update(workload.detail)
    if workload.traced:
        selfs = workload.tracer.self_times_ms()
        detail["self_ms"] = {name: round(ms, 1) for name, ms in sorted(selfs.items())}
    return detail


def run_once(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program's sources are missing under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    from oracle import AnswerMismatch

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, bool(args.trace))
    try:
        workload.run(args.seconds)
    except AnswerMismatch as exc:
        print(f"WRONG ANSWER in {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        rec = workload.rec
        print(json.dumps({
            "correct": False,
            "attempted": sum(rec.attempted.values()),
            "failed": sum(rec.failed.values()),
            "metrics": {},
        }))
        return 1
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        workload.tracer.write(os.path.join(out, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        metrics = per_layer(workload)
    else:
        metrics = end_to_end(workload)
    print(json.dumps(detail_of(workload, args.seconds)), file=sys.stderr)
    rec = workload.rec
    print(json.dumps({
        "correct": True,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "metrics": metrics,
    }))
    return 0


def repeat(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.workload == "all":
        names = [workload["name"] for workload in spec["workloads"]]
    else:
        names = [args.workload]
    status = 0
    for name in names:
        values = {}
        failed_shares = []
        for index in range(args.repeat):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed + index), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + index}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            failed_shares.append(result["failed"] / result["attempted"])
            for metric, body in result["metrics"].items():
                values.setdefault(metric, []).append(body["value"])
            shown = " ".join(
                f"{metric}={body['value']:.4g}" for metric, body in result["metrics"].items()
            )
            print(f"{name} seed {args.seed + index} ({time.perf_counter() - started:.1f}s): {shown}",
                  flush=True)
        print(f"\n{name}: {args.repeat} runs, failed shares {sorted(set(failed_shares))}")
        print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for metric, samples in values.items():
            if len(samples) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(metric, float("nan"))
            flag = "" if metric == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{metric:<16}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>8.2f}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print the spreads")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("a single run needs --workload <name>")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
