"""Run one workload of the provql benchmark and print its metrics.

    python3 perfbench/run.py --workload nested --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run it from the root of a checkout; it imports provql from `src/`.  The
last line of standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / "perfbench" / "out"
# Set-up runs this many times per untraced run; setup_s is their median.
SETUPS = 5


def _metrics(spec: dict, group: str, values: dict[str, float]) -> dict:
    names = [m["name"] for m in spec[group]]
    missing = set(names) ^ set(values)
    if missing:
        raise RuntimeError(f"{group} metrics out of step with BENCHMARK.json: {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from perfbench import harness, workloads
    from perfbench.tracing import layer_metrics

    workload = workloads.WORKLOADS[name]()
    inputs = workload.inputs(seed)
    probe = harness.SpeedProbe()
    if not trace:
        state, wall_setups, setups = harness.timed_setups(
            lambda: workload.setup(inputs), workloads.State.close, SETUPS, probe
        )
        tally = harness.measure(workload.rounds(state, inputs), seconds, probe)
        values = {
            "query_p50_ms": harness.p50(tally.query_ms),
            "query_p90_ms": harness.p90(tally.query_ms),
            "throughput_ops_s": tally.throughput(),
            "setup_s": harness.p50(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _metrics(spec, "end_to_end", values)
        print(
            f"wall clock: query_p50_ms {harness.p50(tally.wall_query_ms):.4f}, "
            f"query_p90_ms {harness.p90(tally.wall_query_ms):.4f}, "
            f"throughput_ops_s {tally.attempted / tally.busy_s:.4f}, "
            f"setup_s {harness.p50(wall_setups):.4f}"
        )
    else:
        # The first half of the time runs untraced and the second traced, on
        # one op stream in whole rounds, so the difference of their mean
        # query op times is the tracing overhead.
        state = workload.setup(inputs)
        harness.settle()
        rounds = workload.rounds(state, inputs)
        plain = harness.measure(rounds, seconds / 2, probe, min_queries=0)
        tally, tracer = harness.measure_traced(
            state, rounds, seconds / 2, probe, first_op=plain.attempted
        )
        values = layer_metrics(
            tracer, tally.ops(harness.QUERY), tally.ops(harness.WRITE), tally.speed
        )
        values["trace.query_p50_ms"] = harness.p50(tally.query_ms)
        values["trace.overhead_ms"] = statistics.fmean(tally.query_ms) - statistics.fmean(plain.query_ms)
        metrics = _metrics(spec, "per_layer", values)
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{name}-{seed}.jsonl.gz"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.start)} in {spans.relative_to(ROOT)}")
        tally.add(plain)
    state.close()
    probe.close()

    sizes = " ".join(f"{t}={n}" for t, n in workloads.table_sizes(state.db).items())
    print(f"workload {name}: seed {seed}, data seed {inputs['data_seed']}, {sizes}")
    print(
        f"ops {tally.attempted} (query {len(tally.query_ms)}, write {len(tally.write_ms)}), "
        f"checked {tally.checked}, failed {tally.failed}, "
        f"error_rate {tally.failed / tally.attempted:.4g}, op time {tally.busy_s:.2f} s wall"
    )
    print(
        f"speed probe: median {harness.p50(tally.probe_s) * 1000:.4f} ms, "
        f"reference {harness.REFERENCE_PROBE_S * 1000:.4f} ms"
    )
    if tally.write_ms:
        print(
            f"write_p50_ms {harness.p50(tally.write_ms):.4f} ms, "
            f"write_p90_ms {harness.p90(tally.write_ms):.4f} ms "
            f"(wall clock {harness.p50(tally.wall_write_ms):.4f}, {harness.p90(tally.wall_write_ms):.4f})"
        )
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:12.4f} {m['unit']}")
    for error in tally.errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own process, then one table."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[w["name"]] = json.loads(lines[-1])
    names = list(results)
    metrics = list(results[names[0]]["metrics"])
    print(f"\n{'metric':28s} {'unit':>10s}" + "".join(f"{n:>14s}" for n in names))
    for metric in metrics:
        unit = results[names[0]]["metrics"][metric]["unit"]
        row = "".join(f"{results[n]['metrics'][metric]['value']:14.4f}" for n in names)
        print(f"{metric:28s} {unit:>10s}{row}")
    rates = "".join(f"{r['failed'] / r['attempted']:14.4f}" for r in results.values())
    print(f"{'error_rate':28s} {'1':>10s}{rates}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "provql" / "__init__.py").is_file():
        print(f"perfbench: no provql sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
