#!/usr/bin/env python3
"""Benchmark of the diffgraph pipeline, one workload per process.

    python3 perfbench/run.py --workload pipeline-n32 --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from `src/`.
With `--trace 0` the timed part runs plain and the end-to-end metrics
are reported. With `--trace 1` the public functions of the `cli`,
`pddt`, `graph` and `bench` layers are wrapped from outside the program,
one set-up and one timed pass run traced, and the per-layer metrics are
reported; the spans are written to `perfbench/.work/`. End-to-end times
are scaled to a reference host speed (see hostspeed.py). Every operation's
output is checked against an oracle. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_REPEATS = 5
# Metric names are fixed here, not read from the program, so that they match
# BENCHMARK.json whatever the program under test exports.
EXPORT_FORMATS = ("csv", "graphml", "dot", "cypher")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "pddt.self_s": "s",
    "graph.self_s": "s",
    "bench.self_s": "s",
    "pddt.build_pddt.s": "s",
    "pddt.build_pddt.rows": "rows",
    "pddt.build_pddt.serial_s": "s",
    "pddt.to_csv.s": "s",
    "pddt.to_csv.bytes": "bytes",
    "pddt.from_csv.s": "s",
    "pddt.from_csv.rows": "rows",
    "pddt.from_csv.maxrss_growth_mb": "MB",
    "pddt.sample_pddt.s": "s",
    "pddt.sample_pddt.rows": "rows",
    "graph.build_graph.s": "s",
    "graph.build_graph.edges": "edges",
    "graph.from_csv.s": "s",
    "graph.graph_stats.s": "s",
    "graph.graph_stats.components": "count",
    **{f"graph.export_graph.{fmt}.{key}": unit
       for fmt in EXPORT_FORMATS for key, unit in (("s", "s"), ("bytes", "bytes"))},
    "graph.find_optimal_paths.s": "s",
    "graph.find_optimal_paths.calls": "count",
    "bench.mcs_search.s": "s",
    "bench.compare.s": "s",
    "bench.compare.with_path": "count",
    "bench.mcs_search.optimal_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args, workload, pddt) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "builder_workers": min(pddt.resolve_workers(None), nproc),
        "sizes": workload.sizes(),
    }


def end_to_end(workload, ops_cls, seconds: float):
    """Set-up several times (median), then timed passes until `seconds`
    have passed, checks and failed operations included. Times are taken
    at the reference host speed (see hostspeed.py)."""
    import hostspeed

    with hostspeed.HostClock() as clock:
        setups, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            _, wall, scaled = clock.time(workload.setup)
            setups.append(scaled)
            setups_wall.append(wall)
        workload.check_setup()
        ops = ops_cls(clock=clock)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            first = len(ops.latencies)
            workload.run_pass(ops)
            passes.append(sum(ops.latencies[first:]))
        measured_s = time.perf_counter() - start
    requests = passes if workload.request_is_pass else ops.latencies
    lat_ms = [x * 1000.0 for x in requests] or [0.0]
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(passes),
        "peak_rss_mb": peak_rss_mb(),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                         if len(lat_ms) > 1 else lat_ms[0]),
        "queries_per_s": len(lat_ms) / sum(lat_ms) * 1000.0 if sum(lat_ms) else 0.0,
    }
    info = {"setups_s": setups, "setups_wall_s": setups_wall, "passes_s": passes,
            "passes_wall_s": ops.wall_s, "requests": len(requests),
            "operations": ops.attempted, "measured_s": measured_s}
    return values, ops, info


def per_layer(workload, program, spans_path: Path):
    """One set-up and one timed pass with the layer functions of `program`
    (the module holding cli, pddt, graph and bench) wrapped."""
    import tracing

    pddt = program.pddt
    tracer = tracing.Tracer()
    targets = tracing.layer_targets(program.cli, pddt, program.graph, program.bench)
    try:
        if workload.trace_setup:
            tracer.install(targets)
            workload.setup()
        else:
            workload.setup()
            tracer.install(targets)
        workload.check_setup()
        ops = program.Ops(tracer)
        workload.run_pass(ops)
    finally:
        tracer.uninstall()
    pass_s = sum(ops.latencies)
    t0 = time.perf_counter()
    pddt.build_pddt(pddt.PddtConfig(workload.n, workload.threshold), workers=1)
    serial_s = time.perf_counter() - t0
    overhead_s = tracing.wrapper_cost() * len(tracer.spans)
    tracer.write(spans_path)

    summary = tracing.summarise(tracer.spans)

    def get(name, key="s"):
        return summary[name][key] if name in summary else 0.0

    def layer_self(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    values = {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.bytes_written": ops.bytes_written,
        "pddt.self_s": layer_self("pddt"),
        "graph.self_s": layer_self("graph"),
        "bench.self_s": layer_self("bench"),
        "pddt.build_pddt.serial_s": serial_s,
        "bench.mcs_search.optimal_ratio": (get("bench.compare", "optimal")
                                           / get("bench.compare", "with_path")
                                           if get("bench.compare", "with_path") else 0.0),
        "trace.pass_s": pass_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        if name not in values:
            span, _, key = name.rpartition(".")
            values[name] = get(span, key)
    info = {"overhead_share": overhead_s / pass_s if pass_s else 0.0}
    return values, ops, info


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from src/: {exc}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            values, ops, info = per_layer(workload, workloads, spans_path)
            units = PER_LAYER
        else:
            values, ops, info = end_to_end(workload, workloads.Ops, args.seconds)
            units = END_TO_END
        env = fingerprint(args, workload, workloads.pddt)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6g} {unit}")
    print(f"{'error_rate':36s} {ops.failed / max(ops.attempted, 1):>16.6g} "
          f"({ops.failed} failed / {ops.attempted} attempted)")
    for error in ops.errors[:20]:
        print(f"FAILED {error}")
    print(json.dumps({"fingerprint": env, **info}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
