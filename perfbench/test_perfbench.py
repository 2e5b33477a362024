"""Tests of the benchmark itself: its oracles, its failure counting and its tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from workloads import GraphWorkload, Ops, PipelineWorkload, SearchWorkload

HERE = Path(__file__).resolve().parent


def small_pipeline(tmp_path, seed=3):
    return PipelineWorkload(seed, tmp_path / "work", n=8, fraction=0.1, warmup_n=4)


def small_graph(tmp_path, seed=3):
    return GraphWorkload(seed, tmp_path / "g", n=8, fraction=0.2, target_class=0x80)


def run_once(workload):
    workload.setup()
    workload.check_setup()
    ops = Ops()
    workload.run_pass(ops)
    return ops


def test_histogram_oracle_matches_published_count():
    published = checks.PUBLISHED_HISTOGRAMS[(32, 0.1)]
    assert checks.weight_histogram(32, 0.1) == published
    assert sum(published.values()) == 3_951_388


@pytest.mark.parametrize("n,threshold", [(3, 1.0), (4, 0.1), (5, 0.03), (5, 0.3)])
def test_histogram_oracle_matches_enumeration(n, threshold):
    limit = checks.max_weight(threshold)
    counts = {}
    for a, b, c in product(range(1 << n), repeat=3):
        w = checks.lm_weight(a, b, c, n)
        if w is not None and w <= limit:
            counts[w] = counts.get(w, 0) + 1
    assert checks.weight_histogram(n, threshold) == dict(sorted(counts.items()))


def test_correct_program_passes_every_check(tmp_path):
    ops = run_once(small_pipeline(tmp_path))
    assert (ops.attempted, ops.errors) == (6, [])
    graph_workload = small_graph(tmp_path)
    ops = run_once(graph_workload)
    assert (ops.attempted, ops.errors) == (6, [])
    assert graph_workload.sets.edges > 0
    search = SearchWorkload(3, tmp_path / "s", n=8, playouts=50, batch=10)
    ops = run_once(search)
    assert (ops.attempted, ops.errors) == (10, [])
    assert search.sets.sizes()["both"] > 0


def test_dropped_table_row_is_a_failed_operation(tmp_path, monkeypatch):
    original = workloads.pddt.Pddt.to_csv

    def drop_last_row(self):
        data = original(self)
        return data[: data.rstrip(b"\n").rfind(b"\n") + 1]

    monkeypatch.setattr(workloads.pddt.Pddt, "to_csv", drop_last_row)
    ops = run_once(small_pipeline(tmp_path))
    assert ops.attempted == 6
    assert ops.failed == 1 and ops.errors[0].startswith("pddt build: CheckFailed")


def test_wrong_edge_count_is_a_failed_operation(tmp_path, monkeypatch):
    original = workloads.graph.graph_stats

    def one_edge_too_many(g):
        stats = original(g)
        return dataclasses.replace(stats, edge_count=stats.edge_count + 1)

    monkeypatch.setattr(workloads.graph, "graph_stats", one_edge_too_many)
    ops = run_once(small_graph(tmp_path))
    assert ops.failed == 1 and ops.errors[0].startswith("graph stats: CheckFailed")


def test_dropped_export_line_is_a_failed_operation(tmp_path, monkeypatch):
    original = workloads.graph.to_cypher
    monkeypatch.setattr(workloads.graph, "to_cypher",
                        lambda g: original(g).rsplit(b"\n", 2)[0] + b"\n")
    ops = run_once(small_pipeline(tmp_path))
    assert ops.failed == 1 and ops.errors[0].startswith("graph export cypher: CheckFailed")


def test_missed_path_is_a_failed_query(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.bench, "find_optimal_paths", lambda *args, **kwargs: [])
    ops = run_once(SearchWorkload(3, tmp_path / "s", n=8, playouts=50, batch=10))
    # every second query has a one-hop answer; the others have none
    assert ops.attempted == 10 and ops.failed == 5


def test_exception_and_exit_code_are_failed_operations(tmp_path):
    ops = Ops()
    ops.run("raises", lambda: 1 / 0, lambda result: None)
    ops.cli("bad flag", ["pddt", "build", "--no-such-flag"], [])
    ops.cli("missing input", ["pddt", "stats", "--input", tmp_path / "absent.csv"], [])
    assert ops.attempted == 3 and ops.failed == 3


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    search = SearchWorkload(3, tmp_path / "s", n=8, playouts=20, batch=2)
    modules = (workloads.cli, workloads.pddt, workloads.graph, workloads.bench)
    targets = tracing.layer_targets(*modules)
    before = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        ops = run_once(search)
        run_once(small_pipeline(tmp_path))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == before
    assert ops.failed == 0
    names = [s[0] for s in tracer.spans]
    parent = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans) if s[3] is not None}
    # bench binds find_optimal_paths by name; cli reaches pddt via module attributes
    assert parent[names.index("graph.find_optimal_paths")] == "bench.graph_guided_search"
    assert parent[names.index("bench.mcs_search")] == "bench.compare"
    assert parent[names.index("pddt.from_csv")] == "cli.main"
    summary = tracing.summarise(tracer.spans)
    assert summary["bench.compare"]["calls"] == 3
    # search set-up at n=8, pipeline warm-up at n=4 and chain at n=8
    rows = [sum(checks.weight_histogram(n, 0.1).values()) for n in (8, 4, 8)]
    assert summary["pddt.build_pddt"]["rows"] == sum(rows)
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["s"] + 1e-9


def test_tracer_refuses_a_function_the_program_no_longer_has():
    class Layer:
        def kept(self):
            return [1, 2]

    kept = Layer.__dict__["kept"]
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="layer.removed"):
        tracer.install([(Layer, "kept", "layer.kept", tracing._rows, False),
                        (Layer, "removed", "layer.removed", None, False)])
    assert Layer.__dict__["kept"] is kept


def test_a_result_the_tracer_cannot_count_fails_the_operation():
    class Layer:
        def kept(self):
            return [1, 2]

    tracer = tracing.Tracer()
    tracer.install([(Layer, "kept", "layer.kept", lambda r: {"x": r.missing}, False)])
    try:
        ops = Ops(tracer)
        ops.run("kept", Layer().kept, lambda result: None)
    finally:
        tracer.uninstall()
    assert ops.failed == 1 and "AttributeError" in ops.errors[0]


def test_operations_that_always_fail_still_end_the_run(tmp_path):
    class Failing(workloads.Workload):
        name = "failing"

        def setup(self):
            pass

        def run_pass(self, ops):
            ops.run("raises", lambda: 1 / 0, lambda result: None)

    _values, ops, _info = run.end_to_end(Failing(1, tmp_path, 4, 0.1), Ops, 0.05)
    assert ops.attempted >= 1 and ops.failed == ops.attempted


def test_clock_scales_wall_time_by_host_speed(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_PROBE_S)
    with hostspeed.HostClock() as clock:
        ops = Ops(clock=clock)
        ops.run("sleep", lambda: time.sleep(0.05), lambda result: None)
    # a host at half the reference speed: the time counts half
    assert ops.latencies[0] == pytest.approx(ops.wall_s / 2)
    assert ops.wall_s >= 0.05


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, None, "1", {}], ["b", 1.0, 4.0, 0, "1", {}],
             ["c", 5.0, 6.0, 0, "1", {}], ["d", 2.0, 3.0, 1, "1", {}]]
    summary = tracing.summarise(spans)
    assert summary["a"]["self_s"] == 6.0 and summary["b"]["self_s"] == 2.0


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search-n12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
