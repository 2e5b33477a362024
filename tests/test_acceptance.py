"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import hashlib
import itertools
import random
import time

from conftest import make_hub_sample, node_rows, triple_set
from diffgraph.bench import (
    McsConfig,
    build_fig_tree_fixture,
    compare,
    leaf_paths,
    min_weight_leaf_path,
    mcs_search,
)
from diffgraph.differential import brute_force_dp, differential_weight, is_valid_differential
from diffgraph.graph import (
    build_graph,
    default_edge_rule,
    export_graph,
    find_optimal_paths,
    graph_stats,
)
from diffgraph.pddt import PddtConfig, SampleSpec, build_pddt, partial_dp, sample_pddt
from diffgraph.simon import WordState, all_variants, feistel_round, feistel_round_inverse


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title} "
                  f"({time.perf_counter() - t0:.1f}s)")
        return run
    return wrap


@criterion(1, "oracle equivalence of validity and weight at n=4 (exhaustive) and n=8")
def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    for a, b, c in itertools.product(range(16), repeat=3):
        dp = brute_force_dp(a, b, c, 4)
        assert is_valid_differential(a, b, c, 4) == (dp > 0)
        if dp > 0:
            assert 2.0 ** -differential_weight(a, b, c, 4) == dp
    rng = random.Random("acceptance-n8")
    for _ in range(10_000):
        a, b, c = (rng.getrandbits(8) for _ in range(3))
        dp = brute_force_dp(a, b, c, 8)
        assert is_valid_differential(a, b, c, 8) == (dp > 0)
        if dp > 0:
            assert 2.0 ** -differential_weight(a, b, c, 8) == dp
    assert time.perf_counter() - t0 < 60


@criterion(2, "PDDT at n=4 equals the oracle-filtered exhaustive set")
def test_criterion_2_pddt_correctness():
    t0 = time.perf_counter()
    for threshold in (0.5, 0.25, 0.1):
        table = build_pddt(PddtConfig(4, threshold))
        oracle = {
            (a, b, c)
            for a, b, c in itertools.product(range(16), repeat=3)
            if brute_force_dp(a, b, c, 4) >= threshold
        }
        assert triple_set(table) == oracle
    assert time.perf_counter() - t0 < 10


@criterion(3, "partial probabilities non-increasing over every n=8 table entry")
def test_criterion_3_monotonicity():
    t0 = time.perf_counter()
    table = build_pddt(PddtConfig(8, 0.1))
    for _i, a, b, c, hw in node_rows(table):
        probs = [
            partial_dp(a & ((1 << k) - 1), b & ((1 << k) - 1),
                       c & ((1 << k) - 1), k)
            for k in range(9)
        ]
        assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))
        assert probs[8] == 2.0 ** -hw
    assert time.perf_counter() - t0 < 60


@criterion(4, "published element count 3,951,388 at threshold 0.1 (n=32), "
              "and the bytes of that table")
def test_criterion_4_published_count():
    t0 = time.perf_counter()
    table = build_pddt(PddtConfig(32, 0.1))
    count_32 = len(table)
    digest_32 = hashlib.sha256(table.to_csv()).hexdigest()
    del table
    count_16 = len(build_pddt(PddtConfig(16, 0.1)))
    print(f"  threshold 0.1 counts: n=32 -> {count_32}, n=16 probe -> {count_16}")
    assert count_32 == 3_951_388
    assert digest_32 == "1f6e78320340efe58704d76b03e9742f9f65db1eb9a5bf4f680f92e7bae0d7d3"
    assert time.perf_counter() - t0 < 600


@criterion(5, "240-node fixture yields 960 edges and 4 hubs of in-degree 240")
def test_criterion_5_graph_figure():
    t0 = time.perf_counter()
    graph = build_graph(make_hub_sample(240, 4), default_edge_rule())
    assert len(graph.columns.ids) == 240
    assert len(graph.edges) == 960
    stats = graph_stats(graph)
    assert len(stats.hubs) == 4
    assert all(stats.in_degree[h] == 240 for h in stats.hubs)
    assert all(graph.dp[h] == 0.5 for h in stats.hubs)
    assert time.perf_counter() - t0 < 1


@criterion(6, "threshold-0.1 tables keep probabilities within [0.125, 1]")
def test_criterion_6_weight_range():
    for n in (4, 8):
        table = build_pddt(PddtConfig(n, 0.1))
        dps = [2.0 ** -hw for *_, hw in node_rows(table)]
        assert min(dps) == 0.125
        assert max(dps) == 1.0
        assert all(0.125 <= dp <= 1.0 for dp in dps)


@criterion(7, "toy-tree walks hit total probability <= 1 half the time; "
              "deterministic search finds the minimum-probability leaf path")
def test_criterion_7_tree_statistics():
    t0 = time.perf_counter()
    graph = build_fig_tree_fixture()
    report = mcs_search(graph, 0, McsConfig(playouts=10_000, seed=2024, max_depth=4))
    frac = sum(1 for t in report.walk_totals if t <= 1.0) / len(report.walk_totals)
    assert abs(frac - 0.50) <= 0.03
    expected = min(leaf_paths(graph, 0), key=lambda p: (p.total_dp, p.node_sequence))
    for _ in range(5):
        assert min_weight_leaf_path(graph, 0) == expected
    assert expected.node_sequence == (0, 1, 3)
    assert time.perf_counter() - t0 < 10


@criterion(8, "byte-identical artifacts across repeated runs and worker counts 1 and 4")
def test_criterion_8_determinism():
    cfg = PddtConfig(8, 0.1)
    csvs = {build_pddt(cfg, workers=w).to_csv() for w in (1, 4, 1, 4)}
    assert len(csvs) == 1
    table = build_pddt(PddtConfig(4, 0.1))
    samples = {sample_pddt(table, SampleSpec(0.05, True, 42)).to_csv() for _ in range(2)}
    assert len(samples) == 1
    graph = build_graph(make_hub_sample(240, 4), default_edge_rule())
    for fmt in ("csv", "graphml", "dot", "cypher"):
        assert export_graph(graph, fmt) == export_graph(graph, fmt)


@criterion(9, "deterministic search dominates 1,000 playouts; 240-node "
              "build+query under one second")
def test_criterion_9_dominance_and_speed():
    from conftest import make_diamond, make_two_node_graph
    fixtures = [
        (make_diamond(), 0, 3),
        (make_two_node_graph(), 0, 1),
        (build_fig_tree_fixture(), 0, 3),
        (build_graph(make_hub_sample(240, 4), default_edge_rule()), 10, 2),
    ]
    for graph, src, dst in fixtures:
        mcs_report, graph_report = compare(graph, src, dst,
                                           McsConfig(playouts=1000, seed=17, max_depth=4))
        if mcs_report.best_path is not None:
            assert graph_report.best_path.rank_key <= mcs_report.best_path.rank_key
    t0 = time.perf_counter()
    graph = build_graph(make_hub_sample(240, 4), default_edge_rule())
    find_optimal_paths(graph, 10, 2, max_hops=3, limit=10)
    assert time.perf_counter() - t0 < 1


@criterion(10, "Feistel round inverts over 10,000 seeded states per variant")
def test_criterion_10_cipher_roundtrip():
    for params in all_variants():
        n = params.word_size
        rng = random.Random(f"acceptance-roundtrip:{n}:{params.key_words}")
        for _ in range(10_000):
            s = WordState(rng.getrandbits(n), rng.getrandbits(n))
            k = rng.getrandbits(n)
            assert feistel_round_inverse(feistel_round(s, k, n), k, n) == s
