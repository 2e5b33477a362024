import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import any_digraphs, dense_digraphs, make_diamond, make_two_node_graph, node_rows
from diffgraph import bench
from diffgraph.bench import (
    DominanceError,
    McsConfig,
    SearchReport,
    build_fig_tree_fixture,
    compare,
    graph_guided_search,
    leaf_paths,
    mcs_search,
    min_weight_leaf_path,
)
from diffgraph.graph import DiffGraph, PathResult, to_nodes_csv, to_edges_csv
from diffgraph.pddt import node_columns
from diffgraph.simon import ParameterError


def reference_leaf_paths(graph, root):
    """Every path from root that no unvisited successor extends, by a
    recursive depth-first walk over ids, its totals summed from the root."""
    successors = {u: [] for u in graph.columns.ids.tolist()}
    for src, dst, _label in graph.edges:
        if dst not in successors[src]:
            successors[src].append(dst)
    dp_of = {node_id: 2.0 ** -hw for node_id, *_, hw in node_rows(graph.columns)}
    results = []

    def walk(path, total):
        succ = [v for v in sorted(successors[path[-1]]) if v not in path]
        if not succ:
            results.append(PathResult(tuple(path), total))
        for v in succ:
            walk(path + [v], total + dp_of[v])

    walk([root], dp_of[root])
    return results


def reference_mcs(graph, start, config):
    """(best_path, trace, walk_totals) of playouts that choose among the
    unvisited successors listed in full at every step."""
    successors = {u: [] for u in graph.columns.ids.tolist()}
    for src, dst, _label in graph.edges:
        successors[src].append(dst)
    dp_of = {i: 2.0 ** -hw for i, *_, hw in node_rows(graph.columns)}
    best, trace, walk_totals = None, [], []
    rng = random.Random(f"mcs:{config.seed}")
    for i in range(config.playouts):
        path, visited, total = [start], {start}, dp_of[start]
        while len(path) - 1 < config.max_depth:
            options = [v for v in sorted(set(successors[path[-1]])) if v not in visited]
            if not options:
                break
            nxt = rng.choice(options)
            path.append(nxt)
            visited.add(nxt)
            total += dp_of[nxt]
        walk_totals.append(total)
        target = config.target_node
        if target is not None:
            path = path[: path.index(target) + 1] if target in path else None
        if path is not None and len(path) > 1:
            cand = PathResult(tuple(path), sum(dp_of[u] for u in path))
            if best is None or cand.rank_key < best.rank_key:
                best = cand
        trace.append(best)
    return best, trace, walk_totals


def exact_hit_probability(graph, start, target, max_depth):
    """Chance that one uniform playout from start reaches target in 1 to
    max_depth hops, by recursion over (node, visited set)."""
    successors = {u: set() for u in graph.columns.ids.tolist()}
    for src, dst, _label in graph.edges:
        successors[src].add(dst)

    @lru_cache(maxsize=None)
    def hit(node, visited):
        if node == target and len(visited) > 1:
            return Fraction(1)
        options = successors[node] - visited
        if len(visited) - 1 == max_depth or not options:
            return Fraction(0)
        return sum(hit(v, visited | {v}) for v in options) / len(options)

    return hit(start, frozenset([start]))


def complete_bipartite(s_ids, t_ids):
    """Every s in S has an edge to every t in T; S and T are disjoint."""
    nodes = [(i, i, i, 0, 1) for i in (*s_ids, *t_ids)]
    edges = [(s, t, "E") for s in s_ids for t in t_ids]
    return DiffGraph(node_columns(nodes, 8), edges)


class TestFixture:
    def test_half_of_leaf_paths_at_most_one(self):
        g = build_fig_tree_fixture()
        paths = leaf_paths(g, 0)
        assert len(paths) == 4
        assert all(p.hops == 2 for p in paths)
        light = [p for p in paths if p.total_dp <= 1.0]
        assert len(light) == 2

    def test_deterministic_construction(self):
        g1, g2 = build_fig_tree_fixture(), build_fig_tree_fixture()
        assert to_nodes_csv(g1) == to_nodes_csv(g2)
        assert to_edges_csv(g1) == to_edges_csv(g2)

    def test_min_weight_leaf_path(self):
        g = build_fig_tree_fixture()
        best = min_weight_leaf_path(g, 0)
        assert best.node_sequence == (0, 1, 3)
        assert best.total_dp == pytest.approx(0.375)

    def test_leaf_paths_of_a_chain_deeper_than_the_recursion_limit(self):
        n = 1200
        g = DiffGraph(node_columns([(i, i, i, 0, 1) for i in range(n)], 16),
                      [(i, i + 1, "E") for i in range(n - 1)])
        assert leaf_paths(g, 0) == [PathResult(tuple(range(n)), 0.5 * n)]

    @settings(deadline=None)
    @given(any_digraphs())
    def test_leaf_paths_match_a_recursive_walk(self, g):
        for root in g.columns.ids.tolist():
            assert leaf_paths(g, root) == reference_leaf_paths(g, root)


class TestMcs:
    def test_isolated_start(self):
        g = DiffGraph(node_columns([(0, 0, 0, 0, 0)], 4), [])
        report = mcs_search(g, 0, McsConfig(playouts=20, seed=1))
        assert report.best_path is None
        assert len(report.walk_totals) == 20

    def test_reproducible(self):
        g = build_fig_tree_fixture()
        cfg = McsConfig(playouts=200, seed=99, max_depth=4)
        r1, r2 = mcs_search(g, 0, cfg), mcs_search(g, 0, cfg)
        assert r1.best_path == r2.best_path
        assert r1.walk_totals == r2.walk_totals
        assert r1.trace == r2.trace

    def test_seed_matters(self):
        g = build_fig_tree_fixture()
        r1 = mcs_search(g, 0, McsConfig(playouts=50, seed=1))
        r2 = mcs_search(g, 0, McsConfig(playouts=50, seed=2))
        assert r1.walk_totals != r2.walk_totals

    def test_light_walk_fraction_near_half(self):
        g = build_fig_tree_fixture()
        report = mcs_search(g, 0, McsConfig(playouts=10_000, seed=7, max_depth=4))
        frac = sum(1 for t in report.walk_totals if t <= 1.0) / len(report.walk_totals)
        assert frac == pytest.approx(0.5, abs=0.03)

    def test_trace_monotone(self):
        g = build_fig_tree_fixture()
        report = mcs_search(g, 0, McsConfig(playouts=100, seed=3, target_node=3))
        last = None
        for best in report.trace:
            if last is not None:
                assert best is not None and best.rank_key <= last.rank_key
            if best is not None:
                last = best

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            McsConfig(playouts=0)
        with pytest.raises(ParameterError):
            McsConfig(playouts=1, max_depth=0)

    @settings(deadline=None)
    @given(any_digraphs(), st.data(), st.integers(1, 30), st.integers(0, 2 ** 31),
           st.integers(1, 6))
    def test_matches_reference_playouts(self, g, data, playouts, seed, max_depth):
        ids = g.columns.ids.tolist()
        start = data.draw(st.sampled_from(ids))
        target = data.draw(st.none() | st.sampled_from(ids))
        cfg = McsConfig(playouts, seed, max_depth, target_node=target)
        report = mcs_search(g, start, cfg)
        got = (report.best_path, report.trace, report.walk_totals)
        assert got == reference_mcs(g, start, cfg)

    def test_hub_fixture_matches_reference_playouts(self, hub_graph):
        for start, target in ((10, None), (10, 2), (0, 3)):
            cfg = McsConfig(300, 17, 4, target_node=target)
            report = mcs_search(hub_graph, start, cfg)
            got = (report.best_path, report.trace, report.walk_totals)
            assert got == reference_mcs(hub_graph, start, cfg)


class TestWords:
    @pytest.mark.parametrize("seed", ["mcs:0", "mcs:5"])
    def test_draws_equal_random_choice(self, seed):
        picker = random.Random(f"{seed}:sizes")
        sizes = [1, 2, 3, 255, 256, 257, 2 ** 31, 2 ** 32 - 1] * 100
        sizes += [picker.randrange(1, 2 ** picker.randint(1, 32)) for _ in range(2000)]
        rng, words = random.Random(seed), bench._words(random.Random(seed))
        used = 0
        for n in sizes:
            shift = 32 - n.bit_length()
            k, used = next(words) >> shift, used + 1
            while k >= n:
                k, used = next(words) >> shift, used + 1
            assert k == rng.choice(range(n))
        assert used > 3 * bench._BLOCK


class TestFirstHop:
    @pytest.mark.parametrize("max_depth", [1, 4])
    @pytest.mark.parametrize("target", [None, 5, 1])  # none, in T, outside T
    def test_start_in_both_sides_of_a_biclique_with_loops(self, max_depth, target):
        s_ids, t_ids = range(0, 4), range(2, 7)
        nodes = [(i, i, i, 0, 1 + i % 3) for i in range(7)]
        g = DiffGraph(node_columns(nodes, 8), [(u, v, "E") for u in s_ids for v in t_ids])
        assert 2 in g.successors[g.position(2, "start")]  # start's own entry is in its row
        cfg = McsConfig(200, 9, max_depth, target_node=target)
        report = mcs_search(g, 2, cfg)
        got = (report.best_path, report.trace, report.walk_totals)
        assert got == reference_mcs(g, 2, cfg)

    @pytest.mark.parametrize("max_depth", [1, 4])
    @pytest.mark.parametrize("target", [None, 0, 2])
    def test_start_whose_only_successor_is_itself(self, max_depth, target):
        nodes = [(i, i, i, 0, i + 1) for i in range(3)]
        g = DiffGraph(node_columns(nodes, 8), [(0, 0, "E"), (1, 2, "E"), (2, 1, "E")])
        cfg = McsConfig(50, 3, max_depth, target_node=target)
        report = mcs_search(g, 0, cfg)
        assert (report.best_path, report.expansions) == (None, 0)
        assert (report.best_path, report.trace, report.walk_totals) == reference_mcs(g, 0, cfg)
        at = g.position(0, "start")
        walks = bench._walks(g.successors, g.dp, at, iter(()), max_depth)  # no word to draw
        assert list(islice(walks, 50)) == [([at], g.dp[at])] * 50


class TestSeeding:
    @pytest.mark.parametrize("playouts", [1, 10, 1000])
    def test_one_rng_per_search(self, monkeypatch, playouts):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(bench.random, "Random", CountingRandom)
        mcs_search(build_fig_tree_fixture(), 0, McsConfig(playouts=playouts, seed=6))
        assert built == [("mcs:6",)]

    @settings(deadline=None)
    @given(any_digraphs(), st.data(), st.integers(2, 40), st.integers(0, 2 ** 31),
           st.integers(1, 6))
    def test_shorter_search_is_a_prefix(self, g, data, playouts, seed, max_depth):
        ids = g.columns.ids.tolist()
        start = data.draw(st.sampled_from(ids))
        target = data.draw(st.none() | st.sampled_from(ids))
        k = data.draw(st.integers(1, playouts - 1))
        full = mcs_search(g, start, McsConfig(playouts, seed, max_depth, target))
        prefix = mcs_search(g, start, McsConfig(k, seed, max_depth, target))
        assert prefix.trace == full.trace[:k]
        assert prefix.walk_totals == full.walk_totals[:k]


class TestHitRate:
    @settings(deadline=None, max_examples=40)
    @given(dense_digraphs(), st.data(), st.integers(0, 2 ** 31), st.integers(1, 6))
    def test_empirical_rate_matches_exact(self, g, data, seed, max_depth):
        ids = g.columns.ids.tolist()
        start = data.draw(st.sampled_from(ids))
        target = data.draw(st.sampled_from([i for i in ids if i != start]))
        p = exact_hit_probability(g, start, target, max_depth)
        n = 4000
        # a playout walks node positions
        at, to = g.position(start, "start"), g.position(target, "target")
        words = bench._words(random.Random(seed))
        walks = bench._walks(g.successors, g.dp, at, words, max_depth)
        hits = sum(to in path[1:] for path, _total in islice(walks, n))
        assert abs(hits / n - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1 / n

    @pytest.mark.parametrize("n_s,n_t", [(1, 1), (2, 3), (3, 5), (4, 2)])
    @pytest.mark.parametrize("max_depth", [1, 4])
    def test_complete_bipartite_closed_form(self, n_s, n_t, max_depth):
        s_ids, t_ids = range(n_s), range(n_s, n_s + n_t)
        g = complete_bipartite(s_ids, t_ids)
        for s in s_ids:
            for t in t_ids:
                assert exact_hit_probability(g, s, t, max_depth) == Fraction(1, n_t)
            for other in s_ids:
                assert exact_hit_probability(g, s, other, max_depth) == 0


class TestWorkCounters:
    @pytest.mark.parametrize("playouts", [1, 10, 250])
    def test_mcs_counts_playouts_and_steps(self, playouts):
        # every walk from the root of the depth-2 tree ends at a leaf
        g = build_fig_tree_fixture()
        report = mcs_search(g, 0, McsConfig(playouts=playouts, seed=4, max_depth=4))
        assert (report.playouts, report.expansions) == (playouts, 2 * playouts)

    def test_mcs_steps_capped_by_max_depth(self):
        g = build_fig_tree_fixture()
        report = mcs_search(g, 0, McsConfig(playouts=25, seed=4, max_depth=1))
        assert (report.playouts, report.expansions) == (25, 25)

    def test_graph_search_counts_expanded_nodes(self):
        # 0 -> 3 is two hops; node 2 cannot reach 3 and is never expanded,
        # and node 1's row holds 3 itself
        g = build_fig_tree_fixture()
        report = graph_guided_search(g, 0, 3, 4)
        assert report.best_path.node_sequence == (0, 1, 3)
        assert (report.playouts, report.expansions) == (0, 2)
        assert graph_guided_search(g, 3, 0, 4).expansions == 0

    def test_csv_row_columns(self):
        g = build_fig_tree_fixture()
        mcs_report, graph_report = compare(g, 0, 3, McsConfig(playouts=10, seed=4,
                                                              max_depth=4))
        mcs_row = mcs_report.to_csv_row().split(",")
        graph_row = graph_report.to_csv_row().split(",")
        assert len(mcs_row) == len(graph_row) == 7
        assert mcs_row[:3] == ["mcs", "4", "10"] and mcs_row[5] == "20"
        assert graph_row[:4] == ["graph", "0", "0", "2"] and graph_row[5] == "2"


class TestCompare:
    def test_dominance_diamond(self):
        g = make_diamond()
        mcs_report, graph_report = compare(g, 0, 3, McsConfig(playouts=1000, seed=5,
                                                              max_depth=3))
        assert graph_report.best_path.node_sequence == (0, 1, 3)
        assert graph_report.best_path.rank_key <= mcs_report.best_path.rank_key

    def test_shallow_unique_optimum(self):
        g = make_two_node_graph()
        mcs_report, graph_report = compare(g, 0, 1, McsConfig(playouts=100, seed=5,
                                                              max_depth=2))
        assert graph_report.best_path.node_sequence == (0, 1)
        assert mcs_report.best_path.node_sequence == (0, 1)

    def test_zero_edge_graph(self):
        nodes = [(0, 0, 0, 0, 0), (1, 1, 1, 0, 1)]
        g = DiffGraph(node_columns(nodes, 4), [])
        mcs_report, graph_report = compare(g, 0, 1, McsConfig(playouts=10, seed=0))
        assert mcs_report.best_path is None
        assert graph_report.best_path is None

    def test_dominance_hub_graph(self, hub_graph):
        mcs_report, graph_report = compare(hub_graph, 10, 2,
                                           McsConfig(playouts=1000, seed=11, max_depth=4))
        assert graph_report.best_path.rank_key <= mcs_report.best_path.rank_key

    @pytest.mark.parametrize("graph_best", [PathResult((0, 2, 3), 1.375), None])
    def test_dominance_violation_raises(self, monkeypatch, graph_best):
        def worse_search(graph, start, dst, max_hops):
            return SearchReport("graph", 0, len(graph.columns.ids), graph_best, 0.0)

        monkeypatch.setattr(bench, "graph_guided_search", worse_search)
        with pytest.raises(DominanceError):
            compare(make_diamond(), 0, 3, McsConfig(playouts=1000, seed=5, max_depth=3))

    def test_report_csv(self):
        g = make_diamond()
        mcs_report, graph_report = compare(g, 0, 3, McsConfig(playouts=10, seed=0,
                                                              max_depth=3))
        header = mcs_report.csv_header()
        assert header.startswith("method,seed,playouts")
        assert mcs_report.to_csv_row().startswith("mcs,")
        assert graph_report.to_csv_row().startswith("graph,")
