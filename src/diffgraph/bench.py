"""Monte Carlo search baseline and comparison against graph-guided search.

Playouts are uniform random descents through the directed graph. One
search draws all its playouts, in order, from a single RNG seeded with
the string "mcs:{seed}", so a report depends only on the graph, the start
and the config, and is the same in every process.
"""

from __future__ import annotations

import random
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from .errors import ParameterError
from .graph import DiffGraph, PathResult, PathSearchWork, find_optimal_paths, rank_key
from .pddt import _words, node_columns


class DominanceError(RuntimeError):
    """Graph-guided search returned a path ranked below one MCS found."""


@dataclass(frozen=True)
class McsConfig:
    playouts: int
    seed: int = 0
    max_depth: int = 16
    target_node: Optional[int] = None

    def __post_init__(self):
        if self.playouts < 1:
            raise ParameterError(f"playouts {self.playouts} < 1")
        if self.playouts > sys.maxsize:  # the most that islice takes
            raise ParameterError(f"playouts {self.playouts} > {sys.maxsize}")
        if self.max_depth < 1:
            raise ParameterError(f"max_depth {self.max_depth} < 1")


@dataclass
class SearchReport:
    """One search's answer and effort. `playouts` counts Monte Carlo
    playouts (0 for graph search); `expansions` counts playout steps
    walked for MCS and nodes expanded by the hop-layered graph search."""

    method: str
    seed: int
    playouts: int
    best_path: Optional[PathResult]
    elapsed_ms: float
    expansions: int = 0
    trace: List[Optional[PathResult]] = field(default_factory=list)
    walk_totals: List[float] = field(default_factory=list)

    def to_csv_row(self) -> str:
        hops = self.best_path.hops if self.best_path else ""
        dp = self.best_path.total_dp if self.best_path else ""
        return (f"{self.method},{self.seed},{self.playouts},"
                f"{hops},{dp},{self.expansions},{self.elapsed_ms:.3f}")

    @staticmethod
    def csv_header() -> str:
        return "method,seed,playouts,best_hops,best_total_dp,expansions,elapsed_ms"


def _walks(successors: List[List[int]], dp: List[float], start: int, words: Iterator[int],
           max_depth: int) -> Iterator[Tuple[List[int], float]]:
    """Endless random walks of node positions over unvisited successors,
    each of 1 to max_depth hops, or none when start has no unvisited successor.

    Each step draws the k-th unvisited entry of the current node's sorted
    row, k uniform below their count n as `_words` describes, and skips the
    visited entries, found by bisection: the draw a Random's `choice` makes
    from the list of the n unvisited entries. Start's row, its own entry
    there and the first hop's count are worked out once.
    """
    draw = words.__next__
    first = successors[start]
    loop = bisect_left(first, start)  # start's own entry, or the row's end
    if loop < len(first) and first[loop] != start:
        loop = len(first)
    width = len(first) - (loop < len(first))  # unvisited entries at the first hop
    while not width:  # a walk that goes nowhere draws nothing
        yield [start], dp[start]
    first_shift = 32 - width.bit_length()
    while True:
        k = draw() >> first_shift
        while k >= width:
            k = draw() >> first_shift
        u = first[k + (k >= loop)]
        path = [start, u]
        total = dp[start] + dp[u]
        while len(path) <= max_depth:
            row = successors[u]
            if not row:
                break
            n = len(row)
            taken = []
            for w in path:
                i = bisect_left(row, w)
                if i < n and row[i] == w:
                    taken.append(i)
            n -= len(taken)
            if not n:
                break
            shift = 32 - n.bit_length()
            k = draw() >> shift
            while k >= n:
                k = draw() >> shift
            if taken:
                for i in sorted(taken):
                    if i > k:
                        break
                    k += 1
            u = row[k]
            path.append(u)
            total += dp[u]
        yield path, total


def mcs_search(graph: DiffGraph, start: int, config: McsConfig) -> SearchReport:
    """Seeded flat Monte Carlo search; returns the best-so-far path.

    Playout i continues the stream of `random.Random(f"mcs:{seed}")` where
    playout i - 1 left it, so the first k playouts of a search are the
    same whatever `config.playouts` is. A playout's candidate is its walk
    up to the target node when one is set, and none if the walk misses
    it; otherwise the complete walk.
    """
    start = graph.position(start, "start")  # the walks run on node positions
    target = None if config.target_node is None else graph.position(config.target_node, "target")
    dp, successors, max_depth = graph.dp, graph.successors, config.max_depth
    t0 = time.perf_counter()
    best: Optional[PathResult] = None
    best_key = None  # the rank_key of best's positions, which rank as its ids do
    trace: List[Optional[PathResult]] = []
    walk_totals: List[float] = []
    steps = 0
    words = _words(random.Random(f"mcs:{config.seed}"))
    for path, total in islice(_walks(successors, dp, start, words, max_depth), config.playouts):
        steps += len(path) - 1
        walk_totals.append(total)
        if target is not None:  # a walk that misses the target has no candidate
            path = path[: path.index(target) + 1] if target in path else []
        if len(path) > 1:
            total = sum(map(dp.__getitem__, path))
            key = rank_key(path, total)
            if best is None or key < best_key:
                best, best_key = graph.path_result(path, total), key
        trace.append(best)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SearchReport("mcs", config.seed, config.playouts, best, elapsed, steps,
                        trace, walk_totals)


def graph_guided_search(graph: DiffGraph, start: int, dst: int,
                        max_hops: int) -> SearchReport:
    """Deterministic exhaustive search under the shared ranking."""
    t0 = time.perf_counter()
    work = PathSearchWork()
    paths = find_optimal_paths(graph, start, dst, max_hops, limit=1, work=work)
    elapsed = (time.perf_counter() - t0) * 1000.0
    best = paths[0] if paths else None
    return SearchReport("graph", 0, 0, best, elapsed, work.expansions)


def compare(graph: DiffGraph, start: int, dst: int,
            mcs_config: McsConfig) -> Tuple[SearchReport, SearchReport]:
    """Run MCS and graph-guided search on identical inputs.

    The deterministic search is exhaustive, so its best path must rank at
    least as well as anything the playouts found; DominanceError is
    raised otherwise.
    """
    cfg = replace(mcs_config, target_node=dst)
    mcs_report = mcs_search(graph, start, cfg)
    graph_report = graph_guided_search(graph, start, dst, cfg.max_depth)
    mcs_best, graph_best = mcs_report.best_path, graph_report.best_path
    if mcs_best is not None and (graph_best is None or graph_best.rank_key > mcs_best.rank_key):
        raise DominanceError(
            f"graph search from {start} to {dst} found {graph_best} but Monte Carlo "
            f"search found the better {mcs_best}")
    return mcs_report, graph_report


# --- toy tree fixture --------------------------------------------------

# Complete binary tree of depth 2 (7 nodes, 4 leaves).  Node probabilities
# are chosen so that exactly 2 of the 4 equally likely root-to-leaf walks
# accumulate total probability <= 1:
#   root(0.125) -> L(0.125) -> LL(0.125)  total 0.375
#                            -> LR(0.5)    total 0.75
#             -> R(0.5)   -> RL(0.5)    total 1.125
#                            -> RR(0.5)    total 1.125
_FIG_TREE_HW = [3, 3, 1, 3, 1, 1, 1]  # ids 0..6: root, L, R, LL, LR, RL, RR
_FIG_TREE_EDGES = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]


def build_fig_tree_fixture() -> DiffGraph:
    """Deterministic toy tree where half of all uniform root-to-leaf walks
    have total probability <= 1."""
    rows = [(i, i, i, 0, hw) for i, hw in enumerate(_FIG_TREE_HW)]
    edges = [(u, v, "OUTPUT_WEIGHT") for u, v in _FIG_TREE_EDGES]
    return DiffGraph(node_columns(rows, 4), edges)


def leaf_paths(graph: DiffGraph, root: int) -> List[PathResult]:
    """Every simple path from the root that no unvisited successor extends, by
    node sequence: in a directed tree, every root-to-leaf path. The paths grow
    from a stack of (path of positions, its accumulated probability)."""
    dp, successors = graph.dp, graph.successors
    root = graph.position(root, "root")
    stack, results = [((root,), dp[root])], []
    while stack:
        path, total = stack.pop()
        row = [v for v in successors[path[-1]] if v not in path]
        if not row:
            results.append(graph.path_result(path, total))
        stack.extend((path + (v,), total + dp[v]) for v in reversed(row))  # least pops first
    return results


def min_weight_leaf_path(graph: DiffGraph, root: int) -> PathResult:
    """Exhaustive deterministic answer to the MCS objective on a tree:
    the root-to-leaf path with the smallest accumulated probability."""
    return min(leaf_paths(graph, root), key=lambda p: (p.total_dp, p.node_sequence))
