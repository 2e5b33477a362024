import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from diffgraph.graph import DiffGraph, build_graph, default_edge_rule
from diffgraph.pddt import Pddt, PddtConfig, node_columns


def node_rows(columns) -> list:
    """(id, a, b, c, hw) tuples of a graph's node columns, or of a table's
    rows numbered by position."""
    ids = range(len(columns)) if isinstance(columns, Pddt) else columns.ids.tolist()
    return list(zip(ids, columns.a.tolist(), columns.b.tolist(), columns.c.tolist(),
                    columns.hw.tolist()))


def edge_rows(graph: DiffGraph) -> list:
    """(src, dst, label) tuples of a graph's edges, in edge order."""
    return list(graph.edges)


def stats_by_id(stats, graph: DiffGraph):
    """The stats with their degree and clustering columns, which are in
    node order, as dicts keyed by node id, as `reference_stats` gives them."""
    ids = graph.columns.ids.tolist()
    columns = {"in_degree": np.int64, "out_degree": np.int64, "clustering": np.float64}
    for name, dtype in columns.items():
        column = getattr(stats, name)
        assert column.dtype == dtype and column.shape == (len(ids),), name
    return dataclasses.replace(stats, **{name: dict(zip(ids, getattr(stats, name).tolist()))
                                         for name in columns})


def triple_set(table: Pddt) -> set:
    """The (a, b, c) set of a table's rows."""
    return set(zip(table.a.tolist(), table.b.tolist(), table.c.tolist()))


def make_hub_sample(n_nodes: int = 240, n_hubs: int = 4) -> Pddt:
    """Synthetic sampled table: every output difference is 0, exactly
    n_hubs entries have dp 0.5 (hw 1), the rest dp 0.25 or 0.125."""
    a = list(range(n_nodes))
    b = list(range(n_nodes))
    c = [0] * n_nodes
    hw = [1 if i < n_hubs else (2 if i % 2 == 0 else 3) for i in range(n_nodes)]
    return Pddt(PddtConfig(16, 0.1), a, b, c, hw)


def over_edge_limit_sample() -> Pddt:
    """16,385 rows, each a source (c = 0) and a target (hw = 1) of the
    default rule, whose product of 268,468,225 edges is past the bound."""
    rows = np.arange(16_385)
    return Pddt(PddtConfig(16, 0.5), rows, rows, np.zeros_like(rows), np.ones_like(rows))


@pytest.fixture
def hub_graph() -> DiffGraph:
    """The 240-node / 960-edge figure fixture under the default rule."""
    return build_graph(make_hub_sample(), default_edge_rule())


def make_diamond() -> DiffGraph:
    """src 0 -> {1 (dp 0.5), 2 (dp 0.125)} -> dst 3."""
    nodes = [
        (0, 0, 0, 0, 0),
        (1, 1, 1, 0, 1),
        (2, 2, 2, 0, 3),
        (3, 3, 3, 0, 2),
    ]
    edges = [(0, 1, "E"), (0, 2, "E"), (1, 3, "E"), (2, 3, "E")]
    return DiffGraph(node_columns(nodes, 4), edges)


def make_two_node_graph() -> DiffGraph:
    nodes = [(0, 1, 1, 0, 1), (1, 3, 3, 0, 2)]
    return DiffGraph(node_columns(nodes, 4), [(0, 1, "OUTPUT_WEIGHT")])


@st.composite
def digraphs(draw, max_nodes=9):
    """Up to max_nodes nodes with distinct, unordered ids, and edges that
    may be self-loops or repeat a (src, dst) pair under any label."""
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=max_nodes, unique=True))
    hws = draw(st.lists(st.integers(0, 4), min_size=len(ids), max_size=len(ids)))
    nodes = [(i, i, i, 0, hw) for i, hw in zip(ids, hws)]
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    st.sampled_from(["E", "F"])), max_size=40))
    return DiffGraph(node_columns(nodes, 4), edges)


@st.composite
def dense_digraphs(draw, max_nodes=7):
    """2 to max_nodes nodes, each ordered pair (self-loops included) an
    edge with a drawn flag; denser than `digraphs`, whose short edge lists
    leave most playouts a hit chance of 0 or 1."""
    n = draw(st.integers(2, max_nodes))
    ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    flags = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    pairs = [(u, v) for u in ids for v in ids]
    edges = [(u, v, "E") for (u, v), flag in zip(pairs, flags) if flag]
    return DiffGraph(node_columns([(i, i, i, 0, 0) for i in ids], 4), edges)



def any_digraphs():
    """`digraphs` or `dense_digraphs`: short edge lists with two labels and
    repeated pairs, or nodes that mostly have several successors."""
    return st.one_of(digraphs(), dense_digraphs())

def traced_peak(call):
    """The result of call() and the peak bytes traced while it ran; numpy
    reports its buffers to tracemalloc, so the figure repeats exactly."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
