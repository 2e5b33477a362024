"""Differential knowledge graph: rule-based edges, statistics, paths, exports.

Nodes are sampled PDDT entries; edges are the cross product of two
predicate-selected node sets, mirroring a MATCH/CREATE pair in a graph
database.  All queries are read-only and deterministic.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, repeat, starmap
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ParameterError
from .pddt import (DP_OF_HW, DifferentialColumns, DiffNode, Pddt, decode_differential_csv,
                   encode_differential_csv, make_nodes)

# rule field name -> node column; weight is 2^-hw
_NODE_COLUMNS = {"input_a": "a", "input_b": "b", "output": "c", "weight": "hw", "hw": "hw"}
NODE_FIELDS = tuple(_NODE_COLUMNS)

_OPS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "==": operator.eq}

# a relation label is written unquoted into the edges CSV and every export
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class RuleError(ValueError):
    """Edge-rule predicate references an unknown field or operator, or the
    relation label is not an identifier."""


@dataclass(frozen=True)
class Predicate:
    field: str
    op: str
    value: float

    def __post_init__(self):
        if self.field not in NODE_FIELDS:
            raise RuleError(f"unknown node field {self.field!r}; expected one of {NODE_FIELDS}")
        if self.op not in _OPS:
            raise RuleError(f"unknown operator {self.op!r}; expected one of {sorted(_OPS)}")

    def select(self, columns: DifferentialColumns) -> List[int]:
        """Ids of the rows that satisfy the predicate, in row order. Values
        are compared as Python ints and floats, exactly: a uint64 array
        compared with a float is not exact above 2^53."""
        values = getattr(columns, _NODE_COLUMNS[self.field]).tolist()
        if self.field == "weight":
            values = map(DP_OF_HW.__getitem__, values)
        return list(compress(columns.ids.tolist(),
                             map(_OPS[self.op], values, repeat(self.value))))


@dataclass(frozen=True)
class EdgeRule:
    source_predicate: Predicate
    target_predicate: Predicate
    allow_self_loops: bool = True
    relation_label: str = "OUTPUT_WEIGHT"

    def __post_init__(self):
        if not _LABEL.fullmatch(self.relation_label):
            raise RuleError(f"relation label {self.relation_label!r} must match {_LABEL.pattern}")


def default_edge_rule() -> EdgeRule:
    """Source nodes with zero output difference, targets with dp >= 0.5.

    This is the reading that reproduces the hub structure (a handful of
    high-probability nodes attracting every edge)."""
    return EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5))


def printed_edge_rule() -> EdgeRule:
    """The rule as printed in the source query: output <= 0, weight <= 0.5."""
    return EdgeRule(Predicate("output", "<=", 0), Predicate("weight", "<=", 0.5))


EDGE_RULE_PRESETS = {"default": default_edge_rule, "printed": printed_edge_rule}


class DiffGraph:
    """Immutable directed graph over differential nodes.

    `columns` holds the nodes and `dp` maps each id to 2^-hw, both in node
    order. `successors[u]` and `predecessors[v]` are ascending id rows with
    duplicate edges removed; `edges` keeps every edge, duplicates included.
    """

    def __init__(self, columns: DifferentialColumns, edges: Sequence[Tuple[int, int, str]]):
        self.columns = columns
        self.word_size = columns.word_size
        self.edges: List[Tuple[int, int, str]] = sorted(edges)
        ids = columns.ids.tolist()
        self.dp: Dict[int, float] = dict(zip(ids, map(DP_OF_HW.__getitem__, columns.hw.tolist())))
        if len(self.dp) != len(ids):
            raise ParameterError("duplicate node ids")
        self.successors: Dict[int, List[int]] = {u: [] for u in ids}
        self.predecessors: Dict[int, List[int]] = {u: [] for u in ids}
        # edges are sorted, so every row fills in ascending order and a
        # duplicate (src, dst) pair follows its first copy directly
        for src, dst, _label in self.edges:
            row = self.successors.get(src)
            column = self.predecessors.get(dst)
            if row is None or column is None:
                raise ParameterError(f"edge ({src}, {dst}) references a missing node")
            if not row or row[-1] != dst:
                row.append(dst)
                column.append(src)

    @property
    def nodes(self) -> List[DiffNode]:
        """The nodes as rows, built on each access."""
        return make_nodes(self.columns.ids.tolist(), *self.columns[1:5])

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffGraph) and self.edges == other.edges
                and self.word_size == other.word_size
                and all(map(np.array_equal, self.columns[:5], other.columns[:5])))


def build_graph(sample: Pddt, rule: EdgeRule) -> DiffGraph:
    """Nodes from every sample entry, edges from the rule's cross product."""
    if len(sample) == 0:
        raise ParameterError("cannot build a graph from an empty sample")
    columns = DifferentialColumns(np.arange(len(sample)), sample.a, sample.b, sample.c,
                                  sample.hw, sample.config.word_size)
    sources = rule.source_predicate.select(columns)
    targets = rule.target_predicate.select(columns)
    edges = [
        (u, v, rule.relation_label)
        for u in sources for v in targets
        if rule.allow_self_loops or u != v
    ]
    return DiffGraph(columns, edges)


# --- statistics --------------------------------------------------------


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    in_degree: Dict[int, int]
    out_degree: Dict[int, int]
    hubs: List[int]               # nodes of maximal in-degree, by id
    components: List[List[int]]   # undirected components, each sorted
    clustering: Dict[int, float]  # undirected local clustering coefficient


def graph_stats(graph: DiffGraph) -> GraphStats:
    ids = list(graph.dp)
    in_deg = dict.fromkeys(ids, 0)
    out_deg = dict.fromkeys(ids, 0)
    for src, dst, _label in graph.edges:
        out_deg[src] += 1
        in_deg[dst] += 1
    max_in = max(in_deg.values(), default=0)
    hubs = sorted(i for i, d in in_deg.items() if d == max_in and max_in > 0)

    # undirected neighbour sets, self excluded, of the nodes that have an
    # edge to another node; every other node is a component of its own
    adj: Dict[int, Set[int]] = {}
    for u, row in graph.successors.items():
        for v in row:
            if u != v:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)

    seen: Set[int] = set()
    components = []
    for x in ids:
        if x not in adj:
            components.append([x])
            continue
        if x in seen:
            continue
        comp, queue = [], deque([x])
        seen.add(x)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(sorted(comp))

    # each linked pair {u, v} of x's neighbours is counted from u and from v
    clustering = dict.fromkeys(ids, 0.0)
    for x, nbrs in adj.items():
        k = len(nbrs)
        if k >= 2:
            links = sum(len(nbrs & adj[u]) for u in nbrs) // 2
            clustering[x] = 2.0 * links / (k * (k - 1))

    return GraphStats(len(ids), len(graph.edges), in_deg, out_deg,
                      hubs, components, clustering)


# --- path search -------------------------------------------------------


@dataclass(frozen=True)
class PathResult:
    """A simple path; lower rank_key is better: fewest hops, then highest
    accumulated node probability, then lexicographically smallest ids."""

    node_sequence: Tuple[int, ...]
    total_dp: float

    @property
    def hops(self) -> int:
        return len(self.node_sequence) - 1

    @property
    def rank_key(self):
        return (self.hops, -self.total_dp, self.node_sequence)


@dataclass
class PathSearchWork:
    """Work counted by one find_optimal_paths call: the nodes whose
    successor rows the hop-layered search scanned."""

    expansions: int = 0


def find_optimal_paths(graph: DiffGraph, src: int, dst: int, max_hops: int,
                       limit: int, work: Optional[PathSearchWork] = None) -> List[PathResult]:
    """The `limit` best-ranked simple directed paths src -> dst within max_hops.

    Paths are found one hop count at a time, fewest hops first, so the
    search stops at the first hop count whose paths reach `limit`. A
    backward breadth-first search from dst gives each node's distance to
    it; a partial path is dropped as soon as its last node cannot reach
    dst in the hops it has left. `work`, when given, is filled in.
    """
    for node_id, name in ((src, "src"), (dst, "dst")):
        if node_id not in graph.successors:
            raise ParameterError(f"{name} node {node_id} not in graph")
    if max_hops < 1:
        raise ParameterError(f"max_hops {max_hops} < 1")
    if limit < 1:
        raise ParameterError(f"limit {limit} < 1")
    dp = graph.dp
    if src == dst:
        return [PathResult((src,), dp[src])]

    dist = {dst: 0}
    frontier = [dst]
    for d in range(1, max_hops + 1):
        reached = []
        for v in frontier:
            for u in graph.predecessors[v]:
                if u not in dist:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    if src not in dist:
        return []

    successors = graph.successors
    path = [src]
    on_path = {src}
    layer: List[PathResult] = []
    expanded = 0

    def extend(u: int, total: float, left: int):
        """Every simple path that continues the current one from its last
        node u to dst in exactly `left` more hops."""
        nonlocal expanded
        expanded += 1
        row = successors[u]
        if left == 1:
            i = bisect_left(row, dst)
            if i < len(row) and row[i] == dst:
                layer.append(PathResult(tuple(path) + (dst,), total + dp[dst]))
            return
        for v in row:
            if dist.get(v, left) < left and v not in on_path and v != dst:
                path.append(v)
                on_path.add(v)
                extend(v, total + dp[v], left - 1)
                path.pop()
                on_path.remove(v)

    results: List[PathResult] = []
    for hops in range(dist[src], max_hops + 1):
        layer.clear()
        extend(src, dp[src], hops)
        results.extend(sorted(layer, key=lambda p: p.rank_key))
        if len(results) >= limit:
            break
    if work is not None:
        work.expansions += expanded
    return results[:limit]


# --- exports -----------------------------------------------------------


_NODES_HEADER = "id,input_a,input_b,output,weight,hw"


def to_nodes_csv(graph: DiffGraph) -> bytes:
    return encode_differential_csv(_NODES_HEADER, *graph.columns)


def to_edges_csv(graph: DiffGraph) -> bytes:
    lines = chain(["src_id,dst_id,label"], starmap("{0},{1},{2}".format, graph.edges))
    return ("\n".join(lines) + "\n").encode("utf-8")


def from_csv(nodes_csv: bytes, edges_csv: bytes) -> DiffGraph:
    """Rebuild a graph from its nodes+edges CSV export.

    Both files follow one line rule: a line ends at '\\n' and one '\\r'
    before it is dropped; nothing else is stripped.  A malformed line
    raises ValueError naming its 1-based line number.
    """
    columns = decode_differential_csv(nodes_csv)
    edges = []
    labels = set()  # labels already checked
    for number, line in enumerate(edges_csv.decode("utf-8").split("\n"), 1):
        line = line.removesuffix("\r")
        if not line or line.startswith("#") or line.startswith("src_id,"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {number}: expected 3 comma-separated fields, got {len(fields)}")
        src, dst, label = fields
        for k, text in ((1, src), (2, dst)):
            if not (text.isascii() and text.isdigit()):
                raise ValueError(f"line {number}: field {k} must be a decimal id, got {text!r}")
        if label not in labels:
            if not _LABEL.fullmatch(label):
                raise ValueError(f"line {number}: field 3 must be a label matching "
                                 f"{_LABEL.pattern}, got {label!r}")
            labels.add(label)
        edges.append((int(src), int(dst), label))
    return DiffGraph(columns, edges)


# A text export is (head lines, node line, edge line, tail lines). A node line
# is filled with the six fields of the node's nodes-CSV row, so the codec alone
# decides hex width and dyadic strings; an edge line with (src, dst, label).
_GRAPHML = (
    ('<?xml version="1.0" encoding="UTF-8"?>',
     '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
     '  <key id="input_a" for="node" attr.name="input_a" attr.type="string"/>',
     '  <key id="input_b" for="node" attr.name="input_b" attr.type="string"/>',
     '  <key id="output" for="node" attr.name="output" attr.type="string"/>',
     '  <key id="weight" for="node" attr.name="weight" attr.type="double"/>',
     '  <key id="hw" for="node" attr.name="hw" attr.type="int"/>',
     '  <key id="label" for="edge" attr.name="label" attr.type="string"/>',
     '  <graph id="G" edgedefault="directed">'),
    '    <node id="n{0}">\n'
    '      <data key="input_a">{1}</data>\n'
    '      <data key="input_b">{2}</data>\n'
    '      <data key="output">{3}</data>\n'
    '      <data key="weight">{4}</data>\n'
    '      <data key="hw">{5}</data>\n'
    '    </node>',
    '    <edge source="n{0}" target="n{1}">\n'
    '      <data key="label">{2}</data>\n'
    '    </edge>',
    ('  </graph>', '</graphml>'),
)

_DOT = (("digraph differentials {",),
        '  n{0} [label="{0}" input_a="{1}" input_b="{2}" output="{3}" weight="{4}" hw="{5}"];',
        '  n{0} -> n{1} [label="{2}"];',
        ("}",))

_CYPHER = ((),
           "CREATE (:DIFFERENTIALS {{id: {0}, input_a: '{1}', input_b: '{2}', "
           "output: '{3}', weight: {4}, hw: {5}}});",
           "MATCH (a:DIFFERENTIALS {{id: {0}}}), (b:DIFFERENTIALS {{id: {1}}}) "
           "CREATE (a)-[:{2}]->(b);",
           ())


def _render(graph: DiffGraph, template) -> bytes:
    head, node_line, edge_line, tail = template
    rows = encode_differential_csv(_NODES_HEADER, *graph.columns).decode("ascii")
    nodes = starmap(node_line.format, (row.split(",") for row in rows.split("\n")[1:-1]))
    edges = starmap(edge_line.format, graph.edges)
    return ("\n".join(chain(head, nodes, edges, tail)) + "\n").encode("utf-8")


def to_graphml(graph: DiffGraph) -> bytes:
    return _render(graph, _GRAPHML)


def to_dot(graph: DiffGraph) -> bytes:
    return _render(graph, _DOT)


def to_cypher(graph: DiffGraph) -> bytes:
    """CREATE statements loadable into an external graph database."""
    return _render(graph, _CYPHER)


EXPORT_FORMATS = ("csv", "graphml", "dot", "cypher")


def export_graph(graph: DiffGraph, fmt: str) -> Dict[str, bytes]:
    """Serialize to the named format; returns filename-suffix -> bytes."""
    if fmt == "csv":
        return {"nodes.csv": to_nodes_csv(graph), "edges.csv": to_edges_csv(graph)}
    if fmt == "graphml":
        return {"graphml": to_graphml(graph)}
    if fmt == "dot":
        return {"dot": to_dot(graph)}
    if fmt == "cypher":
        return {"cypher": to_cypher(graph)}
    raise ParameterError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
