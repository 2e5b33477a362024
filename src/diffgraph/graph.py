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
from functools import cached_property
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ParameterError
from .pddt import (DP_OF_HW, Dec, DifferentialColumns, Hex, Pddt, Lines,
                   decode_differential_csv, differential_csv, differential_lines,
                   join_lines, split_lines)

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

    `columns` holds the nodes and `edges` every edge, sorted, duplicates
    included. The rows that search reads are built on first read: `dp`
    maps each id to 2^-hw, and `successors[u]` and `predecessors[v]` are
    ascending id rows with duplicate edges removed, all in node order. The
    nodes without an edge in one direction share one empty row there,
    which nothing may grow.
    """

    def __init__(self, columns: DifferentialColumns, edges: Sequence[Tuple[int, int, str]]):
        self.columns = columns
        self.word_size = columns.word_size
        self.edges: List[Tuple[int, int, str]] = sorted(edges)
        ids = np.sort(columns.ids)
        if (ids[1:] == ids[:-1]).any():
            raise ParameterError("duplicate node ids")
        try:
            dangling = ~(np.isin(_edge_ids(self.edges, 0), ids)
                         & np.isin(_edge_ids(self.edges, 1), ids))
        except OverflowError:  # an id beyond int64 is no node's
            known = set(ids.tolist())
            dangling = np.array([src not in known or dst not in known
                                 for src, dst, _label in self.edges])
        if dangling.any():
            src, dst, _label = self.edges[int(dangling.argmax())]
            raise ParameterError(f"edge ({src}, {dst}) references a missing node")

    @cached_property
    def dp(self) -> Dict[int, float]:
        return dict(zip(self.columns.ids.tolist(),
                        map(DP_OF_HW.__getitem__, self.columns.hw.tolist())))

    @cached_property
    def successors(self) -> Dict[int, List[int]]:
        return self._rows[0]

    @cached_property
    def predecessors(self) -> Dict[int, List[int]]:
        return self._rows[1]

    @cached_property
    def _rows(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Both adjacencies, filled by one pass over the sorted edges."""
        successors: Dict[int, List[int]] = {}
        predecessors: Dict[int, List[int]] = {}
        # every row fills in ascending order and a duplicate (src, dst)
        # pair follows its first copy directly
        for src, dst, _label in self.edges:
            row = successors.get(src)
            if row is None:
                successors[src] = [dst]
            elif row[-1] != dst:
                row.append(dst)
            else:
                continue
            column = predecessors.get(dst)
            if column is None:
                predecessors[dst] = [src]
            else:
                column.append(src)
        empty = dict.fromkeys(self.columns.ids.tolist(), [])  # one shared row
        return empty | successors, empty | predecessors  # in node order

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffGraph) and self.edges == other.edges
                and self.word_size == other.word_size
                and all(map(np.array_equal, self.columns[:5], other.columns[:5])))


def _edge_ids(edges: List[Tuple[int, int, str]], k: int) -> np.ndarray:
    """The edges' sources (k = 0) or targets (k = 1) as int64."""
    return np.fromiter(map(operator.itemgetter(k), edges), np.int64, len(edges))


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
    ids = graph.columns.ids.tolist()
    in_deg = dict.fromkeys(ids, 0)
    out_deg = dict.fromkeys(ids, 0)
    # undirected neighbour sets, self excluded, of the nodes that have an
    # edge to another node; every other node is a component of its own
    adj: Dict[int, Set[int]] = {}
    for src, dst, _label in graph.edges:
        out_deg[src] += 1
        in_deg[dst] += 1
        if src != dst:
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set()).add(src)
    max_in = max(in_deg.values(), default=0)
    hubs = sorted(i for i, d in in_deg.items() if d == max_in and max_in > 0)

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
    dp = graph.dp
    for node_id, name in ((src, "src"), (dst, "dst")):
        if node_id not in dp:
            raise ParameterError(f"{name} node {node_id} not in graph")
    if max_hops < 1:
        raise ParameterError(f"max_hops {max_hops} < 1")
    if limit < 1:
        raise ParameterError(f"limit {limit} < 1")
    if src == dst:
        return [PathResult((src,), dp[src])]

    successors, predecessors = graph.successors, graph.predecessors
    dist = {dst: 0}
    frontier = [dst]
    for d in range(1, max_hops + 1):
        reached = []
        for v in frontier:
            for u in predecessors[v]:
                if u not in dist:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    if src not in dist:
        return []

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
    return join_lines(differential_csv(_NODES_HEADER, *graph.columns))


# An edge line is (pieces, tail): Dec(0) is the source id, Dec(1) the
# target id, and the text after the target depends on the label alone.
_EDGES_ROW = ((Dec(0), b",", Dec(1)), ",{label}\n")


def _edge_lines(pieces, tail: str, edges: List[Tuple[int, int, str]]) -> Lines:
    """One line per edge, in edge order; each label's tail is formatted once."""
    def labels():
        return map(operator.itemgetter(2), edges)

    index = {label: k for k, label in enumerate(dict.fromkeys(labels()))}
    return Lines(pieces, [_edge_ids(edges, 0), _edge_ids(edges, 1)],
                 [tail.format(label=label).encode("utf-8") for label in index],
                 np.fromiter(map(index.__getitem__, labels()), np.intp, len(edges)))


def to_edges_csv(graph: DiffGraph) -> bytes:
    return join_lines([b"src_id,dst_id,label\n", _edge_lines(*_EDGES_ROW, graph.edges)])


# byte -> whether it may start, or follow the start of, a relation label
_LABEL_HEAD = np.array([_LABEL.fullmatch(chr(x)) is not None for x in range(256)])
_LABEL_TAIL = np.array([_LABEL.fullmatch("_" + chr(x)) is not None for x in range(256)])


def _read_edges(data: bytes) -> List[Tuple[int, int, str]]:
    """The (src, dst, label) rows of an edges CSV, in file order."""
    src, dst, codes = [], [], []
    names: Dict[bytes, int] = {}  # label -> its index, in first-seen order
    for lines in split_lines(data, b"src_id,", 3):
        src.append(lines.ids(0, "a decimal id"))
        dst.append(lines.ids(1, "a decimal id"))
        # labels of one length are rows of one byte matrix
        start, length = lines.starts[2], lines.ends[2] - lines.starts[2]
        bad = length == 0
        code = np.zeros(len(length), dtype=np.intp)
        for size in np.unique(length[~bad]).tolist():
            rows = np.flatnonzero(length == size)
            text = np.lib.stride_tricks.sliding_window_view(lines.buf, size)[start[rows]]
            bad[rows] = ~_LABEL_HEAD[text[:, 0]] | ~_LABEL_TAIL[text[:, 1:]].all(axis=1)
            distinct, inverse = np.unique(text.view(f"S{size}")[:, 0], return_inverse=True)
            found = [names.setdefault(bytes(label), len(names)) for label in distinct]
            code[rows] = np.array(found)[inverse]
        lines.check(bad, 2, f"a label matching {_LABEL.pattern}")
        lines.raise_first()
        codes.append(code)
    labels = [name.decode("ascii") for name in names]
    return list(zip(np.concatenate(src).tolist(), np.concatenate(dst).tolist(),
                    map(labels.__getitem__, np.concatenate(codes).tolist())))


def from_csv(nodes_csv: bytes, edges_csv: bytes) -> DiffGraph:
    """Rebuild a graph from its nodes+edges CSV export.

    Both files are read as bytes with one line rule: a line ends at '\\n'
    and one '\\r' before it is dropped; nothing else is stripped. Blank
    lines, '#' lines and header lines are skipped. An edges line is
    `src_id,dst_id,label`: two decimal ids of at most 18 digits and an
    identifier label. A malformed line raises ValueError naming its
    1-based line number.
    """
    return DiffGraph(decode_differential_csv(nodes_csv), _read_edges(edges_csv))


# A text export is (head, node line, edge line, tail); head and tail are
# whole lines. A node line is (pieces, tail) for differential_lines,
# so the codec alone decides hex width and dyadic strings, and the text
# after the output word depends on hw alone; an edge line is as _EDGES_ROW.
_GRAPHML = (
    b'<?xml version="1.0" encoding="UTF-8"?>\n'
    b'<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    b'  <key id="input_a" for="node" attr.name="input_a" attr.type="string"/>\n'
    b'  <key id="input_b" for="node" attr.name="input_b" attr.type="string"/>\n'
    b'  <key id="output" for="node" attr.name="output" attr.type="string"/>\n'
    b'  <key id="weight" for="node" attr.name="weight" attr.type="double"/>\n'
    b'  <key id="hw" for="node" attr.name="hw" attr.type="int"/>\n'
    b'  <key id="label" for="edge" attr.name="label" attr.type="string"/>\n'
    b'  <graph id="G" edgedefault="directed">\n',
    ((b'    <node id="n', Dec(0), b'">\n'
      b'      <data key="input_a">0x', Hex(1), b'</data>\n'
      b'      <data key="input_b">0x', Hex(2), b'</data>\n'
      b'      <data key="output">0x', Hex(3)),
     '</data>\n'
     '      <data key="weight">{dp}</data>\n'
     '      <data key="hw">{hw}</data>\n'
     '    </node>\n'),
    ((b'    <edge source="n', Dec(0), b'" target="n', Dec(1)),
     '">\n'
     '      <data key="label">{label}</data>\n'
     '    </edge>\n'),
    b'  </graph>\n</graphml>\n',
)

_DOT = (b"digraph differentials {\n",
        ((b"  n", Dec(0), b' [label="', Dec(0), b'" input_a="0x', Hex(1), b'" input_b="0x', Hex(2),
          b'" output="0x', Hex(3)), '" weight="{dp}" hw="{hw}"];\n'),
        ((b"  n", Dec(0), b" -> n", Dec(1)), ' [label="{label}"];\n'),
        b"}\n")

_CYPHER = (b"",
           ((b"CREATE (:DIFFERENTIALS {id: ", Dec(0), b", input_a: '0x", Hex(1),
             b"', input_b: '0x", Hex(2), b"', output: '0x", Hex(3)),
            "', weight: {dp}, hw: {hw}}});\n"),
           ((b"MATCH (a:DIFFERENTIALS {id: ", Dec(0), b"}), (b:DIFFERENTIALS {id: ", Dec(1)),
            "}}) CREATE (a)-[:{label}]->(b);\n"),
           b"")


def _render(graph: DiffGraph, template) -> bytes:
    head, node_line, edge_line, tail = template
    data = join_lines([head, differential_lines(*node_line, *graph.columns),
                       _edge_lines(*edge_line, graph.edges), tail])
    return data or b"\n"  # a document of no lines is one empty line


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
