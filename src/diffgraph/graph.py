"""Differential knowledge graph: rule-based edges, statistics, paths, exports.

Nodes are sampled PDDT entries; edges are the cross product of two
predicate-selected node sets, mirroring a MATCH/CREATE pair in a graph
database.  All queries are read-only and deterministic.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from .errors import ParameterError
from .pddt import (DEFAULT_MAX_ELEMENTS, DP_OF_HW, Dec, DifferentialColumns, Hex, Pddt, Lines,
                   ascending, decode_differential_csv, differential_csv, differential_lines,
                   join_lines, read_columns)

# rule field name -> node column; weight is 2^-hw
_NODE_COLUMNS = {"input_a": "a", "input_b": "b", "output": "c", "weight": "hw", "hw": "hw"}
NODE_FIELDS = tuple(_NODE_COLUMNS)

_OPS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "==": operator.eq}

# a relation label is written unquoted into the edges CSV and every export
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class RuleError(ValueError):
    """Edge-rule predicate references an unknown field or operator, or the
    relation label is not an identifier."""


def _check_label(label: str) -> None:
    if not (isinstance(label, str) and _LABEL.fullmatch(label)):
        raise RuleError(f"relation label {label!r} must match {_LABEL.pattern}")


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

    def select(self, columns: DifferentialColumns) -> np.ndarray:
        """Ids of the rows that satisfy the predicate, in row order.

        Values are compared exactly, as Python numbers compare: an integer
        x is x <= v when x <= floor(v), x >= v when x >= ceil(v), and x = v
        only for an integral v, so each comparison runs against an exact
        bound in the column's own dtype. A weight is 2^-hw, so each hw's
        outcome is one Python comparison."""
        column = getattr(columns, _NODE_COLUMNS[self.field])
        if self.field == "weight":
            holds = np.array([_OPS[self.op](dp, self.value) for dp in DP_OF_HW])
            return columns.ids[holds[column]]
        low, high = _integer_bounds(self.op, self.value, np.iinfo(column.dtype))
        if low > high:
            return columns.ids[:0]
        to_dtype = column.dtype.type
        return columns.ids[(column >= to_dtype(low)) & (column <= to_dtype(high))]


def _integer_bounds(op: str, value, info: np.iinfo) -> Tuple[int, int]:
    """The least and greatest integer in info's range that satisfy
    `x op value`; low > high when none does."""
    if value != value:  # nan satisfies no comparison
        return 1, 0
    # clamped one past the range, an infinite or huge value keeps its outcome
    value = min(max(value, info.min - 1), info.max + 1)
    low, high = info.min, info.max
    if op == "<=":
        high = math.floor(value)
    elif op == ">=":
        low = math.ceil(value)
    elif value == math.floor(value):
        low = high = math.floor(value)
    else:
        return 1, 0
    return max(low, info.min), min(high, info.max)


@dataclass(frozen=True)
class EdgeRule:
    source_predicate: Predicate
    target_predicate: Predicate
    allow_self_loops: bool = True
    relation_label: str = "OUTPUT_WEIGHT"

    def __post_init__(self):
        _check_label(self.relation_label)


def default_edge_rule() -> EdgeRule:
    """Source nodes with zero output difference, targets with dp >= 0.5.

    This is the reading that reproduces the hub structure (a handful of
    high-probability nodes attracting every edge)."""
    return EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5))


def printed_edge_rule() -> EdgeRule:
    """The rule as printed in the source query: output <= 0, weight <= 0.5."""
    return EdgeRule(Predicate("output", "<=", 0), Predicate("weight", "<=", 0.5))


EDGE_RULE_PRESETS = {"default": default_edge_rule, "printed": printed_edge_rule}


@dataclass(frozen=True, eq=False)
class Edges:
    """Every edge of a graph as columns, duplicates included: edge i runs
    from src[i] to dst[i] under labels[codes[i]]. An Edges may be in any
    order; DiffGraph.edges is always in edge order, the order of the sorted
    (src, dst, label) tuples, with `labels` the labels in use, sorted, so
    that code order is label order. Iterating gives those tuples."""

    src: np.ndarray    # int64
    dst: np.ndarray    # int64
    codes: np.ndarray  # intp
    labels: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self) -> Iterator[Tuple[int, int, str]]:
        return zip(self.src.tolist(), self.dst.tolist(),
                   map(self.labels.__getitem__, self.codes.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Edges) and self.labels == other.labels
                and all(map(np.array_equal, (self.src, self.dst, self.codes),
                            (other.src, other.dst, other.codes))))


def _sorted_edges(edges: Edges) -> Edges:
    """The edges in edge order under the labels in use, each label checked;
    the codes are re-ranked only when the labels are not in order."""
    src, dst, codes, labels = edges.src, edges.dst, edges.codes, edges.labels
    for label in labels:
        _check_label(label)
    in_use = sorted({labels[k] for k in np.flatnonzero(np.bincount(codes, minlength=len(labels)))})
    if list(labels) != in_use:
        codes = np.array([bisect_left(in_use, label) for label in labels], dtype=np.intp)[codes]
    if not ascending(src, dst, codes):
        order = np.lexsort((codes, dst, src))
        src, dst, codes = src[order], dst[order], codes[order]
    return Edges(src, dst, codes, tuple(in_use))


class _Biclique(NamedTuple):
    """A graph whose edges are every pair of S × T, or every pair but the
    loops: S and T are its distinct sources and targets, sorted."""

    sources: np.ndarray
    targets: np.ndarray
    common: np.ndarray  # S ∩ T
    loops: bool         # whether x -> x is an edge for each x in S ∩ T

    def rows(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """The rows of the nodes with an edge out and in: each u in S
        shares the one row T, and each v in T the one row S, but for the
        nodes of S ∩ T without their loop."""
        sources, targets = self.sources.tolist(), self.targets.tolist()
        successors = dict.fromkeys(sources, targets)
        predecessors = dict.fromkeys(targets, sources)
        if not self.loops:
            for x in self.common.tolist():
                successors[x] = [v for v in targets if v != x]
                predecessors[x] = [u for u in sources if u != x]
        return successors, predecessors


class DiffGraph:
    """Immutable directed graph over differential nodes.

    `columns` holds the nodes and `edges` every edge in edge order,
    duplicates included; the edges are given as an Edges record of any
    order or as (src, dst, label) tuples, and their labels are checked.
    The rows that search reads are built on first read: `dp` maps each id
    to 2^-hw, and `successors[u]` and `predecessors[v]` are ascending id
    rows with duplicate edges removed, all in node order. Rows may be
    shared between nodes, so nothing may grow them.
    """

    def __init__(self, columns: DifferentialColumns,
                 edges: Union[Edges, Iterable[Tuple[int, int, str]]]):
        self.columns = columns
        ids = np.sort(columns.ids)
        if (ids[1:] == ids[:-1]).any():
            raise ParameterError("duplicate node ids")
        if not isinstance(edges, Edges):
            edges = _edges_of_rows(edges, ids)
        self.edges = _sorted_edges(edges)
        src, dst = self.edges.src, self.edges.dst
        dangling = ~(np.isin(src, ids) & np.isin(dst, ids))
        if dangling.any():
            i = int(dangling.argmax())
            raise ParameterError(f"edge ({src[i]}, {dst[i]}) references a missing node")

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
    def _biclique(self) -> Optional[_Biclique]:
        """The graph as a biclique, when it is one: its distinct (src, dst)
        pairs number |S|·|T|, or |S|·|T| − |S ∩ T| with no loop."""
        src, dst = self.edges.src, self.edges.dst
        src_step = src[1:] != src[:-1]
        new_src = np.flatnonzero(src_step) + 1
        sources = src[np.concatenate(([0], new_src))] if len(src) else src
        # the first two sources of a biclique reach every target between them
        targets = np.unique(dst[:new_src[1]] if len(new_src) > 1 else dst)
        if not np.isin(dst, targets).all():
            return None
        common = np.intersect1d(sources, targets, assume_unique=True)
        # a duplicate (src, dst) pair follows its first copy directly
        pairs = min(len(src), 1) + np.count_nonzero(src_step | (dst[1:] != dst[:-1]))
        full = len(sources) * len(targets)
        if pairs == full:
            return _Biclique(sources, targets, common, True)
        if pairs == full - len(common) and not (src == dst).any():
            return _Biclique(sources, targets, common, False)
        return None

    @cached_property
    def _rows(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Both adjacencies; every node without an edge in one direction
        shares one empty row there."""
        biclique = self._biclique
        successors, predecessors = self._edge_rows() if biclique is None else biclique.rows()
        rows_out = dict.fromkeys(self.dp, [])  # every id, in node order
        rows_in = rows_out.copy()
        rows_out.update(successors)
        rows_in.update(predecessors)
        return rows_out, rows_in

    def _edge_rows(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """The rows of the nodes with an edge out and in, filled by one
        pass over the sorted edges."""
        successors: Dict[int, List[int]] = {}
        predecessors: Dict[int, List[int]] = {}
        # every row fills in ascending order and a duplicate (src, dst)
        # pair follows its first copy directly
        for src, dst in zip(self.edges.src.tolist(), self.edges.dst.tolist()):
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
        return successors, predecessors

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffGraph) and self.edges == other.edges
                and self.columns.word_size == other.columns.word_size
                and all(map(np.array_equal, self.columns[:5], other.columns[:5])))


def _edges_of_rows(rows: Iterable[Tuple[int, int, str]], ids: np.ndarray) -> Edges:
    """The Edges of (src, dst, label) rows, in row order, among nodes of the sorted ids."""
    rows = list(rows)
    try:
        src, dst = (np.array([row[k] for row in rows], dtype=np.int64) for k in (0, 1))
    except OverflowError:  # an id beyond int64 is no node's
        known = set(ids.tolist())
        src, dst, _label = min(row for row in rows if not {row[0], row[1]} <= known)
        raise ParameterError(f"edge ({src}, {dst}) references a missing node") from None
    names: Dict[str, int] = {}  # label -> its code, in first-seen order
    codes = np.array([names.setdefault(row[2], len(names)) for row in rows], dtype=np.intp)
    return Edges(src, dst, codes, tuple(names))


def build_graph(sample: Pddt, rule: EdgeRule) -> DiffGraph:
    """Nodes from every sample entry, edges from the rule's cross product.

    A product of more than DEFAULT_MAX_ELEMENTS edges, the bound a table's
    rows have, is refused before any edge is made."""
    if len(sample) == 0:
        raise ParameterError("cannot build a graph from an empty sample")
    columns = DifferentialColumns(np.arange(len(sample)), sample.a, sample.b, sample.c,
                                  sample.hw, sample.config.word_size)
    # both id arrays ascend, so the product is in edge order
    sources = rule.source_predicate.select(columns)
    targets = rule.target_predicate.select(columns)
    edges = len(sources) * len(targets)
    if edges > DEFAULT_MAX_ELEMENTS:
        raise ParameterError(f"rule makes {len(sources)} x {len(targets)} = {edges} edges, "
                             f"more than {DEFAULT_MAX_ELEMENTS}")
    src = np.repeat(sources, len(targets))
    dst = np.tile(targets, len(sources))
    if not rule.allow_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    labels = (rule.relation_label,) if len(src) else ()
    codes = np.broadcast_to(np.intp(0), src.shape)  # one label: a read-only view of one 0
    return DiffGraph(columns, Edges(src, dst, codes, labels))


# --- statistics --------------------------------------------------------


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    in_degree: np.ndarray         # int64, in node order, as are the columns below
    out_degree: np.ndarray        # int64
    hubs: List[int]               # nodes of maximal in-degree, by id
    components: List[List[int]]   # undirected components, each sorted
    clustering: np.ndarray        # float64 undirected local clustering coefficient


def graph_stats(graph: DiffGraph) -> GraphStats:
    ids = graph.columns.ids
    # degrees count duplicate edges; edge ends become node positions
    order = np.argsort(ids)
    out_deg, in_deg = (np.bincount(order[np.searchsorted(ids, ends, sorter=order)],
                                   minlength=len(ids))
                       for ends in (graph.edges.src, graph.edges.dst))
    max_in = int(in_deg.max(initial=0))
    hubs = np.sort(ids[in_deg == max_in]).tolist() if max_in > 0 else []
    if graph._biclique is None:
        components, clustering = _shape(ids, graph.edges)
    else:
        components, clustering = _biclique_shape(ids, out_deg > 0, in_deg > 0, graph._biclique)
    return GraphStats(len(ids), len(graph.edges), in_deg, out_deg, hubs, components, clustering)


def _shape(ids: np.ndarray, edges: Edges) -> Tuple[List[List[int]], np.ndarray]:
    """Components and clustering of any graph, from its neighbour sets."""
    # undirected neighbour sets, self excluded, of the nodes that have an
    # edge to another node; every other node is a component of its own
    adj: Dict[int, Set[int]] = {}
    for src, dst in zip(edges.src.tolist(), edges.dst.tolist()):
        if src != dst:
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set()).add(src)

    seen: Set[int] = set()
    components = []
    clustering = np.zeros(len(ids))
    for i, x in enumerate(ids.tolist()):
        nbrs = adj.get(x)
        if nbrs is None:
            components.append([x])
            continue
        # each linked pair {u, v} of x's neighbours is counted from u and from v
        k = len(nbrs)
        if k >= 2:
            links = sum(len(nbrs & adj[u]) for u in nbrs) // 2
            clustering[i] = 2.0 * links / (k * (k - 1))
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
    return components, clustering


def _biclique_shape(ids: np.ndarray, in_s: np.ndarray, in_t: np.ndarray,
                    biclique: _Biclique) -> Tuple[List[List[int]], np.ndarray]:
    """Components and clustering of a biclique in closed form; in_s and in_t mark S and T.

    S ∪ T is one component, since every node of it has an edge to another
    one unless S = T = {x}, and every other node is a component of its
    own. A node's neighbours, self excluded, are T, S or (S ∪ T) ∖ {x};
    of them, every pair is linked but those within S ∖ T and within T ∖ S.
    """
    c = len(biclique.common)
    a, b = len(biclique.sources) - c, len(biclique.targets) - c
    clustering = np.zeros(len(ids))
    clustering[in_s & ~in_t] = _clustering(0, b, c)
    clustering[in_t & ~in_s] = _clustering(a, 0, c)
    if c:
        clustering[in_s & in_t] = _clustering(a, b, c - 1)
    joined = in_s | in_t
    components = [[x] for x in ids[~joined].tolist()]
    if joined.any():
        components.insert(int(joined.argmax()), np.sort(ids[joined]).tolist())
    return components, clustering


def _clustering(a: int, b: int, c: int) -> float:
    """Clustering of a biclique node whose neighbours are a nodes of S ∖ T,
    b of T ∖ S and c of S ∩ T."""
    k = a + b + c
    links = a * b + a * c + b * c + c * (c - 1) // 2
    return 2.0 * links / (k * (k - 1)) if k >= 2 else 0.0


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
    dst in the hops it has left. That test, for h hops, reads only the
    distances below h, so the search grows one distance level at a time,
    as the hop count needs it: to find src's own distance, and before
    each hop count. An edge src -> dst needs no level at all. `work`,
    when given, is filled in.
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
    dist = {dst: 0}  # complete for the distances 0..depth
    frontier = [dst]
    depth = 0

    def deepen():
        """Add the nodes at distance depth + 1 to dist."""
        nonlocal frontier, depth
        depth += 1
        reached = []
        for v in frontier:
            for u in predecessors[v]:
                if u not in dist:
                    dist[u] = depth
                    reached.append(u)
        frontier = reached

    def links_to_dst(u: int) -> bool:
        row = successors[u]
        i = bisect_left(row, dst)
        return i < len(row) and row[i] == dst

    if links_to_dst(src):
        fewest = 1
    else:
        while src not in dist and frontier and depth < max_hops:
            deepen()
        if src not in dist:
            return []
        fewest = dist[src]

    layer: List[PathResult] = []
    expanded = 0

    def extend(hops: int):
        """Every simple path src -> dst of exactly `hops` hops, into layer,
        by a depth-first walk over an explicit stack: rows[k] holds the
        successors of path[k] not yet tried, and totals[k] the path's
        accumulated probability up to path[k]."""
        nonlocal expanded
        path, totals, on_path, rows = [src], [dp[src]], {src}, []
        while path:
            u, left = path[-1], hops + 1 - len(path)  # u is `left` hops from dst
            if len(rows) < len(path):  # u was just reached
                expanded += 1
                if left == 1 and links_to_dst(u):
                    layer.append(PathResult(tuple(path) + (dst,), totals[-1] + dp[dst]))
                rows.append(iter(successors[u] if left > 1 else ()))
            v = next((v for v in rows[-1]
                      if dist.get(v, left) < left and v not in on_path and v != dst), None)
            if v is None:
                rows.pop()
                on_path.remove(path.pop())
                totals.pop()
            else:
                path.append(v)
                on_path.add(v)
                totals.append(totals[-1] + dp[v])

    results: List[PathResult] = []
    for hops in range(fewest, max_hops + 1):
        while depth < hops - 1:
            deepen()
        layer.clear()
        extend(hops)
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


def _edge_lines(pieces, tail: str, edges: Edges) -> Lines:
    """One line per edge, in edge order; each label's tail is formatted once."""
    return Lines(pieces, [edges.src, edges.dst],
                 [tail.format(label=label).encode("utf-8") for label in edges.labels], edges.codes)


def to_edges_csv(graph: DiffGraph) -> bytes:
    return join_lines([b"src_id,dst_id,label\n", _edge_lines(*_EDGES_ROW, graph.edges)])


def _read_edges(data: bytes) -> Edges:
    """The edges of an edges CSV, in file order."""
    names: Dict[bytes, int] = {}  # label -> its code
    src, dst, codes = read_columns(
        data, b"src_id,", 3, (np.int64, np.int64, np.intp),
        lambda lines: [lines.ids(0, "a decimal id"), lines.ids(1, "a decimal id"),
                       lines.labels(2, _LABEL, names)])
    return Edges(src, dst, codes, tuple(name.decode("ascii") for name in names))


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
