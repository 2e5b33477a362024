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
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterError
from .pddt import (DEFAULT_MAX_ELEMENTS, DP_OF_HW, Dec, DifferentialColumns, Hex, Pddt, Lines,
                   check_columns, decode_differential_csv, differential_csv, differential_lines,
                   in_order, join_lines, read_columns, typed)

# rule field name -> node column; weight is 2^-hw
_NODE_COLUMNS = {"input_a": "a", "input_b": "b", "output": "c", "weight": "hw", "hw": "hw"}
NODE_FIELDS = tuple(_NODE_COLUMNS)
EDGE_DTYPES = (np.int64, np.int64, np.intp)  # src, dst, codes

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

    src: np.ndarray    # int64; a hand-built Edges may hold lists of ints
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


def _sorted_edges(columns: list, labels) -> Tuple[str, ...]:
    """The labels in use, sorted, each label checked; the list [src, dst, codes] typed and put
    in edge order under them in place, as by `in_order`, its codes re-ranked if need be."""
    columns[:] = (typed(x, dtype, "edge columns") for x, dtype in zip(columns, EDGE_DTYPES))
    if len({len(x) for x in columns}) > 1:
        raise ParameterError("edge columns of lengths {}, {}, {}".format(*map(len, columns)))
    if len(columns[2]) and not 0 <= columns[2].min() <= columns[2].max() < len(labels):
        raise ParameterError(f"edge label codes must index the {len(labels)} labels")
    for label in labels:
        _check_label(label)
    in_use = sorted({labels[k] for k in np.flatnonzero(np.bincount(columns[2]))})
    if list(labels) != in_use:
        columns[2] = np.array([bisect_left(in_use, x) for x in labels], dtype=np.intp)[columns[2]]
    in_order(columns, 3)
    return tuple(in_use)


def _positions(ids: np.ndarray, x):
    """The positions of x, an id or an int64 array of them, among the ascending
    node ids, and whether each x is a node's id. When the ids run from ids[0]
    with no gap, as an empty set's do, a position is x − ids[0], x itself for
    ids from 0; otherwise one bisection finds it and an equality test checks it."""
    n = len(ids)
    first, last = (int(ids[0]), int(ids[-1])) if n else (0, -1)
    if last - first == n - 1:
        return x - first if first else x, (first <= x) & (x <= last)
    at = np.searchsorted(ids, x)
    return at, ids[np.minimum(at, n - 1)] == x


def _distinct(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The mask of the sorted edge ends that head their (src, dst) pair's run of copies."""
    return (np.diff(src, prepend=-1) != 0) | (np.diff(dst, prepend=-1) != 0)  # positions are >= 0


def _group(rows: list, owner: np.ndarray, other: np.ndarray, kind) -> list:
    """rows, with rows[u] = kind(the entries of `other` beside each run of u in the sorted
    `owner`); the rows of positions without a run are kept."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))  # positions are >= 0
    bounds, entries = np.append(starts, len(owner)).tolist(), other.tolist()
    for u, lo, hi in zip(owner[starts].tolist(), bounds, bounds[1:]):
        rows[u] = kind(entries[lo:hi])
    return rows


class _Biclique(NamedTuple):
    """A graph whose edges are every pair of S × T, or every pair but the loops;
    S and T, its distinct sources and targets, are masks over node positions."""

    sources: np.ndarray
    targets: np.ndarray
    loops: bool  # whether x -> x is an edge for each x in S ∩ T


class DiffGraph:
    """Immutable directed graph over differential nodes.

    `columns` holds the nodes in id order, typed and checked by
    `check_columns`, and `edges` every edge in edge order, duplicates
    included; edges are given as an Edges record of any order or as (src,
    dst, label) tuples, and their columns typed and their labels checked.
    Inside, a node is its position, its rank by id: `_ends` are the edge
    ends' positions, `dp[i]` is 2^-hw of node i, and `successors[i]` and
    `predecessors[i]` are ascending rows of positions with duplicate edges
    removed, lists maybe shared, so never grown. Each direction is built
    when it is first read: a search that reads only successors, as Monte
    Carlo and a one-hop answer do, builds no predecessor rows.
    """

    def __init__(self, columns: DifferentialColumns,
                 edges: Union[Edges, Iterable[Tuple[int, int, str]]]):
        self.columns = DifferentialColumns(*check_columns(list(columns[:5]), columns.word_size),
                                           columns.word_size)
        if isinstance(edges, Edges):
            edge_columns, labels = [edges.src, edges.dst, edges.codes], edges.labels
        else:
            edge_columns, labels = _edges_of_rows(edges, self.columns.ids)
        self._take_edges(edge_columns, labels)

    def _take_edges(self, edge_columns: list, labels) -> None:
        """Hold [src, dst, codes], put in edge order in place by `_sorted_edges`, and check it."""
        labels = _sorted_edges(edge_columns, labels)  # sorts the list; unpack it after
        self.edges = Edges(*edge_columns, labels)
        src, dst = self.edges.src, self.edges.dst
        (src_at, src_in), (dst_at, dst_in) = (_positions(self.columns.ids, x) for x in (src, dst))
        dangling = ~(src_in & dst_in)
        if dangling.any():
            i = int(dangling.argmax())
            raise ParameterError(f"edge ({src[i]}, {dst[i]}) references a missing node")
        self._ends, self._no_row = (src_at, dst_at), []  # the empty row of both directions

    def position(self, node_id: int, name: str) -> int:
        """The position of node `node_id`; ParameterError naming it `name` if none."""
        at, found = _positions(self.columns.ids, node_id)
        if not found or at != int(at):  # a run's offset finds 1.5 between two positions
            raise ParameterError(f"{name} node {node_id} not in graph")
        return int(at)

    def path_result(self, path: Sequence[int], total: float) -> PathResult:
        """The PathResult of a path of positions."""
        return PathResult(tuple(self.columns.ids.take(path).tolist()), total)

    @cached_property
    def dp(self) -> List[float]:
        return list(map(DP_OF_HW.__getitem__, self.columns.hw.tolist()))

    @cached_property
    def successors(self) -> List[List[int]]:
        return self._adjacency(0)

    @cached_property
    def predecessors(self) -> List[List[int]]:
        return self._adjacency(1)

    @cached_property
    def _biclique(self) -> Optional[_Biclique]:
        """The graph as a biclique, when it is one. Its distinct (src, dst)
        pairs lie in S × T, so it is one when they number |S|·|T|, or
        |S|·|T| − |S ∩ T| with no loop."""
        src, dst = self._ends
        sources, targets = np.zeros((2, len(self.columns.ids)), dtype=bool)
        sources[src] = targets[dst] = True
        pairs = np.count_nonzero(_distinct(src, dst))
        full = np.count_nonzero(sources) * np.count_nonzero(targets)
        if pairs == full:
            return _Biclique(sources, targets, True)
        if pairs == full - np.count_nonzero(sources & targets) and not (src == dst).any():
            return _Biclique(sources, targets, False)
        return None

    def _adjacency(self, side: int) -> List[List[int]]:
        """The rows of one direction, successors for side 0 and predecessors
        for side 1. A node without an edge that way has the empty row both
        directions share; in a biclique each u in S shares the row T, or each
        v in T the row S, but for S ∩ T without its loops. Otherwise the
        distinct edge ends, reversed for side 1, are grouped by their first
        end after one stable sort, which for side 0 only checks them."""
        rows, biclique = [self._no_row] * len(self.columns.ids), self._biclique
        if biclique is None:
            first = _distinct(*self._ends)
            ends = [x[first] for x in (self._ends[::-1] if side else self._ends)]
            return _group(rows, *in_order(ends, 1), list)
        owners, others = biclique[side], biclique[1 - side]
        other = np.flatnonzero(others).tolist()
        for u in np.flatnonzero(owners).tolist():
            rows[u] = other
        for x in [] if biclique.loops else np.flatnonzero(owners & others).tolist():
            rows[x] = [v for v in other if v != x]
        return rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffGraph) and self.edges == other.edges
                and self.columns.word_size == other.columns.word_size
                and all(map(np.array_equal, self.columns[:5], other.columns[:5])))


def _edges_of_rows(rows: Iterable[Tuple[int, int, str]], ids: np.ndarray) -> tuple:
    """[src, dst, codes] and the labels of (src, dst, label) rows on the ids, in row order."""
    rows = list(rows)
    try:
        src, dst = (np.array([row[k] for row in rows], dtype=EDGE_DTYPES[k]) for k in (0, 1))
    except OverflowError:  # an id beyond int64 is no node's
        known = set(ids.tolist())
        src, dst, _label = min(row for row in rows if not {row[0], row[1]} <= known)
        raise ParameterError(f"edge ({src}, {dst}) references a missing node") from None
    names: Dict[str, int] = {}  # label -> its code, in first-seen order
    codes = np.array([names.setdefault(row[2], len(names)) for row in rows], dtype=EDGE_DTYPES[2])
    return [src, dst, codes], tuple(names)


def build_graph(sample: Pddt, rule: EdgeRule) -> DiffGraph:
    """Nodes from every sample entry, edges from the rule's cross product.

    A product of more than DEFAULT_MAX_ELEMENTS edges, the bound a table's
    rows have, is refused before any edge is made."""
    if len(sample) == 0:
        raise ParameterError("cannot build a graph from an empty sample")
    columns = DifferentialColumns(np.arange(len(sample)), sample.a, sample.b, sample.c,
                                  sample.hw, sample.word_size)
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
    # degrees count duplicate edges
    out_deg, in_deg = (np.bincount(ends, minlength=len(ids)) for ends in graph._ends)
    max_in = int(in_deg.max(initial=0))
    hubs = ids[in_deg == max_in].tolist() if max_in > 0 else []
    biclique = graph._biclique
    components, clustering = _shape(graph) if biclique is None else _biclique_shape(ids, biclique)
    return GraphStats(len(ids), len(graph.edges), in_deg, out_deg, hubs, components, clustering)


def _shape(graph: DiffGraph) -> Tuple[List[List[int]], np.ndarray]:
    """Components and clustering of any graph, from its edge ends."""
    neighbours = _neighbour_sets(len(graph.columns.ids), *graph._ends)
    label = [-1] * len(neighbours)  # each position's component, numbered by least position
    components: List[List[int]] = []
    for x in range(len(neighbours)):
        if label[x] < 0:
            label[x], stack = len(components), [x]
            while stack:
                for v in neighbours[stack.pop()]:
                    if label[v] < 0:
                        label[v] = label[x]
                        stack.append(v)
            components.append([])
    # a node's linked pairs of neighbours are its triangles; each triangle is found once,
    # from its least corner in (degree, position) order, once every set keeps only the
    # neighbours after its node; a node of degree below 2, on no triangle, shares ()
    degree = list(map(len, neighbours))
    for u, k in enumerate(degree):
        neighbours[u] = ({v for v in neighbours[u] if degree[v] > k or degree[v] == k and v > u}
                         if k >= 2 else ())
    links = [0] * len(degree)
    for u, later in enumerate(neighbours):
        for v in later:
            common = later & neighbours[v]
            links[u] += len(common)
            links[v] += len(common)
            for w in common:
                links[w] += 1
    k, links = np.array(degree, dtype=np.int64), np.array(links, dtype=np.int64)
    clustering, on = np.zeros(len(k)), k >= 2
    clustering[on] = 2.0 * links[on] / (k[on] * (k[on] - 1))
    # ids ascend with positions, so each component fills in sorted order
    for x, c in zip(graph.columns.ids.tolist(), label):
        components[c].append(x)
    return components, clustering


def _neighbour_sets(n: int, src: np.ndarray, dst: np.ndarray) -> list:
    """The undirected neighbour sets of n positions from the edge ends, loops
    skipped; positions without a neighbour share (). The sorted end arrays
    are freed on return, before the sets are walked."""
    keep = src != dst
    return _group([()] * n, *in_order([np.r_[src[keep], dst[keep]],
                                       np.r_[dst[keep], src[keep]]], 1), set)


def _biclique_shape(ids: np.ndarray, biclique: _Biclique) -> Tuple[List[List[int]], np.ndarray]:
    """Components and clustering of a biclique in closed form.

    S ∪ T is one component, since every node of it has an edge to another
    one unless S = T = {x}, and every other node is a component of its
    own. A node's neighbours, self excluded, are T, S or (S ∪ T) ∖ {x};
    of them, every pair is linked but those within S ∖ T and within T ∖ S.
    """
    in_s, in_t = biclique.sources, biclique.targets
    c = np.count_nonzero(in_s & in_t)
    a, b = np.count_nonzero(in_s) - c, np.count_nonzero(in_t) - c
    clustering = np.zeros(len(ids))
    clustering[in_s & ~in_t] = _clustering(0, b, c)
    clustering[in_t & ~in_s] = _clustering(a, 0, c)
    if c:
        clustering[in_s & in_t] = _clustering(a, b, c - 1)
    joined = in_s | in_t
    components = [[x] for x in ids[~joined].tolist()]
    if joined.any():
        components.insert(int(joined.argmax()), ids[joined].tolist())
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
        return rank_key(self.node_sequence, self.total_dp)


def rank_key(path: Sequence[int], total: float) -> tuple:
    """PathResult.rank_key of a path and its total; positions rank as their ids do."""
    return (len(path) - 1, -total, tuple(path))


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
    each hop count. An edge src -> dst needs no level at all. Hop counts
    also stop once the search has run out of nodes that reach dst, at
    their number. `work`, when given, is filled in.
    """
    src, dst = graph.position(src, "src"), graph.position(dst, "dst")  # positions from here on
    if max_hops < 1:
        raise ParameterError(f"max_hops {max_hops} < 1")
    if limit < 1:
        raise ParameterError(f"limit {limit} < 1")
    dp = graph.dp
    if src == dst:
        return [graph.path_result([src], dp[src])]
    max_hops = min(max_hops, len(dp) - 1)  # no simple path has more hops

    successors = graph.successors
    dist = {dst: 0}  # complete for the distances 0..depth
    frontier = [dst]
    depth = 0

    def deepen():
        """Add the nodes at distance depth + 1 to dist."""
        nonlocal frontier, depth
        depth += 1
        reached, predecessors = [], graph.predecessors
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

    results: List[Tuple[Tuple[int, ...], float]] = []  # (path, total); positions rank as ids do
    expanded = 0
    for hops in range(fewest, max_hops + 1):
        while depth < hops - 1:
            deepen()
        if len(dist) < hops:  # then dist is every node that reaches dst: too few for hops + 1
            break
        # every simple path src -> dst of exactly `hops` hops, grown from a stack of
        # (partial path, its accumulated probability)
        layer, stack = [], [((src,), dp[src])]
        while stack:
            path, total = stack.pop()
            expanded += 1
            left = hops + 1 - len(path)  # path[-1] is `left` hops from dst
            if left > 1:
                stack.extend((path + (v,), total + dp[v]) for v in successors[path[-1]]
                             if dist.get(v, left) < left and v != dst and v not in path)
            elif links_to_dst(path[-1]):
                layer.append((path + (dst,), total + dp[dst]))
        results.extend(sorted(layer, key=lambda p: rank_key(*p)))
        if len(results) >= limit:
            break
    if work is not None:
        work.expansions += expanded
    return [graph.path_result(path, total) for path, total in results[:limit]]


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


def _read_edges(data) -> tuple:
    """[src, dst, codes] and the labels of an edges CSV, in file order."""
    names: Dict[bytes, int] = {}  # label -> its code; a run's new labels follow the earlier runs'

    def parse(lines):
        found: Dict[bytes, int] = {}  # the run's labels and codes
        return [lines.ids(0, "a decimal id"), lines.ids(1, "a decimal id"),
                lines.labels(2, _LABEL, found)], found

    def merge(parts, found):
        codes = np.array([names.setdefault(label, len(names)) for label in found], dtype=np.intp)
        return parts[:2] + [codes[parts[2]]]

    columns = read_columns(data, b"src_id,", 3, EDGE_DTYPES, parse, merge)
    return columns, tuple(name.decode("ascii") for name in names)


def from_csv(nodes_csv, edges_csv) -> DiffGraph:
    """Rebuild a graph from its nodes+edges CSV export, each bytes or an mmap.

    Both files are read with one line rule: a line ends at '\\n'
    and one '\\r' before it is dropped; nothing else is stripped. Blank
    lines, '#' lines and header lines are skipped. An edges line is
    `src_id,dst_id,label`: two decimal ids of at most 18 digits and an
    identifier label. A malformed line raises ValueError naming its
    1-based line number.
    """
    *nodes, word_size = decode_differential_csv(nodes_csv)
    graph = DiffGraph.__new__(DiffGraph)  # each of the readers' own lists is checked once
    graph.columns = DifferentialColumns(*check_columns(nodes, word_size), word_size)
    graph._take_edges(*_read_edges(edges_csv))  # the nodes sorted first; no file-order copy
    return graph


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
