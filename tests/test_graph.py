import operator
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (any_digraphs, edge_rows, make_diamond, make_hub_sample, make_two_node_graph,
                      node_rows, over_edge_limit_sample, stats_by_id, traced_peak)
from diffgraph.bench import McsConfig, mcs_search
from diffgraph.differential import dyadic_str
from diffgraph.graph import (
    EXPORT_FORMATS,
    NODE_FIELDS,
    DiffGraph,
    EdgeRule,
    Edges,
    GraphStats,
    PathResult,
    PathSearchWork,
    Predicate,
    RuleError,
    build_graph,
    default_edge_rule,
    export_graph,
    find_optimal_paths,
    from_csv,
    graph_stats,
    printed_edge_rule,
    to_cypher,
    to_dot,
    to_edges_csv,
    to_graphml,
    to_nodes_csv,
)
from diffgraph import pddt as pddt_module
from diffgraph.pddt import DEFAULT_MAX_ELEMENTS, Pddt, PddtConfig, node_columns
from diffgraph.simon import ParameterError

NODES_HEADER = "id,input_a,input_b,output,weight,hw\n"


def reference_adjacency(graph):
    """One row entry per edge, duplicates kept, as the graph's rows once were."""
    successors = {node_id: [] for node_id in graph.columns.ids.tolist()}
    predecessors = {node_id: [] for node_id in graph.columns.ids.tolist()}
    for src, dst, _label in graph.edges:
        successors[src].append(dst)
        predecessors[dst].append(src)
    return successors, predecessors


def reference_paths(graph, src, dst, max_hops):
    """Every simple path src -> dst within max_hops, found by exhaustive
    DFS and sorted by rank."""
    successors, _ = reference_adjacency(graph)
    dp_of = {node_id: 2.0 ** -hw for node_id, *_, hw in node_rows(graph.columns)}
    if src == dst:
        return [PathResult((src,), dp_of[src])]
    results = []
    path = [src]
    on_path = {src}

    def dfs(u, total):
        if len(path) - 1 >= max_hops:
            return
        for v in sorted(set(successors[u])):
            if v in on_path:
                continue
            if v == dst:
                results.append(PathResult(tuple(path) + (v,), total + dp_of[v]))
                continue
            path.append(v)
            on_path.add(v)
            dfs(v, total + dp_of[v])
            path.pop()
            on_path.remove(v)

    dfs(src, dp_of[src])
    results.sort(key=lambda p: p.rank_key)
    return results


def eager_search(graph, src, dst, max_hops, limit):
    """(paths, expansions) of the hop-layered search with every backward
    distance level up to max_hops built before src is looked at."""
    successors, predecessors = ({u: sorted(set(row)) for u, row in rows.items()}
                                for rows in reference_adjacency(graph))
    dp_of = {node_id: 2.0 ** -hw for node_id, *_, hw in node_rows(graph.columns)}
    if src == dst:
        return [PathResult((src,), dp_of[src])], 0
    dist, frontier = {dst: 0}, [dst]
    for d in range(1, max_hops + 1):
        reached = []
        for v in frontier:
            for u in predecessors[v]:
                if u not in dist:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    if src not in dist:
        return [], 0
    expansions, layer, results = 0, [], []

    def extend(path, total, left):
        nonlocal expansions
        expansions += 1
        if left == 1:
            if dst in successors[path[-1]]:
                layer.append(PathResult(tuple(path) + (dst,), total + dp_of[dst]))
            return
        for v in successors[path[-1]]:
            if dist.get(v, left) < left and v not in path and v != dst:
                extend(path + [v], total + dp_of[v], left - 1)

    for hops in range(dist[src], max_hops + 1):
        layer.clear()
        extend([src], dp_of[src], hops)
        results.extend(sorted(layer, key=lambda p: p.rank_key))
        if len(results) >= limit:
            break
    return results[:limit], expansions


class CountingRows(dict):
    """A row dict that records the key of every row read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def reference_stats(graph):
    """Statistics by list-queue BFS and pairwise neighbour tests."""
    successors, predecessors = reference_adjacency(graph)

    def neighbors(u):
        return sorted(set(successors[u]) | set(predecessors[u]))

    ids = graph.columns.ids.tolist()
    in_deg = {node_id: len(predecessors[node_id]) for node_id in ids}
    out_deg = {node_id: len(successors[node_id]) for node_id in ids}
    max_in = max(in_deg.values(), default=0)
    hubs = sorted(i for i, d in in_deg.items() if d == max_in and max_in > 0)
    seen = set()
    components = []
    for node_id in ids:
        if node_id in seen:
            continue
        comp, queue = [], [node_id]
        seen.add(node_id)
        while queue:
            u = queue.pop(0)
            comp.append(u)
            for v in neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(sorted(comp))
    clustering = {}
    for node_id in ids:
        nbrs = [v for v in neighbors(node_id) if v != node_id]
        k = len(nbrs)
        if k < 2:
            clustering[node_id] = 0.0
            continue
        links = sum(
            1 for i, u in enumerate(nbrs) for v in nbrs[i + 1:]
            if v in successors[u] or u in successors[v]
        )
        clustering[node_id] = 2.0 * links / (k * (k - 1))
    return GraphStats(len(ids), len(graph.edges), in_deg, out_deg,
                      hubs, components, clustering)


def reference_field(row, name):
    """The rule field of an (id, a, b, c, hw) node row; weight is 2^-hw."""
    _node_id, a, b, c, hw = row
    return {"input_a": a, "input_b": b, "output": c, "weight": 2.0 ** -hw, "hw": hw}[name]


def reference_select(predicate, columns):
    """Ids of the rows whose field satisfies the predicate as Python values
    compare, one row at a time, as the select once did."""
    ops = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "==": operator.eq}
    return [row[0] for row in node_rows(columns)
            if ops[predicate.op](reference_field(row, predicate.field), predicate.value)]


def is_biclique(graph):
    """Whether the distinct (src, dst) pairs are all of S x T, or all of it
    but the loops, for S the sources and T the targets."""
    pairs = {(src, dst) for src, dst, _label in graph.edges}
    full = {(u, v) for u, _ in pairs for _, v in pairs}
    return pairs == full or pairs == {(u, v) for u, v in full if u != v}


def _hex(x, n):
    return f"0x{x:0{-(-n // 4)}x}"


def reference_edges_csv(graph):
    lines = ["src_id,dst_id,label"]
    for src, dst, label in graph.edges:
        lines.append(f"{src},{dst},{label}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_graphml(graph):
    n = graph.columns.word_size
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="input_a" for="node" attr.name="input_a" attr.type="string"/>',
        '  <key id="input_b" for="node" attr.name="input_b" attr.type="string"/>',
        '  <key id="output" for="node" attr.name="output" attr.type="string"/>',
        '  <key id="weight" for="node" attr.name="weight" attr.type="double"/>',
        '  <key id="hw" for="node" attr.name="hw" attr.type="int"/>',
        '  <key id="label" for="edge" attr.name="label" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    for node_id, a, b, c, hw in node_rows(graph.columns):
        out.append(f'    <node id="n{node_id}">')
        out.append(f'      <data key="input_a">{_hex(a, n)}</data>')
        out.append(f'      <data key="input_b">{_hex(b, n)}</data>')
        out.append(f'      <data key="output">{_hex(c, n)}</data>')
        out.append(f'      <data key="weight">{dyadic_str(hw)}</data>')
        out.append(f'      <data key="hw">{hw}</data>')
        out.append('    </node>')
    for src, dst, label in graph.edges:
        out.append(f'    <edge source="n{src}" target="n{dst}">')
        out.append(f'      <data key="label">{label}</data>')
        out.append('    </edge>')
    out.extend(['  </graph>', '</graphml>'])
    return ("\n".join(out) + "\n").encode("utf-8")


def reference_dot(graph):
    n = graph.columns.word_size
    out = ["digraph differentials {"]
    for node_id, a, b, c, hw in node_rows(graph.columns):
        out.append(
            f'  n{node_id} [label="{node_id}" input_a="{_hex(a, n)}" '
            f'input_b="{_hex(b, n)}" output="{_hex(c, n)}" '
            f'weight="{dyadic_str(hw)}" hw="{hw}"];'
        )
    for src, dst, label in graph.edges:
        out.append(f'  n{src} -> n{dst} [label="{label}"];')
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")


def reference_cypher(graph):
    n = graph.columns.word_size
    out = []
    for node_id, a, b, c, hw in node_rows(graph.columns):
        out.append(
            f"CREATE (:DIFFERENTIALS {{id: {node_id}, input_a: '{_hex(a, n)}', "
            f"input_b: '{_hex(b, n)}', output: '{_hex(c, n)}', "
            f"weight: {dyadic_str(hw)}, hw: {hw}}});"
        )
    for src, dst, label in graph.edges:
        out.append(
            f"MATCH (a:DIFFERENTIALS {{id: {src}}}), (b:DIFFERENTIALS {{id: {dst}}}) "
            f"CREATE (a)-[:{label}]->(b);"
        )
    return ("\n".join(out) + "\n").encode("utf-8")


def reference_read_edges(data):
    """The (src, dst, label) rows of an edges CSV, read one decoded line at
    a time as the reader once did."""
    edges = []
    for number, line in enumerate(data.decode("utf-8").split("\n"), 1):
        line = line.removesuffix("\r")
        if not line or line.startswith("#") or line.startswith("src_id,"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {number}: expected 3 comma-separated fields, "
                             f"got {len(fields)}")
        src, dst, label = fields
        for k, text in ((1, src), (2, dst)):
            if not (text.isascii() and text.isdigit()):
                raise ValueError(f"line {number}: field {k} must be a decimal id, got {text!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
            raise ValueError(f"line {number}: field 3 {LABEL_RULE}, got {label!r}")
        edges.append((int(src), int(dst), label))
    return edges


REFERENCE_EXPORTS = {to_graphml: reference_graphml, to_dot: reference_dot,
                     to_cypher: reference_cypher, to_edges_csv: reference_edges_csv}


@st.composite
def tables(draw):
    """Tables of 1..12 rows at a word size of 1..32 bits, with values that
    fit; outputs of 0 and low weights are common, so rules find edges."""
    n = draw(st.integers(1, 32))
    word = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(st.tuples(word, word, st.one_of(st.just(0), word),
                                   st.one_of(st.integers(0, 2), st.integers(0, 255))),
                         min_size=1, max_size=12))
    a, b, c, hw = zip(*rows)
    return Pddt(PddtConfig(n, 0.5), a, b, c, hw)


RULES = [
    default_edge_rule(),
    printed_edge_rule(),
    EdgeRule(Predicate("hw", "<=", 40), Predicate("input_a", ">=", 1),
             allow_self_loops=False, relation_label="LINKS"),
]


BAD_LABELS = ["A,B", 'A"<B', "", "1A", "A B", "A-B", "\u00c5"]


class TestEdgeRule:
    def test_unknown_field_rejected(self):
        with pytest.raises(RuleError):
            Predicate("distance", "<=", 1)

    def test_unknown_operator_rejected(self):
        with pytest.raises(RuleError):
            Predicate("weight", "<", 1)

    def test_presets(self):
        d = default_edge_rule()
        assert d.source_predicate == Predicate("output", "=", 0)
        assert d.target_predicate == Predicate("weight", ">=", 0.5)
        p = printed_edge_rule()
        assert p.target_predicate == Predicate("weight", "<=", 0.5)

    @given(st.sampled_from(NODE_FIELDS), st.sampled_from(["<=", ">=", "=", "=="]),
           st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
                     st.integers(0, 2**64 - 1), st.integers(0, 255)),
           st.one_of(st.integers(0, 2**64), st.floats(allow_nan=False)))
    def test_matches_equals_field_lookup(self, field, op, values, bound):
        # exact Python comparisons, also for values above 2**53
        a, b, c, hw = values
        node = (7, a, b, c, hw)
        columns = node_columns([node], 64)
        ops = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "==": operator.eq}
        for value in (bound, a, a + 1, c - 1, 2.0 ** -hw):
            expected = ops[op](reference_field(node, field), value)
            assert Predicate(field, op, value).select(columns).tolist() == ([7] if expected else [])


    def test_select_is_exact_above_2_53(self):
        # 2^53 + 1 rounds to the float 2^53, so a numpy mask would match it
        columns = node_columns([(0, 2**53 + 1, 0, 0, 0)], 64)
        assert Predicate("input_a", "=", float(2**53)).select(columns).tolist() == []
        assert Predicate("input_a", ">=", float(2**53 + 2)).select(columns).tolist() == []
        assert Predicate("input_a", "=", 2**53 + 1).select(columns).tolist() == [0]

    # 2^53 +- 1, 2^64 - 1 and their neighbours, negative, fractional and
    # non-finite bounds; words cluster at the same points
    EDGE_VALUES = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 2, 2**64 - 1]
    BOUNDS = st.one_of(
        st.sampled_from(EDGE_VALUES + [2**64, -1, -2**64, 0.5, -0.5, 2.0**53, 2.0**64,
                                       float(2**53 + 2), 2.0**-255, 2.0**-256, 254.5]),
        st.sampled_from(EDGE_VALUES).map(float),
        st.integers(-2**65, 2**65), st.integers(0, 300).map(lambda x: x + 0.5),
        st.floats())

    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGE_VALUES),
                                          st.integers(0, 2**64 - 1))] * 3,
                              st.integers(0, 255)), min_size=1, max_size=6),
           st.sampled_from(NODE_FIELDS), st.sampled_from(["<=", ">=", "=", "=="]), BOUNDS)
    def test_select_matches_python_values(self, words, field, op, bound):
        columns = node_columns([(9 - i, *row) for i, row in enumerate(words)], 64)
        predicate = Predicate(field, op, bound)
        assert predicate.select(columns).tolist() == reference_select(predicate, columns)

    @pytest.mark.parametrize("field", NODE_FIELDS)
    def test_select_at_exact_edges(self, field):
        words = self.EDGE_VALUES + [2, 3, 4]
        hws = [0, 1, 2, 3, 52, 53, 149, 150, 200, 254, 255]
        columns = node_columns([(i, x, x, x, hw) for i, (x, hw) in enumerate(zip(words, hws))],
                               64)
        ints = sorted({x + d for x in words + hws + [2**64] for d in (-1, 0, 1)})
        bounds = (ints + [float(x) for x in ints] + [x + 0.5 for x in ints] + [x - 0.3 for x in ints]
                  + [2.0**-hw for hw in hws] + [1.5 * 2.0**-hw for hw in hws]
                  + [2.0**-256, float("inf"), -float("inf"), float("nan")])
        for op in ("<=", ">=", "="):
            for bound in bounds:
                predicate = Predicate(field, op, bound)
                assert predicate.select(columns).tolist() == reference_select(predicate, columns)

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_relation_label_must_be_identifier(self, label):
        # the label is written unquoted into the edges CSV, DOT and Cypher
        with pytest.raises(RuleError, match="must match"):
            EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5),
                     relation_label=label)

    @pytest.mark.parametrize("label", BAD_LABELS + ["X}) DETACH DELETE (a", None, b"E"])
    def test_hand_built_edge_label_must_be_identifier(self, label):
        # edges given as tuples or as an Edges record are written as
        # unquoted as a rule's; "A,B" would make a line from_csv rejects
        columns = node_columns([(0, 1, 1, 0, 1), (1, 3, 3, 0, 2)], 4)
        for edges in ([(0, 1, "E"), (1, 0, label)],
                      Edges(np.array([0, 1]), np.array([1, 0]), np.array([0, 1]), ("E", label))):
            with pytest.raises(RuleError) as err:
                DiffGraph(columns, edges)
            assert str(err.value) == f"relation label {label!r} must match [A-Za-z_][A-Za-z0-9_]*"

    @pytest.mark.parametrize("label", ["OUTPUT_WEIGHT", "HUB", "LINKS", "E", "F", "_x9"])
    def test_identifier_labels_accepted(self, label):
        rule = EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5),
                        relation_label=label)
        g = build_graph(make_hub_sample(4, 2), rule)
        assert g.edges and {lab for _s, _d, lab in g.edges} == {label}
        assert from_csv(to_nodes_csv(g), to_edges_csv(g)) == g


class TestBuildGraph:
    def test_rule_matching_nothing(self):
        sample = make_hub_sample(10, 2)
        rule = EdgeRule(Predicate("output", "=", 99), Predicate("weight", ">=", 0.5))
        g = build_graph(sample, rule)
        assert edge_rows(g) == []

    def test_hub_fixture_240_960(self, hub_graph):
        assert len(hub_graph.columns.ids) == 240
        assert len(hub_graph.edges) == 960

    def test_self_loop_exclusion(self):
        # 5 sources x 3 targets with 2 overlapping nodes -> 13 edges
        from diffgraph.pddt import Pddt, PddtConfig
        sample = Pddt(PddtConfig(4, 0.1),
                      a=[0, 1, 2, 3, 4, 5], b=[0, 1, 2, 3, 4, 5],
                      c=[0, 0, 0, 0, 0, 1], hw=[2, 2, 2, 1, 1, 1])
        rule = EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5),
                        allow_self_loops=False)
        g = build_graph(sample, rule)
        sources = [i for i, _a, _b, c, _hw in node_rows(g.columns) if c == 0]
        targets = [i for i, *_, hw in node_rows(g.columns) if 2.0 ** -hw >= 0.5]
        assert (len(sources), len(targets)) == (5, 3)
        assert len(set(sources) & set(targets)) == 2
        assert len(g.edges) == 5 * 3 - 2

    @given(st.integers(2, 40), st.integers(1, 6), st.booleans())
    def test_edge_count_law(self, n_nodes, n_hubs, self_loops):
        n_hubs = min(n_hubs, n_nodes)
        sample = make_hub_sample(n_nodes, n_hubs)
        rule = EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5),
                        allow_self_loops=self_loops)
        g = build_graph(sample, rule)
        overlap = n_hubs  # hubs satisfy both predicates
        expected = n_nodes * n_hubs - (0 if self_loops else overlap)
        assert len(g.edges) == expected

    def test_empty_sample_rejected(self):
        from diffgraph.pddt import Pddt, PddtConfig
        with pytest.raises(ParameterError):
            build_graph(Pddt(PddtConfig(4, 0.5), [], [], [], []), default_edge_rule())

    def test_edge_product_over_the_limit_refused(self, monkeypatch):
        sample = over_edge_limit_sample()

        def bounded(make):
            def wrapper(a, reps, *args, **kwargs):
                assert np.size(a) * np.prod(reps) <= DEFAULT_MAX_ELEMENTS, "edges past the limit"
                return make(a, reps, *args, **kwargs)
            return wrapper

        def refused():
            with pytest.raises(ParameterError, match=f"^rule makes 16385 x 16385 = 268468225 "
                                                     f"edges, more than {DEFAULT_MAX_ELEMENTS}$"):
                build_graph(sample, default_edge_rule())

        for name in ("repeat", "tile"):
            monkeypatch.setattr(np, name, bounded(getattr(np, name)))
        _, peak = traced_peak(refused)
        assert peak < 2**20  # the node ids and the two selections


class TestEdgeOrder:
    """Every edge set, rows, a read file, a rule's product or a hand-built
    Edges, enters a graph through one door: it is put in edge order under
    the labels in use, sorted, and each label is checked."""

    COLUMNS = node_columns([(i, i, i, 0, 1) for i in range(4)], 4)

    def test_hand_built_edges_are_put_in_edge_order(self):
        g = DiffGraph(self.COLUMNS, Edges(np.array([1, 0, 0]), np.array([2, 3, 2]),
                                          np.zeros(3, dtype=np.intp), ("E",)))
        assert edge_rows(g) == [(0, 2, "E"), (0, 3, "E"), (1, 2, "E")]
        assert g.successors[0] == [2, 3]
        assert find_optimal_paths(g, 0, 3, 2, 5) == [PathResult((0, 3), 1.0)]
        assert to_edges_csv(g) == b"src_id,dst_id,label\n0,2,E\n0,3,E\n1,2,E\n"
        assert from_csv(to_nodes_csv(g), to_edges_csv(g)) == g

    def test_labels_are_ranked_and_unused_ones_dropped(self):
        g = DiffGraph(self.COLUMNS, Edges(np.array([0, 0]), np.array([1, 1]), np.array([2, 0]),
                                          ("F", "Z", "E")))
        assert g.edges.labels == ("E", "F")
        assert edge_rows(g) == [(0, 1, "E"), (0, 1, "F")]
        assert g == DiffGraph(self.COLUMNS, [(0, 1, "F"), (0, 1, "E")])

    def test_rule_graph_keeps_its_codes_view(self, hub_graph):
        # one label in order: no code array is made for the product
        assert hub_graph.edges.codes.strides == (0,)

    @settings(deadline=None)
    @given(any_digraphs(), st.data())
    def test_any_order_makes_the_same_graph(self, g, data):
        rows = data.draw(st.permutations(edge_rows(g)))
        labels = data.draw(st.permutations(["E", "F", "Z"]))
        h = DiffGraph(g.columns, Edges(np.array([row[0] for row in rows], dtype=np.int64),
                                       np.array([row[1] for row in rows], dtype=np.int64),
                                       np.array([labels.index(row[2]) for row in rows],
                                                dtype=np.intp), tuple(labels)))
        assert h == g and edge_rows(h) == edge_rows(g)
        assert (h.successors, h.predecessors) == (g.successors, g.predecessors)
        assert stats_by_id(graph_stats(h), h) == stats_by_id(graph_stats(g), g)
        ids = g.columns.ids.tolist()
        for src in ids:
            for dst in ids:
                assert (find_optimal_paths(h, src, dst, 3, 5)
                        == find_optimal_paths(g, src, dst, 3, 5))


class TestAdjacency:
    def test_rows_sorted_without_duplicates(self):
        nodes = [(i, i, i, 0, 1) for i in (3, 0, 2)]
        edges = [(3, 0, "F"), (0, 2, "E"), (3, 0, "E"), (0, 2, "E"), (3, 2, "E"), (2, 2, "E")]
        g = DiffGraph(node_columns(nodes, 4), edges)
        assert g.successors == {3: [0, 2], 0: [2], 2: [2]}
        assert g.predecessors == {3: [], 0: [3], 2: [0, 2, 3]}
        assert len(g.edges) == 6

    def test_duplicate_node_ids_rejected(self):
        nodes = [(4, 1, 1, 0, 1), (4, 3, 3, 0, 2)]
        with pytest.raises(ParameterError, match="duplicate node ids"):
            DiffGraph(node_columns(nodes, 4), [])

    def test_dangling_edge_rejected_first_in_sorted_order(self):
        nodes = [(i, i, i, 0, 1) for i in (3, 0, 2)]
        edges = [(3, 0, "E"), (2, 9, "E"), (0, 7, "E"), (5, 2, "E")]
        with pytest.raises(ParameterError, match=r"^edge \(0, 7\) references a missing node$"):
            DiffGraph(node_columns(nodes, 4), edges)

    @pytest.mark.parametrize("big", [2**63, 2**64, -2**63 - 1])
    def test_id_beyond_int64_is_a_dangling_edge(self, big):
        nodes = [(i, i, i, 0, 1) for i in (0, 2)]
        with pytest.raises(ParameterError, match=rf"^edge \(0, {big}\) references a missing node$"):
            DiffGraph(node_columns(nodes, 4), [(2, 2, "E"), (0, big, "E")])
        with pytest.raises(ParameterError, match=r"^edge \(0, 9\) references a missing node$"):
            DiffGraph(node_columns(nodes, 4), [(2, big, "E"), (0, 9, "E")])

    @given(any_digraphs())
    def test_rows_are_the_sorted_edge_sets(self, g):
        successors, predecessors = reference_adjacency(g)
        for u in successors:
            assert g.successors[u] == sorted(set(successors[u]))
            assert g.predecessors[u] == sorted(set(predecessors[u]))


class TestLazyRows:
    """Build, stats and exports never build the rows that search reads."""

    @staticmethod
    def sample():
        # every third node has output 5, so no out-edge; only hw 1 nodes are targets
        n = 40
        return Pddt(PddtConfig(16, 0.1), range(n), range(n),
                    [5 * (i % 3 == 0) for i in range(n)], [1 + (i % 7 > 0) for i in range(n)])

    def test_rows_built_on_first_read(self):
        built = build_graph(self.sample(), default_edge_rule())
        read = from_csv(to_nodes_csv(built), to_edges_csv(built))
        for g in (built, read):
            graph_stats(g)
            for fmt in EXPORT_FORMATS:
                export_graph(g, fmt)
            assert {"dp", "successors", "predecessors"}.isdisjoint(vars(g))

            find_optimal_paths(g, 1, 7, 3, 5)
            mcs_search(g, 1, McsConfig(20, seed=1, max_depth=3))
            successors, predecessors = reference_adjacency(g)
            assert g.successors == {u: sorted(set(row)) for u, row in successors.items()}
            assert g.predecessors == {u: sorted(set(row)) for u, row in predecessors.items()}
            assert g.dp == {i: 2.0 ** -hw for i, *_, hw in node_rows(g.columns)}
            for rows, reference in ((g.successors, successors), (g.predecessors, predecessors)):
                edgeless = [u for u, row in reference.items() if not row]
                assert edgeless and all(rows[u] == [] for u in edgeless)


@st.composite
def near_bicliques(draw):
    """Every pair of S x T, with or without the loops, under labels E and F;
    then maybe one pair dropped or one edge added, and maybe repeats."""
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    sources = draw(st.lists(st.sampled_from(ids), unique=True))
    targets = draw(st.lists(st.sampled_from(ids), unique=True))
    loops = draw(st.booleans())
    pairs = [(u, v) for u in sources for v in targets if loops or u != v]
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and pairs:
        pairs.remove(draw(st.sampled_from(pairs)))
    if change == "add":
        pairs.append((draw(st.sampled_from(ids)), draw(st.sampled_from(ids))))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    edges = [(u, v, draw(st.sampled_from(["E", "F"]))) for u, v in pairs]
    return DiffGraph(node_columns([(i, i, i, 0, i % 3) for i in ids], 4), edges)


def overlapping_biclique(self_loops):
    """A rule graph on ids 0..11: the sources 0..7 have output 0 and the
    targets 0..3 and 8..11 have hw 1, so 0..3 are both."""
    sample = Pddt(PddtConfig(16, 0.1), range(12), range(12),
                  [0] * 8 + [1] * 4, [1] * 4 + [2] * 4 + [1] * 4)
    return build_graph(sample, EdgeRule(Predicate("output", "=", 0),
                                        Predicate("weight", ">=", 0.5), self_loops))


def product(sources, targets, loops=True):
    return [(u, v, "E") for u in sources for v in targets if loops or u != v]


class TestBiclique:
    """A graph whose edges are S x T, with or without the loops, gets its
    statistics in closed form and shares its rows; any other graph takes the
    pass over its edges. Both agree with the references."""

    CASES = {
        "rule with loops": (product([0, 1, 2], [2, 3]), True),
        "rule without loops": (product([0, 1, 2], [1, 2, 3], loops=False), True),
        "without loops, S = T": (product([1, 2, 3], [1, 2, 3], loops=False), True),
        "duplicate edges": (product([0, 1, 2], [2, 3]) + [(0, 3, "F"), (2, 2, "E")], True),
        "one pair dropped": (product([0, 1, 2], [2, 3])[1:], False),
        "one loop dropped": (product([0, 1, 2], [1, 2, 3])[:-1], False),
        "one edge added": (product([0, 1, 2], [2, 3]) + [(3, 4, "E")], False),
        "a loop added": (product([0, 1, 2], [1, 2, 3], loops=False) + [(1, 1, "E")], False),
        "loops only": ([(1, 1, "E"), (2, 2, "E")], False),
        "one loop": ([(4, 4, "E")], True),
        "no edge": ([], True),
    }

    @staticmethod
    def check(g):
        assert stats_by_id(graph_stats(g), g) == reference_stats(g)
        successors, predecessors = reference_adjacency(g)
        assert g.successors == {u: sorted(set(row)) for u, row in successors.items()}
        assert g.predecessors == {u: sorted(set(row)) for u, row in predecessors.items()}

    @pytest.mark.parametrize("case", CASES)
    def test_case(self, case):
        edges, biclique = self.CASES[case]
        g = DiffGraph(node_columns([(i, i, i, 0, i % 3) for i in (5, 4, 3, 2, 1, 0)], 4), edges)
        assert (g._biclique is not None) == is_biclique(g) == biclique
        self.check(g)

    @settings(deadline=None)
    @given(near_bicliques())
    def test_matches_reference(self, g):
        assert (g._biclique is not None) == is_biclique(g)
        self.check(g)

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_built_graph_shares_rows(self, self_loops):
        g = overlapping_biclique(self_loops)
        for fmt in EXPORT_FORMATS:
            export_graph(g, fmt)
        assert "_biclique" not in vars(g)  # recognised on first read by stats or search
        assert g._biclique is not None
        assert len({id(g.successors[u]) for u in range(4, 8)}) == 1
        assert len({id(g.predecessors[v]) for v in range(8, 12)}) == 1
        self.check(g)


class TestStats:
    def test_empty_graph(self):
        s = graph_stats(DiffGraph(node_columns([], 4), []))
        assert s.node_count == 0 and s.edge_count == 0
        assert s.hubs == [] and s.components == []

    def test_hub_fixture(self, hub_graph):
        s = graph_stats(hub_graph)
        assert s.hubs == [0, 1, 2, 3]
        for h in s.hubs:
            assert s.in_degree[h] == 240

    def test_star_center_clustering_zero(self):
        nodes = [(i, i, i, 0, 1) for i in range(5)]
        edges = [(0, i, "E") for i in range(1, 5)]
        s = graph_stats(DiffGraph(node_columns(nodes, 4), edges))
        assert s.clustering[0] == 0.0

    def test_components(self):
        nodes = [(i, i, i, 0, 1) for i in range(4)]
        g = DiffGraph(node_columns(nodes, 4), [(0, 1, "E"), (2, 3, "E")])
        assert graph_stats(g).components == [[0, 1], [2, 3]]

    @given(any_digraphs())
    def test_matches_reference(self, g):
        assert stats_by_id(graph_stats(g), g) == reference_stats(g)

    def test_hub_fixture_matches_reference(self, hub_graph):
        assert stats_by_id(graph_stats(hub_graph), hub_graph) == reference_stats(hub_graph)


class TestPaths:
    def test_src_equals_dst(self):
        g = make_diamond()
        paths = find_optimal_paths(g, 0, 0, 3, 10)
        assert len(paths) == 1
        assert paths[0].hops == 0
        assert paths[0].total_dp == 1.0

    def test_two_node_single_path(self):
        g = make_two_node_graph()
        paths = find_optimal_paths(g, 0, 1, 3, 10)
        assert len(paths) == 1
        assert paths[0].node_sequence == (0, 1)
        assert paths[0].hops == 1

    def test_diamond_ranking(self):
        g = make_diamond()
        paths = find_optimal_paths(g, 0, 3, 3, 10)
        assert [p.node_sequence for p in paths] == [(0, 1, 3), (0, 2, 3)]
        assert paths[0].total_dp == pytest.approx(1.0 + 0.5 + 0.25)

    def test_unreachable_returns_empty(self):
        g = make_two_node_graph()
        assert find_optimal_paths(g, 1, 0, 3, 10) == []

    def test_max_hops_respected(self, hub_graph):
        for p in find_optimal_paths(hub_graph, 10, 2, 2, 50):
            assert p.hops <= 2
            assert len(set(p.node_sequence)) == len(p.node_sequence)

    def test_rank_total_order(self, hub_graph):
        paths = find_optimal_paths(hub_graph, 10, 2, 3, 100)
        keys = [p.rank_key for p in paths]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_missing_node_rejected(self):
        with pytest.raises(ParameterError):
            find_optimal_paths(make_diamond(), 0, 99, 3, 10)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ParameterError, match="limit"):
            find_optimal_paths(make_diamond(), 0, 3, 3, limit)

    def test_expansions_counted(self):
        # dist to 3: nodes 1 and 2 are one hop away, 0 two; the 2-hop layer
        # expands 0, then 1 and 2, and already holds the one path asked for
        work = PathSearchWork()
        paths = find_optimal_paths(make_diamond(), 0, 3, 3, 1, work=work)
        assert [p.node_sequence for p in paths] == [(0, 1, 3)]
        assert work.expansions == 3
        unreachable = PathSearchWork()
        assert find_optimal_paths(make_diamond(), 3, 0, 3, 1, work=unreachable) == []
        assert unreachable.expansions == 0

    @settings(deadline=None)
    @given(any_digraphs())
    def test_matches_reference_dfs(self, g):
        ids = g.columns.ids.tolist()
        for src in ids:
            for dst in ids:
                for max_hops in range(1, 5):
                    every = reference_paths(g, src, dst, max_hops)
                    for limit in range(1, 6):
                        assert find_optimal_paths(g, src, dst, max_hops, limit) == every[:limit]

    def test_hub_fixture_matches_reference_dfs(self, hub_graph):
        for src, dst in ((10, 2), (0, 1), (2, 10), (0, 0)):
            every = reference_paths(hub_graph, src, dst, 3)
            for limit in (1, 7, 100, 10_000):
                assert find_optimal_paths(hub_graph, src, dst, 3, limit) == every[:limit]

    def test_path_longer_than_the_recursion_limit(self):
        # a chain i -> i+1 of 1,200 nodes has one path, of 1,199 hops
        n = 1200
        assert n > sys.getrecursionlimit()
        g = DiffGraph(node_columns([(i, i, i, 0, 1) for i in range(n)], 16),
                      [(i, i + 1, "E") for i in range(n - 1)])
        work = PathSearchWork()
        assert find_optimal_paths(g, 0, n - 1, n - 1, 5, work) == [
            PathResult(tuple(range(n)), n * 0.5)]
        assert work.expansions == n - 1

    @settings(deadline=None)
    @given(any_digraphs())
    def test_matches_eager_search(self, g):
        ids = g.columns.ids.tolist()
        for src in ids:
            for dst in ids:
                for max_hops in range(1, 5):
                    for limit in range(1, 6):
                        work = PathSearchWork()
                        paths = find_optimal_paths(g, src, dst, max_hops, limit, work)
                        expected = eager_search(g, src, dst, max_hops, limit)
                        assert (paths, work.expansions) == expected

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_levels_grow_as_the_hop_count_needs(self, self_loops):
        """A direct edge answers 1 hop without reading a predecessor row,
        and no query reads a row of a node max_hops or more hops from dst,
        nor any row twice."""
        g = overlapping_biclique(self_loops)
        _, predecessors = reference_adjacency(g)
        rows = vars(g)["predecessors"] = CountingRows(g.predecessors)
        for src, dst in ((4, 8), (0, 1), (4, 0), (8, 0), (8, 4), (0, 4), (9, 9)):
            # hop distances to dst, by breadth-first search backwards
            dist, frontier, d = {dst: 0}, {dst}, 0
            while frontier:
                d += 1
                frontier = {u for v in frontier for u in predecessors[v]} - dist.keys()
                dist.update(dict.fromkeys(frontier, d))
            for max_hops in range(1, 5):
                for limit in (1, 5):
                    rows.read.clear()
                    every = reference_paths(g, src, dst, max_hops)
                    assert find_optimal_paths(g, src, dst, max_hops, limit) == every[:limit]
                    if limit == 1 and every and every[0].hops == 1:
                        assert rows.read == []
                    assert len(set(rows.read)) == len(rows.read)
                    assert all(dist[v] < max_hops for v in rows.read)


class TestExports:
    GOLDEN_NODES = (
        "id,input_a,input_b,output,weight,hw\n"
        "0,0x1,0x1,0x0,0.5,1\n"
        "1,0x3,0x3,0x0,0.25,2\n"
    )
    GOLDEN_EDGES = "src_id,dst_id,label\n0,1,OUTPUT_WEIGHT\n"
    GOLDEN_DOT = (
        "digraph differentials {\n"
        '  n0 [label="0" input_a="0x1" input_b="0x1" output="0x0" weight="0.5" hw="1"];\n'
        '  n1 [label="1" input_a="0x3" input_b="0x3" output="0x0" weight="0.25" hw="2"];\n'
        '  n0 -> n1 [label="OUTPUT_WEIGHT"];\n'
        "}\n"
    )
    GOLDEN_CYPHER = (
        "CREATE (:DIFFERENTIALS {id: 0, input_a: '0x1', input_b: '0x1', "
        "output: '0x0', weight: 0.5, hw: 1});\n"
        "CREATE (:DIFFERENTIALS {id: 1, input_a: '0x3', input_b: '0x3', "
        "output: '0x0', weight: 0.25, hw: 2});\n"
        "MATCH (a:DIFFERENTIALS {id: 0}), (b:DIFFERENTIALS {id: 1}) "
        "CREATE (a)-[:OUTPUT_WEIGHT]->(b);\n"
    )

    def test_golden_files(self):
        g = make_two_node_graph()
        assert to_nodes_csv(g).decode() == self.GOLDEN_NODES
        assert to_edges_csv(g).decode() == self.GOLDEN_EDGES
        assert to_dot(g).decode() == self.GOLDEN_DOT
        assert to_cypher(g).decode() == self.GOLDEN_CYPHER

    def test_graphml_well_formed(self):
        import xml.etree.ElementTree as ET
        g = make_two_node_graph()
        root = ET.fromstring(to_graphml(g).decode())
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph = root.find(f"{ns}graph")
        assert len(graph.findall(f"{ns}node")) == 2
        assert len(graph.findall(f"{ns}edge")) == 1

    def test_empty_graph_documents(self):
        g = DiffGraph(node_columns([], 4), [])
        for fmt in ("csv", "graphml", "dot", "cypher"):
            for data in export_graph(g, fmt).values():
                assert isinstance(data, bytes)

    def test_reexport_identical(self, hub_graph):
        for fmt in ("csv", "graphml", "dot", "cypher"):
            assert export_graph(hub_graph, fmt) == export_graph(hub_graph, fmt)

    def test_csv_roundtrip(self, hub_graph):
        back = from_csv(to_nodes_csv(hub_graph), to_edges_csv(hub_graph))
        assert back == hub_graph

    @settings(deadline=None)
    @given(tables(), st.sampled_from(RULES))
    def test_matches_reference_exports(self, table, rule):
        g = build_graph(table, rule)
        assert node_rows(g.columns) == node_rows(table)
        for export, reference in REFERENCE_EXPORTS.items():
            assert export(g) == reference(g)
        back = from_csv(to_nodes_csv(g), to_edges_csv(g))  # word size is not kept
        assert (node_rows(back.columns), edge_rows(back)) == (node_rows(g.columns), edge_rows(g))

    @settings(deadline=None)
    @given(any_digraphs())
    def test_graphs_match_reference_exports(self, g):
        # unordered ids, two labels and repeated edges; node words reach 30
        g = DiffGraph(g.columns._replace(word_size=8), g.edges)
        for export, reference in REFERENCE_EXPORTS.items():
            assert export(g) == reference(g)
        assert from_csv(to_nodes_csv(g), to_edges_csv(g)) == g

    def test_empty_graph_matches_reference(self):
        g = from_csv(NODES_HEADER.encode(), b"src_id,dst_id,label\n")
        assert node_rows(g.columns) == [] and edge_rows(g) == []
        for export, reference in REFERENCE_EXPORTS.items():
            assert export(g) == reference(g)
        assert to_cypher(g) == b"\n"
        assert to_nodes_csv(g) == NODES_HEADER.encode()

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_value_wider_than_word_size_rejected(self, fmt, field):
        values = [0, 0, 0]
        values[field - 1] = 0x10
        g = DiffGraph(node_columns([(0, *values, 0)], 4), [])
        with pytest.raises(ParameterError, match="does not fit in 4 bits"):
            export_graph(g, fmt)

    def test_id_the_reader_refuses_is_not_written(self):
        g = DiffGraph(node_columns([(10**18, 0, 0, 0, 0)], 4), [])
        with pytest.raises(ParameterError, match="row id 1000000000000000000 has more than 18"):
            to_nodes_csv(g)

    def test_largest_id_round_trips(self):
        g = DiffGraph(node_columns([(10**18 - 1, 0x5, 0x3, 0x6, 1)], 4), [])
        back = from_csv(to_nodes_csv(g), b"")
        assert back == g
        assert node_rows(back.columns) == [(10**18 - 1, 0x5, 0x3, 0x6, 1)]

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_value_within_hex_width_but_wider_than_word_size_rejected(self, fmt):
        g = DiffGraph(node_columns([(0, 0xff, 0, 0, 0)], 5), [])
        with pytest.raises(ParameterError, match="does not fit in 5 bits"):
            export_graph(g, fmt)

    def test_unknown_format(self):
        with pytest.raises(ParameterError):
            export_graph(make_two_node_graph(), "gexf")


LABEL_RULE = "must be a label matching [A-Za-z_][A-Za-z0-9_]*"


def outcome(call):
    """The edges of the graph call() returns, or the type and text of the
    ValueError it raises."""
    try:
        return edge_rows(call())
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def edges_files(draw):
    """Edges CSV files: data lines with ids, some zero-padded, and labels,
    among comments, blank lines and repeated headers, each ended by LF or
    CRLF; then up to three one-byte insertions, replacements or deletions
    with bytes that end, split or spoil a line."""
    ids = st.integers(0, 13).flatmap(
        lambda i: st.sampled_from([str(i), f"{i:03d}", f"{i:018d}"]))
    labels = st.sampled_from(["E", "F", "OUTPUT_WEIGHT", "_x9"])
    data_line = st.tuples(ids, ids, labels).map(",".join)
    comment = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
    lines = draw(st.lists(st.one_of(data_line, data_line, st.just(""),
                                    st.just("src_id,dst_id,label"), comment.map("#".__add__)),
                          max_size=10))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    data = bytearray("".join(map(str.__add__, lines, ends)).encode())
    if draw(st.booleans()):
        data = data.removesuffix(b"\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b",\r\n#x \t\x0c"))
        change = draw(st.sampled_from(["insert", "replace", "delete"]))
        if change == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = bytes([byte]) if change == "replace" else b""
    return bytes(data)



class TestEdgesReader:
    NODES = (NODES_HEADER + "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n").encode()
    NODES_0_TO_12 = (NODES_HEADER + "".join(f"{i},0x{i:x},0x{i:x},0x0,0.5,1\n"
                                            for i in range(13))).encode()

    @pytest.mark.parametrize("edges, message", [
        pytest.param("src_id,dst_id,label\n1,2\n",
                     "line 2: expected 3 comma-separated fields, got 2", id="two-fields"),
        pytest.param("0,1,E,F\n", "line 1: expected 3 comma-separated fields, got 4",
                     id="four-fields"),
        pytest.param("# note\n\n0,1,E\r\nx,1,E\n",
                     "line 4: field 1 must be a decimal id, got 'x'", id="letter"),
        pytest.param("0,-1,E\n", "line 1: field 2 must be a decimal id, got '-1'", id="negative"),
        pytest.param("0, 1,E\n", "line 1: field 2 must be a decimal id, got ' 1'", id="space"),
        pytest.param("0,1.0,E\n", "line 1: field 2 must be a decimal id, got '1.0'", id="float"),
        pytest.param("\u00b2,1,E\n", "line 1: field 1 must be a decimal id, got '\u00b2'",
                     id="superscript"),
        pytest.param("src_id,dst_id,label\n0,1,E\n,1,E",
                     "line 3: field 1 must be a decimal id, got ''", id="empty"),
        # a line ends at a newline alone: no other line break moves the count
        pytest.param("# note\x0c\n1,x,E\n", "line 2: field 2 must be a decimal id, got 'x'",
                     id="form-feed"),
        pytest.param("# note\x1c\n1,x,E\n", "line 2: field 2 must be a decimal id, got 'x'",
                     id="file-separator"),
        pytest.param("# note\u0085\n1,x,E\n", "line 2: field 2 must be a decimal id, got 'x'",
                     id="next-line"),
        pytest.param("0,1,E\x0c\n1,x,E\n", f"line 1: field 3 {LABEL_RULE}, got 'E\\x0c'",
                     id="form-feed-in-label"),
        # and only one CR before it is dropped, nothing else
        pytest.param("0,1,E \n", f"line 1: field 3 {LABEL_RULE}, got 'E '", id="trailing-space"),
        pytest.param("0,1,E\t\n", f"line 1: field 3 {LABEL_RULE}, got 'E\\t'", id="trailing-tab"),
        pytest.param("0,1,E\r\r\n", f"line 1: field 3 {LABEL_RULE}, got 'E\\r'", id="two-crs"),
        pytest.param(" 0,1,E\n", "line 1: field 1 must be a decimal id, got ' 0'",
                     id="leading-space"),
    ])
    def test_bad_line_names_its_number(self, edges, message):
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, edges.encode("utf-8"))
        assert str(err.value) == message

    # labels that start with '0' or hold a NUL byte must not pass as shorter ones
    PADDING_LABELS = ["0E", "0", "0_x", "E\x00", "\x00E"]

    @pytest.mark.parametrize("label", ['A"<B', "", "1A", "A B", "A;B", *PADDING_LABELS])
    def test_label_that_is_not_an_identifier_names_its_line(self, label):
        edges = f"src_id,dst_id,label\n0,1,E\n1,0,{label}\n".encode("utf-8")
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, edges)
        assert str(err.value) == f"line 3: field 3 {LABEL_RULE}, got {label!r}"

    @pytest.mark.parametrize("label", ["1A", *PADDING_LABELS])
    def test_file_of_one_bad_label_names_its_first_line(self, label):
        edges = f"src_id,dst_id,label\n0,1,{label}\n1,0,{label}\n".encode("utf-8")
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, edges)
        assert str(err.value) == f"line 2: field 3 {LABEL_RULE}, got {label!r}"

    @pytest.mark.parametrize("chunk", [1 << 19, 16], ids=["first-run", "later-run"])
    @pytest.mark.parametrize("size", [24, 60, 80])
    def test_long_label_after_a_short_one_read(self, monkeypatch, chunk, size):
        # at chunk 16 the header is a run of its own, and both edges share the next
        monkeypatch.setattr(pddt_module, "_READ_CHUNK_BYTES", chunk)
        for long in ("A" * size, "A" * (size - 1) + "0"):
            data = f"src_id,dst_id,label\n0,1,E\n1,0,{long}\n".encode()
            g = from_csv(self.NODES, data)
            assert g == DiffGraph(g.columns, reference_read_edges(data))
            assert edge_rows(g) == [(0, 1, "E"), (1, 0, long)]

    def test_good_lines_read(self):
        g = from_csv(self.NODES, b"# note\r\nsrc_id,dst_id,label\r\n0,1,E\r\n\n1,1,F\n")
        assert edge_rows(g) == [(0, 1, "E"), (1, 1, "F")]


    def test_comment_may_hold_any_bytes(self):
        g = from_csv(self.NODES, b"0,1,E\n# \xff\xfe\n#\x00\x85\r\n")
        assert edge_rows(g) == [(0, 1, "E")]

    @pytest.mark.parametrize("edges, message", [
        pytest.param(b"0,1,E\n1,\xff,E\n", "line 2: field 2 must be a decimal id, got '\ufffd'",
                     id="id"),
        pytest.param(b"0,1,E\xe9\n", f"line 1: field 3 {LABEL_RULE}, got 'E\ufffd'",
                     id="label"),
        pytest.param(b"\xff\n", "line 1: expected 3 comma-separated fields, got 1", id="line"),
    ])
    def test_non_utf8_byte_in_a_data_line_names_its_line(self, edges, message):
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["1" + "0" * 18, "0" * 25 + "1", "9" * 25])
    def test_id_longer_than_18_digits_refused(self, text):
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, f"0,1,E\n1,{text},E\n".encode())
        assert str(err.value) == f"line 2: field 2 must be a decimal id, got {text!r}"

    def test_18_digit_ids_read(self):
        top = 10**18 - 1
        nodes = (NODES_HEADER + f"0,0x1,0x1,0x0,0.5,1\n{top},0x3,0x3,0x0,0.25,2\n").encode()
        g = from_csv(nodes, f"{top},0,E\n{'0' * 17}0,{top},E\n".encode())
        assert edge_rows(g) == [(0, top, "E"), (top, 0, "E")]

    @settings(max_examples=300)
    @given(edges_files())
    def test_matches_reference_reader(self, data):
        # an id of 19 or more digits is refused only by the new reader
        assume(not re.search(rb"[0-9]{19}", data))
        columns = from_csv(self.NODES_0_TO_12, b"").columns
        assert outcome(lambda: from_csv(self.NODES_0_TO_12, data)) == \
            outcome(lambda: DiffGraph(columns, reference_read_edges(data)))


class TestMemory:
    """A graph holds its columns, an export its output and one bounded chunk
    of lines, and a reader one bounded chunk of its input."""

    def test_build_graph_holds_its_edge_columns(self):
        sample = make_hub_sample(20_000, 4)
        g, peak = traced_peak(lambda: build_graph(sample, default_edge_rule()))
        assert len(g.edges) == 80_000
        assert peak < 4 * 2**20

    def test_from_csv_holds_its_columns_and_a_chunk(self):
        g = build_graph(make_hub_sample(20_000, 4), default_edge_rule())
        nodes, edges = to_nodes_csv(g), to_edges_csv(g)
        back, peak = traced_peak(lambda: from_csv(nodes, edges))
        assert back == g
        assert peak < 8 * 2**20

    def test_long_label_is_copied_once(self):
        """One long label among short ones costs its own bytes, not a copy
        of its length per row."""
        nodes = (NODES_HEADER + "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n").encode()
        edges = ("0,1,E\n" * 20_000 + "1,0," + "A" * 10_000 + "\n").encode()
        g, peak = traced_peak(lambda: from_csv(nodes, edges))
        assert len(g.edges) == 20_001
        assert peak < 6 * 2**20  # 3.7 MiB; a 20,001 x 10,000 byte matrix is 191 MiB

    def test_graphml_holds_its_output_and_a_chunk(self):
        g = build_graph(make_hub_sample(20_000, 4), default_edge_rule())
        data, peak = traced_peak(lambda: to_graphml(g))
        assert len(g.columns.ids) == 20_000 and len(g.edges) == 80_000
        assert peak < len(data) + 16 * 2**20
