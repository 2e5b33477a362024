import operator

import pytest
from hypothesis import given, settings, strategies as st

from conftest import digraphs, make_diamond, make_hub_sample, make_two_node_graph
from diffgraph.differential import dyadic_str
from diffgraph.graph import (
    EXPORT_FORMATS,
    NODE_FIELDS,
    DiffGraph,
    DiffNode,
    EdgeRule,
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
from diffgraph.pddt import Pddt, PddtConfig, node_columns
from diffgraph.simon import ParameterError

NODES_HEADER = "id,input_a,input_b,output,weight,hw\n"


def reference_adjacency(graph):
    """One row entry per edge, duplicates kept, as the graph's rows once were."""
    successors = {nd.node_id: [] for nd in graph.nodes}
    predecessors = {nd.node_id: [] for nd in graph.nodes}
    for src, dst, _label in graph.edges:
        successors[src].append(dst)
        predecessors[dst].append(src)
    return successors, predecessors


def reference_paths(graph, src, dst, max_hops):
    """Every simple path src -> dst within max_hops, found by exhaustive
    DFS and sorted by rank."""
    successors, _ = reference_adjacency(graph)
    dp_of = {nd.node_id: nd.dp for nd in graph.nodes}
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


def reference_stats(graph):
    """Statistics by list-queue BFS and pairwise neighbour tests."""
    successors, predecessors = reference_adjacency(graph)

    def neighbors(u):
        return sorted(set(successors[u]) | set(predecessors[u]))

    in_deg = {nd.node_id: len(predecessors[nd.node_id]) for nd in graph.nodes}
    out_deg = {nd.node_id: len(successors[nd.node_id]) for nd in graph.nodes}
    max_in = max(in_deg.values(), default=0)
    hubs = sorted(i for i, d in in_deg.items() if d == max_in and max_in > 0)
    seen = set()
    components = []
    for nd in graph.nodes:
        if nd.node_id in seen:
            continue
        comp, queue = [], [nd.node_id]
        seen.add(nd.node_id)
        while queue:
            u = queue.pop(0)
            comp.append(u)
            for v in neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(sorted(comp))
    clustering = {}
    for nd in graph.nodes:
        nbrs = [v for v in neighbors(nd.node_id) if v != nd.node_id]
        k = len(nbrs)
        if k < 2:
            clustering[nd.node_id] = 0.0
            continue
        links = sum(
            1 for i, u in enumerate(nbrs) for v in nbrs[i + 1:]
            if v in successors[u] or u in successors[v]
        )
        clustering[nd.node_id] = 2.0 * links / (k * (k - 1))
    return GraphStats(len(graph.nodes), len(graph.edges), in_deg, out_deg,
                      hubs, components, clustering)


def reference_field(node, name):
    """A node's rule field, looked up as DiffNode.get once did."""
    return {"input_a": node.a, "input_b": node.b, "output": node.c,
            "weight": node.dp, "hw": node.hw}[name]


def _hex(x, n):
    return f"0x{x:0{-(-n // 4)}x}"


def reference_edges_csv(graph):
    lines = ["src_id,dst_id,label"]
    for src, dst, label in graph.edges:
        lines.append(f"{src},{dst},{label}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_graphml(graph):
    n = graph.word_size
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
    for nd in graph.nodes:
        out.append(f'    <node id="n{nd.node_id}">')
        out.append(f'      <data key="input_a">{_hex(nd.a, n)}</data>')
        out.append(f'      <data key="input_b">{_hex(nd.b, n)}</data>')
        out.append(f'      <data key="output">{_hex(nd.c, n)}</data>')
        out.append(f'      <data key="weight">{dyadic_str(nd.hw)}</data>')
        out.append(f'      <data key="hw">{nd.hw}</data>')
        out.append('    </node>')
    for src, dst, label in graph.edges:
        out.append(f'    <edge source="n{src}" target="n{dst}">')
        out.append(f'      <data key="label">{label}</data>')
        out.append('    </edge>')
    out.extend(['  </graph>', '</graphml>'])
    return ("\n".join(out) + "\n").encode("utf-8")


def reference_dot(graph):
    n = graph.word_size
    out = ["digraph differentials {"]
    for nd in graph.nodes:
        out.append(
            f'  n{nd.node_id} [label="{nd.node_id}" input_a="{_hex(nd.a, n)}" '
            f'input_b="{_hex(nd.b, n)}" output="{_hex(nd.c, n)}" '
            f'weight="{dyadic_str(nd.hw)}" hw="{nd.hw}"];'
        )
    for src, dst, label in graph.edges:
        out.append(f'  n{src} -> n{dst} [label="{label}"];')
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")


def reference_cypher(graph):
    n = graph.word_size
    out = []
    for nd in graph.nodes:
        out.append(
            f"CREATE (:DIFFERENTIALS {{id: {nd.node_id}, input_a: '{_hex(nd.a, n)}', "
            f"input_b: '{_hex(nd.b, n)}', output: '{_hex(nd.c, n)}', "
            f"weight: {dyadic_str(nd.hw)}, hw: {nd.hw}}});"
        )
    for src, dst, label in graph.edges:
        out.append(
            f"MATCH (a:DIFFERENTIALS {{id: {src}}}), (b:DIFFERENTIALS {{id: {dst}}}) "
            f"CREATE (a)-[:{label}]->(b);"
        )
    return ("\n".join(out) + "\n").encode("utf-8")


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
        node = DiffNode(7, a, b, c, 2.0 ** -hw, hw)
        columns = node_columns([node], 64)
        ops = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "==": operator.eq}
        for value in (bound, a, a + 1, c - 1, 2.0 ** -hw):
            expected = ops[op](reference_field(node, field), value)
            assert Predicate(field, op, value).select(columns) == ([7] if expected else [])


    def test_select_is_exact_above_2_53(self):
        # 2^53 + 1 rounds to the float 2^53, so a numpy mask would match it
        columns = node_columns([DiffNode(0, 2**53 + 1, 0, 0, 1.0, 0)], 64)
        assert Predicate("input_a", "=", float(2**53)).select(columns) == []
        assert Predicate("input_a", ">=", float(2**53 + 2)).select(columns) == []
        assert Predicate("input_a", "=", 2**53 + 1).select(columns) == [0]

    @pytest.mark.parametrize("label", ["A,B", 'A"<B', "", "1A", "A B", "A-B", "\u00c5"])
    def test_relation_label_must_be_identifier(self, label):
        # the label is written unquoted into the edges CSV, DOT and Cypher
        with pytest.raises(RuleError, match="must match"):
            EdgeRule(Predicate("output", "=", 0), Predicate("weight", ">=", 0.5),
                     relation_label=label)

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
        assert g.edges == []

    def test_hub_fixture_240_960(self, hub_graph):
        assert len(hub_graph.nodes) == 240
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
        sources = [nd.node_id for nd in g.nodes if nd.c == 0]
        targets = [nd.node_id for nd in g.nodes if nd.dp >= 0.5]
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


class TestAdjacency:
    def test_rows_sorted_without_duplicates(self):
        nodes = [DiffNode(i, i, i, 0, 0.5, 1) for i in (3, 0, 2)]
        edges = [(3, 0, "F"), (0, 2, "E"), (3, 0, "E"), (0, 2, "E"), (3, 2, "E"), (2, 2, "E")]
        g = DiffGraph(node_columns(nodes, 4), edges)
        assert g.successors == {3: [0, 2], 0: [2], 2: [2]}
        assert g.predecessors == {3: [], 0: [3], 2: [0, 2, 3]}
        assert len(g.edges) == 6

    def test_duplicate_node_ids_rejected(self):
        nodes = [DiffNode(4, 1, 1, 0, 0.5, 1), DiffNode(4, 3, 3, 0, 0.25, 2)]
        with pytest.raises(ParameterError, match="duplicate node ids"):
            DiffGraph(node_columns(nodes, 4), [])

    @given(digraphs())
    def test_rows_are_the_sorted_edge_sets(self, g):
        successors, predecessors = reference_adjacency(g)
        for u in successors:
            assert g.successors[u] == sorted(set(successors[u]))
            assert g.predecessors[u] == sorted(set(predecessors[u]))


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
        nodes = [DiffNode(i, i, i, 0, 0.5, 1) for i in range(5)]
        edges = [(0, i, "E") for i in range(1, 5)]
        s = graph_stats(DiffGraph(node_columns(nodes, 4), edges))
        assert s.clustering[0] == 0.0

    def test_components(self):
        nodes = [DiffNode(i, i, i, 0, 0.5, 1) for i in range(4)]
        g = DiffGraph(node_columns(nodes, 4), [(0, 1, "E"), (2, 3, "E")])
        assert graph_stats(g).components == [[0, 1], [2, 3]]

    @given(digraphs())
    def test_matches_reference(self, g):
        assert graph_stats(g) == reference_stats(g)

    def test_hub_fixture_matches_reference(self, hub_graph):
        assert graph_stats(hub_graph) == reference_stats(hub_graph)


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
    @given(digraphs())
    def test_matches_reference_dfs(self, g):
        ids = [nd.node_id for nd in g.nodes]
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
        hw = table.hw.tolist()
        assert g.nodes == [DiffNode(i, a, b, c, 2.0 ** -w, w) for i, a, b, c, w in
                           zip(range(len(hw)), table.a.tolist(), table.b.tolist(),
                               table.c.tolist(), hw)]
        for export, reference in REFERENCE_EXPORTS.items():
            assert export(g) == reference(g)
        back = from_csv(to_nodes_csv(g), to_edges_csv(g))  # word size is not kept
        assert (back.nodes, back.edges) == (g.nodes, g.edges)

    def test_empty_graph_matches_reference(self):
        g = from_csv(NODES_HEADER.encode(), b"src_id,dst_id,label\n")
        assert g.nodes == [] and g.edges == []
        for export, reference in REFERENCE_EXPORTS.items():
            assert export(g) == reference(g)
        assert to_cypher(g) == b"\n"
        assert to_nodes_csv(g) == NODES_HEADER.encode()

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_value_wider_than_word_size_rejected(self, fmt, field):
        values = [0, 0, 0]
        values[field - 1] = 0x10
        g = DiffGraph(node_columns([DiffNode(0, *values, 1.0, 0)], 4), [])
        with pytest.raises(ParameterError, match="does not fit in 4 bits"):
            export_graph(g, fmt)

    def test_id_the_reader_refuses_is_not_written(self):
        g = DiffGraph(node_columns([DiffNode(10**18, 0, 0, 0, 1.0, 0)], 4), [])
        with pytest.raises(ParameterError, match="row id 1000000000000000000 has more than 18"):
            to_nodes_csv(g)

    def test_largest_id_round_trips(self):
        g = DiffGraph(node_columns([DiffNode(10**18 - 1, 0x5, 0x3, 0x6, 0.5, 1)], 4), [])
        back = from_csv(to_nodes_csv(g), b"")
        assert back == g
        assert back.nodes == [DiffNode(10**18 - 1, 0x5, 0x3, 0x6, 0.5, 1)]

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_value_within_hex_width_but_wider_than_word_size_rejected(self, fmt):
        g = DiffGraph(node_columns([DiffNode(0, 0xff, 0, 0, 1.0, 0)], 5), [])
        with pytest.raises(ParameterError, match="does not fit in 5 bits"):
            export_graph(g, fmt)

    def test_unknown_format(self):
        with pytest.raises(ParameterError):
            export_graph(make_two_node_graph(), "gexf")


LABEL_RULE = "must be a label matching [A-Za-z_][A-Za-z0-9_]*"


class TestEdgesReader:
    NODES = (NODES_HEADER + "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n").encode()

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

    @pytest.mark.parametrize("label", ['A"<B', "", "1A", "A B", "A;B"])
    def test_label_that_is_not_an_identifier_names_its_line(self, label):
        edges = f"src_id,dst_id,label\n0,1,E\n1,0,{label}\n".encode("utf-8")
        with pytest.raises(ValueError) as err:
            from_csv(self.NODES, edges)
        assert str(err.value) == f"line 3: field 3 {LABEL_RULE}, got {label!r}"

    def test_good_lines_read(self):
        g = from_csv(self.NODES, b"# note\r\nsrc_id,dst_id,label\r\n0,1,E\r\n\n1,1,F\n")
        assert g.edges == [(0, 1, "E"), (1, 1, "F")]
