import hashlib
import itertools
import subprocess
import sys

import pytest

from conftest import over_edge_limit_sample
from diffgraph.cli import main
from diffgraph.differential import brute_force_dp


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["pddt", "build", "--frobnicate"])
        assert err.value.code == 2

    def test_entry_point_help(self):
        out = subprocess.run([sys.executable, "-m", "diffgraph.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "pddt" in out.stdout

    def test_runtime_error_distinct_exit(self, tmp_path, capsys):
        rc = main(["pddt", "stats", "--input", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_flag_is_usage_error(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("threshold=0.5\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "pddt", "build", "--n", "4",
                  "--threshold", "0.5", "--out", str(tmp_path / "t.csv")])
        assert err.value.code == 2

    def test_directory_input_is_runtime_error(self, tmp_path, capsys):
        assert main(["pddt", "stats", "--input", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert "Traceback" not in err


class TestPddtCommands:
    def test_build_matches_oracle(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.25,
                   "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        triples = {(int(r[1], 16), int(r[2], 16), int(r[3], 16)) for r in rows}
        oracle = {
            (a, b, c) for a, b, c in itertools.product(range(16), repeat=3)
            if brute_force_dp(a, b, c, 4) >= 0.25
        }
        assert triples == oracle

    def test_sample_header_documents_seed(self, tmp_path):
        table = tmp_path / "t.csv"
        sample = tmp_path / "s.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.1, "--out", table)
        run(tmp_path, "pddt", "sample", "--input", table, "--fraction", 0.05,
            "--seed", 42, "--out", sample)
        assert sample.read_text().startswith("# seed=42 fraction=0.05\n")

    def test_no_quota_sample_header_says_so(self, tmp_path):
        table = tmp_path / "t.csv"
        sample = tmp_path / "s.csv"
        run(tmp_path, "pddt", "build", "--n", 8, "--threshold", 0.1, "--out", table)
        assert run(tmp_path, "pddt", "sample", "--input", table, "--fraction", 0.01,
                   "--seed", 3, "--no-quota", "--out", sample) == 0
        assert sample.read_text().startswith("# seed=3 fraction=0.01 quota=0\nid,")

    def test_sample_of_no_row_is_runtime_error(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        sample = tmp_path / "s.csv"
        run(tmp_path, "pddt", "build", "--n", 6, "--threshold", 0.5, "--out", table)
        assert run(tmp_path, "pddt", "sample", "--input", table, "--fraction", 0.001,
                   "--no-quota", "--out", sample) == 1
        assert capsys.readouterr().err == "error: sample fraction 0.001 keeps none of 124 rows\n"
        assert not sample.exists()

    def test_stats_output(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.1, "--out", table)
        capsys.readouterr()
        assert run(tmp_path, "pddt", "stats", "--input", table) == 0
        out = capsys.readouterr().out
        assert "entries: 1372" in out
        assert "min_dp: 0.125" in out

    def test_malformed_table_is_runtime_error(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("id,a,b,c,dp,hw\n0,0x0,0x0,0x0,1,0\n1,0x1,0xzz,0x0,0.5,1\n")
        assert run(tmp_path, "pddt", "sample", "--input", table,
                   "--out", tmp_path / "s.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: field 3 must be 0x")
        assert "Traceback" not in err

    def test_word_size_above_64_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(tmp_path, "pddt", "build", "--n", 65, "--threshold", 1.0, "--out", out) == 1
        assert capsys.readouterr().err == "error: word size 65 outside 1..64\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_elements", [0, -3])
    def test_max_elements_below_one_is_runtime_error(self, tmp_path, capsys, max_elements):
        out = tmp_path / "t.csv"
        assert run(tmp_path, "pddt", "build", "--n", 8, "--threshold", 0.1,
                   "--max-elements", max_elements, "--out", out) == 1
        assert capsys.readouterr().err == f"error: max_elements {max_elements} < 1\n"
        assert not out.exists()

    def test_64_bit_words_build(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(tmp_path, "pddt", "build", "--n", 64, "--threshold", 1.0, "--out", out) == 0
        assert capsys.readouterr().out == f"wrote 4 entries to {out}\n"
        assert out.read_text().splitlines()[2] == ("1,0x0000000000000000,0x8000000000000000,"
                                                   "0x8000000000000000,1,0")

    def test_bad_threshold_is_runtime_error(self, tmp_path):
        assert run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 2.0,
                   "--out", tmp_path / "x.csv") == 1


class TestPipeline:
    def build_all(self, tmp_path, tag):
        table = tmp_path / f"t{tag}.csv"
        sample = tmp_path / f"s{tag}.csv"
        nodes = tmp_path / f"n{tag}.csv"
        edges = tmp_path / f"e{tag}.csv"
        cypher = tmp_path / f"g{tag}.cypher"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.1, "--out", table)
        run(tmp_path, "pddt", "sample", "--input", table, "--fraction", 0.1,
            "--seed", 42, "--out", sample)
        run(tmp_path, "graph", "build", "--input", sample, "--rule", "default",
            "--nodes-out", nodes, "--edges-out", edges)
        run(tmp_path, "graph", "export", "--nodes", nodes, "--edges", edges,
            "--format", "cypher", "--out", cypher)
        return [p.read_bytes() for p in (table, sample, nodes, edges, cypher)]

    def test_end_to_end_reproducible(self, tmp_path):
        assert self.build_all(tmp_path, "a") == self.build_all(tmp_path, "b")

    def test_graph_stats_and_paths(self, tmp_path, capsys):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        table = tmp_path / "t.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.1, "--out", table)
        run(tmp_path, "graph", "build", "--input", table, "--rule", "default",
            "--nodes-out", nodes, "--edges-out", edges)
        capsys.readouterr()
        assert run(tmp_path, "graph", "stats", "--nodes", nodes, "--edges", edges) == 0
        out = capsys.readouterr().out
        assert "nodes: 1372" in out
        assert run(tmp_path, "graph", "paths", "--nodes", nodes, "--edges", edges,
                   "--src", 0, "--dst", 1, "--max-hops", 2, "--limit", 5) == 0
        assert "hops=" in capsys.readouterr().out

    def test_paths_along_a_chain_past_the_recursion_limit(self, tmp_path, capsys):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        nodes.write_text("id,input_a,input_b,output,weight,hw\n"
                         + "".join(f"{i},{i:#x},{i:#x},0x0,0.5,1\n" for i in range(1200)))
        edges.write_text("src_id,dst_id,label\n" + "".join(f"{i},{i + 1},E\n" for i in range(1199)))
        files = ("--nodes", nodes, "--edges", edges, "--src", 0, "--dst", 1199)
        assert run(tmp_path, "graph", "paths", *files, "--max-hops", 1199) == 0
        path = "->".join(map(str, range(1200)))
        assert capsys.readouterr().out == f"1: hops=1199 total_dp=600.0 path={path}\n"
        assert run(tmp_path, "bench", "compare", *files, "--playouts", 1, "--max-depth", 1199) == 0
        rows = [row.split(",")[:6] for row in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["mcs", "0", "1", "1199", "600.0", "1199"],
                        ["graph", "0", "0", "1199", "600.0", "1199"]]

    def test_paths_negative_limit_is_runtime_error(self, tmp_path, capsys):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        nodes.write_text("id,input_a,input_b,output,weight,hw\n"
                         "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n")
        edges.write_text("src_id,dst_id,label\n0,1,OUTPUT_WEIGHT\n")
        assert run(tmp_path, "graph", "paths", "--nodes", nodes, "--edges", edges,
                   "--src", 0, "--dst", 1, "--limit", -1) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: limit -1 < 1\n"
        assert captured.out == ""

    def test_graph_past_the_edge_limit_is_runtime_error(self, tmp_path, capsys):
        table, nodes, edges = tmp_path / "t.csv", tmp_path / "n.csv", tmp_path / "e.csv"
        table.write_bytes(over_edge_limit_sample().to_csv())
        assert run(tmp_path, "graph", "build", "--input", table, "--rule", "default",
                   "--nodes-out", nodes, "--edges-out", edges) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rule makes 16385 x 16385 = 268468225 edges")
        assert captured.out == ""
        assert not nodes.exists() and not edges.exists()

    def test_malformed_edges_is_runtime_error(self, tmp_path, capsys):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        nodes.write_text("id,input_a,input_b,output,weight,hw\n"
                         "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n")
        edges.write_text("src_id,dst_id,label\n1,2\n")
        assert run(tmp_path, "graph", "stats", "--nodes", nodes, "--edges", edges) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: expected 3 comma-separated fields, got 2\n"
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "graphml", "dot", "cypher"])
    def test_dangling_edge_is_runtime_error(self, tmp_path, capsys, fmt):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        nodes.write_text("id,input_a,input_b,output,weight,hw\n"
                         "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n")
        edges.write_text("src_id,dst_id,label\n0,1,E\n0,99999,E\n")
        assert run(tmp_path, "graph", "export", "--nodes", nodes, "--edges", edges,
                   "--format", fmt, "--out", tmp_path / f"g.{fmt}") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: edge (0, 99999) references a missing node\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "n.csv"]

    def test_inline_predicates(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.5, "--out", table)
        capsys.readouterr()
        assert run(tmp_path, "graph", "build", "--input", table,
                   "--source-predicate", "output=0", "--target-predicate", "weight>=0.5",
                   "--no-self-loops",
                   "--nodes-out", tmp_path / "n.csv", "--edges-out", tmp_path / "e.csv") == 0
        assert "graph:" in capsys.readouterr().out

    @pytest.mark.parametrize("predicate, value", [("output=abc", "'abc'"), ("output=", "''")])
    def test_unparsable_predicate_value_is_runtime_error(self, tmp_path, capsys, predicate, value):
        table, nodes, edges = tmp_path / "t.csv", tmp_path / "n.csv", tmp_path / "e.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.5, "--out", table)
        capsys.readouterr()
        assert run(tmp_path, "graph", "build", "--input", table,
                   "--source-predicate", predicate, "--target-predicate", "hw=0",
                   "--nodes-out", nodes, "--edges-out", edges) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot parse value {value} "
                                f"in predicate '{predicate}'\n")
        assert captured.out == ""
        assert not nodes.exists() and not edges.exists()

    def test_hex_predicate_value_equals_decimal(self, tmp_path):
        table = tmp_path / "t.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.5, "--out", table)
        written = []
        for value in ("0", "0x0"):
            nodes, edges = tmp_path / f"n{value}.csv", tmp_path / f"e{value}.csv"
            assert run(tmp_path, "graph", "build", "--input", table,
                       "--source-predicate", f"output={value}", "--target-predicate", "hw<=1",
                       "--nodes-out", nodes, "--edges-out", edges) == 0
            written.append((nodes.read_bytes(), edges.read_bytes()))
        assert written[0] == written[1]
        assert written[0][1].count(b"\n") > 1

    @pytest.mark.parametrize("value", ["9007199254740993", "0x20000000000001"])
    def test_integer_predicate_value_is_exact_above_2_53(self, tmp_path, value):
        # 2^53 and 2^53 + 1 are the same float
        table, nodes, edges = tmp_path / "t.csv", tmp_path / "n.csv", tmp_path / "e.csv"
        table.write_text("id,a,b,c,dp,hw\n"
                         "0,0x0020000000000000,0x0000000000000000,0x0000000000000000,1,0\n"
                         "1,0x0020000000000001,0x0000000000000000,0x0000000000000000,1,0\n")
        assert run(tmp_path, "graph", "build", "--input", table,
                   "--source-predicate", f"input_a={value}", "--target-predicate", "hw=0",
                   "--nodes-out", nodes, "--edges-out", edges) == 0
        assert edges.read_text().splitlines()[1:] == ["1,0,OUTPUT_WEIGHT", "1,1,OUTPUT_WEIGHT"]

    def test_preset_takes_self_loop_and_label_flags(self, tmp_path):
        table, nodes, edges = tmp_path / "t.csv", tmp_path / "n.csv", tmp_path / "e.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.5, "--out", table)
        assert run(tmp_path, "graph", "build", "--input", table, "--rule", "default",
                   "--no-self-loops", "--relation-label", "HUB",
                   "--nodes-out", nodes, "--edges-out", edges) == 0
        rows = [line.split(",") for line in edges.read_text().splitlines()[1:]]
        assert rows and all(label == "HUB" and src != dst for src, dst, label in rows)

    @pytest.mark.parametrize("label", ["A,B", 'A"<B'])
    def test_relation_label_must_be_identifier(self, tmp_path, capsys, label):
        # 'A,B' used to write an edges file every later graph command rejected
        table, nodes, edges = tmp_path / "t.csv", tmp_path / "n.csv", tmp_path / "e.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.5, "--out", table)
        capsys.readouterr()
        assert run(tmp_path, "graph", "build", "--input", table, "--rule", "default",
                   "--relation-label", label, "--nodes-out", nodes, "--edges-out", edges) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: relation label {label!r} must match "
                                "[A-Za-z_][A-Za-z0-9_]*\n")
        assert captured.out == ""
        assert not nodes.exists() and not edges.exists()

    def test_golden_cypher_two_node_fixture(self, tmp_path, capsys):
        nodes = tmp_path / "n.csv"
        edges = tmp_path / "e.csv"
        nodes.write_text("id,input_a,input_b,output,weight,hw\n"
                         "0,0x1,0x1,0x0,0.5,1\n1,0x3,0x3,0x0,0.25,2\n")
        edges.write_text("src_id,dst_id,label\n0,1,OUTPUT_WEIGHT\n")
        out = tmp_path / "g.cypher"
        assert run(tmp_path, "graph", "export", "--nodes", nodes, "--edges", edges,
                   "--format", "cypher", "--out", out) == 0
        text = out.read_text()
        assert text.splitlines()[0] == (
            "CREATE (:DIFFERENTIALS {id: 0, input_a: '0x1', input_b: '0x1', "
            "output: '0x0', weight: 0.5, hw: 1});"
        )
        assert text.endswith("CREATE (a)-[:OUTPUT_WEIGHT]->(b);\n")


class TestBenchCommands:
    @pytest.fixture
    def graph_files(self, tmp_path):
        table = tmp_path / "t.csv"
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        run(tmp_path, "pddt", "build", "--n", 4, "--threshold", 0.25, "--out", table)
        run(tmp_path, "graph", "build", "--input", table, "--rule", "default",
            "--nodes-out", nodes, "--edges-out", edges)
        return nodes, edges

    def test_mcs_report(self, graph_files, tmp_path, capsys):
        nodes, edges = graph_files
        capsys.readouterr()
        assert run(tmp_path, "bench", "mcs", "--nodes", nodes, "--edges", edges,
                   "--src", 0, "--playouts", 50, "--seed", 9) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,seed,playouts")
        assert "mcs,9,50" in out

    def test_compare_report(self, graph_files, tmp_path, capsys):
        nodes, edges = graph_files
        capsys.readouterr()
        assert run(tmp_path, "bench", "compare", "--nodes", nodes, "--edges", edges,
                   "--src", 0, "--dst", 1, "--playouts", 100, "--seed", 3,
                   "--max-depth", 4) == 0
        out = capsys.readouterr().out
        assert "mcs,3,100" in out and "graph," in out

    def test_mcs_unknown_dst_is_runtime_error(self, graph_files, tmp_path, capsys):
        nodes, edges = graph_files
        capsys.readouterr()
        assert run(tmp_path, "bench", "mcs", "--nodes", nodes, "--edges", edges,
                   "--src", 0, "--dst", 99999) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: target node 99999 not in graph\n"
        assert captured.out == ""


class TestGolden:
    """sha256 of every file and report of one n=8 chain, fixed when graph
    nodes were still per-row objects; `elapsed_ms` is left out."""

    EXPECTED = {
        "t.csv": "b681f8ba60edce2f41935d359bf5c2a6e1b2dc2c76cd4f7fe141e5d63f03e113",
        "s.csv": "b1731d524d8910f47484858b1be6c4bd4a33dd59764818357e0e948075c39a38",
        "n.csv": "3c5e547af0867b90c6ab30dfaa2c3d125406fd759507f7f8ad13f72cd1b8ef9b",
        "e.csv": "61ed046cfb7d40cc50aeabeeff8b23c1b5daa83e7305c8790b50a97f04a15d7a",
        "g.nodes.csv": "3c5e547af0867b90c6ab30dfaa2c3d125406fd759507f7f8ad13f72cd1b8ef9b",
        "g.edges.csv": "61ed046cfb7d40cc50aeabeeff8b23c1b5daa83e7305c8790b50a97f04a15d7a",
        "g.graphml": "88f628d56070a1ff4e9da5084ce572fd7534d7bda4570bde074b66c9d6090729",
        "g.dot": "c5dbe6e83bd211f8d91691c3ecc359e9b2b7d36e914265277ad4a1b147d37a2d",
        "g.cypher": "4c97312e5b013232db4037f75b697f440c11b3bb28107e0d9af92dbaac7320f5",
        "stats": "fed280b245df09c93fad201e0c5a58225ffa7e24fdfe3a1ad9bc5eb949b3dd4a",
        "paths": "1025f2681dcae08044277b94fdd7182e944d46a5af59b048537a71d880d77aeb",
        "compare": "8d5e0bdfa9e7ee2d91c72df0274202de0c1cfa06fa79702802f61f41a02c30c0",
    }

    def test_chain_bytes(self, tmp_path, capsys):
        table, sample = tmp_path / "t.csv", tmp_path / "s.csv"
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        graph_in = ["--nodes", nodes, "--edges", edges]
        assert run(tmp_path, "pddt", "build", "--n", 8, "--threshold", 0.1, "--out", table) == 0
        assert run(tmp_path, "pddt", "sample", "--input", table, "--fraction", 0.1,
                   "--seed", 3, "--out", sample) == 0
        assert run(tmp_path, "graph", "build", "--input", sample, "--rule", "default",
                   "--nodes-out", nodes, "--edges-out", edges) == 0
        for fmt in ("csv", "graphml", "dot", "cypher"):
            assert run(tmp_path, "graph", "export", *graph_in, "--format", fmt,
                       "--out", tmp_path / f"g.{fmt}") == 0
        capsys.readouterr()
        reports = {}
        assert run(tmp_path, "graph", "stats", *graph_in) == 0
        reports["stats"] = capsys.readouterr().out
        assert run(tmp_path, "graph", "paths", *graph_in, "--src", 73, "--dst", 333,
                   "--max-hops", 3, "--limit", 5) == 0
        reports["paths"] = capsys.readouterr().out
        assert run(tmp_path, "bench", "compare", *graph_in, "--src", 73, "--dst", 333,
                   "--playouts", 200, "--seed", 5, "--max-depth", 4) == 0
        reports["compare"] = "".join(line.rpartition(",")[0] + "\n"
                                     for line in capsys.readouterr().out.splitlines())
        files = ["t.csv", "s.csv", "n.csv", "e.csv", "g.nodes.csv", "g.edges.csv",
                 "g.graphml", "g.dot", "g.cypher"]
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in files}
        got.update((name, hashlib.sha256(text.encode()).hexdigest())
                   for name, text in reports.items())
        assert got == self.EXPECTED
