"""The line codec on any number of CPUs: for a file of _POOL_BYTES or more,
the writer lays out chunks and the readers split runs on a thread pool
sized by the CPUs the process may use. These tests force that count for
files of any size and shrink the chunks and runs, so that every input
spans dozens of them, and check that nothing but the speed changes."""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_hub_sample
from diffgraph import pddt as pddt_module
from diffgraph.differential import dyadic_str
from diffgraph.graph import (EXPORT_FORMATS, DiffGraph, Edges, _read_edges, build_graph,
                             default_edge_rule, export_graph, from_csv, to_edges_csv,
                             to_nodes_csv)
from diffgraph.pddt import (Pddt, PddtConfig, build_pddt, decode_differential_csv,
                            differential_csv, join_lines, node_columns)

WORKERS = [1, 2, 3]


def force_workers(monkeypatch, workers: int) -> None:
    """Run the codec on `workers` threads whatever the file's size, at most
    16 rows to a written chunk (every line written here is 24 bytes or
    wider) and about 600 bytes of input to a read run."""
    monkeypatch.setattr(pddt_module, "_cpus", lambda: workers)
    monkeypatch.setattr(pddt_module, "_POOL_BYTES", 0)
    monkeypatch.setattr(pddt_module, "_WRITE_CHUNK_BYTES", 16 * 24 * workers)
    monkeypatch.setattr(pddt_module, "_READ_CHUNK_BYTES", 600 * workers)


@pytest.fixture(params=WORKERS)
def workers(request, monkeypatch):
    force_workers(monkeypatch, request.param)
    return request.param


@pytest.fixture(scope="module")
def table():
    return build_pddt(PddtConfig(8, 0.25))  # 3,196 rows


def labelled_graph() -> DiffGraph:
    """A graph of three labels whose ids need more than 32 bits."""
    t = build_pddt(PddtConfig(6, 0.5))
    ids = [k * 10**12 + 7 for k in range(len(t))]
    nodes = node_columns(zip(ids, t.a.tolist(), t.b.tolist(), t.c.tolist(), t.hw.tolist()), 8)
    rng = np.random.default_rng(3)
    src, dst = (rng.choice(ids, 900) for _ in range(2))
    labels = ("E", "OUTPUT_WEIGHT", "_x9")
    return DiffGraph(nodes, Edges(src, dst, rng.integers(0, 3, 900), labels))


@pytest.fixture(scope="module")
def graphs():
    return [build_graph(make_hub_sample(), default_edge_rule()), labelled_graph()]


def outputs(table, graphs) -> list:
    """Every artifact the writer makes of the table and the graphs."""
    out = [table.to_csv()]
    for g in graphs:
        for fmt in EXPORT_FORMATS:
            out.extend(export_graph(g, fmt).values())
    return out


@pytest.fixture(scope="module")
def expected(table, graphs):
    """The artifacts written as one chunk on the calling thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pddt_module, "_cpus", lambda: 1)
        return outputs(table, graphs)


class TestSameBytes:
    def test_every_artifact(self, workers, table, graphs, expected):
        got = outputs(table, graphs)
        assert len(got) == 11
        for data, want in zip(got, expected):
            assert data == want

    def test_streamed_table(self, workers, table, expected):
        class Sink:
            def __init__(self):
                self.parts = []

            def write(self, data):
                self.parts.append(bytes(data))

        sink = Sink()
        table.write_csv(sink)
        assert len(sink.parts) > 100 and b"".join(sink.parts) == expected[0]


class TestSameColumns:
    def test_table(self, workers, table, expected):
        decoded = decode_differential_csv(expected[0])
        assert decoded.word_size == 8
        assert decoded.ids.tolist() == list(range(len(table)))
        for got, want in zip(decoded[1:5], (table.a, table.b, table.c, table.hw)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_graphs(self, workers, graphs):
        for g in graphs:
            back = from_csv(to_nodes_csv(g), to_edges_csv(g))
            assert back == g
            assert back.edges.labels == g.edges.labels
            assert np.array_equal(back.edges.codes, g.edges.codes)

    def test_labels_of_later_runs(self, workers):
        # the first runs name G alone; later runs name E and F, which a run
        # would code before G
        lines = ["0,1,G"] * 300 + ["1,0,F", "0,1,E", "1,1,G"] * 100
        columns, labels = _read_edges(("\n".join(lines) + "\n").encode())
        edges = Edges(*columns, labels)
        assert edges.labels == ("G", "E", "F")
        assert [edges.labels[code] for code in edges.codes] == [line[-1] for line in lines]

    def test_word_size_of_an_earlier_run(self, workers, expected):
        # one 4-digit word near the start makes the table 16 bits wide
        lines = expected[0].decode().splitlines()
        lines[5] = lines[5].replace(",0x", ",0x00", 1)
        assert decode_differential_csv(("\n".join(lines) + "\n").encode()).word_size == 16

    @pytest.mark.parametrize("line, message", [
        ("7,0x1,0x1", "line 1302: expected 6 comma-separated fields, got 3"),
        ("7,0x1,0xg,0x0,0.5,1", "line 1302: field 3 must be 0x and 1 to 16 hex digits, got '0xg'"),
    ])
    def test_error_text(self, workers, table, expected, line, message):
        lines = expected[0].decode().splitlines()
        lines[1301] = line
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_differential_csv(("\n".join(lines) + "\n").encode())

    def test_earlier_of_two_bad_runs_raises(self, workers, table, expected):
        lines = expected[0].decode().splitlines()
        lines[200] = "1,0x1,0x1,0x0,0.5,256"  # line 201, in an early run
        lines[3000] = "bad"  # line 3001, in a late run, which fails sooner
        with pytest.raises(ValueError, match="^line 201: field 6 "):
            decode_differential_csv(("\n".join(lines) + "\n").encode())


def test_small_file_starts_no_thread(monkeypatch, expected):
    monkeypatch.setattr(pddt_module, "_cpus", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", lambda *args: pytest.fail("thread started"))
    assert len(expected[0]) < pddt_module._POOL_BYTES
    decoded = decode_differential_csv(expected[0])
    assert Pddt(8, *decoded[1:5]).to_csv() == expected[0]


class TestThreadsJoined:
    def test_after_read_and_write(self, workers, table, expected):
        before = threading.active_count()
        assert table.to_csv() == expected[0]
        decode_differential_csv(expected[0])
        assert threading.active_count() == before

    def test_after_a_write_that_raises(self, workers, table):
        class FailingSink:
            calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls == 5:
                    raise OSError("disk full")

        before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            table.write_csv(FailingSink())
        assert threading.active_count() == before

    def test_after_a_read_that_raises(self, workers, expected):
        lines = expected[0].decode().splitlines()
        lines[2500] = "x"
        before = threading.active_count()
        with pytest.raises(ValueError, match="^line 2501: "):
            decode_differential_csv(("\n".join(lines) + "\n").encode())
        assert threading.active_count() == before


# the first and last id of each digit count, up to the largest id
EDGE_IDS = sorted({10**k - 1 for k in range(1, 19)} | {10**k for k in range(18)})


@st.composite
def differential_rows(draw):
    """Columns of 1 to 40 rows: ids around powers of ten or a range of row
    numbers, and words of any word size."""
    n = draw(st.integers(1, 64))
    size = draw(st.integers(1, 40))
    ids = draw(st.one_of(
        st.lists(st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 10**18 - 1)),
                 min_size=size, max_size=size).map(lambda x: np.array(x, dtype=np.int64)),
        st.sampled_from(EDGE_IDS[:-1]).map(lambda lo: range(max(0, lo - size // 2),
                                                            max(0, lo - size // 2) + size))))
    word = st.one_of(st.sampled_from([0, 1, 2**n - 1, 2 ** (n - 1)]), st.integers(0, 2**n - 1))
    a, b, c = (np.array(draw(st.lists(word, min_size=size, max_size=size)), dtype=np.uint64)
               for _ in range(3))
    hw = np.array(draw(st.lists(st.integers(0, 40), min_size=size, max_size=size)), dtype=np.uint8)
    return n, ids, a, b, c, hw


@given(differential_rows(), st.sampled_from(WORKERS))
def test_rows_match_the_reference_formatter(rows, workers):
    n, ids, a, b, c, hw = rows
    digits = -(-n // 4)
    want = "".join(f"{i},0x{int(x):0{digits}x},0x{int(y):0{digits}x},0x{int(z):0{digits}x},"
                   f"{dyadic_str(int(w))},{int(w)}\n"
                   for i, x, y, z, w in zip(ids, a, b, c, hw))
    with pytest.MonkeyPatch.context() as patch:
        force_workers(patch, workers)
        # at most 3 rows to a chunk: these lines are 21 bytes or wider
        patch.setattr(pddt_module, "_WRITE_CHUNK_BYTES", 3 * 21 * workers)
        assert join_lines(differential_csv("h", ids, a, b, c, hw, n)) == ("h\n" + want).encode()
