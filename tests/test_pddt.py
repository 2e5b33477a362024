import functools
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffgraph import pddt as pddt_module
from diffgraph.differential import (brute_force_dp, differential_weight, dyadic_str,
                                    is_valid_differential)
from diffgraph.pddt import (
    DiffNode,
    Pddt,
    PddtConfig,
    PddtOverflowError,
    SampleSpec,
    build_pddt,
    node_columns,
    partial_dp,
    pddt_stats,
    sample_pddt,
)
from diffgraph.simon import ParameterError


def oracle_set(n, threshold):
    return {
        (a, b, c)
        for a, b, c in itertools.product(range(1 << n), repeat=3)
        if brute_force_dp(a, b, c, n) >= threshold
    }


class TestBuild:
    def test_threshold_one_only_certain_differentials(self):
        t = build_pddt(PddtConfig(4, 1.0))
        assert all(d.hw == 0 for d in t)
        assert (0, 0, 0) in t.triples()
        assert t.triples() == oracle_set(4, 1.0)

    @pytest.mark.parametrize("threshold", [0.5, 0.25, 0.1])
    def test_exhaustive_equivalence_n4(self, threshold):
        t = build_pddt(PddtConfig(4, threshold))
        assert t.triples() == oracle_set(4, threshold)
        for d in t:
            assert d.dp >= threshold

    def test_sorted_and_deduplicated(self):
        t = build_pddt(PddtConfig(8, 0.25))
        triples = list(zip(t.a.tolist(), t.b.tolist(), t.c.tolist()))
        assert triples == sorted(triples)
        assert len(triples) == len(set(triples))

    def test_threshold_nesting(self):
        loose = build_pddt(PddtConfig(8, 0.1)).triples()
        tight = build_pddt(PddtConfig(8, 0.5)).triples()
        assert tight <= loose

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
    def test_one_bit_words(self, threshold, workers):
        t = build_pddt(PddtConfig(1, threshold), workers=workers)
        assert t.triples() == oracle_set(1, threshold)

    def test_iterates_as_nodes_numbered_by_position(self):
        t = build_pddt(PddtConfig(4, 0.25))
        rows = zip(t.a.tolist(), t.b.tolist(), t.c.tolist(), t.hw.tolist())
        assert list(t) == [DiffNode(i, a, b, c, 2.0 ** -hw, hw)
                           for i, (a, b, c, hw) in enumerate(rows)]

    def test_node_columns_invert_make_nodes(self):
        t = build_pddt(PddtConfig(4, 0.25))
        cols = node_columns(t, 4)
        assert cols.ids.tolist() == list(range(len(t))) and cols.word_size == 4
        for got, want in zip(cols[1:5], (t.a, t.b, t.c, t.hw)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_node_columns_reject_dp_other_than_two_to_minus_hw(self):
        with pytest.raises(ParameterError, match="node 3: dp 0.25 is not 2\\^-1"):
            node_columns([DiffNode(3, 1, 1, 0, 0.25, 1)], 4)

    def test_worker_counts_agree(self):
        csvs = {build_pddt(PddtConfig(8, 0.1), workers=w).to_csv() for w in (1, 4)}
        assert len(csvs) == 1

    def test_build_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise RuntimeError("thread started")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        csvs = {build_pddt(PddtConfig(8, 0.1), workers=w).to_csv() for w in (None, 1, 4)}
        assert len(csvs) == 1

    def test_resolve_workers_defaults_to_one(self):
        assert pddt_module.resolve_workers(None) == pddt_module.resolve_workers(0) == 1
        assert pddt_module.resolve_workers(3) == 3

    def test_repeat_builds_identical(self):
        cfg = PddtConfig(8, 0.25)
        assert build_pddt(cfg).to_csv() == build_pddt(cfg).to_csv()

    def test_max_elements_overflow(self):
        with pytest.raises(PddtOverflowError) as err:
            build_pddt(PddtConfig(8, 0.1, max_elements=100))
        assert err.value.count > 100

    def test_bad_threshold(self):
        with pytest.raises(ParameterError):
            PddtConfig(4, 0.0)
        with pytest.raises(ParameterError):
            PddtConfig(4, 1.5)

    @pytest.mark.parametrize("word_size", [0, 65])
    def test_word_size_outside_1_to_64_rejected(self, word_size):
        # the columns are uint64; a shift by 64 or more would wrap to 0
        with pytest.raises(ParameterError, match=f"word size {word_size} outside 1..64"):
            PddtConfig(word_size, 1.0)

    def test_64_bit_words(self):
        top = 1 << 63
        t = build_pddt(PddtConfig(64, 1.0))
        assert t.triples() == {(0, 0, 0), (0, top, top), (top, 0, top), (top, top, 0)}


@functools.lru_cache(maxsize=None)
def valid_rows(n):
    """Every valid (a, b, c, weight) at word size n, in (a, b, c) order."""
    return [(a, b, c, differential_weight(a, b, c, n))
            for a, b, c in itertools.product(range(1 << n), repeat=3)
            if is_valid_differential(a, b, c, n)]


# thresholds in (0, 1], with the powers of two, where 2^-weight == t
thresholds = st.one_of(st.integers(0, 8).map(lambda k: 2.0 ** -k),
                       st.floats(0, 1, exclude_min=True))


class TestBuildProperties:
    @settings(deadline=None)
    @given(st.integers(1, 5), thresholds)
    def test_rows_are_every_valid_triple_above_threshold(self, n, threshold):
        t = build_pddt(PddtConfig(n, threshold))
        rows = list(zip(t.a.tolist(), t.b.tolist(), t.c.tolist(), t.hw.tolist()))
        assert rows == [row for row in valid_rows(n) if 2.0 ** -row[3] >= threshold]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 12), st.one_of(st.integers(0, 3).map(lambda k: 2.0 ** -k),
                                         st.floats(0.1, 1)))
    def test_worker_counts_write_the_same_csv(self, n, threshold):
        config = PddtConfig(n, threshold)
        assert build_pddt(config, workers=1).to_csv() == build_pddt(config, workers=2).to_csv()


class TestPartialDp:
    def test_empty_prefix(self):
        assert partial_dp(0, 0, 0, 0) == 1.0

    def test_full_prefix_matches_probability(self):
        t = build_pddt(PddtConfig(4, 0.1))
        for d in t:
            assert partial_dp(d.a, d.b, d.c, 4) == d.dp

    def test_monotone_chain_example(self):
        mask = lambda x, k: x & ((1 << k) - 1)
        chain = [partial_dp(mask(1, k), mask(1, k), 0, k) for k in range(5)]
        assert chain == [1.0, 1.0, 0.5, 0.5, 0.5]

    def test_monotone_over_table_n8(self):
        t = build_pddt(PddtConfig(8, 0.1))
        for d in t:
            probs = [partial_dp(d.a & ((1 << k) - 1), d.b & ((1 << k) - 1),
                                d.c & ((1 << k) - 1), k) for k in range(9)]
            assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))

    def test_prefix_too_wide(self):
        with pytest.raises(ParameterError):
            partial_dp(4, 0, 0, 2)


@pytest.fixture(scope="module")
def table():
    return build_pddt(PddtConfig(4, 0.1))


class TestSample:

    def test_full_fraction_is_identity(self, table):
        assert sample_pddt(table, SampleSpec(fraction=1.0)) is table

    def test_deterministic(self, table):
        s1 = sample_pddt(table, SampleSpec(0.03, True, 42))
        s2 = sample_pddt(table, SampleSpec(0.03, True, 42))
        assert s1.to_csv() == s2.to_csv()

    def test_seed_changes_sample(self, table):
        s1 = sample_pddt(table, SampleSpec(0.1, True, 1))
        s2 = sample_pddt(table, SampleSpec(0.1, True, 2))
        assert s1.to_csv() != s2.to_csv()

    def test_quota_covers_every_output(self, table):
        s = sample_pddt(table, SampleSpec(0.03, True, 7))
        assert {int(c) for c in s.c} == {int(c) for c in table.c}

    def test_quota_beats_fraction(self, table):
        # fraction small enough that the per-output quota dominates
        s = sample_pddt(table, SampleSpec(0.001, True, 0))
        distinct = len({int(c) for c in table.c})
        assert len(s) >= distinct

    def test_sample_is_subset(self, table):
        s = sample_pddt(table, SampleSpec(0.05, True, 3))
        assert s.triples() <= table.triples()

    def test_empty_table_rejected(self):
        empty = Pddt(PddtConfig(4, 0.5), [], [], [], [])
        with pytest.raises(ParameterError):
            sample_pddt(empty, SampleSpec())


class TestStats:
    def test_empty(self):
        s = pddt_stats(Pddt(PddtConfig(4, 0.5), [], [], [], []))
        assert s.entries == 0 and s.weight_histogram == {}
        assert s.min_dp is None and s.max_dp is None

    def test_n4_range(self):
        s = pddt_stats(build_pddt(PddtConfig(4, 0.1)))
        assert s.min_dp == 0.125
        assert s.max_dp == 1.0

    def test_histogram_partition(self):
        t = build_pddt(PddtConfig(8, 0.1))
        s = pddt_stats(t)
        assert sum(s.weight_histogram.values()) == s.entries == len(t)


class TestSerialization:
    GOLDEN = (
        "id,a,b,c,dp,hw\n"
        "0,0x0,0x0,0x0,1,0\n"
        "1,0x1,0x1,0x0,0.5,1\n"
        "2,0x3,0x3,0x0,0.25,2\n"
    )

    def golden_table(self):
        return Pddt(PddtConfig(4, 0.25), [0, 1, 3], [0, 1, 3], [0, 0, 0], [0, 1, 2])

    def test_golden_csv(self):
        assert self.golden_table().to_csv().decode() == self.GOLDEN

    def test_roundtrip(self):
        t = build_pddt(PddtConfig(8, 0.25))
        back = Pddt.from_csv(t.to_csv())
        assert back.to_csv() == t.to_csv()
        assert back.config.word_size == 8

    def test_from_csv_skips_comments(self):
        data = ("# seed=42\n" + self.GOLDEN).encode()
        t = Pddt.from_csv(data)
        assert len(t) == 3 and t.config.word_size == 4

    def test_hex_padding_n16(self):
        t = Pddt(PddtConfig(16, 0.5), [1], [1], [0], [1])
        assert b"0x0001,0x0001,0x0000" in t.to_csv()


def seed_to_csv(table):
    """Per-row reference formatter: the oracle for the numpy writer."""
    n = table.config.word_size
    digits = -(-n // 4)
    lines = ["id,a,b,c,dp,hw"]
    for i in range(len(table)):
        hw = int(table.hw[i])
        lines.append(
            f"{i},0x{int(table.a[i]):0{digits}x},0x{int(table.b[i]):0{digits}x},"
            f"0x{int(table.c[i]):0{digits}x},{dyadic_str(hw)},{hw}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def tables(draw, unique=False):
    n = draw(st.integers(1, 32))
    word = st.integers(0, (1 << n) - 1)
    triples = st.tuples(word, word, word)
    keys = draw(st.lists(triples, min_size=1, max_size=40, unique=unique))
    rows = sorted((a, b, c, draw(st.integers(0, min(n, 20)))) for a, b, c in keys)
    return Pddt(PddtConfig(n, 0.5), *zip(*rows))


class TestCodec:
    @given(tables())
    def test_matches_reference_formatter_and_roundtrips(self, table):
        data = table.to_csv()
        assert data == seed_to_csv(table)
        back = Pddt.from_csv(data)
        assert back.config.word_size == -(-table.config.word_size // 4) * 4
        for col in ("a", "b", "c", "hw"):
            assert getattr(back, col).tolist() == getattr(table, col).tolist()

    @given(tables(unique=True), st.randoms(use_true_random=False))
    def test_shuffled_rows_come_back_sorted(self, table, rng):
        header, *rows = table.to_csv().splitlines()
        rng.shuffle(rows)
        back = Pddt.from_csv(b"\n".join([header] + rows) + b"\n")
        for col in ("a", "b", "c", "hw"):
            assert getattr(back, col).tolist() == getattr(table, col).tolist()

    def test_chunk_boundaries(self, monkeypatch):
        table = build_pddt(PddtConfig(8, 0.1))
        expected = seed_to_csv(table)
        monkeypatch.setattr(pddt_module, "_WRITE_CHUNK_ROWS", 7)
        monkeypatch.setattr(pddt_module, "_READ_CHUNK_BYTES", 100)
        assert table.to_csv() == expected
        # CRLF, a comment and a blank line first; a bad line last, in the last chunk
        lines = expected.decode().split("\n")
        data = "\r\n".join(["# comment", ""] + lines[:-2] + ["0,0x01,0x01"]).encode()
        with pytest.raises(ValueError, match=f"^line {len(lines) + 1}: "):
            Pddt.from_csv(data)
        back = Pddt.from_csv(data[:data.rindex(b"\r\n")])  # no final newline
        assert back.to_csv() == expected[:expected.rindex(b"\n", 0, -1) + 1]

    def test_values_checked_against_word_size_not_hex_width(self):
        assert b",0x1f,0x00,0x1f," in Pddt(PddtConfig(5, 0.5), [0x1f], [0], [0x1f], [0]).to_csv()
        for field in range(3):
            cols = [[0], [0], [0]]
            cols[field] = [0x20]
            with pytest.raises(ParameterError, match="does not fit in 5 bits"):
                Pddt(PddtConfig(5, 0.5), *cols, [0]).to_csv()

    def test_empty_input(self):
        for data in (b"", b"id,a,b,c,dp,hw\n", b"# only a comment\n\n"):
            t = Pddt.from_csv(data)
            assert len(t) == 0 and t.config.word_size == 4 and t.config.p_threshold == 1.0

    @pytest.mark.parametrize("line, message", [
        ("0,0x1,0x1,0x0,0.5", "expected 6 comma-separated fields, got 5"),
        ("0,0x1,0x1,0x0,0.5,1,7", "expected 6 comma-separated fields, got 7"),
        ("0,0x1,0xg1,0x0,0.5,1", "field 3 must be 0x and 1 to 16 hex digits, got '0xg1'"),
        ("0,1,0x1,0x0,0.5,1", "field 2 must be 0x and 1 to 16 hex digits, got '1'"),
        ("0,0x1,0x1,0x,0.5,1", "field 4 must be 0x and 1 to 16 hex digits, got '0x'"),
        ("0,0x1,0x1,0x" + "0" * 17 + ",0.5,1", "field 4 must be 0x and 1 to 16 hex digits"),
        ("0,0x1,0x1,0x0,0.5,256", "field 6 must be a decimal weight from 0 to 255, got '256'"),
        ("0,0x1,0x1,0x0,0.5,-1", "field 6 must be a decimal weight from 0 to 255, got '-1'"),
        ("0,0x1,0x1,0x0,0.5,", "field 6 must be a decimal weight from 0 to 255, got ''"),
        ("x,0x1,0x1,0x0,0.5,1", "field 1 must be a decimal id"),
    ])
    def test_malformed_line_names_its_number(self, line, message):
        data = ("# seed=1\nid,a,b,c,dp,hw\n\n0,0x0,0x0,0x0,1,0\n" + line + "\n"
                "1,0x1,0x1,0x0,0.5,1\n0,bad\n").encode()
        with pytest.raises(ValueError) as err:
            Pddt.from_csv(data)
        assert str(err.value).startswith(f"line 5: {message}")


def traced_peak(call):
    """The result of call() and the peak bytes traced while it ran; numpy
    reports its buffers to tracemalloc, so the figure repeats exactly."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(table):
    return sum(getattr(table, col).nbytes for col in ("a", "b", "c", "hw"))


class TestMemory:
    """Each stage holds the table about once: peak traced memory over the
    size of what the stage returns, at n=16, t=0.1 (408,604 rows)."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_pddt(PddtConfig(16, 0.1))

    def test_to_csv_holds_one_buffer(self, table):
        data, peak = traced_peak(table.to_csv)
        assert isinstance(data, bytes)
        assert peak < 2.5 * len(data)

    def test_from_csv_holds_its_columns_once(self, table):
        data = table.to_csv()
        back, peak = traced_peak(lambda: Pddt.from_csv(data))
        ids_bytes = 8 * len(back)
        assert peak < 2.5 * (column_bytes(back) + ids_bytes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_merges_without_copies(self, workers):
        built, peak = traced_peak(lambda: build_pddt(PddtConfig(16, 0.1), workers=workers))
        assert len(built) == 408_604
        assert peak < 3.0 * column_bytes(built)
