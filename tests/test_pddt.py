import collections
import functools
import hashlib
import itertools
import logging
import random
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import node_rows, shuffled_lines, traced_peak, triple_set
from diffgraph import pddt as pddt_module
from diffgraph.differential import (brute_force_dp, differential_weight, dyadic_str,
                                    is_valid_differential)
from diffgraph.pddt import (
    Pddt,
    PddtConfig,
    PddtOverflowError,
    SampleSpec,
    build_pddt,
    node_columns,
    partial_dp,
    pddt_stats,
    sample_pddt,
    stable_order,
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
        assert all(hw == 0 for *_, hw in node_rows(t))
        assert (0, 0, 0) in triple_set(t)
        assert triple_set(t) == oracle_set(4, 1.0)

    @pytest.mark.parametrize("threshold", [0.5, 0.25, 0.1])
    def test_exhaustive_equivalence_n4(self, threshold):
        t = build_pddt(PddtConfig(4, threshold))
        assert triple_set(t) == oracle_set(4, threshold)
        for *_, hw in node_rows(t):
            assert 2.0 ** -hw >= threshold

    def test_sorted_and_deduplicated(self):
        t = build_pddt(PddtConfig(8, 0.25))
        triples = list(zip(t.a.tolist(), t.b.tolist(), t.c.tolist()))
        assert triples == sorted(triples)
        assert len(triples) == len(set(triples))

    def test_threshold_nesting(self):
        loose = triple_set(build_pddt(PddtConfig(8, 0.1)))
        tight = triple_set(build_pddt(PddtConfig(8, 0.5)))
        assert tight <= loose

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
    def test_one_bit_words(self, threshold, workers):
        t = build_pddt(PddtConfig(1, threshold), workers=workers)
        assert triple_set(t) == oracle_set(1, threshold)

    def test_node_columns_invert_make_nodes(self):
        t = build_pddt(PddtConfig(4, 0.25))
        cols = node_columns(node_rows(t), 4)
        assert cols.ids.tolist() == list(range(len(t))) and cols.word_size == 4
        for got, want in zip(cols[1:5], (t.a, t.b, t.c, t.hw)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_worker_counts_agree(self):
        csvs = {build_pddt(PddtConfig(8, 0.1), workers=w).to_csv() for w in (1, 4)}
        assert len(csvs) == 1

    def test_build_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise RuntimeError("thread started")
        with monkeypatch.context() as patched:
            patched.setattr(threading.Thread, "start", no_thread)
            tables = [build_pddt(PddtConfig(8, 0.1), workers=w) for w in (None, 1, 4)]
        assert len({table.to_csv() for table in tables}) == 1  # the writer may start threads

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

    @pytest.mark.parametrize("n, limit, reached", [(8, 100, 196), (16, 50_000, 52_612)])
    def test_max_elements_refused_before_allocation(self, monkeypatch, n, limit, reached):
        largest = []

        def recording(make):
            def wrapper(*args, **kwargs):
                array = make(*args, **kwargs)
                largest.append(array.size)
                return array
            return wrapper

        for name in ("empty", "concatenate"):
            monkeypatch.setattr(np, name, recording(getattr(np, name)))
        with pytest.raises(PddtOverflowError, match=f"^PDDT exceeded max_elements={limit} "
                                                    f"\\(reached {reached}\\)$"):
            build_pddt(PddtConfig(n, 0.1, max_elements=limit))
        assert largest and max(largest) <= limit

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
        assert triple_set(t) == {(0, 0, 0), (0, top, top), (top, 0, top), (top, top, 0)}

    @pytest.mark.parametrize("n", [31, 32, 33, 40])
    def test_rows_ascend_across_the_two_key_boundary(self, n):
        # n = 32 is the widest word the two-key sort takes, n = 33 the narrowest it does not
        t = build_pddt(PddtConfig(n, 0.25))
        rows = list(zip(t.a.tolist(), t.b.tolist(), t.c.tolist()))
        assert all(p < q for p, q in zip(rows, rows[1:]))
        assert pddt_stats(t).weight_histogram == automaton_histogram(n, 2)

    @pytest.mark.parametrize("n,level_dtype", [(8, np.uint8), (9, np.uint16), (16, np.uint16),
                                               (17, np.uint32), (32, np.uint32), (33, np.uint64)])
    def test_levels_of_the_narrowest_word_type(self, monkeypatch, n, level_dtype):
        """The builder's levels hold n-bit words in the narrowest unsigned
        type; on either side of each width the table is the automaton's,
        in uint64 columns."""
        dtypes = []
        gather = pddt_module._gather

        def recording(cols, order):
            dtypes.append([col.dtype for col in cols[:3]])
            gather(cols, order)

        monkeypatch.setattr(pddt_module, "_gather", recording)
        t = build_pddt(PddtConfig(n, 0.25))
        assert dtypes == [[np.dtype(level_dtype)] * 3]
        assert [col.dtype for col in (t.a, t.b, t.c, t.hw)] == [np.uint64] * 3 + [np.uint8]
        assert pddt_stats(t).weight_histogram == automaton_histogram(n, 2)
        rows = list(zip(t.a.tolist(), t.b.tolist(), t.c.tolist()))
        assert rows == sorted(rows)
        assert int(max(t.a.max(), t.b.max(), t.c.max())) >> (n - 1) == 1  # the top bit is set

    @pytest.mark.parametrize("n", [*range(1, 25), 40])
    def test_builder_order_is_the_table_order(self, monkeypatch, n):
        """The builder sorts its last level on (a, b) alone; the order it
        finds is the (a, b, c) order, also past the one-key width of 32 bits."""
        levels = []
        gather = pddt_module._gather

        def recording(cols, order):
            levels.append(([col.copy() for col in cols[:3]], order))
            gather(cols, order)

        monkeypatch.setattr(pddt_module, "_gather", recording)
        build_pddt(PddtConfig(n, 0.25))
        [((a, b, c), order)] = levels
        assert np.array_equal(order, np.lexsort((c, b, a)))


def automaton_histogram(n, max_weight):
    """Rows per weight at word size n, counted by the carry automaton: a
    prefix in state EQ0 or EQ1 (its last bits all 0 or all 1) takes the four
    triples whose xor is that bit at no cost, one in state NEQ takes all
    eight for one more weight; the empty prefix is EQ0 at weight 0."""
    counts = {(0, 0): 1}  # (state, weight) -> prefixes; state 2 is NEQ
    for _ in range(n):
        grown = collections.Counter()
        for (state, w), k in counts.items():
            for x, y, z in itertools.product((0, 1), repeat=3):
                child = x if x == y == z else 2
                if state == 2 and w < max_weight:
                    grown[child, w + 1] += k
                elif state == x ^ y ^ z:
                    grown[child, w] += k
        counts = grown
    hist = collections.Counter()
    for (_, w), k in counts.items():
        hist[w] += k
    return dict(hist)


def test_automaton_histogram_matches_the_n32_table():
    assert automaton_histogram(32, 3) == {0: 4, 1: 744, 2: 66960, 3: 3883680}


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


def level_sizes(n, max_weight):
    """Rows of the builder's level at each bit k: the size of the
    (k+1)-bit table, counted by the automaton."""
    return [sum(automaton_histogram(k + 1, max_weight).values()) for k in range(n)]


class TestLevelSizes:
    def test_levels_are_the_automaton_table_sizes(self, monkeypatch):
        config = PddtConfig(16, 0.1)
        sizes = []
        expand = pddt_module._expand_level

        def recording(*args):
            level = expand(*args)
            sizes.append(len(level[0]))
            return level

        monkeypatch.setattr(pddt_module, "_expand_level", recording)
        build_pddt(config)
        assert sizes == level_sizes(16, config.max_weight)
        assert sizes[:3] == [4, 28, 196]
        assert sizes[14:] == [327_940, 408_604]

    @pytest.mark.parametrize("n, limit, reached", [(12, 1_000, 1_372), (16, 408_603, 408_604),
                                                   (32, 10**6, 1_012_804)])
    def test_refused_at_the_automaton_size(self, n, limit, reached):
        config = PddtConfig(n, 0.1, max_elements=limit)
        assert next(size for size in level_sizes(n, config.max_weight) if size > limit) == reached
        with pytest.raises(PddtOverflowError, match=f"\\(reached {reached}\\)$"):
            build_pddt(config)

    @settings(deadline=None)
    @given(st.integers(1, 16), thresholds, st.integers(1, 100_000))
    def test_refusal_reports_the_first_level_past_the_limit(self, n, threshold, limit):
        config = PddtConfig(n, threshold, max_elements=limit)
        sizes = level_sizes(n, config.max_weight)
        over = [size for size in sizes if size > limit]
        if over:
            with pytest.raises(PddtOverflowError) as err:
                build_pddt(config)
            assert (err.value.count, err.value.max_elements) == (over[0], limit)
        else:
            assert len(build_pddt(config)) == sizes[-1]


class TestPartialDp:
    def test_empty_prefix(self):
        assert partial_dp(0, 0, 0, 0) == 1.0

    def test_full_prefix_matches_probability(self):
        t = build_pddt(PddtConfig(4, 0.1))
        for _i, a, b, c, hw in node_rows(t):
            assert partial_dp(a, b, c, 4) == 2.0 ** -hw

    def test_monotone_chain_example(self):
        mask = lambda x, k: x & ((1 << k) - 1)
        chain = [partial_dp(mask(1, k), mask(1, k), 0, k) for k in range(5)]
        assert chain == [1.0, 1.0, 0.5, 0.5, 0.5]

    def test_monotone_over_table_n8(self):
        t = build_pddt(PddtConfig(8, 0.1))
        for _i, a, b, c, _hw in node_rows(t):
            probs = [partial_dp(a & ((1 << k) - 1), b & ((1 << k) - 1),
                                c & ((1 << k) - 1), k) for k in range(9)]
            assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))

    def test_prefix_too_wide(self):
        with pytest.raises(ParameterError):
            partial_dp(4, 0, 0, 2)

    def test_negative_prefix_length_rejected(self):
        with pytest.raises(ParameterError, match="^negative prefix length -1$"):
            partial_dp(0, 0, 0, -1)

    def test_impossible_prefix_has_probability_zero(self):
        # bit 0 of c must be a0 ^ b0, so (1, 0 -> 0) holds for no pair
        assert partial_dp(1, 0, 0, 1) == 0.0 == brute_force_dp(1, 0, 0, 1)


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
        assert triple_set(s) <= triple_set(table)

    def test_empty_table_rejected(self):
        empty = Pddt(4, [], [], [], [])
        with pytest.raises(ParameterError):
            sample_pddt(empty, SampleSpec())

    @pytest.mark.parametrize("fraction", [0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_0_1_rejected(self, fraction):
        with pytest.raises(ParameterError,
                           match=f"^{re.escape(f'sample fraction {fraction} outside (0, 1]')}$"):
            SampleSpec(fraction)


def reference_sample(pddt, spec):
    """sample_pddt's draw with its output classes found by a stable argsort."""
    rng = random.Random(f"pddt-sample:{spec.seed}")
    order = np.argsort(pddt.c, kind="stable")
    by_output = pddt.c[order]
    starts = np.flatnonzero(np.r_[True, by_output[1:] != by_output[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    takes = np.minimum(np.maximum(int(spec.quota_rule), np.round(spec.fraction * sizes)), sizes)
    picks = []
    for start, size, take in zip(starts.tolist(), sizes.tolist(), takes.astype(int).tolist()):
        picks.extend(order[start + p] for p in rng.sample(range(size), take))
    idx = np.sort(np.array(picks, dtype=np.int64))
    return [getattr(pddt, col)[idx] for col in ("a", "b", "c", "hw")]


class TestSampleOrder:
    """The sampler's classes come from one sort of packed c << r | row keys
    when they fit in 64 bits, else from a stable argsort; both draw the
    rows that a stable argsort does."""

    @pytest.fixture
    def argsort_calls(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(pddt_module.np, "argsort",
                            lambda *args, **kw: calls.append(1) or argsort(*args, **kw))
        return calls

    @staticmethod
    def sampled_by_argsort(table, spec, calls) -> bool:
        """Check sample_pddt against the reference; whether it argsorted."""
        expected = reference_sample(table, spec)
        calls.clear()
        if not len(expected[0]):
            with pytest.raises(ParameterError, match="keeps none"):
                sample_pddt(table, spec)
        else:
            got = sample_pddt(table, spec)
            for column, want in zip((got.a, got.b, got.c, got.hw), expected):
                assert np.array_equal(column, want)
        return bool(calls)

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("quota_rule", [True, False])
    def test_packed_keys(self, argsort_calls, n, quota_rule):
        table = build_pddt(PddtConfig(n, 0.1))
        for seed, fraction in ((n, 0.03), (n + 1, 0.3)):
            spec = SampleSpec(fraction, quota_rule, seed)
            assert not self.sampled_by_argsort(table, spec, argsort_calls)

    @pytest.mark.parametrize("width,packed", [(62, True), (63, False), (64, False)])
    def test_keys_past_64_bits_fall_back(self, argsort_calls, width, packed):
        # 4 rows need r = 2 row bits beside c's `width` bits
        top = 2 ** width - 1
        c = [top, 2 ** (width - 1), top, 2 ** (width - 1) + 1]
        table = Pddt(64, range(4), range(4), c, [1, 0, 1, 1])
        for seed in range(8):
            for quota_rule in (True, False):
                spec = SampleSpec(0.5, quota_rule, seed)
                assert self.sampled_by_argsort(table, spec, argsort_calls) != packed


@pytest.fixture(scope="module")
def table_n6():
    return build_pddt(PddtConfig(6, 0.5))


class TestSampleWithoutQuota:
    """quota_rule=False on the n=6, threshold-0.5 table: 124 rows in 20
    output classes of 4, 6, 10 or 14 rows."""

    @pytest.mark.parametrize("fraction", [0.05, 0.1, 0.3])
    def test_each_class_keeps_its_rounded_share(self, table_n6, fraction):
        s = sample_pddt(table_n6, SampleSpec(fraction, False, 5))
        sizes = collections.Counter(table_n6.c.tolist())
        kept = collections.Counter(s.c.tolist())
        assert {c: kept[c] for c in sizes} == {c: round(fraction * n) for c, n in sizes.items()}
        assert triple_set(s) <= triple_set(table_n6)

    def test_classes_that_round_to_zero_vanish(self, table_n6):
        s = sample_pddt(table_n6, SampleSpec(0.1, False, 5))
        sizes = collections.Counter(table_n6.c.tolist())
        # the ten classes of 4 rows round to 0.4 -> 0
        assert set(s.c.tolist()) == {c for c, n in sizes.items() if n > 4}
        assert len(set(s.c.tolist())) == 10

    def test_no_quota_warning(self, table_n6, caplog):
        # 20 classes exceed the 10% target of 12 rows: the quota rule warns
        with caplog.at_level(logging.WARNING, logger="diffgraph.pddt"):
            sample_pddt(table_n6, SampleSpec(0.1, True, 5))
            assert "quota (20 output classes)" in caplog.text
            caplog.clear()
            sample_pddt(table_n6, SampleSpec(0.1, False, 5))
        assert caplog.records == []

    def test_same_seed_same_bytes(self, table_n6):
        first, again, other = (sample_pddt(table_n6, SampleSpec(0.3, False, seed)).to_csv()
                               for seed in (9, 9, 10))
        assert first == again and first != other

    def test_sample_of_no_row_refused(self, table_n6):
        with pytest.raises(ParameterError, match="^sample fraction 0.001 keeps none of 124 rows$"):
            sample_pddt(table_n6, SampleSpec(0.001, False, 0))


class TestStats:
    def test_empty(self):
        s = pddt_stats(Pddt(4, [], [], [], []))
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


class TestColumnsChecked:
    """A table is checked when it is made, so the writer, the sampler and
    the statistics never meet a malformed one."""

    @pytest.mark.parametrize("short", range(4), ids=["a", "b", "c", "hw"])
    def test_short_column_rejected(self, short):
        cols = [[1, 2], [1, 1], [0, 0], [1, 1]]
        cols[short] = cols[short][:1]
        lengths = [1 if k == short else 2 for k in range(4)]
        with pytest.raises(ParameterError, match=re.escape(f"columns of lengths {lengths} differ")):
            Pddt(4, *cols)

    @pytest.mark.parametrize("a, hw, message", [
        ([1], [300], "columns must hold integers in 0..255"),
        ([1], [-1], "columns must hold integers in 0..255"),
        ([1.7], [1], "columns must be integer arrays"),
        ([[1]], [1], "columns must be one-dimensional"),
    ], ids=["hw 300", "hw -1", "float a", "2-D a"])
    def test_value_its_dtype_cannot_hold_rejected(self, a, hw, message):
        # a cast to uint8 or uint64 would store hw 300 as 44, -1 as 255 and 1.7 as 1
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Pddt(4, np.array(a), np.array([1]), np.array([0]), np.array(hw))

    def test_ragged_list_rejected(self):
        with pytest.raises(ParameterError, match="^columns must be one-dimensional$"):
            Pddt(4, [[1], [1, 2]], [1, 1], [0, 0], [1, 1])

    def test_columns_of_their_dtype_are_kept_and_lists_typed(self):
        a, b, c = (np.array([1, 2], dtype=np.uint64) for _ in range(3))
        hw = np.array([1, 1], dtype=np.uint8)
        t = Pddt(4, a, b, c, hw)
        assert t.a is a and t.b is b and t.c is c and t.hw is hw
        listed = Pddt(64, [2**64 - 1, 2**63], [0, 1], [0, 0], [1, 1])
        assert [x.dtype for x in (listed.a, listed.b, listed.c, listed.hw)] == [
            np.uint64, np.uint64, np.uint64, np.uint8]
        assert listed.a.tolist() == [2**63, 2**64 - 1]  # the constructor sorts


class TestTableOrder:
    """A table's rows are put in (a, b, c) order when it is made, however
    they were given, so every writer and the sampler see the same table."""

    def test_shuffled_rows_make_the_sorted_table(self):
        built = build_pddt(PddtConfig(6, 0.25))
        rows = list(zip(*(x.tolist() for x in (built.a, built.b, built.c, built.hw))))
        rng = random.Random(5)
        rows += [(a, b, c, hw + 1) for a, b, c, hw in rng.sample(rows, 50)]  # repeated triples
        rng.shuffle(rows)
        shuffled = Pddt(6, *zip(*rows))
        # Python's sort is stable, so repeated triples keep their given order
        table = Pddt(6, *zip(*sorted(rows, key=lambda row: row[:3])))
        for col in ("a", "b", "c", "hw"):
            assert getattr(shuffled, col).tolist() == getattr(table, col).tolist()
        assert shuffled.to_csv() == table.to_csv()
        assert Pddt.from_csv(shuffled.to_csv()).to_csv() == table.to_csv()
        for seed in range(5):
            spec = SampleSpec(0.1, True, seed)
            assert sample_pddt(shuffled, spec).to_csv() == sample_pddt(table, spec).to_csv()


@st.composite
def sort_keys(draw):
    """1 to 3 uint64 or int64 key columns of 0 to 40 rows whose widths sum
    to a drawn total, often one that puts the keys, or the keys and the
    row-number bits, at 64 or 65 bits; rows may repeat, and an int64 key
    may hold a negative value."""
    rows = draw(st.integers(0, 40))
    dtypes = draw(st.lists(st.sampled_from([np.uint64, np.int64]), min_size=1, max_size=3))
    caps = [64 if dtype == np.uint64 else 63 for dtype in dtypes]
    r = (rows - 1).bit_length()
    total = min(sum(caps), draw(st.sampled_from([64 - r, 65 - r, 64, 65])
                                | st.integers(0, sum(caps))))
    widths = []
    for k, cap in enumerate(caps):
        left = total - sum(widths)
        widths.append(draw(st.integers(max(0, left - sum(caps[k + 1:])), min(cap, left))))
    keys = [draw(st.lists(st.integers(0, 2**w - 1), min_size=rows, max_size=rows))
            for w in widths]
    if rows and draw(st.booleans()):  # rows drawn again, so many repeat
        picks = draw(st.lists(st.integers(0, rows - 1), min_size=rows, max_size=rows))
        keys = [[key[i] for i in picks] for key in keys]
    for key, w in zip(keys, widths):
        if rows and w:  # the key is exactly w bits wide
            i = draw(st.integers(0, rows - 1))
            key[i] |= 1 << (w - 1)
    for key, dtype in zip(keys, dtypes):
        if rows and dtype == np.int64 and draw(st.booleans()):
            key[draw(st.integers(0, rows - 1))] = draw(st.integers(-2**63, -1))
    return [np.array(key, dtype=dtype) for key, dtype in zip(keys, dtypes)]


class TestStableOrder:
    @settings(max_examples=300)
    @given(sort_keys())
    def test_is_the_lexsort(self, keys):
        order = stable_order(*keys)
        want = np.lexsort(keys[::-1])
        assert order.dtype == want.dtype
        assert order.tolist() == want.tolist()

    @pytest.mark.parametrize("widths, rows, sort", [
        ((30, 31), 5, None),        # keys and 3 row bits: 64 bits, one in-place sort
        ((31, 31), 5, "argsort"),   # 65 bits with the row bits, 62 without
        ((32, 32), 5, "argsort"),   # keys of 64 bits
        ((32, 33), 5, "lexsort"),   # keys of 65 bits
        ((64,), 1, None),           # one row: no row bits
        ((64,), 2, "argsort"),
        ((0, 0, 0), 0, None),       # no rows
    ])
    def test_path_by_width(self, monkeypatch, widths, rows, sort):
        rng = random.Random(len(widths) + rows)
        # each key's top bit is set, so it is exactly its width
        keys = [np.array([rng.getrandbits(w) | (1 << w >> 1) for _ in range(rows)],
                         dtype=np.uint64) for w in widths]
        want = np.lexsort(keys[::-1])
        sorts = []

        def counting(name):
            sort = getattr(np, name)
            return lambda *args, **kwargs: sorts.append(name) or sort(*args, **kwargs)

        for name in ("argsort", "lexsort"):
            monkeypatch.setattr(np, name, counting(name))
        assert stable_order(*keys).tolist() == want.tolist()
        assert sorts == ([sort] if sort else [])


class TestSerialization:
    GOLDEN = (
        "id,a,b,c,dp,hw\n"
        "0,0x0,0x0,0x0,1,0\n"
        "1,0x1,0x1,0x0,0.5,1\n"
        "2,0x3,0x3,0x0,0.25,2\n"
    )

    def golden_table(self):
        return Pddt(4, [0, 1, 3], [0, 1, 3], [0, 0, 0], [0, 1, 2])

    def test_golden_csv(self):
        assert self.golden_table().to_csv().decode() == self.GOLDEN

    def test_roundtrip(self):
        t = build_pddt(PddtConfig(8, 0.25))
        back = Pddt.from_csv(t.to_csv())
        assert back.to_csv() == t.to_csv()
        assert back.word_size == 8

    def test_from_csv_skips_comments(self):
        data = ("# seed=42\n" + self.GOLDEN).encode()
        t = Pddt.from_csv(data)
        assert len(t) == 3 and t.word_size == 4

    def test_hex_padding_n16(self):
        t = Pddt(16, [1], [1], [0], [1])
        assert b"0x0001,0x0001,0x0000" in t.to_csv()


def seed_to_csv(table):
    """Per-row reference formatter: the oracle for the numpy writer."""
    n = table.word_size
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
    return Pddt(n, *zip(*rows))


class TestCodec:
    @given(tables())
    def test_matches_reference_formatter_and_roundtrips(self, table):
        data = table.to_csv()
        assert data == seed_to_csv(table)
        back = Pddt.from_csv(data)
        assert back.word_size == -(-table.word_size // 4) * 4
        for col in ("a", "b", "c", "hw"):
            assert getattr(back, col).tolist() == getattr(table, col).tolist()

    @given(tables(unique=True), st.randoms(use_true_random=False))
    def test_shuffled_rows_come_back_sorted(self, table, rng):
        header, *rows = table.to_csv().splitlines()
        rng.shuffle(rows)
        back = Pddt.from_csv(b"\n".join([header] + rows) + b"\n")
        for col in ("a", "b", "c", "hw"):
            assert getattr(back, col).tolist() == getattr(table, col).tolist()

    @pytest.mark.parametrize("n", [32, 33])
    def test_shuffled_wide_table_comes_back_sorted(self, monkeypatch, n):
        # three keys of 32 bits or more do not fit in one 64-bit word
        table = build_pddt(PddtConfig(n, 0.25))
        header, *rows = table.to_csv().splitlines()
        np.random.default_rng(n).shuffle(rows)
        sorts = []
        lexsort = np.lexsort

        def counting_lexsort(keys):
            sorts.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        back = Pddt.from_csv(b"\n".join([header] + rows) + b"\n")
        assert sorts == [3]
        for col in ("a", "b", "c", "hw"):
            assert getattr(back, col).tolist() == getattr(table, col).tolist()

    def test_chunk_boundaries(self, monkeypatch):
        table = build_pddt(PddtConfig(8, 0.1))
        expected = seed_to_csv(table)
        monkeypatch.setattr(pddt_module, "_WRITE_CHUNK_BYTES", 7 * 32)  # 7 lines of 32 bytes
        monkeypatch.setattr(pddt_module, "_READ_CHUNK_BYTES", 100)
        assert table.to_csv() == expected
        # CRLF, a comment and a blank line first; a bad line last, in the last chunk
        lines = expected.decode().split("\n")
        data = "\r\n".join(["# comment", ""] + lines[:-2] + ["0,0x01,0x01"]).encode()
        with pytest.raises(ValueError, match=f"^line {len(lines) + 1}: "):
            Pddt.from_csv(data)
        back = Pddt.from_csv(data[:data.rindex(b"\r\n")])  # no final newline
        assert back.to_csv() == expected[:expected.rindex(b"\n", 0, -1) + 1]

    def test_skipped_lines_leave_the_comma_grid(self, monkeypatch):
        # the commas of a header and a comment are no data line's
        body = build_pddt(PddtConfig(6, 0.1)).to_csv().split(b"\n", 1)[1]
        prefix = b"id,a,b,c,dp,hw\r\n# n=6, t=0.1\n\n"
        data = prefix + body
        searches = []
        searchsorted = np.searchsorted

        def counting(*args, **kwargs):
            searches.append(args)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        bare = pddt_module.Fields(body, 0, len(body), 0, b"id,", 6)
        full = pddt_module.Fields(data, 0, len(data), 0, b"id,", 6)
        assert searches == []
        assert not full.errors and len(full.starts) == body.count(b"\n")
        for got, want in ((full.starts, bare.starts), (full.ends, bare.ends),
                          (full.commas, bare.commas)):
            assert (got - len(prefix)).tolist() == want.tolist()
        assert (full.line_no(0), full.line_no(len(full.starts) - 1)) == (4, len(data.splitlines()))

    def test_row_numbers_from_past_zero(self):
        # ids 5..204: the slot's width and the digit counts come from the range's ends
        ids = range(5, 205)
        zeros = np.zeros(len(ids), dtype=np.uint64)
        parts = pddt_module.differential_csv("id", ids, zeros, zeros, zeros,
                                             zeros.astype(np.uint8), 4)
        data = pddt_module.join_lines(parts)
        assert data.decode().splitlines()[1:] == [f"{i},0x0,0x0,0x0,1,0" for i in ids]

    def test_values_checked_against_word_size_not_hex_width(self):
        assert b",0x1f,0x00,0x1f," in Pddt(5, [0x1f], [0], [0x1f], [0]).to_csv()
        for field in range(3):
            cols = [[0], [0], [0]]
            cols[field] = [0x20]
            with pytest.raises(ParameterError, match=r"^value 0x20 does not fit in 5 bits$"):
                Pddt(5, *cols, [0])

    def test_empty_input(self):
        for data in (b"", b"id,a,b,c,dp,hw\n", b"# only a comment\n\n"):
            t = Pddt.from_csv(data)
            assert len(t) == 0 and t.word_size == 4

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

    def test_write_csv_streams(self, table):
        expected = table.to_csv()

        class Sink:
            def __init__(self):
                self.size, self.digest = 0, hashlib.sha256()

            def write(self, data):
                self.size += len(data)
                self.digest.update(data)

        sink = Sink()
        _, peak = traced_peak(lambda: table.write_csv(sink))
        assert sink.size == len(expected)
        assert sink.digest.digest() == hashlib.sha256(expected).digest()
        assert peak < 0.5 * column_bytes(table)  # no ids column: row ids are made per chunk

    def test_from_csv_holds_its_columns_once(self, table):
        data = table.to_csv()
        back, peak = traced_peak(lambda: Pddt.from_csv(data))
        ids_bytes = 8 * len(back)
        assert peak < 2.5 * (column_bytes(back) + ids_bytes)

    def test_from_csv_sorts_the_only_copy_of_a_shuffled_table(self, table):
        """The reader sorts the columns that it alone holds, so each old column
        is freed as its sorted copy is made: 1.64x, where a second copy of the
        unsorted columns, held while the constructor sorted, made it 2.32x."""
        data = shuffled_lines(table.to_csv(), 3)
        back, peak = traced_peak(lambda: Pddt.from_csv(data))
        for col in ("a", "b", "c", "hw"):
            assert np.array_equal(getattr(back, col), getattr(table, col)), col
        assert peak < 1.75 * column_bytes(back)

    def test_decode_holds_its_columns_and_one_run(self, table):
        """Each run of lines is freed before the next is split."""
        data = table.to_csv()
        columns, peak = traced_peak(lambda: pddt_module.decode_differential_csv(data))
        assert peak - sum(column.nbytes for column in columns[:5]) < 5 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_merges_without_copies(self, workers):
        """The last level, the table, holds its gathered parents and itself,
        not the level below, and the sort gathers one column at a time."""
        built, peak = traced_peak(lambda: build_pddt(PddtConfig(16, 0.1), workers=workers))
        assert len(built) == 408_604
        assert peak < 1.85 * column_bytes(built)
