"""Threshold-pruned partial difference distribution tables.

The builder assigns bits of (a, b, c) from the LSB upward and prunes a
branch as soon as the probability of the partial differential falls
below the threshold.  Because the weight of a prefix only grows as bits
are appended, pruning is sound and the emitted set is exactly
{ valid triples with 2^-weight >= p_threshold }.

Internally the frontier of live prefixes is held in numpy arrays and
expanded one bit position at a time; a prefix is summarised by its
weight so far plus a three-way carry state (bits at the previous
position all equal with common value 0 or 1, or not all equal), which is
all the validity condition looks at.  The two all-equal states are
numbered by their common bit (_EQ0 = 0, _EQ1 = 1): a prefix in such a
state may only take a next triple whose xor equals the state itself.
"""

from __future__ import annotations

import logging
import os
import random
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from itertools import product, starmap
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .differential import differential_weight, dyadic_str, is_valid_differential
from .errors import ParameterError

log = logging.getLogger(__name__)

# carry states of a prefix; an all-equal state is its common bit, which
# _expand_level compares with the parity of the next triple
_EQ0 = 0  # previous bits of a,b,c all equal 0
_EQ1 = 1  # previous bits of a,b,c all equal 1
_NEQ = 2  # previous bits not all equal

DEFAULT_MAX_ELEMENTS = 1 << 28


class PddtOverflowError(RuntimeError):
    """Table grew past max_elements; carries the count reached."""

    def __init__(self, count: int, max_elements: int):
        super().__init__(f"PDDT exceeded max_elements={max_elements} (reached {count})")
        self.count = count
        self.max_elements = max_elements


@dataclass(frozen=True)
class PddtConfig:
    word_size: int
    p_threshold: float
    max_elements: int = DEFAULT_MAX_ELEMENTS

    def __post_init__(self):
        if not 0 < self.p_threshold <= 1:
            raise ParameterError(f"threshold {self.p_threshold} outside (0, 1]")
        if not 1 <= self.word_size <= 64:
            raise ParameterError(f"word size {self.word_size} outside 1..64")

    @property
    def max_weight(self) -> int:
        """Largest integer weight w with 2^-w >= p_threshold."""
        w = 0
        while 2.0 ** -(w + 1) >= self.p_threshold:
            w += 1
        return w


@dataclass(frozen=True)
class SampleSpec:
    fraction: float = 0.03
    quota_rule: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ParameterError(f"sample fraction {self.fraction} outside (0, 1]")


class DiffNode(NamedTuple):
    """One table row (a, b -> c) with probability dp = 2^-hw, numbered node_id."""

    node_id: int
    a: int
    b: int
    c: int
    dp: float
    hw: int


# hw -> dp = 2^-hw for every weight a uint8 column holds
DP_OF_HW = [2.0 ** -w for w in range(256)]


def make_nodes(ids, a, b, c, hw) -> List[DiffNode]:
    """One node per id and row of the numpy columns a, b, c, hw; dp = 2^-hw."""
    hw = hw.tolist()
    return list(starmap(DiffNode, zip(ids, a.tolist(), b.tolist(), c.tolist(),
                                      map(DP_OF_HW.__getitem__, hw), hw)))


def node_columns(rows, word_size: int) -> DifferentialColumns:
    """The columns of (node_id, a, b, c, dp, hw) rows, the inverse of
    make_nodes; a row whose dp is not 2^-hw raises ParameterError."""
    rows = list(rows)
    ids, a, b, c, dp, hw = ([row[k] for row in rows] for k in range(6))
    for node_id, p, w in zip(ids, dp, hw):
        if p != 2.0 ** -w:
            raise ParameterError(f"node {node_id}: dp {p} is not 2^-{w}")
    return DifferentialColumns(np.array(ids, dtype=np.int64),
                               *(np.array(x, dtype=np.uint64) for x in (a, b, c)),
                               np.array(hw, dtype=np.uint8), word_size)


class Pddt:
    """Ordered, deduplicated table of differentials above a threshold.

    Entries are kept column-wise (a, b, c as uint64, hw as uint8) and
    sorted by (a, b, c); the table is immutable after construction.
    """

    def __init__(self, config: PddtConfig, a, b, c, hw):
        self.config = config
        self.a = np.asarray(a, dtype=np.uint64)
        self.b = np.asarray(b, dtype=np.uint64)
        self.c = np.asarray(c, dtype=np.uint64)
        self.hw = np.asarray(hw, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self) -> Iterator[DiffNode]:
        """The rows in table order, numbered by position."""
        return iter(make_nodes(range(len(self)), self.a, self.b, self.c, self.hw))

    def triples(self) -> set:
        return set(zip(self.a.tolist(), self.b.tolist(), self.c.tolist()))

    # --- serialization -------------------------------------------------

    def to_csv(self) -> bytes:
        """Canonical CSV: id,a,b,c,dp,hw with zero-padded lowercase hex."""
        return encode_differential_csv("id,a,b,c,dp,hw", np.arange(len(self)), self.a, self.b,
                                       self.c, self.hw, self.config.word_size)

    @classmethod
    def from_csv(cls, data: bytes) -> "Pddt":
        """Parse the canonical CSV (see `decode_differential_csv`).

        The word size is recovered from the hex field width and the
        threshold is the smallest dp present.  Rows are returned in
        (a, b, c) order.
        """
        cols = decode_differential_csv(data)
        a, b, c, hw = cols.a, cols.b, cols.c, cols.hw
        if not _is_sorted(a, b, c):
            order = np.lexsort((c, b, a))
            a, b, c, hw = a[order], b[order], c[order], hw[order]
        p_threshold = 2.0 ** -int(hw.max()) if len(hw) else 1.0
        return cls(PddtConfig(cols.word_size, p_threshold), a, b, c, hw)


# --- differential CSV codec -------------------------------------------
#
# One writer and one reader for the six-column rows `id,a,b,c,dp,hw`
# shared by PDDT tables and graph node files: id in decimal, a, b, c as
# 0x-prefixed lowercase hex zero-padded to ceil(n/4) nibbles, dp the
# exact decimal of 2^-hw, hw in decimal.  Both work on whole columns with
# numpy, a bounded number of rows or bytes at a time.

_WRITE_CHUNK_ROWS = 1 << 20
_READ_CHUNK_BYTES = 16 << 20

_MAX_HEX_DIGITS = 16   # a uint64 column
_MAX_ID_DIGITS = 18    # fits int64
_MAX_HW = 255          # a uint8 column

_BAD_DIGIT = 255


def _digit_table(alphabet: str, base: int) -> np.ndarray:
    """Byte -> digit value, _BAD_DIGIT for bytes outside the alphabet."""
    table = np.full(256, _BAD_DIGIT, dtype=np.uint8)
    for ch in alphabet:
        table[ord(ch)] = int(ch, base)
    return table


_DEC_VALUE = _digit_table("0123456789", 10)
_HEX_VALUE = _digit_table("0123456789abcdefABCDEF", 16).astype(np.uint16)
# byte -> its two lowercase hex digits, as the bytes of one uint16
_HEX_PAIRS = np.frombuffer("".join(f"{v:02x}" for v in range(256)).encode("ascii"),
                           dtype=np.uint16)
_DEC_PAIRS = np.frombuffer("".join(f"{v:02d}" for v in range(100)).encode("ascii"),
                           dtype=np.uint16)
_POWERS_OF_TEN = 10 ** np.arange(1, _MAX_ID_DIGITS + 1, dtype=np.int64)
# two hex digits read as a little-endian uint16 -> their byte value, or
# 0x100 when either is not a hex digit
_HEX_PAIR_VALUE = np.where(
    (_HEX_VALUE[None, :] == _BAD_DIGIT) | (_HEX_VALUE[:, None] == _BAD_DIGIT),
    0x100, _HEX_VALUE[None, :] * 16 + _HEX_VALUE[:, None]).ravel()

_NEWLINE, _CR, _COMMA, _ZERO = ord("\n"), ord("\r"), ord(","), ord("0")
_PAD = np.zeros(_MAX_ID_DIGITS, dtype=np.uint8)


class DifferentialColumns(NamedTuple):
    """Columns of a differential CSV in file order."""

    ids: np.ndarray   # int64
    a: np.ndarray     # uint64
    b: np.ndarray     # uint64
    c: np.ndarray     # uint64
    hw: np.ndarray    # uint8
    word_size: int    # 4 bits per digit of the widest hex field, at least 4


def encode_differential_csv(header: str, ids, a, b, c, hw, word_size: int) -> bytes:
    """The header line, then one `id,a,b,c,dp,hw` line per row."""
    ids = np.asarray(ids, dtype=np.int64)
    cols = [np.asarray(x, dtype=np.uint64) for x in (a, b, c)]
    hw = np.asarray(hw, dtype=np.uint8)
    digits = -(-word_size // 4)
    out = [(header + "\n").encode("ascii")]
    if len(ids) == 0:
        return out[0]
    if int(ids.min()) < 0:
        raise ParameterError("row ids must be non-negative")
    for x in cols:
        if int(x.max()) >> word_size:
            raise ParameterError(f"value {int(x.max()):#x} does not fit in {word_size} bits")

    id_width = 2 * -(-len(str(int(ids.max()))) // 2)  # written two digits at a time
    tails = [f",{dyadic_str(w)},{w}\n".encode("ascii") for w in range(int(hw.max()) + 1)]
    tail_width = max(len(t) for t in tails)
    tail_bytes = np.zeros((len(tails), tail_width), dtype=np.uint8)
    for w, t in enumerate(tails):
        tail_bytes[w, :len(t)] = np.frombuffer(t, dtype=np.uint8)
    tail_len = np.array([len(t) for t in tails])
    hex_starts = [id_width + 3 + f * (3 + digits) for f in range(3)]
    tail_start = id_width + 3 * (3 + digits)

    # one fixed-width row per line; `keep` drops the unused id and tail
    # columns when the matrix is flattened
    line = np.empty((min(len(ids), _WRITE_CHUNK_ROWS), tail_start + tail_width), dtype=np.uint8)
    keep = np.ones(line.shape, dtype=bool)
    hex_bytes = -(-digits // 2)
    for start in hex_starts:
        line[:, start - 3:start] = np.frombuffer(b",0x", dtype=np.uint8)
    for lo in range(0, len(ids), _WRITE_CHUNK_ROWS):
        rows = min(len(ids) - lo, _WRITE_CHUNK_ROWS)
        v = ids[lo:lo + rows]
        for k in range(0, id_width, 2):
            pair = _DEC_PAIRS[(v // 10**k) % 100].view(np.uint8).reshape(-1, 2)
            line[:rows, id_width - 2 - k:id_width - k] = pair
        id_digits = np.searchsorted(_POWERS_OF_TEN, v, side="right") + 1
        keep[:rows, :id_width] = np.arange(id_width) >= id_width - id_digits[:, None]
        for x, start in zip(cols, hex_starts):
            big_endian = x[lo:lo + rows].astype(">u8").view(np.uint8).reshape(-1, 8)
            chars = _HEX_PAIRS[big_endian[:, 8 - hex_bytes:]].view(np.uint8)
            line[:rows, start:start + digits] = chars[:, -digits:]
        w = hw[lo:lo + rows]
        line[:rows, tail_start:] = tail_bytes[w]
        keep[:rows, tail_start:] = np.arange(tail_width) < tail_len[w][:, None]
        out.append(line[:rows][keep[:rows]])
    return b"".join(out)


def decode_differential_csv(data: bytes) -> DifferentialColumns:
    """Parse `id,a,b,c,dp,hw` rows.

    Blank lines, lines starting with '#' and header lines starting with
    'id,' are skipped; a CR before the newline is ignored.  A data line
    must have six fields: a decimal id, three 0x-prefixed hex fields of
    1 to 16 digits and a decimal hw from 0 to 255; dp is not read.  Any
    other line raises ValueError naming its 1-based line number.
    """
    parts = []
    lines_before = pos = 0
    while True:
        end = data.find(b"\n", min(pos + _READ_CHUNK_BYTES, len(data)) - 1)
        end = len(data) if end < 0 else end + 1
        cols, lines = _decode_chunk(np.frombuffer(data, np.uint8, end - pos, pos), lines_before)
        parts.append(cols)
        lines_before += lines
        pos = end
        if pos >= len(data):
            break
    return DifferentialColumns(
        *(np.concatenate([getattr(p, f) for p in parts]) for f in ("ids", "a", "b", "c", "hw")),
        max(4, *(p.word_size for p in parts)))


def _decode_chunk(chunk: np.ndarray, lines_before: int):
    """Columns and line count of a run of whole lines."""
    # padding on both sides lets every field look up to _MAX_ID_DIGITS
    # bytes back and every line three bytes ahead without bounds checks
    buf = np.concatenate((_PAD, chunk, _PAD))
    newlines = np.flatnonzero(buf == _NEWLINE)
    starts = np.concatenate(([len(_PAD)], newlines + 1))
    ends = np.concatenate((newlines, [len(buf) - len(_PAD)]))
    if starts[-1] == ends[-1] == len(buf) - len(_PAD):  # nothing after the final newline
        starts, ends = starts[:-1], ends[:-1]
    ends = ends - ((ends > starts) & (buf[ends - 1] == _CR))
    first = buf[starts]
    header = ((ends - starts >= 3) & (first == ord("i")) & (buf[starts + 1] == ord("d"))
              & (buf[starts + 2] == _COMMA))
    lines = len(starts)
    rows = np.flatnonzero((ends > starts) & (first != ord("#")) & ~header)
    line_no = lines_before + rows + 1
    starts, ends = starts[rows], ends[rows]

    commas = np.flatnonzero(buf == _COMMA)
    first_comma = np.searchsorted(commas, starts)
    fields = np.searchsorted(commas, ends) - first_comma + 1
    errors = []
    if (fields != 6).any():
        # report it unless an earlier line has another fault; check only those
        i = int(np.argmax(fields != 6))
        errors.append((i, f"line {line_no[i]}: expected 6 comma-separated fields, "
                          f"got {fields[i]}"))
        starts, ends, first_comma = starts[:i], ends[:i], first_comma[:i]
    comma = commas[first_comma[:, None] + np.arange(5)]

    def field_start(field):
        return starts if field == 0 else comma[:, field - 1] + 1

    def field_end(field):
        return ends if field == 5 else comma[:, field]

    def check(bad, field, expected):
        if bad.any():
            i = int(np.argmax(bad))
            text = buf[field_start(field)[i]:field_end(field)[i]].tobytes()
            errors.append((i, f"line {line_no[i]}: field {field + 1} must be {expected}, "
                              f"got {text.decode('ascii', 'replace')!r}"))

    ids, bad = _parse_decimal(buf, starts, field_end(0), _MAX_ID_DIGITS)
    check(bad, 0, f"a decimal id of at most {_MAX_ID_DIGITS} digits")
    hex_cols = []
    word_size = 0
    for field in (1, 2, 3):
        start, end = field_start(field), field_end(field)
        value, bad = _parse_hex(buf, start + 2, end)
        bad |= (buf[start] != _ZERO) | (buf[start + 1] != ord("x"))
        check(bad, field, f"0x and 1 to {_MAX_HEX_DIGITS} hex digits")
        hex_cols.append(value)
        word_size = max(word_size, 4 * (int((end - start).max(initial=2)) - 2))
    hw, bad = _parse_decimal(buf, field_start(5), ends, 3)
    bad |= hw > _MAX_HW
    check(bad, 5, f"a decimal weight from 0 to {_MAX_HW}")
    if errors:
        raise ValueError(min(errors)[1])
    return DifferentialColumns(ids.astype(np.int64), *hex_cols, hw.astype(np.uint8),
                               word_size), lines


def _right_aligned(buf, start, end, width: int) -> np.ndarray:
    """The `width` bytes before each field end, with '0' in place of the
    bytes before the field start."""
    window = np.lib.stride_tricks.sliding_window_view(buf, width)[end - width]
    np.putmask(window, np.arange(width) < width - (end - start)[:, None], _ZERO)
    return window


def _rows_with(mask: np.ndarray) -> np.ndarray:
    """Rows of a 2-D mask with any True entry."""
    rows = np.zeros(len(mask), dtype=bool)
    rows[np.flatnonzero(mask) // mask.shape[1]] = True
    return rows


def _parse_decimal(buf, start, end, max_digits: int):
    """Values of the decimal fields buf[start:end], and a mask of fields
    that are empty, too long or hold a non-digit."""
    length = end - start
    width = min(max(int(length.max(initial=1)), 1), max_digits)
    digits = _DEC_VALUE[_right_aligned(buf, start, end, width)]
    bad = (length < 1) | (length > max_digits) | _rows_with(digits == _BAD_DIGIT)
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(width):
        value = value * np.uint64(10) + digits[:, k]
    return value, bad


def _parse_hex(buf, start, end):
    """Values of the hex fields buf[start:end], and a mask of fields that
    are empty, longer than 16 digits or hold a non-hex byte."""
    length = end - start
    width = 2  # digits read, a power of two so the bytes form a big-endian word
    while width < min(int(length.max(initial=1)), _MAX_HEX_DIGITS):
        width *= 2
    pairs = _HEX_PAIR_VALUE[_right_aligned(buf, start, end, width).view("<u2")]
    bad = (length < 1) | (length > _MAX_HEX_DIGITS) | _rows_with(pairs > 0xFF)
    return pairs.astype(np.uint8).view(f">u{width // 2}")[:, 0].astype(np.uint64), bad


def _is_sorted(a, b, c) -> bool:
    """True when the rows are already in (a, b, c) order."""
    if len(a) < 2:
        return True
    da, db, dc = (x[1:] > x[:-1] for x in (a, b, c))
    ea, eb = a[1:] == a[:-1], b[1:] == b[:-1]
    return bool(np.all(da | (ea & (db | (eb & (dc | (c[1:] == c[:-1])))))))


def partial_dp(a: int, b: int, c: int, k: int) -> float:
    """Probability of the k-LSB partial differential; 1.0 at k=0."""
    if k < 0:
        raise ParameterError(f"negative prefix length {k}")
    if k == 0:
        return 1.0
    if not 0 <= a < (1 << k) or not 0 <= b < (1 << k) or not 0 <= c < (1 << k):
        raise ParameterError(f"prefix ({a:#x},{b:#x},{c:#x}) does not fit in {k} bits")
    if not is_valid_differential(a, b, c, k):
        return 0.0
    return 2.0 ** -differential_weight(a, b, c, k)


def _expand_level(frontier, bit: int, max_weight: int):
    """One bit-assignment step: each prefix's children, triple by triple.

    A prefix takes (x, y, z) if its previous bits disagree and it has weight
    to spare (`heavy`: the child weighs one more), or if their common bit,
    the state itself, equals x ^ y ^ z.
    """
    a, b, c, w, state = frontier
    heavy = (state == _NEQ) & (w < max_weight)
    children = []
    for x, y, z in product((0, 1), repeat=3):
        idx = np.flatnonzero(heavy | (state == x ^ y ^ z))
        children.append((a[idx] | np.uint64(x << bit), b[idx] | np.uint64(y << bit),
                         c[idx] | np.uint64(z << bit), w[idx] + heavy[idx],
                         np.full(len(idx), x if x == y == z else _NEQ, dtype=np.uint8)))
    return tuple(map(np.concatenate, zip(*children)))


def _build_branch(root: Tuple[int, int, int], config: PddtConfig):
    """Expand one depth-1 branch over bit positions 1..n-1."""
    frontier = (
        np.array([root[0]], dtype=np.uint64),
        np.array([root[1]], dtype=np.uint64),
        np.array([root[2]], dtype=np.uint64),
        np.zeros(1, dtype=np.uint16),
        np.array([_EQ0 if root == (0, 0, 0) else _NEQ], dtype=np.uint8),
    )
    for bit in range(1, config.word_size):
        frontier = _expand_level(frontier, bit, config.max_weight)
        if len(frontier[0]) > config.max_elements:
            raise PddtOverflowError(len(frontier[0]), config.max_elements)
    return frontier[:4]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count from the argument; None or 0 means the CPU count."""
    if not workers:
        workers = os.cpu_count() or 1
    return max(1, workers)


def build_pddt(config: PddtConfig, workers: Optional[int] = None) -> Pddt:
    """Build the full PDDT for the configured word size and threshold.

    The four bit-0 branches satisfying the LSB parity constraint are
    expanded independently (optionally in parallel) and merged in fixed
    order, so the result is identical for any worker count.
    """
    # bit 0 carries no weight and must satisfy a^b^c = 0
    roots = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    nworkers = resolve_workers(workers)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=min(nworkers, len(roots))) as pool:
            fragments = list(pool.map(lambda r: _build_branch(r, config), roots))
    else:
        fragments = [_build_branch(r, config) for r in roots]
    a, b, c, hw = map(np.concatenate, zip(*fragments))
    if len(a) > config.max_elements:
        raise PddtOverflowError(len(a), config.max_elements)
    order = np.lexsort((c, b, a))
    return Pddt(config, a[order], b[order], c[order], hw[order])


def sample_pddt(pddt: Pddt, spec: SampleSpec) -> Pddt:
    """Seeded quota sample: ~fraction of the table, proportional within
    each output-difference class, never dropping a class entirely."""
    if len(pddt) == 0:
        raise ParameterError("cannot sample an empty PDDT")
    if spec.fraction == 1.0:
        return pddt
    rng = random.Random(f"pddt-sample:{spec.seed}")
    # output classes in ascending c, each class's rows in table order
    order = np.argsort(pddt.c, kind="stable")
    by_output = pddt.c[order]
    starts = np.flatnonzero(np.r_[True, by_output[1:] != by_output[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    floor_size = 1 if spec.quota_rule else 0
    if len(starts) > spec.fraction * len(pddt) and spec.quota_rule:
        log.warning(
            "quota (%d output classes) exceeds the %.1f%% target of %d rows; "
            "sample will be larger than requested",
            len(starts), 100 * spec.fraction, round(spec.fraction * len(pddt)),
        )
    takes = np.minimum(np.maximum(floor_size, np.round(spec.fraction * sizes)), sizes)
    takes = takes.astype(np.int64)
    # random.sample reads only the population's length and indices, so
    # sampling positions draws exactly what sampling the rows would
    picks: List[int] = []
    for size, take in zip(sizes.tolist(), takes.tolist()):
        picks.extend(rng.sample(range(size), take))
    idx = np.sort(order[np.repeat(starts, takes) + np.array(picks, dtype=np.int64)])
    return Pddt(pddt.config, pddt.a[idx], pddt.b[idx], pddt.c[idx], pddt.hw[idx])


@dataclass(frozen=True)
class PddtStats:
    entries: int
    weight_histogram: dict  # hw -> count
    min_dp: Optional[float]
    max_dp: Optional[float]


def pddt_stats(pddt: Pddt) -> PddtStats:
    if len(pddt) == 0:
        return PddtStats(0, {}, None, None)
    weights, counts = np.unique(pddt.hw, return_counts=True)
    hist = {int(w): int(n) for w, n in zip(weights, counts)}
    return PddtStats(
        entries=len(pddt),
        weight_histogram=hist,
        min_dp=2.0 ** -int(max(weights)),
        max_dp=2.0 ** -int(min(weights)),
    )
