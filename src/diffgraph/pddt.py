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

import io
import logging
import math
import os
import random
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, product
from typing import Dict, Iterator, List, NamedTuple, Optional

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
        if self.max_elements < 1:
            raise ParameterError(f"max_elements {self.max_elements} < 1")

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


# hw -> dp = 2^-hw for every weight a uint8 column holds
DP_OF_HW = [2.0 ** -w for w in range(256)]


def node_columns(rows, word_size: int) -> DifferentialColumns:
    """The columns of (node_id, a, b, c, hw) rows, checked and ordered as a graph's are."""
    rows = list(rows)
    columns = check_columns([[row[k] for row in rows] for k in range(5)], word_size)
    return DifferentialColumns(*columns, word_size)


class Pddt:
    """Ordered table of differentials above a threshold.

    A table is its word size and its columns (a, b, c as uint64, hw as
    uint8); the threshold is the builder's input and is not kept. The
    constructor sorts the rows by (a, b, c), repeated triples kept in
    their given order; the table is immutable after construction.
    """

    def __init__(self, word_size: int, a, b, c, hw):
        self._take(word_size, [a, b, c, hw])

    def _take(self, word_size: int, columns: list) -> "Pddt":
        """The table of the list [a, b, c, hw], checked and put in (a, b, c) order in place."""
        self.word_size = word_size
        self.a, self.b, self.c, self.hw = in_order(check_columns(columns, word_size), 3)
        return self

    def __len__(self) -> int:
        return len(self.a)

    # --- serialization -------------------------------------------------

    def _csv(self) -> list:
        """The canonical CSV's parts: the header, then id,a,b,c,dp,hw lines
        with zero-padded lowercase hex."""
        return differential_csv("id,a,b,c,dp,hw", range(len(self)), self.a, self.b,
                                self.c, self.hw, self.word_size)

    def write_csv(self, out) -> None:
        """Write the canonical CSV to the binary file object `out`, a
        bounded chunk of lines at a time."""
        write_lines(out, self._csv())

    def to_csv(self) -> bytes:
        """The canonical CSV as one buffer, filled by the same writer."""
        return join_lines(self._csv())

    @classmethod
    def from_csv(cls, data) -> "Pddt":
        """Parse the canonical CSV in bytes or an mmap (see `decode_differential_csv`). The
        word size is recovered from the hex field width, and the rows are checked and put
        in (a, b, c) order once, on the reader's own, only copy of the columns."""
        *columns, word_size = decode_differential_csv(data)
        del columns[0]
        return cls.__new__(cls)._take(word_size, columns)


# --- line codec --------------------------------------------------------
#
# One writer and one reader for every line-oriented artifact. The shared
# differential row is `id,a,b,c,dp,hw`, used by PDDT tables and graph node
# files: id in decimal, a, b, c as 0x-prefixed lowercase hex zero-padded
# to ceil(n/4) nibbles, dp the exact decimal of 2^-hw, hw in decimal. The
# graph module writes its edges file and exports, and reads its edges
# file, with the same two pieces. Both work on whole columns with numpy,
# a bounded number of bytes at a time, and hold the data once:
# the writer fills one buffer of the output's exact size, and every
# reader fills its columns through read_columns.

_WRITE_CHUNK_BYTES = 1 << 20  # of line matrix: wide lines take fewer rows
_READ_CHUNK_BYTES = 1 << 20  # of input
# Output or input of fewer bytes is written or read on the calling thread.
# On 2 vCPUs a pool gained nothing below it: a 32 MB table took 0.165 s to
# write and 0.41 s to read alone, 0.176 s and 0.43 s on two threads, and
# the threads' malloc arenas kept about 6 MB more resident.
_POOL_BYTES = 1 << 25

_MAX_HEX_DIGITS = 16   # a uint64 column
_MAX_ID_DIGITS = 18    # fits int64
_MAX_HW = 255          # a uint8 column
COLUMN_DTYPES = (np.int64, np.uint64, np.uint64, np.uint64, np.uint8)  # ids, a, b, c, hw

_BAD_DIGIT = 255


def _digit_table(alphabet: str, base: int) -> np.ndarray:
    """Byte -> digit value, _BAD_DIGIT for bytes outside the alphabet."""
    table = np.full(256, _BAD_DIGIT, dtype=np.uint8)
    for ch in alphabet:
        table[ord(ch)] = int(ch, base)
    return table


def _digit_quads(base: int) -> np.ndarray:
    """v -> the four digits of v in `base`, lowercase and zero-padded, as
    the bytes of one uint32, for v in 0..base^4 - 1."""
    v = np.arange(base ** 4)
    digits = v[:, None] // base ** np.arange(3, -1, -1) % base
    return np.frombuffer(b"0123456789abcdef", np.uint8)[digits].view(np.uint32).ravel()


_DEC_VALUE = _digit_table("0123456789", 10)
_HEX_VALUE = _digit_table("0123456789abcdefABCDEF", 16).astype(np.uint16)
_DEC_QUADS = _digit_quads(10)
_HEX_QUADS = _digit_quads(16)  # indexed by a 16-bit group of a word
# two hex digits read as a little-endian uint16 -> their byte value, or
# 0x100 when either is not a hex digit
_HEX_PAIR_VALUE = np.where(
    (_HEX_VALUE[None, :] == _BAD_DIGIT) | (_HEX_VALUE[:, None] == _BAD_DIGIT),
    0x100, _HEX_VALUE[None, :] * 16 + _HEX_VALUE[:, None]).ravel()

_NEWLINE, _CR, _COMMA, _ZERO = ord("\n"), ord("\r"), ord(","), ord("0")


def typed(x, dtype, noun: str = "columns") -> np.ndarray:
    """x as a one-dimensional array of `dtype`, x itself when it is one;
    ParameterError unless x holds integers that the dtype keeps."""
    info = np.iinfo(dtype)
    if not isinstance(x, np.ndarray):  # numpy reads the ints [0, 2**63] as floats
        try:
            ndim = np.ndim(x)
        except ValueError:  # lists of unequal lengths
            raise ParameterError(f"{noun} must be one-dimensional") from None
        ints = ndim == 1 and all(isinstance(v, int) and info.min <= v <= info.max for v in x)
        x = np.asarray(x, dtype if ints else None)
    if x.ndim != 1:
        raise ParameterError(f"{noun} must be one-dimensional")
    if x.dtype.kind not in "iu":
        raise ParameterError(f"{noun} must be integer arrays")
    if x.dtype != dtype and len(x) and not info.min <= int(x.min()) <= int(x.max()) <= info.max:
        raise ParameterError(f"{noun} must hold integers in {info.min}..{info.max}")
    return x.astype(dtype, copy=False)


def check_columns(columns: list, word_size: int) -> list:
    """The list of columns, [ids,] a, b, c, hw, typed in COLUMN_DTYPES and, given ids, put
    in id order, in place; ParameterError unless they have one length, the word size is in
    1..64, every a, b, c word fits in it and any ids are distinct and in 0..10^18 - 1."""
    for k, dtype in enumerate(COLUMN_DTYPES[-len(columns):]):  # each old column freed in turn
        columns[k] = typed(columns[k], dtype)
    if len({len(x) for x in columns}) > 1:
        raise ParameterError(f"columns of lengths {[len(x) for x in columns]} differ")
    if not 1 <= word_size <= 64:
        raise ParameterError(f"word size {word_size} outside 1..64")
    top = max(int(x.max(initial=0)) for x in columns[-4:-1])
    if top >> word_size:
        raise ParameterError(f"value {top:#x} does not fit in {word_size} bits")
    if len(columns) == 5:
        ids = in_order(columns, 1)[0]
        if (ids[1:] == ids[:-1]).any():
            raise ParameterError("duplicate node ids")
        if len(ids) and ids[0] < 0:
            raise ParameterError("row ids must be non-negative")
        if len(ids) and ids[-1] >= 10 ** _MAX_ID_DIGITS:
            raise ParameterError(f"row id {ids[-1]} has more than {_MAX_ID_DIGITS} digits")
    return columns


class DifferentialColumns(NamedTuple):
    """Columns of differential rows: in file order as read, in id order in a graph."""

    ids: np.ndarray   # int64
    a: np.ndarray     # uint64
    b: np.ndarray     # uint64
    c: np.ndarray     # uint64
    hw: np.ndarray    # uint8
    word_size: int    # 4 bits per digit of the widest hex field, at least 4


class Dec(NamedTuple):
    """A line slot: a column of ids from 0 to 10^18 - 1, in decimal. The
    column is an int64 array, or a range of row numbers, which is made
    into an array one chunk of rows at a time."""

    column: int


class Hex(NamedTuple):
    """A line slot: a column of words, in lowercase hex zero-padded to the
    word size's nibble count."""

    column: int


class Lines:
    """One line per row: the pieces in order, then tails[codes[row]].

    A piece is literal bytes or a Dec or Hex slot that reads its column of
    `columns`, which its record's constructor has checked. `size` is the bytes
    the lines take. `write` lays each chunk of rows out as a fixed-width
    byte matrix, and a keep mask drops the unused leading bytes of every
    Dec slot and the unused end of every tail when the matrix is
    flattened into the output.
    """

    def __init__(self, pieces, columns, tails, codes, word_size: int = 0):
        self.columns = columns
        self.codes = codes
        self.size = 0
        if len(codes) == 0:
            return
        widths = {}  # column -> bytes of its slots
        for piece in pieces:
            if isinstance(piece, Hex):
                widths[piece.column] = -(-word_size // 4)
            elif isinstance(piece, Dec) and piece.column not in widths:
                x = columns[piece.column]
                top = x[-1] if isinstance(x, range) else int(x.max())
                widths[piece.column] = 4 * -(-len(str(top)) // 4)  # written four digits at a time
        self.slots, start = [], 0  # (piece, first byte, width) per piece
        for piece in pieces:
            width = len(piece) if isinstance(piece, bytes) else widths[piece.column]
            self.slots.append((piece, start, width))
            start += width
            if isinstance(piece, Dec):  # an id of d digits fills d bytes of its slot
                x = columns[piece.column]
                digits = len(x) + sum(_count_at_least(x, 10**k) for k in range(1, width))
                self.size += digits - len(x) * width
        self.tail_start = start
        tail_width = max(map(len, tails))
        self.line_width = start + tail_width
        # each tail, and the mask of its bytes, as one void item: a row's is
        # copied in one step
        tail_bytes = np.zeros((len(tails), tail_width), dtype=np.uint8)
        for k, tail in enumerate(tails):
            tail_bytes[k, :len(tail)] = np.frombuffer(tail, dtype=np.uint8)
        tail_len = np.array([len(tail) for tail in tails])
        self.tail_items = _items(tail_bytes, 0, f"V{tail_width}")
        self.tail_keep = _items(np.arange(tail_width) < tail_len[:, None], 0, f"V{tail_width}")
        tails_size = int(np.bincount(codes, minlength=len(tails)) @ tail_len)
        self.size += len(codes) * start + tails_size

    def write(self, out) -> None:
        """Write the lines to the binary file object `out`, in order. Chunks
        of rows are laid out on the threads that `_workers` gives for the
        output's size, each chunk within a thread's share of
        _WRITE_CHUNK_BYTES; the bytes do not depend on the thread count."""
        if self.size == 0:
            return
        workers = _workers(self.size)
        step = max(1, _WRITE_CHUNK_BYTES // (workers * self.line_width))
        _map_in_order(lambda lo: self._chunk(lo, lo + step), range(0, len(self.codes), step),
                      out.write, workers)

    def _chunk(self, lo: int, hi: int) -> np.ndarray:
        """The bytes of the lines of rows lo..hi - 1."""
        code = self.codes[lo:hi]
        line = np.empty((len(code), self.line_width), dtype=np.uint8)
        keep = np.ones(line.shape, dtype=bool)
        for piece, start, width in self.slots:
            if isinstance(piece, bytes):
                _items(line, start, f"V{width}")[:] = np.void(piece)
                continue
            x = self.columns[piece.column][lo:hi]
            if isinstance(piece, Hex):
                _put_hex(line, start, width, x)
                continue
            if isinstance(x, range):
                x = np.arange(x.start, x.stop, x.step, dtype=np.int64)
            for k in range(width - 1):  # a digit is kept from the id's first on
                np.greater_equal(x, 10 ** (width - 1 - k), out=keep[:, start + k])
            _put_decimal(_items(line, start, np.uint32, width // 4), x)
        # the codes index the tails, so no index is clipped
        np.take(self.tail_items, code, axis=0, mode="clip",
                out=_items(line, self.tail_start, self.tail_items.dtype))
        np.take(self.tail_keep, code, axis=0, mode="clip",
                out=_items(keep, self.tail_start, self.tail_keep.dtype))
        return line[keep]


def _items(matrix: np.ndarray, start: int, dtype, count: int = 1) -> np.ndarray:
    """A view of the C-ordered byte matrix's rows from byte `start` on as
    `count` items of `dtype` each, unaligned where `start` is."""
    dtype = np.dtype(dtype)
    return np.ndarray((len(matrix), count), dtype, matrix, start, (matrix.shape[1], dtype.itemsize))


def _put_decimal(words: np.ndarray, x: np.ndarray) -> None:
    """Fill each row of `words`, uint32 items, with its id of x in decimal,
    right-aligned and zero-padded, four digits to an item."""
    for k in range(words.shape[1] - 1, 0, -1):
        high = x // 10_000
        np.take(_DEC_QUADS, x - high * 10_000, out=words[:, k], mode="clip")
        x = high
    np.take(_DEC_QUADS, x, out=words[:, 0], mode="clip")  # below 10_000: the slot holds the id


def _put_hex(line: np.ndarray, start: int, width: int, x: np.ndarray) -> None:
    """Fill bytes start..start + width - 1 of each row of the byte matrix
    with the last `width` hex digits of its word of x, four digits to a
    16-bit group."""
    full, partial = divmod(width, 4)
    groups = x.astype("<u8", copy=False).view("<u2").reshape(-1, 4)  # lowest first
    words = _items(line, start + partial, np.uint32, full)
    for k in range(full):
        np.take(_HEX_QUADS, groups[:, k], out=words[:, full - 1 - k], mode="clip")
    if partial:
        top = _HEX_QUADS[groups[:, full]].view(np.uint8).reshape(-1, 4)
        line[:, start:start + partial] = top[:, 4 - partial:]


def _count_at_least(ids, value: int) -> int:
    """How many of a Dec column's ids are at least `value`."""
    if isinstance(ids, range):
        return len(ids) - len(range(ids.start, min(value, ids.stop), ids.step))
    return int(np.count_nonzero(ids >= value))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(size: int) -> int:
    """The threads for a file of `size` bytes: one for every CPU the process
    may use from _POOL_BYTES on, else the calling thread alone."""
    return _cpus() if size >= _POOL_BYTES else 1


def _map_in_order(work, tasks, take, workers: int) -> None:
    """take(work(task)) for each task, in order. With more than one worker
    and task, work runs on a pool of `workers` threads, at most `workers`
    tasks ahead of take, which runs on the calling thread; every thread is
    joined before this returns or raises."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            take(work(task))
        return
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        try:
            for task in tasks:
                if len(pending) == workers:
                    take(pending.popleft().result())
                pending.append(pool.submit(work, task))
            while pending:
                take(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()


def write_lines(out, parts) -> None:
    """Write the parts, each bytes or Lines, in order to the binary file
    object `out`."""
    for part in parts:
        if isinstance(part, bytes):
            out.write(part)
        else:
            part.write(out)


def join_lines(parts) -> bytes:
    """The parts, each bytes or Lines, in order. The output buffer is
    allocated once at its final size and returned without a copy, so
    no growing buffer leaves copies of itself behind."""
    size = sum(len(part) if isinstance(part, bytes) else part.size for part in parts)
    out = io.BytesIO()
    if size:
        out.seek(size - 1)
        out.write(b"\0")
        out.seek(0)
    write_lines(out, parts)
    if out.tell() != size:
        raise RuntimeError(f"wrote {out.tell()} bytes of {size}")
    return out.getvalue()  # the buffer itself, not a copy


def differential_lines(pieces, tail: str, ids, a, b, c, hw, word_size: int) -> Lines:
    """One line per row: the pieces, Dec(0) the id and Hex(1..3) the words
    a, b, c, then `tail` formatted with the row's dp and hw."""
    tails = [tail.format(dp=dyadic_str(w), hw=w).encode("ascii")
             for w in range(int(hw.max(initial=0)) + 1)]
    return Lines(pieces, [ids, a, b, c], tails, hw, word_size)


# the text after c depends on hw alone, so it is the tail
_CSV_ROW = ((Dec(0), b",0x", Hex(1), b",0x", Hex(2), b",0x", Hex(3)), ",{dp},{hw}\n")


def differential_csv(header: str, ids, a, b, c, hw, word_size: int) -> list:
    """The parts of a differential CSV: the header line, then one
    `id,a,b,c,dp,hw` line per row."""
    return [(header + "\n").encode("ascii"),
            differential_lines(*_CSV_ROW, ids, a, b, c, hw, word_size)]


class Fields:
    """The data lines of a run of whole lines, split at commas.

    `buf` is a view of the run's bytes. `bounds(k)` gives the first byte
    and the end of field k of each line in `buf`, as int32 offsets where
    they fit. The lines stop before the first line that has another field
    count; `errors` then holds that line's fault, and `check` adds the
    first line at which a field is bad, so that `first_error` names the
    earliest line's fault.
    """

    def __init__(self, data, begin: int, end: int, lines_before: int, header: bytes, n: int):
        buf = np.frombuffer(data, np.uint8, end - begin, begin)
        offset = np.int32 if len(buf) < 2**31 else np.int64
        newlines = np.flatnonzero(buf == _NEWLINE).astype(offset)
        starts = np.concatenate((np.zeros(1, dtype=offset), newlines + 1))
        ends = np.append(newlines, offset(len(buf)))
        if starts[-1] == len(buf):  # nothing after the final newline
            starts, ends = starts[:-1], ends[:-1]
        ends -= (ends > starts) & (buf[ends - 1] == _CR)
        first = buf[starts]
        self.data_lines = (ends > starts) & (first != ord("#"))  # of the run's lines
        maybe = np.flatnonzero(self.data_lines & (first == header[0])
                               & (ends - starts >= len(header)))
        if len(maybe):
            text = np.lib.stride_tricks.sliding_window_view(buf, len(header))[starts[maybe]]
            self.data_lines[maybe[(text == np.frombuffer(header, np.uint8)).all(axis=1)]] = False
        is_comma = buf == _COMMA
        if not self.data_lines.all():  # the commas of the skipped lines are no field's
            skipped = ~self.data_lines
            size = ends[skipped] - starts[skipped]
            at = np.repeat(starts[skipped] - (np.cumsum(size) - size), size)
            is_comma[at + np.arange(len(at))] = False
            starts, ends = starts[self.data_lines], ends[self.data_lines]
        self.lines_before = lines_before

        commas = np.flatnonzero(is_comma).astype(offset)
        self.errors = []
        # each line's n - 1 commas, when the file has no others: the lines'
        # commas are in order, so when each row of the grid starts and ends
        # in its line, every line holds its row and no other comma
        grid = commas.reshape(-1, n - 1) if len(commas) == len(starts) * (n - 1) else None
        if grid is None or not ((grid[:, 0] >= starts).all() and (grid[:, -1] < ends).all()):
            first_comma = np.searchsorted(commas, starts)
            fields = np.searchsorted(commas, ends) - first_comma + 1
            if (fields != n).any():
                i = int(np.argmax(fields != n))
                self.errors.append((i, f"line {self.line_no(i)}: expected {n} comma-separated "
                                       f"fields, got {fields[i]}"))
                starts, ends, first_comma = starts[:i], ends[:i], first_comma[:i]
            grid = np.empty((len(starts), n - 1), dtype=offset)
            for k in range(n - 1):
                np.take(commas, first_comma + k, out=grid[:, k])
        self.commas = grid
        self.buf, self.starts, self.ends = buf, starts, ends

    def line_no(self, i: int) -> int:
        """The 1-based number in the file of data line i."""
        return self.lines_before + int(np.flatnonzero(self.data_lines)[i]) + 1

    def bounds(self, field: int):
        """The first byte and the end in buf of the field (0-based) of
        each line."""
        start = self.starts if field == 0 else self.commas[:, field - 1] + 1
        end = self.commas[:, field] if field < self.commas.shape[1] else self.ends
        return start, end

    def check(self, bad: np.ndarray, field: int, expected: str) -> None:
        """Note the first row whose field (0-based) is bad."""
        if bad.any():
            i = int(np.argmax(bad))
            start, end = self.bounds(field)
            text = self.buf[start[i]:end[i]].tobytes()
            self.errors.append((i, f"line {self.line_no(i)}: field {field + 1} must be "
                                   f"{expected}, got {text.decode('utf-8', 'replace')!r}"))

    def ids(self, field: int, expected: str) -> np.ndarray:
        """The field as decimal ids of at most _MAX_ID_DIGITS digits."""
        values, bad = _parse_decimal(self.buf, *self.bounds(field), _MAX_ID_DIGITS)
        self.check(bad, field, expected)
        return values

    def labels(self, field: int, pattern, names: Dict[bytes, int]) -> np.ndarray:
        """The field as labels that fully match the compiled `pattern`, each
        one's index in `names`, which takes in the labels it does not hold."""
        # labels of one length are rows of one byte matrix, read from their starts
        start, end = self.bounds(field)
        length = end - start
        bad = length == 0
        codes = np.zeros(len(length), dtype=np.intp)
        lengths = np.sort(length[~bad])  # np.unique of a plain array would import numpy.ma
        sizes = lengths[np.diff(lengths, prepend=0) != 0].tolist()
        for size in sizes:
            at = np.flatnonzero(length == size) if len(sizes) > 1 or bad.any() else slice(None)
            text = np.lib.stride_tricks.sliding_window_view(self.buf, size)[start[at]]
            if (text == text[0]).all():  # a run of one label
                distinct, inverse = [text[0].tobytes()], 0
            else:
                distinct, inverse = np.unique(text.view(f"S{size}")[:, 0], return_inverse=True)
                distinct = distinct.tolist()
            # bytes_ values drop NUL bytes at the end, so such a label is short
            valid = [len(label) == size and pattern.fullmatch(label.decode("latin-1")) is not None
                     for label in distinct]
            bad[at] = ~np.array(valid)[inverse]
            codes[at] = np.array([names.setdefault(label, len(names))
                                  for label in distinct])[inverse]
        self.check(bad, field, f"a label matching {pattern.pattern}")
        return codes

    def first_error(self) -> Optional[str]:
        return min(self.errors)[1] if self.errors else None


def read_columns(data, header: bytes, n: int, dtypes, parse, merge) -> list:
    """Columns of the given dtypes, filled from the data lines of `data`, bytes or an mmap.

    The data is cut into runs of whole lines, each about a thread's share
    of _READ_CHUNK_BYTES, which are split and parsed on the threads that
    `_workers` gives for the data's size, a run per thread at a time:
    parse(fields) gives a run's parts, one per column, and what else it
    found, and notes its bad fields on `fields`; it shares nothing with
    other runs. Then, on the calling thread and in file order, a run with
    a bad line raises ValueError for its earliest, and merge(parts, found)
    gives the parts that are stored. A line ends
    at '\\n' and one '\\r' before it is dropped; nothing else is stripped.
    Blank lines and lines starting with '#' or with `header` are skipped;
    every other line should have n fields.
    """
    workers = _workers(len(data))
    runs, lines_before, pos = [], 0, 0  # (first byte, end, newlines before)
    while pos < len(data):
        end = data.find(b"\n", min(pos + max(1, _READ_CHUNK_BYTES // workers), len(data)) - 1)
        end = len(data) if end < 0 else end + 1
        runs.append((pos, end, lines_before))
        lines_before += int(np.count_nonzero(np.frombuffer(data, np.uint8, end - pos, pos)
                                             == _NEWLINE))
        pos = end
    # one row at most per line
    columns = [np.empty(lines_before + 1, dtype=dtype) for dtype in dtypes]
    rows = 0

    def split(run):
        fields = Fields(data, *run, header, n)
        parts, found = parse(fields)
        return parts, found, fields.first_error()

    def store(parsed):
        nonlocal rows
        parts, found, error = parsed
        if error is not None:
            raise ValueError(error)
        for column, part in zip(columns, merge(parts, found)):
            column[rows:rows + len(part)] = part
        rows += len(parts[0])

    _map_in_order(split, runs, store, workers)
    return [column[:rows] for column in columns]


def decode_differential_csv(data) -> DifferentialColumns:
    """Parse `id,a,b,c,dp,hw` rows of bytes or an mmap.

    Blank lines, lines starting with '#' and header lines starting with
    'id,' are skipped; a CR before the newline is ignored.  A data line
    must have six fields: a decimal id, three 0x-prefixed hex fields of
    1 to 16 digits and a decimal hw from 0 to 255; dp is not read.  Any
    other line raises ValueError naming its 1-based line number.
    """
    word_size = 4

    def parse(lines: Fields):
        buf = lines.buf
        parts = [lines.ids(0, f"a decimal id of at most {_MAX_ID_DIGITS} digits")]
        digits = 1  # of the widest hex field
        for field in (1, 2, 3):
            start, end = lines.bounds(field)
            value, bad = _parse_hex(buf, start + 2, end)
            bad |= (buf[start] != _ZERO) | (buf[start + 1] != ord("x"))
            lines.check(bad, field, f"0x and 1 to {_MAX_HEX_DIGITS} hex digits")
            parts.append(value)
            digits = max(digits, int((end - start).max(initial=2)) - 2)
        hw, bad = _parse_decimal(buf, *lines.bounds(5), 3)
        lines.check(bad | (hw > _MAX_HW), 5, f"a decimal weight from 0 to {_MAX_HW}")
        return parts + [hw.astype(np.uint8)], digits  # a run with a bad weight is not stored

    def merge(parts, digits: int):
        nonlocal word_size
        word_size = max(word_size, 4 * digits)
        return parts

    columns = read_columns(data, b"id,", 6, COLUMN_DTYPES, parse, merge)
    return DifferentialColumns(*columns, word_size)


def _right_aligned(buf, start, end, width: int) -> np.ndarray:
    """The `width` bytes before each field end, with '0' in place of the
    bytes before the field start."""
    windows = np.lib.stride_tricks.sliding_window_view(buf, width)
    if len(end) and end[0] < width:  # fields end in line order, so only the first lines may
        early = np.flatnonzero(end < width)
        window = windows[np.maximum(end - width, 0)]
        head = np.concatenate((np.zeros(width, dtype=np.uint8), buf[:width]))
        window[early] = np.lib.stride_tricks.sliding_window_view(head, width)[end[early]]
    else:
        window = windows[end - width]
    length = end - start
    if (length == width).all():  # every field fills its window
        return window
    np.putmask(window, np.arange(width) < width - length[:, None], _ZERO)
    return window


def _rows_with(mask: np.ndarray) -> np.ndarray:
    """Rows of a 2-D mask with any True entry."""
    rows = np.zeros(len(mask), dtype=bool)
    if mask.any():
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
        value *= np.uint64(10)
        value += digits[:, k]
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
    value = pairs.astype(np.uint8).view(f">u{width // 2}")[:, 0]
    return value.astype(f"u{width // 2}"), bad  # native order, no wider than the digits


def ascending(*keys) -> bool:
    """True when the rows of the key columns are in lexicographic order,
    equal rows allowed."""
    *head, last = keys
    in_order = last[1:] >= last[:-1]  # rows k and k + 1, from this key on
    for x in reversed(head):
        in_order &= x[1:] == x[:-1]
        in_order |= x[1:] > x[:-1]
    return bool(in_order.all())


def partial_dp(a: int, b: int, c: int, k: int) -> float:
    """Probability of the k-LSB partial differential; 1.0 at k=0."""
    if k < 0:
        raise ParameterError(f"negative prefix length {k}")
    if k == 0:
        return 1.0
    if not is_valid_differential(a, b, c, k):
        return 0.0
    return 2.0 ** -differential_weight(a, b, c, k)


def _expand_level(frontier, bit: int, max_weight: int, max_elements: int):
    """One bit-assignment step: each prefix's children, triple by triple.

    A prefix takes (x, y, z) if its previous bits disagree and it has weight
    to spare (`heavy`: the child weighs one more), or if their common bit,
    the state itself, equals x ^ y ^ z. So the four triples of one parity
    take the same parents, which are gathered once per parity; each
    triple's children fill their slice of the level, allocated once at its
    size, and a level above max_elements rows is refused before that.
    `frontier` is a list of the level below's columns; it is emptied once
    their parents are gathered, so that level is freed before the new one
    is allocated.
    """
    a, b, c, w, state = frontier
    dtypes = [col.dtype for col in frontier]
    heavy = (state == _NEQ) & (w < max_weight)
    parents = [np.flatnonzero(heavy | (state == p)) for p in (_EQ0, _EQ1)]
    size = 4 * sum(map(len, parents))
    if size > max_elements:
        raise PddtOverflowError(size, max_elements)
    w = w + heavy
    parents = [(a[idx], b[idx], c[idx], w[idx]) for idx in parents]
    frontier.clear()
    del a, b, c, w, state, heavy
    level = [np.empty(size, dtype=dtype) for dtype in dtypes]
    lo = 0
    for x, y, z in product((0, 1), repeat=3):
        pa, pb, pc, pw = parents[x ^ y ^ z]
        rows = slice(lo, lo + len(pa))
        for col, parent, value in zip(level, (pa, pb, pc), (x, y, z)):
            np.bitwise_or(parent, col.dtype.type(value << bit), out=col[rows])
        level[3][rows] = pw
        level[4][rows] = x if x == y == z else _NEQ
        lo = rows.stop
    return level


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count from the argument; None or 0 means 1.

    The builder runs on the calling thread whatever this returns; the
    function stays only because the benchmark harness reports it.
    """
    return max(1, workers or 1)


def build_pddt(config: PddtConfig, workers: Optional[int] = None) -> Pddt:
    """Build the full PDDT for the configured word size and threshold.

    The frontier starts as the empty prefix, all-equal at 0 and weightless, and grows one
    level per bit position in the narrowest word type; the last level, widened, is the table.
    The build runs on the calling thread; `workers` is accepted and
    ignored, kept only for the benchmark harness, which passes it.
    """
    zero = np.zeros(1, dtype=np.min_scalar_type((1 << config.word_size) - 1))
    level = [zero, zero, zero, np.zeros(1, dtype=np.uint16), np.full(1, _EQ0, dtype=np.uint8)]
    for bit in range(config.word_size):
        level = _expand_level(level, bit, config.max_weight, config.max_elements)
    del level[4]  # the carry states
    # sorting by (a, b) alone sorts by (a, b, c): each level is laid out by
    # its new bit's (a, b, c) triple and then in its parents' order, so the
    # rows come in bit-interleaved order from the top bit, ascending in c
    # among equal (a, b)
    _gather(level, stable_order(level[0], level[1]))
    return Pddt.__new__(Pddt)._take(config.word_size, level)  # widened in place


def _gather(cols: list, order: np.ndarray) -> None:
    """Reorder each column in place in the list, one at a time, so that
    only one column's old copy is alive beside the others."""
    for k, col in enumerate(cols):
        cols[k] = col[order]


_BLOCK = 1024  # generator words fetched by one getrandbits call


def _words(rng: random.Random) -> Iterator[int]:
    """The 32-bit outputs of rng's Mersenne Twister in order; `rng.getrandbits(32 * m)` packs
    the next m, the first lowest. A draw below n, `next(words) >> (32 - n.bit_length())` until
    it is below n, is the draw `rng.choice` makes from a list of n < 2^32 entries."""
    unpack, size = struct.Struct(f"<{_BLOCK}I").unpack, 4 * _BLOCK
    blocks = iter(lambda: rng.getrandbits(8 * size).to_bytes(size, "little"), None)
    return chain.from_iterable(map(unpack, blocks))


def _sample_positions(sizes, takes, words: Iterator[int]) -> List[int]:
    """The k of range(n) that `Random.sample` picks for each size n < 2^32 and take k in turn,
    in an order of their own, drawn from its generator's `words` as CPython draws them."""
    draw, picks = words.__next__, []
    for n, k in zip(sizes, takes):
        if n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0):  # list beats set
            pool = list(range(n))
            for m in range(n, n - k, -1):  # a draw below m takes its entry; the last fills it
                j, shift = m, 32 - m.bit_length()
                while j >= m:
                    j = draw() >> shift
                picks.append(pool[j])
                pool[j] = pool[m - 1]
        else:  # distinct draws below n: a repeat is drawn again, as one out of range is
            shift, selected = 32 - n.bit_length(), set()
            while len(selected) < k:
                j = draw() >> shift
                if j < n:
                    selected.add(j)
            picks.extend(selected)
    return picks


def sample_pddt(pddt: Pddt, spec: SampleSpec) -> Pddt:
    """Seeded quota sample: ~fraction of the table, proportional within
    each output-difference class, never dropping a class entirely.
    Without the quota rule a class may round to no rows; a sample that
    keeps no row at all raises ParameterError."""
    if len(pddt) == 0:
        raise ParameterError("cannot sample an empty PDDT")
    if spec.fraction == 1.0:
        return pddt
    rng = random.Random(f"pddt-sample:{spec.seed}")
    # output classes in ascending c, each class's rows in table order
    order = stable_order(pddt.c)
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
    if not takes.any():
        raise ParameterError(f"sample fraction {spec.fraction} keeps none of {len(pddt)} rows")
    picks = _sample_positions(sizes.tolist(), takes.tolist(), _words(rng))
    keep = np.zeros(len(pddt), dtype=bool)  # rows kept in table order: a class's set counts
    keep[order[np.repeat(starts, takes) + np.array(picks, dtype=np.int64)]] = True
    idx = np.flatnonzero(keep)
    return Pddt(pddt.word_size, pddt.a[idx], pddt.b[idx], pddt.c[idx], pddt.hw[idx])


# rows of packed words filled at a time, so that no other column is made
_KEY_BLOCK = 1 << 16


def in_order(columns: list, keys: int) -> list:
    """The list, each column replaced by its sorted copy in turn unless the rows of the
    first `keys` ascend; a list that alone holds its columns frees each old one."""
    if not ascending(*columns[:keys]):
        _gather(columns, stable_order(*columns[:keys]))
    return columns


def stable_order(*keys) -> np.ndarray:
    """The stable permutation that sorts the rows of the integer key
    columns, first key first: `np.lexsort(keys[::-1])`. Each key is as
    wide as its largest value. When the keys and the bits of the last row
    number fit in 64 bits, it is one in-place sort of the packed words
    (keys, row): they are distinct, so their order is the stable one, and
    masking out the keys leaves the row numbers. When only the keys fit,
    it is a stable argsort of the packed keys; otherwise, or when a key
    holds a negative value, the lexsort runs."""
    widths = [int(x.max(initial=0)).bit_length() for x in keys]
    if sum(widths) > 64 or any(x.dtype.kind == "i" and x.min(initial=0) < 0 for x in keys):
        return np.lexsort(keys[::-1])
    r = (len(keys[0]) - 1).bit_length()
    with_rows = sum(widths) + r <= 64
    packed = np.empty(len(keys[0]), dtype=np.uint64)
    for start in range(0, len(packed), _KEY_BLOCK):
        rows = slice(start, start + _KEY_BLOCK)
        block = packed[rows]
        block[:] = 0
        for x, width in zip(keys, widths):
            block <<= np.uint64(width)
            block |= x[rows].astype(np.uint64, copy=False)
        if with_rows:
            block <<= np.uint64(r)
            block |= np.arange(start, start + len(block), dtype=np.uint64)
    if not with_rows:
        return np.argsort(packed, kind="stable")
    packed.sort()
    packed &= np.uint64((1 << r) - 1)
    return packed.view(np.int64)


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
