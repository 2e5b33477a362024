"""Output checks for the benchmark, with oracles that never call the program.

Every figure the program prints or writes is compared with a value
computed here from first principles: the Lipmaa-Moriai validity and
weight condition for XOR differentials of addition, a carry-state count
of the full table, and closed forms for graphs whose edges are the cross
product of two predicate-selected node sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Published table sizes by weight, keyed by (word size, threshold):
# 3,951,388 rows at n=32, threshold 0.1.
PUBLISHED_HISTOGRAMS = {(32, 0.1): {0: 4, 1: 744, 2: 66960, 3: 3883680}}


class CheckFailed(Exception):
    """An output of the program differs from its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- differentials -----------------------------------------------------


def max_weight(threshold: float) -> int:
    """Largest weight w with 2^-w >= threshold."""
    w = 0
    while 2.0 ** -(w + 1) >= threshold:
        w += 1
    return w


def lm_weight(a: int, b: int, c: int, n: int) -> Optional[int]:
    """Weight of (a, b -> c) under addition mod 2^n, or None if impossible.

    Valid iff eq(a<<1, b<<1, c<<1) & (a ^ b ^ c ^ (b<<1)) == 0; the weight
    counts the positions below the top bit where a, b and c disagree.
    """
    mask = (1 << n) - 1

    def eq(p: int, q: int, r: int) -> int:
        return ~(p ^ q) & ~(p ^ r) & mask

    a1, b1, c1 = (a << 1) & mask, (b << 1) & mask, (c << 1) & mask
    if eq(a1, b1, c1) & (a ^ b ^ c ^ b1):
        return None
    return (~eq(a, b, c) & (mask >> 1)).bit_count()


def weight_histogram(n: int, threshold: float) -> Dict[int, int]:
    """Rows per weight of the full table, counted without enumerating it.

    Bits are placed from the LSB up. The state is whether a, b and c
    agreed at the previous bit (and on which value): if they did, the new
    bits must xor to that value; if not, the weight grows by one.
    """
    limit = max_weight(threshold)
    eq0, eq1, neq = 0, 1, 2

    def state(x: int, y: int, z: int) -> int:
        if x == y == z:
            return eq0 if x == 0 else eq1
        return neq

    counts = [Counter() for _ in range(3)]
    for x, y, z in product((0, 1), repeat=3):
        if x ^ y ^ z == 0:  # bit 0: the shifted words are all zero there
            counts[state(x, y, z)][0] += 1
    for _bit in range(1, n):
        nxt = [Counter() for _ in range(3)]
        for s, by_weight in enumerate(counts):
            for w, k in by_weight.items():
                w2 = w + (s == neq)
                if w2 > limit:
                    continue
                for x, y, z in product((0, 1), repeat=3):
                    if s != neq and x ^ y ^ z != s:
                        continue
                    nxt[state(x, y, z)][w2] += k
        counts = nxt
    total = Counter()
    for by_weight in counts:
        total.update(by_weight)
    return dict(sorted(total.items()))


def expected_histogram(n: int, threshold: float) -> Dict[int, int]:
    """The published histogram where there is one, else the counted one."""
    return PUBLISHED_HISTOGRAMS.get((n, threshold)) or weight_histogram(n, threshold)


def dyadic(hw: int) -> str:
    """Exact decimal expansion of 2^-hw, as the CSV formats print it."""
    return "1" if hw == 0 else "0." + str(5 ** hw).zfill(hw)


# --- table CSV ---------------------------------------------------------


def _hw_of_lines(block: bytes) -> np.ndarray:
    """Last field (the weight) of every newline-terminated line in block."""
    arr = np.frombuffer(block, dtype=np.uint8)
    nl = np.flatnonzero(arr == 10)
    expect(len(nl) == 0 or nl[0] >= 3, "table line too short")
    d1 = arr[nl - 1].astype(np.int64) - 48
    prev = arr[nl - 2]
    two = (prev >= 48) & (prev <= 57)
    hw = np.where(two, (prev.astype(np.int64) - 48) * 10 + d1, d1)
    sep = np.where(two, arr[nl - 3], prev)
    expect(bool(((d1 >= 0) & (d1 <= 9)).all()), "table weight field is not a number")
    expect(bool((sep == ord(",")).all()), "table line does not end in ',<weight>'")
    return hw


def scan_table_csv(path: Path, chunk_bytes: int = 1 << 23) -> Dict[int, int]:
    """Weight histogram of a table CSV, read in chunks so that the check
    adds little to the process's peak memory."""
    hist = Counter()
    rest = b""
    first = True
    with open(path, "rb") as fh:
        while True:
            data = fh.read(chunk_bytes)
            block = rest + data
            if first:
                while block.startswith((b"#", b"id,")) and b"\n" in block:
                    block = block.split(b"\n", 1)[1]
                first = False
            if not data:
                expect(block == b"", "table does not end with a newline")
                break
            cut = block.rfind(b"\n") + 1
            block, rest = block[:cut], block[cut:]
            if block:
                hist.update(dict(enumerate(np.bincount(_hw_of_lines(block)).tolist())))
    return {w: k for w, k in sorted(hist.items()) if k}


def check_table(path: Path, expected: Dict[int, int]) -> int:
    got = scan_table_csv(path)
    expect(got == expected, f"table weight histogram {got} != {expected}")
    return sum(got.values())


# --- sample and graph CSVs --------------------------------------------

Row = Tuple[int, int, int, int, str, int]  # id, a, b, c, dp, hw


def data_lines(path: Path) -> List[str]:
    """Lines of a CSV after its '#' metadata lines and its header."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    expect(bool(lines) and not lines[0][:1].isdigit(), f"{Path(path).name}: missing header")
    return lines[1:]


def read_rows(path: Path) -> List[Row]:
    """Rows of a table/sample CSV or of a graph nodes CSV (same columns)."""
    rows = []
    for ln in data_lines(path):
        fields = ln.split(",")
        expect(len(fields) == 6, f"{Path(path).name}: bad line {ln!r}")
        i, a, b, c, dp, hw = fields
        rows.append((int(i), int(a, 16), int(b, 16), int(c, 16), dp, int(hw)))
    return rows


RowPredicate = Callable[[Row], bool]

# The default edge rule: sources have output difference 0, targets have
# probability >= 0.5.
DEFAULT_RULE: Tuple[RowPredicate, RowPredicate] = (
    lambda r: r[3] == 0,
    lambda r: 2.0 ** -r[5] >= 0.5,
)


@dataclass(frozen=True)
class RuleSets:
    """Node ids selected by an edge rule's source and target predicates."""

    nodes: int
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]
    dp: Dict[int, float]

    @classmethod
    def from_rows(cls, rows: Sequence[Row],
                  rule: Tuple[RowPredicate, RowPredicate] = DEFAULT_RULE) -> "RuleSets":
        is_source, is_target = rule
        return cls(
            nodes=len(rows),
            sources=tuple(r[0] for r in rows if is_source(r)),
            targets=tuple(r[0] for r in rows if is_target(r)),
            dp={r[0]: 2.0 ** -r[5] for r in rows},
        )

    @property
    def edges(self) -> int:
        return len(self.sources) * len(self.targets)

    @property
    def components(self) -> int:
        """S x T is one component when both are non-empty; every other node
        stands alone."""
        touched = len(set(self.sources) | set(self.targets)) if self.edges else 0
        return self.nodes - touched + (1 if self.edges else 0)

    def sizes(self) -> Dict[str, int]:
        return {"nodes": self.nodes, "edges": self.edges, "sources": len(self.sources),
                "targets": len(self.targets),
                "both": len(set(self.sources) & set(self.targets))}


def check_sample(rows: Sequence[Row], n: int, threshold: float, table_rows: int) -> None:
    """Every sampled row is a valid differential above the threshold, with
    its exact weight and probability, in canonical order."""
    expect(0 < len(rows) <= table_rows, f"sample has {len(rows)} rows of {table_rows}")
    limit = max_weight(threshold)
    for k, (i, a, b, c, dp, hw) in enumerate(rows):
        expect(i == k, f"sample row {k} has id {i}")
        expect(lm_weight(a, b, c, n) == hw, f"sample row {i}: weight {hw} is wrong")
        expect(hw <= limit and dp == dyadic(hw), f"sample row {i}: dp {dp} / hw {hw}")
    keys = [r[1:4] for r in rows]
    expect(all(x < y for x, y in zip(keys, keys[1:])), "sample rows not sorted and unique")


def read_edges(path: Path) -> List[Tuple[int, int, str]]:
    edges = []
    for ln in data_lines(path):
        src, dst, label = ln.split(",")
        edges.append((int(src), int(dst), label))
    return edges


def check_graph_files(nodes_path: Path, edges_path: Path, sample_lines: List[str],
                      sets: RuleSets) -> None:
    """Nodes are the sample's rows; edges are exactly sources x targets."""
    expect(data_lines(nodes_path) == sample_lines, "graph nodes differ from the sample rows")
    edges = read_edges(edges_path)
    expect(len(edges) == sets.edges, f"graph has {len(edges)} edges, expected {sets.edges}")
    want = [(u, v, "OUTPUT_WEIGHT") for u in sorted(sets.sources) for v in sorted(sets.targets)]
    expect(edges == want, "graph edges are not sources x targets")


def check_graph_stats(text: str, sets: RuleSets) -> None:
    fields = dict(ln.split(":", 1) for ln in text.splitlines() if ":" in ln)
    expect(int(fields.get("nodes", -1)) == sets.nodes, f"stats nodes: {fields.get('nodes')}")
    expect(int(fields.get("edges", -1)) == sets.edges,
           f"stats edges {fields.get('edges')} != {sets.edges}")
    hubs = [int(h) for h in fields.get("hubs", "").split()]
    expect(hubs == (sorted(sets.targets) if sets.edges else []), "stats hubs are not the targets")
    expect(int(fields.get("components", -1)) == sets.components,
           f"stats components {fields.get('components')} != {sets.components}")


def check_export(fmt: str, paths: Sequence[Path], nodes_path: Path, edges_path: Path,
                 sets: RuleSets) -> None:
    """An export holds every node and edge once; the CSV export reloads to
    the same nodes and edges as the graph it was made from."""
    n, e = sets.nodes, sets.edges
    if fmt == "csv":
        exp_nodes, exp_edges = paths
        expect(read_rows(exp_nodes) == read_rows(nodes_path), "csv export: nodes differ")
        expect(read_edges(exp_edges) == read_edges(edges_path), "csv export: edges differ")
        return
    (path,) = paths
    data = Path(path).read_bytes()
    if fmt == "graphml":
        got = (data.count(b"<node id="), data.count(b"<edge source="))
    elif fmt == "dot":
        got = (data.count(b' [label="') - data.count(b" -> "), data.count(b" -> "))
    elif fmt == "cypher":
        got = (data.count(b"CREATE (:DIFFERENTIALS"), data.count(b"MATCH (a:DIFFERENTIALS"))
    else:
        raise CheckFailed(f"no check for export format {fmt!r}")
    expect(got == (n, e), f"{fmt} export has (nodes, edges) {got}, expected {(n, e)}")


# --- search answers ----------------------------------------------------

Answer = Optional[Tuple[int, float]]  # (hops, total_dp) of the best path, or None


def check_answers(src: int, dst: int, mcs: Answer, graph: Answer, sets: RuleSets) -> None:
    """The graph search answers in one hop exactly when src is a source and
    dst a target, and otherwise finds nothing; MCS never ranks above it."""
    if src in sets.sources and dst in sets.targets:
        want = (1, sets.dp[src] + sets.dp[dst])
        expect(graph is not None and graph[0] == 1 and abs(graph[1] - want[1]) < 1e-9,
               f"query {src}->{dst}: graph answer {graph}, expected {want}")
    else:
        expect(graph is None, f"query {src}->{dst}: graph answer {graph}, expected none")
    if mcs is not None:
        expect(graph is not None and (mcs[0], -mcs[1]) >= (graph[0], -graph[1]),
               f"query {src}->{dst}: MCS {mcs} ranks above graph search {graph}")


def parse_compare(text: str) -> Tuple[Answer, Answer]:
    """(mcs, graph) answers from the 'bench compare' CSV report."""
    answers = {}
    for ln in text.splitlines()[1:]:
        method, _seed, _playouts, hops, dp, _exp, _ms = ln.split(",")
        answers[method] = (int(hops), float(dp)) if hops else None
    expect(set(answers) == {"mcs", "graph"}, f"compare report rows: {sorted(answers)}")
    return answers["mcs"], answers["graph"]
