"""The benchmark's workloads: set-up, one timed pass, and the check of
every operation. An operation is one CLI subcommand or one query."""

from __future__ import annotations

import contextlib
import gc
import io
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffgraph import bench, cli, graph, pddt  # noqa: E402

import checks  # noqa: E402
from checks import RuleSets, expect  # noqa: E402


class Ops:
    """Runs operations and counts them. An operation fails when it raises,
    exits nonzero or its output fails a check; its latency excludes the
    check. With a `clock` (a HostClock) latencies are scaled to its
    reference host speed, and `wall_s` sums the wall times."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.wall_s = 0.0
        self.attempted = 0
        self.latencies: List[float] = []
        self.errors: List[str] = []
        self.bytes_written = 0

    @property
    def failed(self) -> int:
        return len(self.errors)

    def run(self, name: str, call: Callable, check: Callable) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.attempted}:{name}"
        try:
            result, seconds = self._timed(call)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        self.latencies.append(seconds)
        try:
            check(result)
        except Exception as exc:  # malformed output may fail while parsing
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def _timed(self, call: Callable):
        if self.clock is None:
            t0 = time.perf_counter()
            result = call()
            wall = seconds = time.perf_counter() - t0
        else:
            result, wall, seconds = self.clock.time(call)
        self.wall_s += wall
        return result, seconds

    def cli(self, name: str, argv: Sequence[str], outputs: Sequence[Path],
            check: Optional[Callable[[str], None]] = None) -> None:
        """One `diffgraph` subcommand, run in-process; `outputs` are the
        files it writes."""
        def verify(result):
            code, text = result
            expect(code == 0, f"exit code {code}")
            self.bytes_written += sum(p.stat().st_size for p in outputs)
            if check is not None:
                check(text)

        gc.collect()  # as if each subcommand ran in a fresh process
        self.run(name, lambda: run_cli(argv), verify)


def run_cli(argv: Sequence[str]):
    """(exit code, standard output) of `diffgraph argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Workload:
    """Inputs come only from the workload seed. `setup` is timed; the
    checks of its output run afterwards in `check_setup`."""

    name = ""
    trace_setup = True  # whether the traced run records the set-up's spans
    # A request is what the latency percentiles are taken over: one whole
    # pass (a user running the CLI chain), or each operation of a pass.
    # Every workload reports the query metrics, so on the CLI chains they
    # are taken over the pass.
    request_is_pass = True
    rule_argv: Sequence[str] = ("--rule", "default")
    rule = checks.DEFAULT_RULE

    def __init__(self, seed: int, work: Path, n: int, threshold: float):
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.work = work
        self.n = n
        self.threshold = threshold
        self.expected = checks.expected_histogram(n, threshold)
        self.sets: Optional[RuleSets] = None
        self.sample_lines: List[str] = []
        self.table_rows = 0
        self.sample_rows = 0

    def fresh_dir(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        pass

    def run_pass(self, ops: Ops) -> None:
        raise NotImplementedError

    def sizes(self) -> Dict[str, int]:
        sizes = {"table_rows": self.table_rows, "sample_rows": self.sample_rows}
        if self.sets is not None:
            sizes.update(self.sets.sizes())
        return sizes

    def _take_sample(self, path: Path) -> None:
        """Checks a sample CSV and derives the rule's node sets from it."""
        rows = checks.read_rows(path)
        checks.check_sample(rows, self.n, self.threshold, sum(self.expected.values()))
        self.sample_rows = len(rows)
        self.sample_lines = checks.data_lines(path)
        self.sets = RuleSets.from_rows(rows, self.rule)

    def _stats_op(self, ops: Ops, nodes: Path, edges: Path) -> None:
        ops.cli("graph stats", ["graph", "stats", "--nodes", nodes, "--edges", edges], [],
                lambda text: checks.check_graph_stats(text, self._sets()))

    def _export_op(self, ops: Ops, fmt: str, nodes: Path, edges: Path) -> None:
        out = self.work / f"export.{fmt}"
        written = ([out.with_name("export.nodes.csv"), out.with_name("export.edges.csv")]
                   if fmt == "csv" else [out])
        ops.cli(f"graph export {fmt}",
                ["graph", "export", "--nodes", nodes, "--edges", edges, "--format", fmt,
                 "--out", out], written,
                lambda _text: checks.check_export(fmt, written, nodes, edges, self._sets()))

    def _build_op(self, ops: Ops, sample: Path, nodes: Path, edges: Path) -> None:
        ops.cli("graph build",
                ["graph", "build", "--input", sample, *self.rule_argv,
                 "--nodes-out", nodes, "--edges-out", edges], [nodes, edges],
                lambda _text: checks.check_graph_files(nodes, edges, self.sample_lines,
                                                       self._sets()))

    def _sets(self) -> RuleSets:
        expect(self.sets is not None, "no checked sample to compare the graph with")
        return self.sets


class PipelineWorkload(Workload):
    name = "pipeline-n32"
    # Set-up is a warm-up chain at another word size; its spans would blend
    # into the per-layer figures of the n=32 chain.
    trace_setup = False

    def __init__(self, seed: int, work: Path, n: int = 32, threshold: float = 0.1,
                 fraction: float = 0.03, warmup_n: int = 10):
        super().__init__(seed, work, n, threshold)
        self.fraction = fraction
        self.warmup_n = warmup_n
        self.sample_seed = self.rng.randrange(2 ** 31)
        self.compare_seed = self.rng.randrange(2 ** 31)
        self.pick = (self.rng.random(), self.rng.random())

    def setup(self) -> None:
        """A fresh directory and the same chain at a small word size, so that
        imports and lazy initialisation finish before timing."""
        self.fresh_dir()
        w = self.work / "warmup"
        w.mkdir()
        chain = [
            ["pddt", "build", "--n", self.warmup_n, "--threshold", self.threshold,
             "--out", w / "table.csv"],
            ["pddt", "sample", "--input", w / "table.csv", "--fraction", self.fraction,
             "--seed", self.sample_seed, "--out", w / "sample.csv"],
            ["graph", "build", "--input", w / "sample.csv", "--rule", "default",
             "--nodes-out", w / "nodes.csv", "--edges-out", w / "edges.csv"],
            ["graph", "stats", "--nodes", w / "nodes.csv", "--edges", w / "edges.csv"],
            ["graph", "export", "--nodes", w / "nodes.csv", "--edges", w / "edges.csv",
             "--format", "cypher", "--out", w / "graph.cypher"],
        ]
        for argv in chain:
            code, _text = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"warm-up step {argv[:2]} exited {code}")

    def _check_table(self, path: Path) -> None:
        self.table_rows = checks.check_table(path, self.expected)

    def _endpoints(self):
        """src from the sources, dst from the other targets, by the seed."""
        sets = self._sets()
        expect(bool(sets.sources), "sample has no source")
        src = sets.sources[int(self.pick[0] * len(sets.sources))]
        targets = [t for t in sets.targets if t != src]
        expect(bool(targets), "sample has no target")
        return src, targets[int(self.pick[1] * len(targets))]

    def run_pass(self, ops: Ops) -> None:
        p = self.work
        table, sample = p / "table.csv", p / "sample.csv"
        nodes, edges = p / "nodes.csv", p / "edges.csv"
        ops.cli("pddt build", ["pddt", "build", "--n", self.n, "--threshold", self.threshold,
                               "--out", table], [table], lambda _t: self._check_table(table))
        ops.cli("pddt sample", ["pddt", "sample", "--input", table, "--fraction", self.fraction,
                                "--seed", self.sample_seed, "--out", sample], [sample],
                lambda _t: self._take_sample(sample))
        self._build_op(ops, sample, nodes, edges)
        self._stats_op(ops, nodes, edges)
        try:
            src, dst = self._endpoints()
        except checks.CheckFailed:
            src, dst = 0, 0  # the compare check below fails on the missing sample
        ops.cli("bench compare",
                ["bench", "compare", "--nodes", nodes, "--edges", edges, "--src", src,
                 "--dst", dst, "--playouts", 1000, "--seed", self.compare_seed,
                 "--max-depth", 3], [],
                lambda text: checks.check_answers(src, dst, *checks.parse_compare(text),
                                                  self._sets()))
        self._export_op(ops, "cypher", nodes, edges)


# Output class 0x1c00 of the n=16 table has 382 rows, so a 15% quota sample
# keeps 57 of them whatever the seed: the targets are about as many as
# the default rule's (44-64 across seeds), but their number, and with it
# the quadratic cost of graph_stats, no longer varies with the seed.
TARGET_CLASS_N16 = 0x1C00


class GraphWorkload(Workload):
    name = "graph-n16"

    def __init__(self, seed: int, work: Path, n: int = 16, threshold: float = 0.1,
                 fraction: float = 0.15, target_class: int = TARGET_CLASS_N16):
        super().__init__(seed, work, n, threshold)
        self.fraction = fraction
        self.rule_argv = ("--source-predicate", "output=0",
                          "--target-predicate", f"output={target_class}")
        self.rule = (lambda r: r[3] == 0, lambda r: r[3] == target_class)
        self.sample_seed = self.rng.randrange(2 ** 31)

    def setup(self) -> None:
        self.fresh_dir()
        table = pddt.build_pddt(pddt.PddtConfig(self.n, self.threshold))
        self.table_rows = len(table)
        sample = pddt.sample_pddt(table, pddt.SampleSpec(self.fraction, True, self.sample_seed))
        (self.work / "sample.csv").write_bytes(sample.to_csv())

    def check_setup(self) -> None:
        total = sum(self.expected.values())
        expect(self.table_rows == total, f"table has {self.table_rows} rows, expected {total}")
        self._take_sample(self.work / "sample.csv")

    def run_pass(self, ops: Ops) -> None:
        nodes, edges = self.work / "nodes.csv", self.work / "edges.csv"
        self._build_op(ops, self.work / "sample.csv", nodes, edges)
        self._stats_op(ops, nodes, edges)
        for fmt in graph.EXPORT_FORMATS:
            self._export_op(ops, fmt, nodes, edges)


class SearchWorkload(Workload):
    name = "search-n12"

    request_is_pass = False

    def __init__(self, seed: int, work: Path, n: int = 12, threshold: float = 0.1,
                 playouts: int = 1000, max_depth: int = 3, batch: int = 100):
        super().__init__(seed, work, n, threshold)
        self.playouts = playouts
        self.max_depth = max_depth
        self.batch = batch  # 100 queries leave 10 beyond the 90th percentile
        self.table = None
        self.graph = None
        self.others: List[int] = []  # sources that are not targets

    def setup(self) -> None:
        self.table = self.graph = None  # one copy in memory at a time
        gc.collect()
        self.table = pddt.build_pddt(pddt.PddtConfig(self.n, self.threshold))
        self.graph = graph.build_graph(self.table, graph.default_edge_rule())

    def check_setup(self) -> None:
        t = self.table
        total = sum(self.expected.values())
        expect(len(t) == total, f"table has {len(t)} rows, expected {total}")
        self.table_rows = self.sample_rows = len(t)
        hw = t.hw.tolist()
        rows = list(zip(range(len(t)), t.a.tolist(), t.b.tolist(), t.c.tolist(),
                        map(checks.dyadic, hw), hw))
        for i, a, b, c, _dp, w in rows[:: max(1, len(rows) // 2000)]:
            expect(checks.lm_weight(a, b, c, self.n) == w, f"table row {i}: weight {w} is wrong")
        # node ids are table row numbers; each query's answer is checked
        # against these sets
        self.sets = sets = RuleSets.from_rows(rows)
        targets = set(sets.targets)
        self.others = [s for s in sets.sources if s not in targets]
        expect(bool(self.others) and bool(targets), "no unreachable or reachable endpoints")

    def _query(self, i: int):
        sets = self.sets
        src = self.rng.choice(sets.sources)
        pool = sets.targets if i % 2 == 0 else self.others
        dst = self.rng.choice([d for d in pool if d != src])
        return src, dst, self.rng.randrange(2 ** 31)

    def run_pass(self, ops: Ops) -> None:
        for i in range(self.batch):
            src, dst, seed = self._query(i)
            config = bench.McsConfig(playouts=self.playouts, seed=seed, max_depth=self.max_depth)

            def check(reports):
                mcs, found = (_answer(r) for r in reports)
                checks.check_answers(src, dst, mcs, found, self.sets)

            ops.run("query", lambda: bench.compare(self.graph, src, dst, config), check)


def _answer(report) -> checks.Answer:
    best = report.best_path
    return None if best is None else (best.hops, best.total_dp)


WORKLOADS = {w.name: w for w in (PipelineWorkload, GraphWorkload, SearchWorkload)}
