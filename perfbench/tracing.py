"""Spans around the public functions of the pipeline's layers.

The wrappers are installed from outside the program, by replacing module
and class attributes, and removed again afterwards; the program's source
is never changed. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

def _rows(result) -> Dict[str, int]:
    return {"rows": len(result)}


def _bytes(result) -> Dict[str, int]:
    return {"bytes": len(result)}


def _parts_bytes(result) -> Dict[str, int]:
    return {"bytes": sum(len(v) for v in result.values())}


def _compare_outcome(result) -> Dict[str, int]:
    mcs, graph = (r.best_path for r in result)
    found = mcs is not None and graph is not None and mcs.node_sequence == graph.node_sequence
    return {"with_path": int(graph is not None), "optimal": int(found)}


def layer_targets(cli, pddt, graph, bench) -> list:
    """(owner, attribute, span name, counter, record peak-RSS growth).

    `cli` calls the other layers through module attributes and `bench`
    binds `find_optimal_paths` by name, so both bindings are wrapped;
    `to_csv` and `from_csv` live on the `Pddt` class.
    """
    def export_name(args, kwargs):
        return "graph.export_graph." + (args[1] if len(args) > 1 else kwargs["fmt"])

    return [
        (cli, "main", "cli.main", None, False),
        (pddt, "build_pddt", "pddt.build_pddt", _rows, False),
        (pddt, "sample_pddt", "pddt.sample_pddt", _rows, False),
        (pddt.Pddt, "to_csv", "pddt.to_csv", _bytes, False),
        (pddt.Pddt, "from_csv", "pddt.from_csv", _rows, True),
        (graph, "build_graph", "graph.build_graph", lambda g: {"edges": len(g.edges)}, False),
        (graph, "graph_stats", "graph.graph_stats",
         lambda s: {"components": len(s.components)}, False),
        (graph, "from_csv", "graph.from_csv", None, False),
        (graph, "to_nodes_csv", "graph.to_nodes_csv", _bytes, False),
        (graph, "to_edges_csv", "graph.to_edges_csv", _bytes, False),
        (graph, "export_graph", export_name, _parts_bytes, False),
        (graph, "find_optimal_paths", "graph.find_optimal_paths", None, False),
        (bench, "find_optimal_paths", "graph.find_optimal_paths", None, False),
        (bench, "mcs_search", "bench.mcs_search", None, False),
        (bench, "graph_guided_search", "bench.graph_guided_search", None, False),
        (bench, "compare", "bench.compare", _compare_outcome, False),
    ]


class Tracer:
    """Records one span per call of a wrapped function: name, start, end,
    parent span, operation id and counts taken from the result."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op, counts]
        self.op = "setup"
        self._stack: List[int] = []
        self._undo: list = []

    def wrap(self, fn: Callable, name, count: Optional[Callable] = None,
             rss: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if rss:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                span[5]["maxrss_growth_mb"] = grown / 1024.0
            if count is not None:
                span[5].update(count(result))
            return result
        return traced

    def install(self, targets) -> None:
        """Wraps every target. A function the program no longer has is an
        error, not a metric that reads 0; so is a result a counter cannot
        read, which fails the operation that produced it."""
        for owner, attr, name, count, rss in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.uninstall()
                raise AttributeError(f"cannot trace {name}: {owner.__name__} has no {attr!r}")
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name, count, rss))
            else:
                replacement = self.wrap(original, name, count, rss)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counts")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def summarise(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds `s`, self seconds `self_s`
    (duration minus the time its child spans cover) and summed counts."""
    child_time = defaultdict(float)
    for name, start, end, parent, _op, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in counts.items():
            entry[key] += value
    return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs more than a plain one: the tracing
    overhead per span, measured on a function that does nothing."""
    def noop():
        return b""

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", _bytes)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
