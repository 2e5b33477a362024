"""Command-line pipeline: build -> sample -> graph -> query -> bench -> export.

Every subcommand is deterministic given its seeds; exit code 2 signals a
usage error, 1 a runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import mmap
import os
import sys
from pathlib import Path

from . import bench, graph as graphmod, pddt as pddtmod
from .errors import ParameterError
from .pddt import Pddt, PddtConfig, SampleSpec

EXIT_OK = 0
EXIT_RUNTIME = 1


def _parse_rule(args) -> graphmod.EdgeRule:
    if args.source_predicate or args.target_predicate:
        if not (args.source_predicate and args.target_predicate):
            raise ParameterError("both --source-predicate and --target-predicate are required")
        rule = graphmod.EdgeRule(_parse_predicate(args.source_predicate),
                                 _parse_predicate(args.target_predicate))
    else:
        rule = graphmod.EDGE_RULE_PRESETS[args.rule]()
    return dataclasses.replace(rule, allow_self_loops=not args.no_self_loops,
                               relation_label=args.relation_label)


def _parse_predicate(text: str) -> graphmod.Predicate:
    """Inline predicate syntax: FIELD OP VALUE, e.g. 'weight>=0.5' or
    'output=0x1c00'; VALUE is an int in hex after 0x or in decimal, else a float."""
    for op in ("<=", ">=", "==", "="):
        if op in text:
            name, _, field = text.partition(op)
            try:
                value = int(field, 16 if field.strip()[:2].lower() == "0x" else 10)
            except ValueError:
                try:
                    value = float(field)
                except ValueError:
                    raise ParameterError(
                        f"cannot parse value {field!r} in predicate {text!r}") from None
            return graphmod.Predicate(name.strip(), op, value)
    raise ParameterError(f"cannot parse predicate {text!r}; expected FIELD<=|>=|=VALUE")


def _read(path: str, reader):
    """reader(a read-only map of the file at `path`); one of size 0, as a pipe, is read whole."""
    with open(path, "rb") as file:
        if os.fstat(file.fileno()).st_size == 0:  # no map of an empty file can be made
            return reader(file.read())
        with mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return reader(data)


def _read_graph(nodes_path: str, edges_path: str) -> graphmod.DiffGraph:
    return _read(nodes_path, lambda n: _read(edges_path, lambda e: graphmod.from_csv(n, e)))


# --- subcommand bodies -------------------------------------------------


def _cmd_pddt_build(args) -> int:
    cfg = PddtConfig(args.n, args.threshold, args.max_elements)
    table = pddtmod.build_pddt(cfg)
    Path(args.out).write_bytes(table.to_csv())
    print(f"wrote {len(table)} entries to {args.out}")
    return EXIT_OK


def _cmd_pddt_sample(args) -> int:
    table = _read(args.input, Pddt.from_csv)
    sample = pddtmod.sample_pddt(table, SampleSpec(args.fraction, not args.no_quota, args.seed))
    with open(args.out, "wb") as out:
        quota = " quota=0" if args.no_quota else ""
        out.write(f"# seed={args.seed} fraction={args.fraction}{quota}\n".encode("utf-8"))
        sample.write_csv(out)
    print(f"sampled {len(sample)} of {len(table)} entries to {args.out}")
    return EXIT_OK


def _cmd_pddt_stats(args) -> int:
    table = _read(args.input, Pddt.from_csv)
    stats = pddtmod.pddt_stats(table)
    print(f"entries: {stats.entries}")
    print(f"min_dp: {stats.min_dp}")
    print(f"max_dp: {stats.max_dp}")
    for hw in sorted(stats.weight_histogram):
        print(f"hw {hw}: {stats.weight_histogram[hw]}")
    return EXIT_OK


def _cmd_graph_build(args) -> int:
    table = _read(args.input, Pddt.from_csv)
    g = graphmod.build_graph(table, _parse_rule(args))
    Path(args.nodes_out).write_bytes(graphmod.to_nodes_csv(g))
    Path(args.edges_out).write_bytes(graphmod.to_edges_csv(g))
    print(f"graph: {len(g.columns.ids)} nodes, {len(g.edges)} edges")
    return EXIT_OK


def _cmd_graph_stats(args) -> int:
    g = _read_graph(args.nodes, args.edges)
    stats = graphmod.graph_stats(g)
    print(f"nodes: {stats.node_count}")
    print(f"edges: {stats.edge_count}")
    print(f"hubs: {' '.join(str(h) for h in stats.hubs)}")
    print(f"components: {len(stats.components)}")
    return EXIT_OK


def _cmd_graph_paths(args) -> int:
    g = _read_graph(args.nodes, args.edges)
    paths = graphmod.find_optimal_paths(g, args.src, args.dst, args.max_hops, args.limit)
    for rank, p in enumerate(paths, 1):
        seq = "->".join(str(u) for u in p.node_sequence)
        print(f"{rank}: hops={p.hops} total_dp={p.total_dp} path={seq}")
    if not paths:
        print("no path")
    return EXIT_OK


def _cmd_graph_export(args) -> int:
    g = _read_graph(args.nodes, args.edges)
    parts = graphmod.export_graph(g, args.format)
    if args.format == "csv":
        base = Path(args.out)
        for suffix, data in parts.items():
            base.with_name(base.stem + "." + suffix).write_bytes(data)
    else:
        (data,) = parts.values()
        Path(args.out).write_bytes(data)
    print(f"exported {args.format} to {args.out}")
    return EXIT_OK


def _cmd_bench_mcs(args) -> int:
    g = _read_graph(args.nodes, args.edges)
    cfg = bench.McsConfig(args.playouts, args.seed, args.max_depth,
                          target_node=args.dst)
    report = bench.mcs_search(g, args.src, cfg)
    print(bench.SearchReport.csv_header())
    print(report.to_csv_row())
    return EXIT_OK


def _cmd_bench_compare(args) -> int:
    g = _read_graph(args.nodes, args.edges)
    cfg = bench.McsConfig(args.playouts, args.seed, args.max_depth)
    mcs_report, graph_report = bench.compare(g, args.src, args.dst, cfg)
    print(bench.SearchReport.csv_header())
    print(mcs_report.to_csv_row())
    print(graph_report.to_csv_row())
    return EXIT_OK


# --- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffgraph",
        description="PDDT and differential knowledge-graph toolkit over xdp+, the XOR "
                    "differentials of modular addition (SPECK's non-linear step)",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--nodes", required=True)
    graph_in.add_argument("--edges", required=True)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--src", type=int, required=True)
    search.add_argument("--playouts", type=int, default=1000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--max-depth", type=int, default=16)

    pddt_p = top.add_parser("pddt", help="build, sample and inspect PDDTs")
    pddt_sub = pddt_p.add_subparsers(dest="subcommand", required=True)

    p = pddt_sub.add_parser("build")
    p.add_argument("--n", type=int, required=True, help="word size in bits")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--max-elements", type=int, default=pddtmod.DEFAULT_MAX_ELEMENTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pddt_build)

    p = pddt_sub.add_parser("sample")
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-quota", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pddt_sample)

    p = pddt_sub.add_parser("stats")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_pddt_stats)

    graph_p = top.add_parser("graph", help="build, query and export the graph")
    graph_sub = graph_p.add_subparsers(dest="subcommand", required=True)

    p = graph_sub.add_parser("build")
    p.add_argument("--input", required=True, help="PDDT (or sample) CSV")
    p.add_argument("--rule", choices=sorted(graphmod.EDGE_RULE_PRESETS), default="default")
    p.add_argument("--source-predicate", help="inline rule, e.g. 'output=0'")
    p.add_argument("--target-predicate", help="inline rule, e.g. 'weight>=0.5'")
    p.add_argument("--no-self-loops", action="store_true")
    p.add_argument("--relation-label", default="OUTPUT_WEIGHT")
    p.add_argument("--nodes-out", required=True)
    p.add_argument("--edges-out", required=True)
    p.set_defaults(func=_cmd_graph_build)

    p = graph_sub.add_parser("stats", parents=[graph_in])
    p.set_defaults(func=_cmd_graph_stats)

    p = graph_sub.add_parser("paths", parents=[graph_in])
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--max-hops", type=int, default=4)
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=_cmd_graph_paths)

    p = graph_sub.add_parser("export", parents=[graph_in])
    p.add_argument("--format", choices=graphmod.EXPORT_FORMATS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph_export)

    bench_p = top.add_parser("bench", help="Monte Carlo baseline and comparison")
    bench_sub = bench_p.add_subparsers(dest="subcommand", required=True)

    p = bench_sub.add_parser("mcs", parents=[graph_in, search])
    p.add_argument("--dst", type=int, default=None)
    p.set_defaults(func=_cmd_bench_mcs)

    p = bench_sub.add_parser("compare", parents=[graph_in, search])
    p.add_argument("--dst", type=int, required=True)
    p.set_defaults(func=_cmd_bench_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (pddtmod.PddtOverflowError, bench.DominanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
