"""Command-line front end with stable, scriptable output.

Exit codes: 0 definite verdicts, 2 for UNKNOWN, 1 on errors, 64 on bad
flags. Graphs come in as a graph6 positional argument or one per line on
stdin (batch mode, results as JSON lines in input order). In a ``classify``,
``certify`` or ``prime`` batch a line that is not graph6, or that the
command rejects (``prime`` takes connected graphs only), prints
``{"graph6": line, "error": message}`` in its place, the other lines are
still processed, and the exit code is 1; a positional graph of either kind
exits 1 with the error on stderr. MAXNIK_WORKERS fans these batches out
across processes; it must be a positive integer (else exit 64) and is
capped at the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, Iterable

from . import __version__
from .catalog import named_graph
from .certify import (VERDICT_UNKNOWN, certify_maxnik, check_necessary)
from .construct import npp5_family, prime_family, size_construct
from .errors import MaxnikError
from .graphs import (Graph, complete_graph, complete_multipartite,
                     graph6_decode, graph6_encode)
from .minors import DELTA_Y, Y_DELTA, closure, has_minor
from .planarity import is_k_apex, is_maximal_2apex, is_maximal_planar, is_planar
from .primality import decompose
from .survey import (enumerate_maxnik, enumerate_triangulations,
                     maximal_2apex_graphs, table_deg, table_ve)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    """A bad flag or environment setting, reported with exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(obj: dict, fmt: str, graph_lines: Iterable[str] = ()) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    elif fmt == "graph6":
        for line in graph_lines:
            print(line)
    else:
        for key, value in sorted(obj.items()):
            print(f"{key}: {value}")


def _classify_one(g: Graph) -> dict:
    apex = is_k_apex(g, 2)
    necessary = check_necessary(g)
    return {
        "graph6": graph6_encode(g),
        "order": g.n,
        "size": g.m,
        "planar": is_planar(g),
        "two_apex": {"found": apex.found,
                     "witness": list(apex.witness) if apex.witness is not None else None},
        "maximal_planar": is_maximal_planar(g),
        "maximal_2apex": is_maximal_2apex(g),
        "necessary_conditions": {
            "all_pass": necessary.all_pass,
            "verdict": necessary.verdict,
            "failures": necessary.failures(),
        },
    }


def _prime_one(g: Graph) -> dict:
    d = decompose(g)
    return {
        "graph6": graph6_encode(g),
        "prime": d.is_leaf,
        "witness_cutset": None if d.is_leaf else list(d.cutset),
        "decomposition": d.to_json(),
    }


def _certify_one(g: Graph) -> dict:
    cert = certify_maxnik(g)
    return {
        "graph6": graph6_encode(g),
        "verdict": cert.verdict,
        "certificate": cert.to_json(),
    }


# the batch commands: each maps one graph to its JSON record
_RECORDS = {"classify": _classify_one, "certify": _certify_one, "prime": _prime_one}


def _workers() -> int:
    raw = os.environ.get("MAXNIK_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise _UsageError(f"MAXNIK_WORKERS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def _one_line(fn: Callable[[Graph], dict], line: str) -> dict:
    """``fn``'s record for one graph6 line, or an error record in its place."""
    try:
        return fn(graph6_decode(line))
    except (MaxnikError, ValueError) as exc:
        return {"graph6": line, "error": str(exc)}


def _batch(fn: Callable[[Graph], dict], arg: str | None) -> list[dict]:
    """``fn``'s record for the positional graph, or for each stdin line in order.

    A positional graph that is not graph6, or that ``fn`` rejects, raises; a
    stdin line that is not, or that ``fn`` rejects, costs only its own record.
    """
    workers = _workers()
    if arg and arg != "-":
        return [fn(graph6_decode(arg))]
    lines = [line.strip() for line in sys.stdin if line.strip()]
    job = partial(_one_line, fn)
    if workers > 1 and len(lines) > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            return pool.map(job, lines)
    return [job(line) for line in lines]


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="maxnik",
                     description="maximal knotless graphs: certify, construct, survey")
    parser.add_argument("--version", action="version", version=f"maxnik {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="planarity/apex/necessary-condition report")
    p.add_argument("graph", nargs="?", help="graph6 string; omit or '-' for stdin batch")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("certify", help="maximality certificate")
    p.add_argument("graph", nargs="?")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("minor", help="minor containment with witness")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("construct", help="named graphs, sizes, and families")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--named", metavar="NAME")
    group.add_argument("--size", type=int)
    group.add_argument("--family", choices=("npp5",))
    group.add_argument("--prime-order", type=int)
    p.add_argument("--k", type=int, default=1, help="family parameter")
    p.add_argument("--format", choices=("json", "text", "graph6"), default="json")

    p = sub.add_parser("closure", help="delta-wye family closure")
    p.add_argument("--seed", choices=("k7", "k3311"), required=True)
    p.add_argument("--moves", choices=("dy", "dy,yd"), required=True)
    p.add_argument("--format", choices=("json", "graph6"), default="json")

    p = sub.add_parser("prime", help="prime/composite with decomposition")
    p.add_argument("graph", nargs="?")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("enumerate", help="exhaustive classes by order and kind")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("triangulation", "maxnik", "maximal-2apex"),
                   required=True)
    p.add_argument("--format", choices=("json", "graph6"), default="json")

    p = sub.add_parser("tables", help="classification summary tables")
    p.add_argument("--which", choices=("ve", "deg"), required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("library", help="dump the obstruction library")
    p.add_argument("--format", choices=("json", "graph6"), default="json")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MaxnikError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def _dispatch(args) -> int:
    if args.command in _RECORDS:
        results = _batch(_RECORDS[args.command], args.graph)
        for result in results:
            _emit(result, args.format)
        if any("error" in r for r in results):
            return EXIT_ERROR
        if any(r.get("verdict") == VERDICT_UNKNOWN for r in results):
            return EXIT_UNKNOWN
        return EXIT_OK

    if args.command == "minor":
        host = graph6_decode(args.host)
        pattern = graph6_decode(args.pattern)
        res = has_minor(host, pattern)
        _emit({
            "host": graph6_encode(host),
            "pattern": graph6_encode(pattern),
            "found": res.found,
            "branch_sets": [list(b) for b in res.witness.branch_sets] if res.witness else None,
        }, args.format)
        return EXIT_OK

    if args.command == "construct":
        return _construct(args)

    if args.command == "closure":
        seed = complete_graph(7) if args.seed == "k7" else complete_multipartite(3, 3, 1, 1)
        moves = {DELTA_Y} if args.moves == "dy" else {DELTA_Y, Y_DELTA}
        result = closure([seed], moves)
        lines = [graph6_encode(g) for g in result.members]
        by_key = {k: graph6_encode(g) for k, g in zip(result.keys, result.members)}
        genealogy = {}
        for key, parent in result.genealogy.items():
            genealogy[by_key[key]] = (
                None if parent is None else {"move": parent[0], "parent": by_key[parent[1]]})
        _emit({"count": len(result), "members": lines, "genealogy": genealogy},
              args.format, graph_lines=lines)
        return EXIT_OK

    if args.command == "enumerate":
        if args.kind == "triangulation":
            graphs = enumerate_triangulations(args.order)
        elif args.kind == "maxnik":
            graphs = enumerate_maxnik(args.order)
        else:
            graphs = maximal_2apex_graphs(args.order)
        lines = sorted(graph6_encode(g) for g in graphs)
        _emit({"count": len(lines), "graphs": lines}, args.format, graph_lines=lines)
        return EXIT_OK

    if args.command == "tables":
        table = table_ve() if args.which == "ve" else table_deg()
        if args.format == "text":
            print(table.render())
        else:
            print(json.dumps(table.to_json(), sort_keys=True))
        return EXIT_OK

    if args.command == "library":
        from .catalog import library_dump

        dump = library_dump()
        if args.format == "graph6":
            for entry in dump["patterns"]:
                print(entry["graph6"])
        else:
            print(json.dumps(dump, sort_keys=True))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def _construct(args) -> int:
    fmt = args.format
    if args.named is not None:
        try:
            ng = named_graph(args.named)
        except KeyError:
            raise ValueError(f"unknown graph name {args.named!r}") from None
        g6 = graph6_encode(ng.graph)
        _emit({"name": ng.name, "graph6": g6, "provenance": ng.provenance,
               "order": ng.graph.n, "size": ng.graph.m}, fmt, graph_lines=[g6])
        return EXIT_OK
    if args.size is not None:
        plan, g, cert = size_construct(args.size)
        g6 = graph6_encode(g)
        _emit({"graph6": g6, "plan": plan.to_json(), "verdict": cert.verdict,
               "certificate": cert.to_json()}, fmt, graph_lines=[g6])
        return EXIT_OK
    if args.family is not None:
        g, cert = npp5_family(args.k)
        g6 = graph6_encode(g)
        _emit({"graph6": g6, "family": "npp5", "k": args.k,
               "order": g.n, "size": g.m, "verdict": cert.verdict,
               "certificate": cert.to_json()}, fmt, graph_lines=[g6])
        return EXIT_OK
    g = prime_family(args.prime_order)
    g6 = graph6_encode(g)
    _emit({"graph6": g6, "order": g.n, "size": g.m, "prime_family": True},
          fmt, graph_lines=[g6])
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
