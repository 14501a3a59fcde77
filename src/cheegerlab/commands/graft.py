"""``cheegerlab graft``: attach a copy of a graph to every base vertex, and
optionally write the graft as a decomposition."""

from __future__ import annotations

import argparse

from .. import io
from . import EXIT_OK, _base_report, _graph_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", required=True)
    p.add_argument("--attachment", required=True)
    p.add_argument("--port", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--decomposition", default=None, help="also write a decomposition spec")


def handle(args) -> tuple[dict, int]:
    from ..decomposition import graft, graft_decomposition

    base, bsrc = _graph_input(args.base)
    att, asrc = _graph_input(args.attachment)
    if args.decomposition:
        spec = graft_decomposition(base, att, args.port)
        graph, pieces = spec.ambient, spec.pieces
    else:
        result = graft(base, att, args.port)
        graph, pieces = result.graph, result.pieces
    if args.out:
        io.save_graph(args.out, graph)
    if args.decomposition:
        io.save_decomposition(args.decomposition, spec)
    report = _base_report(
        "graft", {"base": bsrc, "attachment": asrc},
        {"port": args.port, "out": args.out, "decomposition": args.decomposition},
    )
    report["results"] = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "max_degree": graph.mu,
        "pieces": len(pieces),
    }
    return report, EXIT_OK
