"""``cheegerlab net``: the epsilon-net graph of a metric space."""

from __future__ import annotations

import argparse

from .. import io
from . import EXIT_OK, _base_report, _finite_float, _load_metric_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--out", default=None)


def handle(args) -> tuple[dict, int]:
    from ..metric import epsilon_net

    space, src = _load_metric_input(args.infile)
    g = epsilon_net(space, args.eps)
    if args.out:
        io.save_graph(args.out, g)
    report = _base_report("net", {"space": src}, {"eps": args.eps, "out": args.out})
    report["results"] = {"vertices": len(g.vertices), "edges": len(g.edges)}
    return report, EXIT_OK
