"""``cheegerlab scan``: the window minimum across a family of windows."""

from __future__ import annotations

import argparse

from .. import io
from ..errors import DEFAULT_SUBSET_BUDGET
from . import EXIT_OK, _base_report, _graph_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--lower", default=None, help="certified ambient lower bound (rational)")


def handle(args) -> tuple[dict, int]:
    from ..window import converse_scan

    windows = []
    inputs = {}
    for i, token in enumerate(args.infile):
        g, src = _graph_input(token)
        windows.append(g)
        inputs[f"window{i}"] = src
    lower = io.parse_fraction(args.lower) if args.lower else None
    rep = converse_scan(windows, max_size=args.max_size, budget=args.budget, ambient_lower=lower)
    report = _base_report(
        "scan", inputs,
        {"max_size": args.max_size, "budget": args.budget, "ambient_lower": args.lower},
    )
    report["results"] = {
        "values": rep.values,
        "nonincreasing": rep.nonincreasing,
        "decay": rep.decay,
        "floor": rep.floor,
        "lower_respected": rep.lower_respected,
        "witnesses": rep.witnesses,
    }
    return report, EXIT_OK
