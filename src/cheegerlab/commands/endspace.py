"""``cheegerlab endspace``: the end space of a rooted tree, as a metric
document."""

from __future__ import annotations

import argparse

from .. import io
from . import EXIT_OK, _base_report, _check_points, _input_record


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)


def handle(args) -> tuple[dict, int]:
    from ..trees import end_space

    t = io.load_tree(args.infile)
    _check_points(len(t.live), "end-space points (live leaves)")
    space = end_space(t)
    if args.out:
        io.save_metric(args.out, space)
    report = _base_report(
        "endspace",
        {"tree": _input_record(args.infile)},
        {"out": args.out},
    )
    report["results"] = {
        "points": len(space.points),
        "diameter": space.diameter,
        "ultrametric": True,
    }
    report["disclosures"] = {"resolution_floor": space.resolution_floor, "horizon": t.horizon}
    return report, EXIT_OK
