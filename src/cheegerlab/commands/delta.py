"""``cheegerlab delta``: the sharp four-point hyperbolicity constant of a
graph or a metric space."""

from __future__ import annotations

import argparse

from ..errors import DEFAULT_DELTA_BUDGET
from . import EXIT_OK, _base_report, _load_metric_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="graph/metric file or generator")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--budget", type=int, default=DEFAULT_DELTA_BUDGET)
    p.add_argument("--samples", type=int, default=100_000)


def handle(args) -> tuple[dict, int]:
    from ..hyperbolicity import delta_four_point

    space, src = _load_metric_input(args.infile, graphs=True)
    rep = delta_four_point(
        space, mode=args.mode, budget=args.budget, seed=args.seed, samples=args.samples
    )
    report = _base_report(
        "delta", {"space": src},
        {"mode": args.mode, "budget": args.budget, "samples": args.samples},
        seed=args.seed,
    )
    report["results"] = {
        "delta": rep.delta,
        "witness": rep.witness,
        "mode": rep.mode,
        "lower_bound_only": rep.lower_bound_only,
    }
    return report, EXIT_OK
