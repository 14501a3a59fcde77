"""``cheegerlab approx``: the truncated hyperbolic approximation of a metric
space, its structural checks and its level certificate."""

from __future__ import annotations

import argparse
import math

from .. import io
from ..errors import BudgetExceededError
from . import EXIT_FALSIFIED, EXIT_OK, _base_report, _finite_float, _load_metric_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="metric file or generator")
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--k0", type=int, default=None)
    p.add_argument("--s", type=int, default=1, help="relevel coarsening exponent (>= 1)")
    p.add_argument("--delta-cap", type=_finite_float, default=3.0)
    p.add_argument("--out", default=None)


def handle(args) -> tuple[dict, int]:
    from ..approximation import Truncation, level_certificate, relevel, structural_checks

    space, src = _load_metric_input(args.infile)
    lg = relevel(Truncation(space, args.r, args.k0, args.k_max), args.s)
    try:
        checks = structural_checks(lg, delta_cap=args.delta_cap)
    except BudgetExceededError as exc:
        # the delta scan's refusal, at a budget that approx has no option for:
        # b^4 quadruples for a block of b vertices
        block = math.isqrt(math.isqrt(exc.required))
        raise BudgetExceededError(
            exc.required, exc.budget,
            f"ordered quadruples in the largest biconnected block ({block} vertices)",
            option=None, remedy="lower --k-max or pass fewer points",
        ) from None
    cert = level_certificate(lg) if lg.k_max - lg.k0 >= 2 else None
    if args.out:
        io.save_leveled(args.out, lg)
    report = _base_report(
        "approx", {"space": src},
        {"r": args.r, "k_max": args.k_max, "k0": args.k0, "s": args.s, "delta_cap": args.delta_cap},
    )
    report["results"] = {
        "k0": lg.k0,
        "k_max": lg.k_max,
        "vertices": len(lg.graph.vertices),
        "level_sizes": {k: len(lg.level_vertices(k)) for k in range(lg.k0, lg.k_max + 1)},
        "structural_ok": checks.structural_ok,
        "delta": checks.delta.delta,
        "delta_ok": checks.delta_ok,
        "max_degree": checks.max_degree,
        "degree_cap": checks.degree_cap,
        "violations": checks.violations,
        "level_certificate": {
            "certified": cert.certified,
            "c2": cert.c2,
            "lower": cert.bound.lower.value if cert.bound else None,
            "pinched_vertex": cert.violating_vertex,
        }
        if cert
        else None,
    }
    report["disclosures"] = {"frontier_level": lg.k_max, "window_only": True}
    return report, EXIT_OK if checks.structural_ok else EXIT_FALSIFIED
