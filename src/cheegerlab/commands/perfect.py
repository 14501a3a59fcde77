"""``cheegerlab perfect``: the uniform-perfectness check of a metric space
over a range of scales."""

from __future__ import annotations

import argparse

from ..errors import InvalidInputError
from . import EXIT_FALSIFIED, EXIT_OK, _base_report, _finite_float, _load_metric_input


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=_finite_float, default=None, help="one-point constant S > 1")
    p.add_argument(
        "--two-point-r", type=_finite_float, default=None, help="two-point constant R > 1"
    )
    p.add_argument("--eps0", type=_finite_float, required=True)
    p.add_argument("--floor", type=_finite_float, default=None)
    p.add_argument("--grid", default=None, help="comma-separated extra scales")


def handle(args) -> tuple[dict, int]:
    from ..metric import two_point_perfectness_check, uniformly_perfect_check

    space, src = _load_metric_input(args.infile)
    try:
        grid = [float(x) for x in args.grid.split(",")] if args.grid else []
    except ValueError:
        raise InvalidInputError(f"bad --grid {args.grid!r}: need comma-separated numbers") from None
    floor = args.floor if args.floor is not None else space.resolution_floor
    if floor is None:
        raise InvalidInputError("no resolution floor known; pass --floor explicitly")
    if args.two_point_r is not None:
        cert = two_point_perfectness_check(space, args.two_point_r, args.eps0, floor, grid)
    else:
        if args.s is None:
            raise InvalidInputError("pass --s (one-point form) or --two-point-r")
        cert = uniformly_perfect_check(space, args.s, args.eps0, floor, grid)
    report = _base_report(
        "perfect", {"space": src},
        {"form": cert.form, "constant": cert.constant, "eps0": args.eps0, "floor": floor},
    )
    report["results"] = {
        "holds": cert.holds,
        "witness": cert.witness or None,
        "checked_eps": cert.checked_eps,
    }
    report["disclosures"] = {
        "resolution_floor": floor,
        "claim_range": [floor, args.eps0],
    }
    return report, EXIT_OK if cert.holds else EXIT_FALSIFIED
