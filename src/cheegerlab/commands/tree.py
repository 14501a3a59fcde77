"""``cheegerlab tree``: the rooted-tree Cheeger analysis (K, C and the
certified interval)."""

from __future__ import annotations

from .. import io
from . import EXIT_OK, _base_report, _bound_payload, _input_record
from . import _window_options as options  # shared with cheeger


def handle(args) -> tuple[dict, int]:
    from ..trees import tree_cheeger_bounds

    t = io.load_tree(args.infile)
    analysis = tree_cheeger_bounds(t, max_size=args.max_size, budget=args.budget)
    report = _base_report(
        "tree",
        {"tree": _input_record(args.infile)},
        {"max_size": args.max_size, "budget": args.budget},
    )
    report["results"] = {
        "K": analysis.k,
        "C": analysis.c,
        "complete_subtree_size": len(analysis.t_infty),
        "bound": _bound_payload(analysis.bounds),
        "sandwich_lower": analysis.sandwich_lower or None,
    }
    report["disclosures"] = {"horizon": analysis.horizon}
    return report, EXIT_OK
