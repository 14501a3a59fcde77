"""``cheegerlab cheeger``: the window minimum of a graph, an upper endpoint."""

from __future__ import annotations

from . import EXIT_OK, _base_report, _bound_payload, _graph_input
from . import _window_options as options  # shared with tree


def handle(args) -> tuple[dict, int]:
    from ..graphs import admissible_vertices
    from ..window import window_bound

    g, src = _graph_input(args.infile)
    bound = window_bound(g, args.max_size, args.budget)
    report = _base_report(
        "cheeger", {"graph": src},
        {"max_size": bound.upper.witness["max_size"], "budget": args.budget},
    )
    report["results"] = {
        "interior_cheeger_upper": bound.upper.value,
        "bound": _bound_payload(bound),
    }
    report["disclosures"] = {
        "admissible_vertices": len(admissible_vertices(g)),
        "frontier_size": len(g.frontier),
        "window_only": bool(g.frontier),
    }
    return report, EXIT_OK
