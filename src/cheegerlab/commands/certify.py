"""``cheegerlab certify``: the gradient/Laplacian certificate of a vertex
function, a lower endpoint."""

from __future__ import annotations

import argparse

from .. import io
from ..errors import InvalidInputError
from . import EXIT_FALSIFIED, EXIT_OK, _base_report, _bound_payload, _graph_input, _input_record


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--function", required=True, help="JSON map vertex -> rational")


def handle(args) -> tuple[dict, int]:
    from ..certificate import certificate_lower_bound

    g, src = _graph_input(args.infile)
    raw = io.read_json(args.function)
    if not isinstance(raw, dict):
        raise InvalidInputError("function document must map vertices to rationals")
    f = {str(v): io.parse_fraction(x) for v, x in raw.items()}
    res = certificate_lower_bound(g, f)
    report = _base_report(
        "certify",
        {"graph": src, "function": _input_record(args.function)},
        {},
    )
    report["results"] = {
        "certified": res.certified,
        "c1": res.c1,
        "c2": res.c2,
        "violating_vertex": res.violating_vertex,
        "bound": _bound_payload(res.bound) if res.bound else None,
    }
    report["disclosures"] = {"verified_region_size": len(res.verified_region)}
    return report, EXIT_OK if res.certified else EXIT_FALSIFIED
