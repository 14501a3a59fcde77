"""``cheegerlab decomp``: validate a decomposition and emit the lower
endpoint it certifies."""

from __future__ import annotations

import argparse
from typing import Any

from .. import io
from . import EXIT_FALSIFIED, EXIT_OK, _base_report, _bound_payload, _input_record


def options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True)


def handle(args) -> tuple[dict, int]:
    from ..decomposition import decomposition_bound, validate

    data = io.read_json(args.spec)
    spec = io.decomposition_from_payload(data, args.spec)
    ambient = io.decomposition_ambient_path(args.spec, data)
    result = validate(spec)
    report = _base_report(
        "decomp",
        {"spec": _input_record(args.spec), "ambient": _input_record(ambient.as_posix())},
        {"R": spec.radius, "r": spec.rate},
    )
    results: dict[str, Any] = {
        "valid": result.valid,
        "strong": result.strong,
        "violations": result.violations,
        "unverified_components": result.unverified,
        "verified_lower": result.verified_lower,
    }
    if result.valid:
        bound = decomposition_bound(spec, result)
        results["bound"] = _bound_payload(bound)
    report["results"] = results
    report["disclosures"] = {"ambient_mu": spec.ambient.mu, "pieces": len(spec.pieces)}
    return report, EXIT_OK if result.valid else EXIT_FALSIFIED
