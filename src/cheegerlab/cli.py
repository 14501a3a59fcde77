"""Command-line interface: every analysis as a subcommand with reproducible,
machine-readable reports.

Reports are canonical JSON (sorted keys, trailing newline) printed to stdout
and optionally written to ``--report``; given the same inputs and seed they
are byte-identical across runs and worker counts.  Timing and human-readable
notes go to stderr only.  Exit codes: 0 success, 2 invalid input, 3 budget
exceeded, 4 falsified invariant or failed check (a finding, with its witness
in the report).

The process entry, :func:`run` (``python -m cheegerlab.cli`` and the
``cheegerlab`` script), turns the cyclic garbage collector off, calls
:func:`main`, flushes stdout and stderr and ends the process with
``os._exit``: one job frees too few cyclic objects to pay for the collector,
an interpreter that is about to exit skips its teardown, and ``atexit`` hooks
do not run.  :func:`main` returns the exit code and is the in-process API, for
callers that rely on ``atexit`` or go on running; importing this module or
calling :func:`main` leaves the collector as it was, registers nothing and
never exits.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NoReturn

# Handlers import what only they need when they run.  numpy comes in with
# metric, hyperbolicity and approximation (delta, approx, net, perfect) and
# with end_space (endspace); trees with tree and endspace; decomposition, and
# trees through it, with decomp, graft and scan; the window oracle with
# cheeger, tree and scan; hashlib with the first input file hashed.  So the
# metric commands load neither trees nor decomposition, and the other
# graph-side commands no numpy.
from . import io
from .errors import BudgetExceededError, CheegerLabError, ConstructionError, InvalidInputError
from .graphs import (
    DEFAULT_DELTA_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    CheegerBound,
    admissible_vertices,
    certificate_lower_bound,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4
EXIT_FLUSH_FAILED = 120  # the final flush of stdout or stderr failed, as in CPython


def _jsonable(x: Any) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _bound_payload(bound: CheegerBound) -> dict:
    return {
        side: None if e is None else {
            "value": e.value,
            "provenance": e.kind,
            "horizon_certified": e.horizon_certified,
            "witness": e.witness,
        }
        for side, e in (("lower", bound.lower), ("upper", bound.upper))
    }


#: Generator specs and ``endspace`` (one point per live leaf) refuse above
#: this many points, before allocating.  The generators skip the O(n^3)
#: triangle check, so memory is what the cap bounds: at 2^11 points each n x n
#: float matrix is 32 MiB.  Measured there on 2 vCPUs (Python 3.11, numpy 2.4):
#: a sample builds in 0.1-0.2 s with a tracemalloc peak of 37 MiB (one matrix
#: and its temporaries); ``net --in interval:2048`` takes 0.4 s and peaks at
#: 69 MB RSS; ``perfect --in cantor:11`` takes 0.6-0.7 s in either form, the
#: scan 0.2 s of it, and peaks at 75 MB RSS.
MAX_GENERATOR_POINTS = 2**11


def _metric_generator(name: str) -> Callable[[Any], Any]:
    """The generator ``metric.<name>``, imported when it is called."""

    def make(value):
        from . import metric

        return getattr(metric, name)(value)

    return make


# kind -> (constructor, parameter parser, point count of the parameter); a
# cantor depth past 64 is over the cap whatever it is, so 2^depth is not formed
_GENERATORS = {
    "cantor": (_metric_generator("cantor_sample"), int, lambda depth: 2 ** min(depth, 64)),
    "interval": (_metric_generator("interval_sample"), int, lambda n: n),
    "two_point": (_metric_generator("two_point"), float, lambda d: 2),
}


def _load_metric_input(token: str, graphs: bool = False) -> tuple[Any, dict]:
    """A metric input is either a file path or a generator spec name:params;
    with ``graphs`` the file may hold a graph instead."""
    kind, _, rest = token.partition(":")
    if kind in _GENERATORS and rest:
        make, parse, points = _GENERATORS[kind]
        try:
            value = parse(rest)
        except ValueError:
            raise InvalidInputError(f"bad {kind} parameter {rest!r} in {token!r}") from None
        count = points(value)
        if count > MAX_GENERATOR_POINTS:
            raise BudgetExceededError(
                count, MAX_GENERATOR_POINTS, f"generator points for {token!r}", option=None
            )
        return make(value), {"generator": token}
    space = io.load_space(token) if graphs else io.load_metric(token)
    return space, _input_record(token)


def _graph_input(token: str) -> tuple[Any, dict]:
    return io.load_graph(token), _input_record(token)


def _input_record(path: str) -> dict:
    """A report's record of an input file: its path as given and its sha256."""
    return {"path": path, "sha256": io.sha256_file(path)}


def _emit(report: dict, args, started: float) -> None:
    blob = io.canonical_json_bytes(_jsonable(report))
    if args.report:
        Path(args.report).write_bytes(blob)
    sys.stdout.write(blob.decode())
    print(f"[{report['command']}] wall-time {time.time() - started:.3f}s", file=sys.stderr)


def _base_report(command: str, inputs: dict, params: dict, seed: int | None = None) -> dict:
    report = {"command": command, "inputs": inputs, "parameters": params}
    if seed is not None:
        report["seed"] = seed
    return report


# -- subcommand handlers -----------------------------------------------------


def _cmd_cheeger(args) -> tuple[dict, int]:
    from .window import window_bound

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


def _cmd_certify(args) -> tuple[dict, int]:
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


def _cmd_delta(args) -> tuple[dict, int]:
    from .hyperbolicity import delta_four_point

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


def _cmd_tree(args) -> tuple[dict, int]:
    from .trees import tree_cheeger_bounds

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


def _cmd_endspace(args) -> tuple[dict, int]:
    from .trees import end_space

    t = io.load_tree(args.infile)
    if len(t.live) > MAX_GENERATOR_POINTS:
        raise BudgetExceededError(
            len(t.live), MAX_GENERATOR_POINTS, "end-space points (live leaves)", option=None
        )
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


def _cmd_approx(args) -> tuple[dict, int]:
    from .approximation import Truncation, level_certificate, relevel, structural_checks

    space, src = _load_metric_input(args.infile)
    lg = relevel(Truncation(space, args.r, args.k0, args.k_max), args.s)
    checks = structural_checks(lg, delta_cap=args.delta_cap)
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


def _cmd_net(args) -> tuple[dict, int]:
    from .metric import epsilon_net

    space, src = _load_metric_input(args.infile)
    g = epsilon_net(space, args.eps)
    if args.out:
        io.save_graph(args.out, g)
    report = _base_report("net", {"space": src}, {"eps": args.eps, "out": args.out})
    report["results"] = {"vertices": len(g.vertices), "edges": len(g.edges)}
    return report, EXIT_OK


def _cmd_perfect(args) -> tuple[dict, int]:
    from .metric import two_point_perfectness_check, uniformly_perfect_check

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


def _cmd_decomp(args) -> tuple[dict, int]:
    from .decomposition import decomposition_bound, validate

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


def _cmd_graft(args) -> tuple[dict, int]:
    from .decomposition import graft, graft_decomposition

    base, bsrc = _graph_input(args.base)
    att, asrc = _graph_input(args.attachment)
    if args.decomposition:
        spec = graft_decomposition(base, att, args.port)
        graph, pieces = spec.ambient, spec.pieces
    else:
        result = graft(base, att, args.port)
        graph, pieces = result.graph, result.pieces
    if args.out:
        io.save_graph(args.out, graph)
    if args.decomposition:
        io.save_decomposition(args.decomposition, spec)
    report = _base_report(
        "graft", {"base": bsrc, "attachment": asrc},
        {"port": args.port, "out": args.out, "decomposition": args.decomposition},
    )
    report["results"] = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "max_degree": graph.mu,
        "pieces": len(pieces),
    }
    return report, EXIT_OK


def _cmd_scan(args) -> tuple[dict, int]:
    from .decomposition import converse_scan

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


def _finite_float(text: str) -> float:
    """argparse type for float options: reports carry every parameter as JSON,
    which has no nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cheegerlab",
        description="Certified Cheeger bounds on graphs, trees and hyperbolic approximations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", help="write the canonical JSON report to this path")
    common.add_argument("--seed", type=int, default=0, help="seed for any sampling (default 0)")
    common.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored; numpy's BLAS, which the metric commands load, "
        "may still run several threads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("cheeger", "brute-force interior Cheeger window minimum")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(handler=_cmd_cheeger)

    p = add_parser("certify", "function-based lower-bound certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--function", required=True, help="JSON map vertex -> rational")
    p.set_defaults(handler=_cmd_certify)

    p = add_parser("delta", "sharp four-point hyperbolicity constant")
    p.add_argument("--in", dest="infile", required=True, help="graph/metric file or generator")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--budget", type=int, default=DEFAULT_DELTA_BUDGET)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(handler=_cmd_delta)

    p = add_parser("tree", "rooted-tree Cheeger analysis (K, C, bounds)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(handler=_cmd_tree)

    p = add_parser("endspace", "export the end space of a rooted tree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_endspace)

    p = add_parser("approx", "truncated hyperbolic approximation")
    p.add_argument("--in", dest="infile", required=True, help="metric file or generator")
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--k0", type=int, default=None)
    p.add_argument("--s", type=int, default=1, help="relevel coarsening exponent (>= 1)")
    p.add_argument("--delta-cap", type=_finite_float, default=3.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_approx)

    p = add_parser("net", "epsilon-net graph of a metric space")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_net)

    p = add_parser("perfect", "uniform-perfectness check over a scale range")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=_finite_float, default=None, help="one-point constant S > 1")
    p.add_argument(
        "--two-point-r", type=_finite_float, default=None, help="two-point constant R > 1"
    )
    p.add_argument("--eps0", type=_finite_float, required=True)
    p.add_argument("--floor", type=_finite_float, default=None)
    p.add_argument("--grid", default=None, help="comma-separated extra scales")
    p.set_defaults(handler=_cmd_perfect)

    p = add_parser("decomp", "validate a decomposition and emit its bound")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_decomp)

    p = add_parser("graft", "attach a copy of a graph to every base vertex")
    p.add_argument("--base", required=True)
    p.add_argument("--attachment", required=True)
    p.add_argument("--port", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--decomposition", default=None, help="also write a decomposition spec")
    p.set_defaults(handler=_cmd_graft)

    p = add_parser("scan", "interior-Cheeger scan across window families")
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--lower", default=None, help="certified ambient lower bound (rational)")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
        _emit(report, args, started)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstructionError as exc:
        print(f"construction invariant falsified: {exc} (witness: {exc.witness})", file=sys.stderr)
        return EXIT_FALSIFIED
    except (CheegerLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


def run(argv: list[str] | None = None) -> NoReturn:
    """Turn the cyclic garbage collector off, run :func:`main`, flush stdout
    and stderr, and end the process with ``os._exit``.  A job leaves little
    cyclic garbage (a few hundred objects in each benchmark job), reference
    counting frees everything else as before, and no collection is owed at
    the end, since the process never finalizes.  The report is out and every
    file is closed when ``main`` returns, so nothing is lost by skipping the
    interpreter's finalization: the module teardown, the last collections
    and numpy's thread-pool shutdown.  A flush that fails ends the process
    with status 120, and a failure on stdout is reported on stderr, as the
    interpreter's own final flush does.  ``SystemExit`` (argparse's help and usage errors) and
    uncaught exceptions propagate, and the interpreter exits as usual."""
    gc.disable()
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception as exc:
            code = EXIT_FLUSH_FAILED
            if stream is sys.stdout:
                try:
                    print(f"Exception ignored in: {stream!r}\n{type(exc).__name__}: {exc}",
                          file=sys.stderr)
                except Exception:
                    pass
    os._exit(code)


if __name__ == "__main__":
    run()
