"""Command-line interface: every analysis as a subcommand with reproducible,
machine-readable reports.

Reports are canonical JSON (sorted keys, trailing newline) printed to stdout
and optionally written to ``--report``; given the same inputs and seed they
are byte-identical across runs and worker counts.  Timing and human-readable
notes go to stderr only.  Exit codes: 0 success, 2 invalid input, 3 budget
exceeded, 4 falsified invariant or failed check (a finding, with its witness
in the report).

Each command is described once, in :data:`COMMANDS`: its help text, its
handler and the builder of its options.  A job parses its arguments with its
own command's parser (:func:`command_parser`, prog ``cheegerlab <command>``,
the common options first); the parser of every command (:func:`build_parser`)
is built only for top-level help, an unknown or missing command, or
arguments the command's parser leaves over.  Either way a job prints the
same help, usage and errors and exits with the same code.

Importing this module loads only ``io`` and ``errors`` of the package; a
command loads what it runs when it runs (see the comment on the imports).
``perfect`` never loads ``cheegerlab.graphs``.

The process entry, :func:`run` (``python -m cheegerlab.cli`` and the
``cheegerlab`` script), sets ``OPENBLAS_THREAD_TIMEOUT`` unless the caller
has, turns the cyclic garbage collector off, calls :func:`main`, flushes
stdout and stderr and ends the process with ``os._exit``: an idle BLAS worker
sleeps instead of spinning, one job frees too few cyclic objects to pay for
the collector, an interpreter that is about to exit skips its teardown, and
``atexit`` hooks do not run.  :func:`main` returns the exit code and is the
in-process API, for callers that rely on ``atexit`` or go on running;
importing this module or calling :func:`main` leaves the collector and the
environment as they were, registers nothing and never exits.
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
from typing import TYPE_CHECKING, Any, Callable, NoReturn

# Handlers and option builders import what only they need when they run.
# graphs comes in with every command but perfect; numpy with metric,
# hyperbolicity and approximation (delta, approx, net, perfect) and with
# end_space (endspace); trees with tree and endspace; decomposition, and
# trees through it, with decomp, graft and scan; the window oracle with
# cheeger, tree and scan; hashlib with the first input file hashed.  So the
# metric commands load neither trees nor decomposition, and the other
# graph-side commands no numpy.
from . import io
from .errors import BudgetExceededError, CheegerLabError, ConstructionError, InvalidInputError

if TYPE_CHECKING:
    from .graphs import CheegerBound

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4
EXIT_FLUSH_FAILED = 120  # the final flush of stdout or stderr failed, as in CPython

#: ``OPENBLAS_THREAD_TIMEOUT`` for the process entry: an idle OpenBLAS worker
#: spins 2^4 cycles (OpenBLAS's minimum) before it sleeps, not 2^28.  On a
#: 2-vCPU VM the seven cantor-approx benchmark jobs, each run in turn with
#: either setting (sum of per-job medians over 9 rounds), took 1,490 ms by
#: default and 990 ms with it, with the same outputs; one BLAS thread took 930.
BLAS_THREAD_TIMEOUT = "4"


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
    from .graphs import admissible_vertices
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
    from .graphs import certificate_lower_bound

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


# -- command options ---------------------------------------------------------
# An option builder adds a command's own options to its parser.  One whose
# defaults live in cheegerlab.graphs imports it, which each of those
# commands loads anyway.


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="write the canonical JSON report to this path")
    p.add_argument("--seed", type=int, default=0, help="seed for any sampling (default 0)")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored; numpy's BLAS, which the metric commands load, "
        "may still run several threads (OPENBLAS_THREAD_TIMEOUT, 4 unless set, "
        "bounds their idle spin)",
    )


def _window_options(p: argparse.ArgumentParser) -> None:
    from .graphs import DEFAULT_SUBSET_BUDGET

    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)


def _certify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--function", required=True, help="JSON map vertex -> rational")


def _delta_options(p: argparse.ArgumentParser) -> None:
    from .graphs import DEFAULT_DELTA_BUDGET

    p.add_argument("--in", dest="infile", required=True, help="graph/metric file or generator")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--budget", type=int, default=DEFAULT_DELTA_BUDGET)
    p.add_argument("--samples", type=int, default=100_000)


def _endspace_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)


def _approx_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="metric file or generator")
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--k0", type=int, default=None)
    p.add_argument("--s", type=int, default=1, help="relevel coarsening exponent (>= 1)")
    p.add_argument("--delta-cap", type=_finite_float, default=3.0)
    p.add_argument("--out", default=None)


def _net_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--out", default=None)


def _perfect_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=_finite_float, default=None, help="one-point constant S > 1")
    p.add_argument(
        "--two-point-r", type=_finite_float, default=None, help="two-point constant R > 1"
    )
    p.add_argument("--eps0", type=_finite_float, required=True)
    p.add_argument("--floor", type=_finite_float, default=None)
    p.add_argument("--grid", default=None, help="comma-separated extra scales")


def _decomp_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True)


def _graft_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", required=True)
    p.add_argument("--attachment", required=True)
    p.add_argument("--port", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--decomposition", default=None, help="also write a decomposition spec")


def _scan_options(p: argparse.ArgumentParser) -> None:
    from .graphs import DEFAULT_SUBSET_BUDGET

    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--lower", default=None, help="certified ambient lower bound (rational)")


#: name -> (help text, handler, option builder), in the order the top-level
#: help lists them.  Both parsers below are built from this table alone.
COMMANDS: dict[
    str, tuple[str, Callable[[Any], tuple[dict, int]], Callable[[argparse.ArgumentParser], None]]
] = {
    "cheeger": ("brute-force interior Cheeger window minimum", _cmd_cheeger, _window_options),
    "certify": ("function-based lower-bound certificate", _cmd_certify, _certify_options),
    "delta": ("sharp four-point hyperbolicity constant", _cmd_delta, _delta_options),
    "tree": ("rooted-tree Cheeger analysis (K, C, bounds)", _cmd_tree, _window_options),
    "endspace": ("export the end space of a rooted tree", _cmd_endspace, _endspace_options),
    "approx": ("truncated hyperbolic approximation", _cmd_approx, _approx_options),
    "net": ("epsilon-net graph of a metric space", _cmd_net, _net_options),
    "perfect": ("uniform-perfectness check over a scale range", _cmd_perfect, _perfect_options),
    "decomp": ("validate a decomposition and emit its bound", _cmd_decomp, _decomp_options),
    "graft": ("attach a copy of a graph to every base vertex", _cmd_graft, _graft_options),
    "scan": ("interior-Cheeger scan across window families", _cmd_scan, _scan_options),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with the common options first, then those of the command ``name``."""
    _, handler, add_options = COMMANDS[name]
    _common_options(p)
    add_options(p)
    p.set_defaults(handler=handler)
    return p


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command ``name`` alone: the same prog, options,
    help and errors as its subparser in :func:`build_parser`."""
    return _fill(argparse.ArgumentParser(prog=f"cheegerlab {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="cheegerlab",
        description="Certified Cheeger bounds on graphs, trees and hyperbolic approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The namespace :func:`build_parser` gives for ``argv``, built by the
    known command's own parser.  The full parser runs only when it has
    something to say: top-level help, an unknown or missing command, or
    arguments the command's parser leaves over, which argparse reports from
    the top level.  Every other error and help text is the subparser's own,
    so the command's parser prints and exits the same way."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.time()
    args = parse_args(argv)
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
    uncaught exceptions propagate, and the interpreter exits as usual.

    Before ``main`` it also sets ``OPENBLAS_THREAD_TIMEOUT`` unless the caller
    has: OpenBLAS reads it when numpy loads, and an idle BLAS worker then
    sleeps after a short spin instead of busy-waiting for 2^28 cycles, which
    takes a CPU from the job."""
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)
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
