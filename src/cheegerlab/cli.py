"""Command-line interface: every analysis as a subcommand with reproducible,
machine-readable reports.

Reports are canonical JSON (sorted keys, trailing newline) printed to stdout
and optionally written to ``--report``; given the same inputs and seed they
are byte-identical across runs and worker counts.  Timing and human-readable
notes go to stderr only.  Exit codes: 0 success, 2 invalid input, 3 budget
exceeded, 4 falsified invariant or failed check (a finding, with its witness
in the report).

Each command is described once, in :data:`COMMANDS`: its help text and its
module, ``cheegerlab.commands.<name>``, which holds the builder of its
options and its handler.  A job parses its arguments with its own command's
parser (:func:`command_parser`, prog ``cheegerlab <command>``, the common
options first), which imports that one module; the parser of every command
(:func:`build_parser`) is built only for top-level help, an unknown or
missing command, or arguments the command's parser leaves over.  Either way
a job prints the same help, usage and errors and exits with the same code.

Importing this module loads only ``io``, ``errors`` and the helpers of the
``commands`` package, and no command module; a command loads what it runs
when it runs (see the comment on the imports).  ``perfect`` never loads
``cheegerlab.graphs``, nor does ``endspace``.

The process entry, :func:`run` (``python -m cheegerlab.cli`` and the
``cheegerlab`` script), sets ``OPENBLAS_THREAD_TIMEOUT`` unless the caller
has, turns the cyclic garbage collector off, calls :func:`main`, flushes
stdout and stderr and ends the process with ``os._exit``: an idle BLAS worker
sleeps instead of spinning (the library calls no BLAS routine, but numpy
starts OpenBLAS's threads when it loads), one job frees too few cyclic
objects to pay for the collector, an interpreter that is about to exit skips
its teardown, and ``atexit`` hooks do not run.  :func:`main` returns the exit code and is the
in-process API, for callers that rely on ``atexit`` or go on running;
importing this module or calling :func:`main` leaves the collector and the
environment as they were, registers nothing and never exits.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, NoReturn

# A job imports one command module, cheegerlab.commands.<name>, and its
# handler imports what only it needs when it runs.  graphs comes in with
# every command but perfect and endspace; numpy with metric, hyperbolicity
# and approximation (delta, approx, net, perfect) and with end_space
# (endspace); trees with tree and endspace; decomposition, and trees through
# it, with decomp and graft; the window oracle with cheeger, tree and scan;
# the certificate with certify, approx and a decomposition's function pieces;
# hashlib with the first input file hashed.  So the metric commands load
# neither trees nor decomposition, and the other graph-side commands no numpy.
from . import io
from .commands import EXIT_BUDGET, EXIT_FALSIFIED, EXIT_INVALID, EXIT_OK  # cli.EXIT_* resolve
from .errors import BudgetExceededError, CheegerLabError, ConstructionError

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


def _emit(report: dict, args, started: float) -> None:
    blob = io.canonical_json_bytes(_jsonable(report))
    if args.report:
        Path(args.report).write_bytes(blob)
    sys.stdout.write(blob.decode())
    print(f"[{report['command']}] wall-time {time.time() - started:.3f}s", file=sys.stderr)


# -- parsers -----------------------------------------------------------------


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="write the canonical JSON report to this path")
    p.add_argument("--seed", type=int, default=0, help="seed for any sampling (default 0)")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored; the library calls no BLAS routine, but numpy, "
        "which the metric commands load, starts OpenBLAS's threads "
        "(OPENBLAS_THREAD_TIMEOUT, 4 unless set, bounds their idle spin)",
    )


#: name -> (help text, the module that holds the command's options and
#: handler), in the order the top-level help lists them.  Both parsers below
#: are built from this table alone; each command's parser imports its module.
COMMANDS: dict[str, tuple[str, str]] = {
    name: (help_text, f"cheegerlab.commands.{name}")
    for name, help_text in (
        ("cheeger", "brute-force interior Cheeger window minimum"),
        ("certify", "function-based lower-bound certificate"),
        ("delta", "sharp four-point hyperbolicity constant"),
        ("tree", "rooted-tree Cheeger analysis (K, C, bounds)"),
        ("endspace", "export the end space of a rooted tree"),
        ("approx", "truncated hyperbolic approximation"),
        ("net", "epsilon-net graph of a metric space"),
        ("perfect", "uniform-perfectness check over a scale range"),
        ("decomp", "validate a decomposition and emit its bound"),
        ("graft", "attach a copy of a graph to every base vertex"),
        ("scan", "interior-Cheeger scan across window families"),
    )
}


def _module(name: str):
    """The module named ``name``, imported through ``__import__`` as an import
    statement is, so that ``python -X importtime`` reports it (a module that
    ``importlib.import_module`` loads is not reported)."""
    __import__(name)
    return sys.modules[name]


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with the common options first, then those of the command
    ``name``; its handler is the name of the command's module."""
    module = COMMANDS[name][1]
    _common_options(p)
    _module(module).options(p)
    p.set_defaults(handler=module)
    return p


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command ``name`` alone: the same prog, options,
    help and errors as its subparser in :func:`build_parser`."""
    return _fill(argparse.ArgumentParser(prog=f"cheegerlab {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser, which imports every
    command's module."""
    parser = argparse.ArgumentParser(
        prog="cheegerlab",
        description="Certified Cheeger bounds on graphs, trees and hyperbolic approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
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
        report, code = _module(args.handler).handle(args)
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
