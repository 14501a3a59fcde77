"""The CLI's commands, one module each, and what their handlers share.

``cheegerlab.commands.<name>`` holds the command's option builder,
``options(parser)``, and its handler, ``handle(args)``, which returns the
report and the exit code.  :mod:`cheegerlab.cli` imports the one module a job
runs, so a job compiles no other command.  No module here imports
``cheegerlab.cli``: under ``python -m cheegerlab.cli`` that module is
``__main__``, and importing it by name would compile it a second time.

A handler imports the library modules it runs where it runs, so a job loads
no module its command does not use, and a function patched or wrapped on its
library module is the one the handler calls.
"""

from __future__ import annotations

import argparse
import math
from typing import TYPE_CHECKING, Any, Callable

from .. import io
from ..errors import DEFAULT_SUBSET_BUDGET, BudgetExceededError, InvalidInputError

if TYPE_CHECKING:
    from ..graphs import CheegerBound

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4

#: Generator specs and ``endspace`` (one point per live leaf) refuse above
#: this many points, before allocating.  The generators skip the O(n^3)
#: triangle check, so memory is what the cap bounds: at 2^11 points each n x n
#: float matrix is 32 MiB.  Measured there on 2 vCPUs (Python 3.11, numpy 2.4):
#: a sample builds in 0.1-0.2 s with a tracemalloc peak of 37 MiB (one matrix
#: and its temporaries); ``net --in interval:2048`` takes 0.4 s and peaks at
#: 69 MB RSS; ``perfect --in cantor:11`` takes 0.6-0.7 s in either form, the
#: scan 0.2 s of it, and peaks at 75 MB RSS.
MAX_GENERATOR_POINTS = 2**11


def _check_points(count: int, what: str) -> None:
    """Refuse ``count`` points past :data:`MAX_GENERATOR_POINTS`."""
    if count > MAX_GENERATOR_POINTS:
        raise BudgetExceededError(count, MAX_GENERATOR_POINTS, what, option=None)


def _metric_generator(name: str) -> Callable[[Any], Any]:
    """The generator ``metric.<name>``, imported when it is called."""

    def make(value):
        from .. import metric

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
        _check_points(points(value), f"generator points for {token!r}")
        return make(value), {"generator": token}
    space = io.load_space(token) if graphs else io.load_metric(token)
    return space, _input_record(token)


def _graph_input(token: str) -> tuple[Any, dict]:
    return io.load_graph(token), _input_record(token)


def _input_record(path: str) -> dict:
    """A report's record of an input file: its path as given and its sha256."""
    return {"path": path, "sha256": io.sha256_file(path)}


def _base_report(command: str, inputs: dict, params: dict, seed: int | None = None) -> dict:
    report = {"command": command, "inputs": inputs, "parameters": params}
    if seed is not None:
        report["seed"] = seed
    return report


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


def _window_options(p: argparse.ArgumentParser) -> None:
    """The options of ``cheeger`` and ``tree``: one input and the window
    oracle's size cap and subset budget."""
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
