"""The gradient/Laplacian certificate: a lower endpoint c2/(mu*c1) for the
Cheeger constant from a vertex function whose gradient is bounded by c1 and
whose averaged Laplacian is at least c2 > 0 on the interior.

Vertex functions are exact: every value is read as an int or a Fraction of
Python ints.  ``certify`` runs the certificate, ``approx`` runs it on the level
function, and ``decomp`` re-runs it on a piece that carries a function
certificate; no other command loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import index
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ConstructionError, EmptyWindowError, InvalidInputError
from .graphs import BoundEndpoint, CheegerBound, Graph, Rational, admissible_vertices


# ---------------------------------------------------------------------------
# Vertex functions
# ---------------------------------------------------------------------------


def _rational(x: Any) -> Rational:
    """``x`` as an int or a Fraction of Python ints: an integral value (a
    bool, a numpy integer) through ``operator.index``, any other through
    ``Fraction()``.  ``Fraction(np.int64(n))`` would keep a numpy numerator,
    and its arithmetic wraps at 2^63."""
    if type(x) is int or type(x) is Fraction:
        return x
    try:
        return index(x)
    except TypeError:
        return Fraction(x)


def vertex_function(
    g: Graph, values: Mapping[str, Rational | str] | Callable[[str], Rational]
) -> dict[str, Fraction]:
    """Coerce ``values`` into an exact rational function defined on all of V(g)."""
    out: dict[str, Fraction] = {}
    for v in g.vertices:
        try:
            raw = values(v) if callable(values) else values[v]
        except KeyError:
            raise InvalidInputError(f"function undefined at vertex {v!r}") from None
        out[v] = Fraction(_rational(raw))
    return out


def support(f: Mapping[str, Fraction]) -> frozenset[str]:
    return frozenset(v for v, x in f.items() if x != 0)


# ---------------------------------------------------------------------------
# Discrete calculus
# ---------------------------------------------------------------------------


def gradient(g: Graph, f: Mapping[str, Fraction], x: str, y: str) -> Fraction:
    """Edge gradient f(y) - f(x) for an edge xy, else 0."""
    if x not in g.adjacency or y not in g.adjacency:
        raise InvalidInputError(f"unknown vertex in pair ({x!r}, {y!r})")
    if y in g.adjacency[x]:
        return Fraction(_rational(f[y]) - _rational(f[x]))
    return Fraction(0)


def laplacian(g: Graph, f: Mapping[str, Rational], x: str) -> Fraction:
    """Averaged Laplacian (1/|N(x)|) * sum of f(y)-f(x) over neighbors y,
    exact for every value ``Fraction()`` takes; integral values, numpy
    integers among them, are read as Python ints, so they never wrap."""
    return _laplacian(g, {y: _rational(f[y]) for y in (x, *g.neighbors(x))}, x)


def _laplacian(g: Graph, f: Mapping[str, Rational], x: str) -> Fraction:
    """:func:`laplacian` of a function whose values are ints and Fractions
    already, as :func:`vertex_function` and the level function give: summed
    first and divided once, so an integer f stays in integer arithmetic."""
    nbrs = g.adjacency[x]
    if not nbrs:
        raise InvalidInputError(f"vertex {x!r} is isolated; Laplacian undefined")
    n = len(nbrs)
    return Fraction(sum(map(f.__getitem__, nbrs)) - n * f[x], n)


class CertificateResult(NamedTuple):
    """Outcome of a function-based lower-bound certificate."""

    certified: bool
    bound: CheegerBound | None
    c1: Fraction
    c2: Fraction | None
    violating_vertex: str | None = None
    verified_region: tuple[str, ...] = ()


def certificate_lower_bound(g: Graph, f: Mapping[str, Fraction]) -> CertificateResult:
    """Lower bound c2/(mu*c1) from a function with bounded gradient and
    positive Laplacian on the interior.

    c1 is the maximum |gradient| over all edges, c2 the minimum Laplacian
    over interior vertices (everything at distance >= 2 from the frontier).
    With a non-empty frontier the bound is only proven for the infinite
    ambient graph; the result is flagged horizon-certified and reports the
    region on which the hypothesis was actually verified.
    """
    if not g.is_connected:
        raise InvalidInputError("certificate requires a connected graph")
    f = vertex_function(g, f)
    interior = sorted(admissible_vertices(g))
    if not interior:
        raise EmptyWindowError("interior (V minus frontier and its neighbors) is empty")
    return _certificate(g, f, interior, {"f": dict(f)}, bool(g.frontier))


def _certificate(
    g: Graph, f: Mapping[str, Rational], interior: Sequence[str], function: dict, horizon: bool
) -> CertificateResult:
    """The gradient/Laplacian certificate of f over all edges of ``g`` and the
    ``interior`` vertices; the endpoint's witness is ``function``, c1 and c2."""
    c1, c2, worst = _gradient_laplacian(g, f, g.edges, interior)
    if c2 <= 0:
        return CertificateResult(False, None, c1, c2, violating_vertex=worst)
    if c1 == 0:  # c2 > 0 forces some neighbor value to differ, hence c1 > 0
        raise ConstructionError("positive Laplacian with zero gradient", witness=worst)
    endpoint = BoundEndpoint(
        c2 / (g.mu * c1),
        "certificate",
        witness={**function, "c1": c1, "c2": c2},
        horizon_certified=horizon,
    )
    return CertificateResult(
        True, CheegerBound(lower=endpoint), c1, c2, verified_region=tuple(interior)
    )


def _gradient_laplacian(
    g: Graph, f: Mapping[str, Rational], edges: Iterable[tuple[str, str]], vertices: Sequence[str]
) -> tuple[Fraction, Fraction, str]:
    """c1, the largest |f(v) - f(u)| over ``edges`` (0 when there are none),
    and c2, the least Laplacian of f over ``vertices``, with the first vertex
    in their order that attains it."""
    c1 = Fraction(max(map(abs, [f[v] - f[u] for u, v in edges]), default=0))
    worst = min(vertices, key=partial(_laplacian, g, f))
    return c1, _laplacian(g, f, worst), worst
