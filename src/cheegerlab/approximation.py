"""Truncated hyperbolic approximations of finite metric spaces.

Levels k0..k_max each carry a maximal r^k-separated set of the space; a
vertex is the ball B(a, 2 r^k) around a kept point.  Horizontal edges join
same-level vertices whose closed balls share a witness point of X; a radial
edge joins consecutive levels when the upper (open) ball is contained in the
lower one.  Both conditions are evaluated pointwise over X, as exact tests
on bit sets of the balls; centre distances only rule out pairs that cannot
pass (see ``build_truncated``).  The deepest level is declared the graph frontier
so that window analyses stay honest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, ConstructionError, EmptyWindowError, InvalidInputError
from .frozen import Frozen
from .certificate import CertificateResult, _certificate
from .graphs import Graph, normalize_edge
from .hyperbolicity import DeltaReport, delta_four_point
from .metric import (
    TRIANGLE_TOL,
    FiniteMetricSpace,
    greedy_separated,
    strongly_bounded_geometry_profile,
)

MAX_PARAMETER = 1.0 / 6.0

#: ``build_truncated`` refuses past this many multiply-adds of dense ball
#: products: n * |L_k| * (|L_k| + |L_{k+1}|) summed over the levels, for n
#: points.  It bounds the bit-set tests, which take at most
#: |L_k| * (|L_k| + |L_{k+1}|) pairs, each an AND over n/64 words.
#: ``approx --in cantor:11 --r 0.111111 --k-max 7`` needs 3.3e10 of them.
BUILD_BUDGET = 2**36

#: Elements per temporary in ``build_truncated``'s blocks and chunks (8 MB of
#: float64).
_BLOCK = 2**20


def _vertex_name(k: int, point: str) -> str:
    return f"L{k}:{point}"


class LeveledGraph(Frozen):
    """Hyperbolic-approximation output: graph plus level/center annotations."""

    graph: Graph
    space: FiniteMetricSpace
    r: float
    k0: int
    k_max: int
    level: dict[str, int]
    center: dict[str, str]
    _fields = ("graph", "space", "r", "k0", "k_max", "level", "center")

    def __init__(
        self,
        graph: Graph,
        space: FiniteMetricSpace,
        r: float,
        k0: int,
        k_max: int,
        level: dict[str, int],
        center: dict[str, str],
    ):
        self.__dict__.update(
            graph=graph, space=space, r=r, k0=k0, k_max=k_max, level=level, center=center
        )

    @property
    def base(self) -> str:
        """The unique vertex of the lowest level."""
        names = [v for v, k in self.level.items() if k == self.k0]
        if len(names) != 1:
            raise InvalidInputError(f"level {self.k0} has {len(names)} vertices")
        return names[0]

    def level_vertices(self, k: int) -> tuple[str, ...]:
        return tuple(v for v in self.graph.vertices if self.level[v] == k)


def _k0_for(space: FiniteMetricSpace, r: float) -> int:
    diam = space.diameter
    if diam <= 0:
        raise InvalidInputError(
            "degenerate (singleton) space has no natural base level; pass k0 explicitly"
        )
    guess = math.floor(math.log(diam) / math.log(r))
    k = guess + 2
    while not diam < r**k:  # maximal k with diam < r^k
        k -= 1
    while diam < r ** (k + 1):
        k += 1
    return k


def _checked_k0(space: FiniteMetricSpace, r: float, k_max: int, k0: int | None) -> int:
    """The base level ``build_truncated`` uses, after every check of its
    parameters; no level is built."""
    if not 0 < r <= MAX_PARAMETER:
        raise InvalidInputError("the parameter must satisfy 0 < r <= 1/6")
    if len(space.points) < 1:
        raise InvalidInputError("empty space")
    if k0 is None:
        k0 = _k0_for(space, r)
    for k in (k0, k_max):  # r^k is monotone in k, so the ends bound every level
        try:
            ball = 2 * r**k
        except OverflowError:
            ball = math.inf
        if not 0 < ball < math.inf:
            raise InvalidInputError(f"level {k}: the radius 2*r^k is not a finite positive float")
    if space.diameter > 0 and not space.diameter < r**k0:
        raise InvalidInputError(f"k0={k0} does not dominate the diameter")
    if k_max < k0:
        raise InvalidInputError(f"need k_max >= k0 = {k0}")
    return k0


def build_truncated(
    space: FiniteMetricSpace,
    r: float,
    k_max: int,
    k0: int | None = None,
) -> LeveledGraph:
    """Build the truncated hyperbolic approximation of ``space`` down to level
    ``k_max`` with parameter r <= 1/6.

    For a singleton space the base level cannot be derived from the diameter
    and must be passed explicitly; the result is then a chain (a ray prefix).
    Once the nets are chosen, and before any ball is built, a build past
    :data:`BUILD_BUDGET` multiply-adds raises ``BudgetExceededError``.
    """
    k0 = _checked_k0(space, r, k_max, k0)
    d = space.dist
    idx = space.index
    levels = {k: greedy_separated(space, r**k) for k in range(k0, k_max + 1)}
    if len(levels[k0]) != 1:
        raise ConstructionError("base level is not a single vertex", witness=levels[k0])
    sizes = [*map(len, levels.values()), 0]
    work = len(space.points) * sum(a * (a + b) for a, b in zip(sizes, sizes[1:]))
    if work > BUILD_BUDGET:
        raise BudgetExceededError(
            work, BUILD_BUDGET, "multiply-adds in the approximation's ball products", option=None
        )

    names = {k: [_vertex_name(k, p) for p in levels[k]] for k in levels}
    level_map = {v: k for k in levels for v in names[k]}
    center = {v: p for k in levels for v, p in zip(names[k], levels[k])}

    # Each ball is a bit set over the n points, and each tested pair is one
    # AND over its words, so every edge is still decided pointwise over X,
    # exactly.  Centre distances only choose the pairs worth testing:
    #
    # * Radial: the upper centre q lies in its own open ball, so containment
    #   needs d(p, q) < 2r^k; no pair past that is tested.
    # * Horizontal: let R = 2r^k, T = TRIANGLE_TOL and u = 2^-53.  A witness x
    #   of closed balls that meet has d(p, x) <= R and d(x, q) <= R, so
    #   b = fl(d(p, x) + d(x, q)) <= 2R(1 + u).  The space passed the triangle
    #   scan of ``FiniteMetricSpace``, fl(d(p, q) - b) <= T, so
    #   d(p, q) <= b + T(1 + 2u) (the generators that skip the scan are
    #   metrics up to far less than T).  The filter keeps
    #   d(p, q) <= fl(2R + fl(2T + 8Ru)); each sum rounds down by a factor
    #   (1 - u) at most, so the bound is at least
    #   2R(1 - u) + (2T + 8Ru)(1 - u)^2, which exceeds 2R(1 + u) + T(1 + 2u)
    #   by T(1 - 6u + 2u^2) + 4Ru(1 - 4u + 2u^2) >= 0.  So no pair whose
    #   closed balls meet is filtered out.  Past the float range the bound is
    #   inf, and every pair is tested.
    open_balls = {k: _balls(d, [idx[p] for p in levels[k]], 2 * r**k, closed=False)
                  for k in levels}
    edges: set[tuple[str, str]] = set()
    for k in range(k0, k_max + 1):
        pts = [idx[p] for p in levels[k]]
        rad = 2 * r**k
        closed = _balls(d, pts, rad, closed=True)
        reach = 2 * rad + (2 * TRIANGLE_TOL + 8 * rad * 2.0**-53)
        rows, cols = _near_pairs(d, pts, pts, reach, closed=True)
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        meet = _any_common_bit(closed, closed, rows, cols)
        edges.update(normalize_edge(names[k][i], names[k][j])
                     for i, j in zip(rows[meet].tolist(), cols[meet].tolist()))
        if k < k_max:
            rows, cols = _near_pairs(d, pts, [idx[p] for p in levels[k + 1]], rad, closed=False)
            # a miss is a point of the upper open ball outside the lower one;
            # the padding bits of ~open are set, but the upper ball's are not
            misses = _any_common_bit(~open_balls[k], open_balls[k + 1], rows, cols)
            edges.update(normalize_edge(names[k][i], names[k + 1][j])
                         for i, j in zip(rows[~misses].tolist(), cols[~misses].tolist()))

    graph = Graph(tuple(level_map), frozenset(edges), frozenset(names[k_max]))
    built = LeveledGraph(graph, space, r, k0, k_max, level_map, center)
    skips, no_upper = _level_violations(built)
    problems = skips + no_upper
    if problems:
        raise ConstructionError(problems[0], witness=tuple(problems))
    if not graph.is_connected:
        raise ConstructionError("approximation graph is disconnected")
    return built


def _balls(d: np.ndarray, centres: list[int], radius: float, closed: bool) -> np.ndarray:
    """The balls of ``radius`` about ``centres`` (closed or open) over the
    points of ``d``, one row of uint64 words per centre, bit x for point x;
    the padding bits are 0.  Built in blocks of rows of ``d`` (which is
    symmetric), so no n x |centres| float copy is made."""
    n = d.shape[1]
    out = np.zeros((len(centres), -(-n // 64) * 8), dtype=np.uint8)
    step = max(1, _BLOCK // n)
    for s in range(0, len(centres), step):
        rows = d[centres[s : s + step]]
        packed = np.packbits(rows <= radius if closed else rows < radius, axis=1)
        out[s : s + step, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _near_pairs(
    d: np.ndarray, rows: list[int], cols: list[int], limit: float, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i into ``rows`` and j into ``cols``, whose points
    lie within ``limit`` (``<=`` if ``closed``, else ``<``), in row-major
    order; one block of rows at a time."""
    step = max(1, _BLOCK // max(1, len(cols)))
    found_i, found_j = [], []
    for s in range(0, len(rows), step):
        block = d[np.ix_(rows[s : s + step], cols)]
        i, j = np.nonzero(block <= limit if closed else block < limit)
        found_i.append(i + s)
        found_j.append(j)
    return np.concatenate(found_i), np.concatenate(found_j)


def _any_common_bit(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each pair, whether the bit sets ``a[rows[t]]`` and ``b[cols[t]]``
    share a set bit; in chunks, so each temporary holds at most ``_BLOCK``
    words."""
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _BLOCK // a.shape[1])
    for s in range(0, len(rows), step):
        e = s + step
        out[s:e] = (a[rows[s:e]] & b[cols[s:e]]).any(axis=1)
    return out


def _level_violations(lg: LeveledGraph) -> tuple[list[str], list[str]]:
    """Violations of the level invariants, each list sorted: edges that skip a
    level (neither horizontal nor radial), and vertices above the deepest
    level with no neighbor one level up."""
    level, adjacency = lg.level, lg.graph.adjacency
    skips = sorted(f"edge {u}--{v} is neither horizontal nor radial"
                   for u, v in lg.graph.edges if abs(level[u] - level[v]) > 1)
    no_upper = sorted(f"{v} has no neighbor one level up" for v in lg.graph.vertices
                      if level[v] < lg.k_max
                      and all(level[w] != level[v] + 1 for w in adjacency[v]))
    return skips, no_upper


class Truncation(NamedTuple):
    """A truncated approximation before it is built: the space and the
    parameters of ``build_truncated`` (``k0`` None derives it), which is all
    that ``relevel`` reads of a ``LeveledGraph``."""

    space: FiniteMetricSpace
    r: float
    k0: int | None
    k_max: int


def relevel(lg: LeveledGraph | Truncation, s: int) -> LeveledGraph:
    """Coarsened rebuild with parameter r^s, keeping every s-th level.

    The parameters of ``lg`` are checked first, with the messages of
    ``build_truncated``; given as a ``Truncation``, the approximation that
    is coarsened is never built.
    """
    k0 = _checked_k0(lg.space, lg.r, lg.k_max, lg.k0)
    if s < 1:
        raise InvalidInputError("need s >= 1")
    if s == 1:
        return build_truncated(lg.space, lg.r, lg.k_max, k0=k0)
    new_kmax = math.floor(lg.k_max / s)
    if lg.space.diameter > 0:
        return build_truncated(lg.space, lg.r**s, new_kmax)
    new_k0 = math.ceil(k0 / s)
    return build_truncated(lg.space, lg.r**s, max(new_kmax, new_k0), k0=new_k0)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


class StructuralReport(NamedTuple):
    """Post-build validation: hard invariants plus the delta expectation.

    ``structural_ok`` covers the provable invariants (edge classification,
    unique base, upper neighbors, degree cap).  A delta above the configured
    cap is reported as a finding, not a failure, unless an invariant also
    broke: the cap is an expectation about the vertex metric, not a theorem.
    """

    structural_ok: bool
    classification_ok: bool
    unique_base_ok: bool
    upper_neighbor_ok: bool
    degree_cap_ok: bool
    max_degree: int
    degree_cap: int
    delta: DeltaReport
    delta_cap: float
    delta_ok: bool
    violations: tuple[str, ...]


def structural_checks(lg: LeveledGraph, delta_cap: float = 3.0) -> StructuralReport:
    skips, no_upper = _level_violations(lg)
    violations = list(skips)
    classification_ok = not skips

    base_vertices = [v for v in lg.graph.vertices if lg.level[v] == lg.k0]
    unique_base_ok = len(base_vertices) == 1
    if not unique_base_ok:
        violations.append(f"level {lg.k0} has {len(base_vertices)} vertices")

    violations.extend(no_upper)
    upper_ok = not no_upper

    scales = [lg.r**k for k in range(lg.k0, lg.k_max + 1)]
    m1 = strongly_bounded_geometry_profile(lg.space, 5.0, scales).m
    m23 = strongly_bounded_geometry_profile(lg.space, 2.0 / lg.r, scales).m
    cap = m1 + 2 * m23
    max_degree = lg.graph.mu
    degree_cap_ok = max_degree <= cap
    if not degree_cap_ok:
        violations.append(f"max degree {max_degree} exceeds the profile cap {cap}")

    delta = delta_four_point(lg.graph)
    delta_ok = float(delta.delta) <= delta_cap

    return StructuralReport(
        structural_ok=classification_ok and unique_base_ok and upper_ok and degree_cap_ok,
        classification_ok=classification_ok,
        unique_base_ok=unique_base_ok,
        upper_neighbor_ok=upper_ok,
        degree_cap_ok=degree_cap_ok,
        max_degree=max_degree,
        degree_cap=cap,
        delta=delta,
        delta_cap=delta_cap,
        delta_ok=delta_ok,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Level-function certificate
# ---------------------------------------------------------------------------


def level_certificate(lg: LeveledGraph) -> CertificateResult:
    """The gradient/Laplacian certificate with f = level function over the
    levels strictly between k0 and k_max, taken in vertex order.

    On a built approximation every edge changes f by -1, 0 or +1, so c1 = 1.
    A pinched vertex (as many down- as up-neighbors, e.g. on a chain) kills
    the certificate, which is exactly what happens over boundaries that are
    not uniformly perfect."""
    k0, k_max, level = lg.k0, lg.k_max, lg.level
    if k_max - k0 < 2:
        raise InvalidInputError("need at least 3 levels for an interior")
    interior = tuple(v for v in lg.graph.vertices if k0 < level[v] < k_max)
    if not interior:
        raise EmptyWindowError("no vertex lies strictly between the extreme levels")
    return _certificate(lg.graph, level, interior, {"function": "level"}, True)
