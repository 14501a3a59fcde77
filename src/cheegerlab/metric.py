"""Finite metric spaces: separated sets, uniform perfectness, bounded-geometry
profiles, epsilon-nets and canonical sample generators.

Distances are binary64 floats.  Strict inequalities from the definitions are
evaluated with no tolerance (ties resolve to the non-strict side); the load
validator alone uses a 1e-9 slack for the triangle inequality.  A finite
sample can only witness multi-scale properties down to its own resolution, so
every perfectness verdict carries the [resolution_floor, eps0] range it was
checked on and claims nothing below it.

Every space is validated where it is made.  The constructor, ``line_space``
and the loaders (whose distances come from a caller or a file) run every
check, the O(n^3) triangle scan included.  The generators ``cantor_sample``,
``interval_sample``, ``two_point`` and ``trees.end_space`` build metrics by
construction, so they run only the O(n^2) checks; each docstring gives the
reason.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError
from .frozen import Frozen

if TYPE_CHECKING:
    from .graphs import Graph

TRIANGLE_TOL = 1e-9

#: Largest distance whose sum with any other stays a finite float.
_MAX_DISTANCE = float(np.finfo(float).max) / 2


class FiniteMetricSpace(Frozen):
    """Labeled point set with a symmetric distance matrix.

    ``resolution_floor`` is optional metadata set by constructions that know
    the scale below which the sample stops resolving its source (end spaces,
    regular samples); it is advisory and does not affect the metric.  When
    given it must be a finite positive number, since reports carry it as JSON.

    Construction checks the distances: finite and at most half the largest
    float (so sums of two stay finite), zero on the diagonal, symmetric,
    positive off it, and the triangle inequality up to ``TRIANGLE_TOL``.  That
    last check is an O(n^3) scan.  The private ``_exact`` path skips it, and
    only for the generators whose output is a metric by construction (integer
    line offsets times a scale; end-space ultrametrics; the two-point space).
    """

    points: tuple[str, ...]
    dist: np.ndarray
    resolution_floor: float | None
    _fields = ("points", "dist", "resolution_floor")

    def __init__(
        self, points: tuple[str, ...], dist: np.ndarray, resolution_floor: float | None = None
    ):
        self.__dict__.update(points=points, dist=dist, resolution_floor=resolution_floor)
        self.__post_init__()

    def __post_init__(self):
        """Every check, the O(n^3) triangle scan last; the one method that
        ``_exact`` skips."""
        self._check_pairs()
        # Symmetry is checked, so the test of (j, i, k) is that of (i, j, k)
        # and the pairs i < j suffice: the worst violation at (i, j) is
        # d(i,j) - min_k (d(i,k) + d(k,j)), one add and one min per row into
        # one n x n buffer (O(n^2) memory for the O(n^3) check).  k = i gives
        # 0, so the worst over all pairs starts there.
        d, n = self.dist, len(self.points)
        worst = 0.0
        buf = np.empty_like(d)
        for i in range(n - 1):
            near = np.add(d[i + 1 :], d[i], out=buf[: n - 1 - i]).min(axis=1)
            worst = max(worst, (d[i, i + 1 :] - near).max())
        if worst > TRIANGLE_TOL:
            raise InvalidInputError(
                f"triangle inequality violated by {worst:.3e} (tolerance {TRIANGLE_TOL})"
            )

    @classmethod
    def _exact(
        cls, points: tuple[str, ...], dist: np.ndarray, resolution_floor: float | None = None
    ) -> FiniteMetricSpace:
        """A space that its caller has proved to be a metric: every O(n^2)
        check runs, but not ``__post_init__`` and its O(n^3) triangle scan.
        Only constructions whose docstring gives that proof may call it."""
        space = object.__new__(cls)
        object.__setattr__(space, "points", points)
        object.__setattr__(space, "dist", dist)
        object.__setattr__(space, "resolution_floor", resolution_floor)
        space._check_pairs()
        return space

    def _check_pairs(self) -> None:
        """Every check but the triangle inequality, in O(n^2)."""
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        n = len(self.points)
        if len(set(self.points)) != n:
            raise InvalidInputError("duplicate point identifiers")
        if d.shape != (n, n):
            raise InvalidInputError(f"distance matrix must be {n}x{n}")
        if n == 0:
            raise InvalidInputError("empty metric space")
        if self.resolution_floor is not None and not 0 < self.resolution_floor < np.inf:
            raise InvalidInputError("resolution_floor must be a finite positive number")
        if not np.isfinite(d).all():
            raise InvalidInputError("distances must be finite")
        if d.max() > _MAX_DISTANCE:
            # the triangle check and every four-point sum add two distances
            raise InvalidInputError(f"distances must be at most {_MAX_DISTANCE!r}")
        if (d.diagonal() != 0).any():
            raise InvalidInputError("dist(x,x) must be 0")
        if not (d == d.T).all():
            raise InvalidInputError("distance matrix must be symmetric")
        if np.count_nonzero(d <= 0) > n:  # the n zeros of the diagonal, and more
            raise InvalidInputError("dist(x,y) must be positive for x != y")

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def d(self, x: str, y: str) -> float:
        idx = self.index
        try:
            return float(self.dist[idx[x], idx[y]])
        except KeyError as exc:
            raise InvalidInputError(f"unknown point {exc.args[0]!r}") from None

    @property
    def diameter(self) -> float:
        return float(self.dist.max())


def line_space(
    coords: Sequence[float],
    names: Sequence[str] | None = None,
    resolution_floor: float | None = None,
) -> FiniteMetricSpace:
    """Points on the real line with the absolute-value metric, in given order."""
    xs = np.asarray(list(coords), dtype=float)
    if names is None:
        names = [f"x{i}" for i in range(len(xs))]
    return FiniteMetricSpace(
        tuple(names), np.abs(xs[:, None] - xs[None, :]), resolution_floor
    )


def _integer_line_space(
    offsets: Sequence[int],
    scale: float,
    names: Sequence[str],
    resolution_floor: float | None,
) -> FiniteMetricSpace:
    """Line metric d = |i - j| * scale from integer offsets.

    Building distances as (exact integer) * scale keeps equal gaps equal as
    floats, so tie comparisons against scale multiples behave exactly.

    The result is a metric by construction and skips the triangle scan.  The
    offsets are distinct integers below 2^53, so every gap |i - j| is exact and
    the real numbers |i - j| * scale form a line metric.  Each distance is that
    number rounded once, and the scan's own sum rounds once more, so the scan
    could see a violation of at most about 6 * 2^-53 times the diameter.  Both
    callers have diameter at most 1, far inside ``TRIANGLE_TOL``.
    """
    ts = np.asarray(list(offsets), dtype=float)
    dist = np.subtract.outer(ts, ts)  # in place from here: one n x n array
    np.abs(dist, out=dist)
    dist *= scale
    return FiniteMetricSpace._exact(tuple(names), dist, resolution_floor)


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened: ``np.unique`` for
    arrays without NaNs, minus the ``numpy.ma`` import it brings."""
    s = np.sort(a, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


# ---------------------------------------------------------------------------
# Separated sets and nets
# ---------------------------------------------------------------------------


def greedy_separated(space: FiniteMetricSpace, r: float) -> tuple[str, ...]:
    """Maximal r-separated subset, scanning points in input order.

    Output is r-separated (pairwise distances >= r) and maximal: every point
    lies strictly within r of some kept point.
    """
    if r <= 0:
        raise InvalidInputError("separation radius must be positive")
    # by symmetry, a point is blocked iff some kept point lies strictly within r of it
    kept: list[str] = []
    blocked = np.zeros(len(space.points), dtype=bool)
    for i, p in enumerate(space.points):
        if not blocked[i]:
            kept.append(p)
            blocked |= space.dist[i] < r
    return tuple(kept)


def epsilon_net(space: FiniteMetricSpace, eps: float) -> Graph:
    """Graph on a maximal eps-separated set, joining points at distance <= 2*eps.

    The distance-2*eps tie is an edge (closed condition).
    """
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be positive and finite")
    from .graphs import Graph, edges_where  # the perfectness checks never load graphs

    names = greedy_separated(space, eps)
    ids = [space.index[p] for p in names]
    near = np.triu(space.dist[np.ix_(ids, ids)] <= 2 * eps, 1)
    return Graph(names, frozenset(edges_where(near, names, names)), frozenset())


# ---------------------------------------------------------------------------
# Uniform perfectness
# ---------------------------------------------------------------------------


class PerfectnessCertificate(NamedTuple):
    """Verdict of an annulus-nonemptiness scan over a declared scale range.

    ``holds`` quantifies only over the checked epsilons (the caller grid
    augmented with every realized distance inside [resolution_floor, eps0]);
    nothing is claimed below the floor.
    """

    constant: float  # S for the one-point form, R for the two-point form
    form: str  # "one-point" | "two-point"
    eps0: float
    resolution_floor: float
    holds: bool
    witness: tuple[str, float] | None = None  # (point, eps) with empty annulus
    checked_eps: int = 0


#: Rows the perfectness scan takes at once: a few n-long arrays per row.
_BLOCK_ROWS = 64


def _realized_distances(d: np.ndarray, floor: float, eps0: float) -> np.ndarray:
    """The distinct d(x, y), x < y, within [floor, eps0], sorted.  Each block
    of rows gives its own distinct values first, so no array of all n^2 / 2
    pairs is ever formed."""
    n = len(d)
    found = []
    for lo in range(0, n, _BLOCK_ROWS):
        sub = d[lo : lo + _BLOCK_ROWS, lo + 1 :]  # x = lo + i meets y = x + 1 at sub[i, i]
        found.append(unique_sorted(sub[np.triu((sub >= floor) & (sub <= eps0))]))
    return unique_sorted(np.concatenate(found))


def _perfectness_scan(
    space: FiniteMetricSpace, constant: float, form: str, eps0: float, floor: float,
    grid: Iterable[float],
) -> PerfectnessCertificate:
    """Check that the closed ball B(x, eps) reaches beyond eps / constant, by
    its radius (one-point form) or its diameter (two-point form), for every
    checked eps and every point x.

    The scan works on the gaps of each point's sorted row, not on the scales.
    Points at distance exactly eps are all in the closed ball, so every eps in
    [row[i], row[i + 1]) sees the same ball, the first i + 1 points of x's
    sort order, of radius row[i] (the last gap runs to infinity; a gap inside
    a run of equal values is empty).  IEEE division by a positive constant is
    monotone, so ``eps_list / constant`` is non-decreasing and the scales of
    the gap that fail, those with not row[i] > eps / constant, form a suffix
    of it, non-empty exactly when the gap's last scale fails.  So one
    ``searchsorted`` per row value finds where each gap starts, one gather
    tests its last scale, and one more ``searchsorted`` finds where the first
    non-empty suffix starts: the row's first failing scale.  These are the
    very floats a per-scale test of the ball's radius compares.
    The diameter is at least the radius (column 0 of ``_ball_diameters``'s
    submatrix holds the very floats of x's row), so its failing suffix lies
    inside the radius's.  The two-point form therefore measures diameters only
    for rows whose radius fails below the current limit, and only up to the
    largest ball whose suffix is open there, then runs the same suffix test.
    The witness is the failure at the smallest eps, and among those the one at
    the lowest point index.
    """
    if not (0 < floor <= eps0 < np.inf):
        raise InvalidInputError("need 0 < resolution_floor <= eps0 < inf")
    grid = np.asarray([float(e) for e in grid], dtype=float)
    if not ((grid >= floor) & (grid <= eps0)).all():
        raise InvalidInputError("grid values must lie within [resolution_floor, eps0]")
    d, n = space.dist, len(space.points)
    eps_list = unique_sorted(
        np.concatenate([grid, _realized_distances(d, floor, eps0), [floor, eps0]])
    )
    shrunk = eps_list / constant
    limit, witness = len(eps_list), None
    for lo in range(0, n, _BLOCK_ROWS):
        rows = np.sort(d[lo : lo + _BLOCK_ROWS], axis=1)
        # gap i holds the scales lower[i] <= j < stop[i]; its suffix is
        # non-empty iff the gap's last scale fails
        lower = np.searchsorted(eps_list, rows)
        stop = np.empty_like(lower)
        stop[:, :-1] = lower[:, 1:]
        stop[:, -1] = len(eps_list)
        open_ = (lower < stop) & ~(rows > shrunk[stop - 1])
        gap = open_.argmax(axis=1)  # each row's first open gap, if any
        at = np.arange(len(rows)), gap
        first = np.maximum(lower[at], np.searchsorted(shrunk, rows[at]))
        first[~open_[at]] = len(eps_list)
        for b in np.flatnonzero(first < limit):  # the limit only falls
            if not first[b] < limit:
                continue
            fail = int(first[b])
            if form == "two-point":
                # the gaps whose suffix starts below the limit
                gaps = np.flatnonzero(
                    open_[b] & (lower[b] < limit) & ~(rows[b] > shrunk[limit - 1])
                )
                ids = np.argsort(d[lo + b], kind="stable")[: gaps[-1] + 1]
                diam = _ball_diameters(d, ids)
                start = np.maximum(lower[b, gaps], np.searchsorted(shrunk, diam[gaps]))
                fail = int(np.where(start < stop[b, gaps], start, limit).min())
                if not fail < limit:
                    continue
            limit = fail  # a later point's failure counts only at an earlier scale
            witness = (space.points[lo + b], float(eps_list[limit]))
    return PerfectnessCertificate(
        constant, form, eps0, floor, witness is None, witness, len(eps_list)
    )


def uniformly_perfect_check(
    space: FiniteMetricSpace,
    s: float,
    eps0: float,
    resolution_floor: float,
    grid: Iterable[float] = (),
) -> PerfectnessCertificate:
    """One-point form: every annulus (eps/S, eps] around every point is
    non-empty, for every checked eps in [resolution_floor, eps0]."""
    if not 1 < s < np.inf:
        raise InvalidInputError("need a finite S > 1")
    # the annulus is non-empty iff the ball's farthest point lies beyond eps/S
    return _perfectness_scan(space, s, "one-point", eps0, resolution_floor, grid)


def _ball_diameters(d: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """[k] = the largest distance among the points ids[:k + 1].  Row k's
    largest distance to ids[:k + 1] is taken block by block, ``_BLOCK_ROWS``
    rows at a time, so no m x m submatrix is formed."""
    row_max = np.empty(len(ids))
    for lo in range(0, len(ids), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        # row lo + i keeps the columns up to lo + i; distances are >= 0
        row_max[lo:hi] = np.tril(d[np.ix_(ids[lo:hi], ids[:hi])], lo).max(axis=1)
    return np.maximum.accumulate(row_max)


def two_point_perfectness_check(
    space: FiniteMetricSpace,
    r_const: float,
    eps0: float,
    resolution_floor: float,
    grid: Iterable[float] = (),
) -> PerfectnessCertificate:
    """Two-point form: within distance eps of every point there are two points
    more than eps/R apart, for every checked eps in [resolution_floor, eps0]."""
    if not 1 < r_const < np.inf:
        raise InvalidInputError("need a finite R > 1")
    return _perfectness_scan(space, r_const, "two-point", eps0, resolution_floor, grid)


def rescale_eps0(s: float, eps0: float, eps0_new: float) -> float:
    """Constant for moving a perfectness certificate to a new scale cap:
    S' = S * max(1, eps0'/eps0)."""
    if s <= 1 or eps0 <= 0 or eps0_new <= 0:
        raise InvalidInputError("need S > 1 and positive scale caps")
    return s * max(1.0, eps0_new / eps0)


def one_point_to_two_point_constant(s: float) -> float:
    """R = S^2/(S-1): an S-uniformly-perfect space satisfies the two-point form."""
    if s <= 1:
        raise InvalidInputError("need S > 1")
    return s * s / (s - 1)


def two_point_to_one_point_constant(r_const: float) -> float:
    """S = 2R: the two-point form with constant R gives uniform perfectness."""
    if r_const <= 1:
        raise InvalidInputError("need R > 1")
    return 2 * r_const


# ---------------------------------------------------------------------------
# Strongly bounded geometry
# ---------------------------------------------------------------------------


class GeometryProfile(NamedTuple):
    """Observed multiplicity bound: M exceeds every |A_eps ∩ B(x, K*eps)| seen."""

    m: int
    k: float
    max_count: int
    worst_scale: float
    worst_point: str


def strongly_bounded_geometry_profile(
    space: FiniteMetricSpace, k: float, scales: Iterable[float]
) -> GeometryProfile:
    """For each scale eps build the greedy eps-approximation and count its
    points inside the open ball B(x, K*eps); returns M = 1 + the overall max."""
    scales = [float(e) for e in scales]
    if not scales:
        raise InvalidInputError("need at least one scale")
    if any(e <= 0 for e in scales):
        raise InvalidInputError("scales must be positive")
    if k <= 0:
        raise InvalidInputError("need K > 0")
    idx = space.index
    best = (-1, 0.0, space.points[0])
    for eps in scales:
        net = [idx[p] for p in greedy_separated(space, eps)]
        sub = space.dist[:, net]
        counts = (sub < k * eps).sum(axis=1)
        x = int(counts.argmax())
        if int(counts[x]) > best[0]:
            best = (int(counts[x]), eps, space.points[x])
    return GeometryProfile(best[0] + 1, k, best[0], best[1], best[2])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def cantor_sample(depth: int) -> FiniteMetricSpace:
    """Left endpoints of the depth-level middle-thirds intervals, line metric.

    2^depth points named by their {0,2}-ternary code.  The resolution floor
    is the smallest realized distance, 2 * 3^-depth (sibling endpoints);
    below it the sample resolves nothing and no annulus is non-empty.
    """
    if depth < 1:
        raise InvalidInputError("need depth >= 1")
    offsets = []
    names = []
    for code in range(2**depth):
        t = 0
        for bit in range(depth):
            if (code >> (depth - 1 - bit)) & 1:
                t += 2 * 3 ** (depth - 1 - bit)
        offsets.append(t)
        names.append("c" + format(code, f"0{depth}b"))
    scale = 3.0**-depth
    return _integer_line_space(offsets, scale, names, resolution_floor=2 * scale)


def interval_sample(n: int) -> FiniteMetricSpace:
    """n equally spaced points on [0, 1]; resolution floor is the step."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    step = 1.0 / (n - 1)
    return _integer_line_space(
        range(n), step, [f"i{i}" for i in range(n)], resolution_floor=step
    )


def two_point(d: float = 1.0) -> FiniteMetricSpace:
    """The two-point space {p, q} at distance d.  It has no triangle to check:
    every triple repeats a point."""
    if d <= 0:
        raise InvalidInputError("need d > 0")
    return FiniteMetricSpace._exact(("p", "q"), np.array([[0.0, d], [d, 0.0]]))
