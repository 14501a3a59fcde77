"""Gromov products, the sharp four-point hyperbolicity constant, and a
finite-horizon pole check.

The exhaustive constant is the maximum over quadruples of
min{(x|z)_o, (z|y)_o} - (x|y)_o, computed via the equivalent pairing form:
for the three pairings of {x,y,z,o} into two pairs, twice the contribution is
(largest pairing sum) - (second largest).  Quadruples with repeated points
contribute 0, so scanning unordered pairs-of-pairs loses nothing; the scan is
blocked through numpy and exact (integer distances for graphs).

On a graph the exhaustive constant is the maximum over its biconnected blocks
(Cohen, Coudert & Lancin, "On computing the Gromov hyperbolicity", ACM JEA 20,
2015).  A block is isometric in G, since a geodesic that left it would pass a
cut vertex twice.  Let a cut vertex c split G into sides A and B that meet
only in c.  If x lies in A - c and y, z, w in B, then every path from x to
them passes c, so each pairing sum drops by d(x, c) when c replaces x, and
the quadruple's value is that of (c, y, z, w).  If x, y lie in A and z, w in
B, then d(x,z) + d(y,w) = d(x,w) + d(y,z) = d(x,c) + d(y,c) + d(z,c) + d(w,c)
>= d(x,y) + d(z,w), so the two largest sums tie and the value is 0.  Applying
these two steps at cut vertices until none separates the four points, every
quadruple's value is 0 or that of a quadruple in one block.  Blocks with
fewer than 4 vertices contribute 0; a graph whose blocks are all cliques is
0-hyperbolic (Howorka, J. Combin. Theory Ser. B 27, 1979), and trees are the
case where every block is one edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, InvalidHorizonError, InvalidInputError
from .graphs import DEFAULT_DELTA_BUDGET, Graph
from .metric import FiniteMetricSpace, unique_sorted

#: Sampled mode on a graph refuses above this many int32 distance cells:
#: one BFS row of n cells per distinct point drawn as x, y or z, so at most
#: min(n, 3 * samples) * n of them (256 MB at this cap).
MAX_SAMPLED_DISTANCE_CELLS = 2**26

#: Elements per block of the exhaustive scan; bounds its temporaries.
_CHUNK_ELEMS = 1 << 16


def _distance_matrix(space: Graph | FiniteMetricSpace) -> tuple[np.ndarray, tuple[str, ...], bool]:
    if isinstance(space, Graph):
        return space.distance_matrix, space.vertices, True
    if isinstance(space, FiniteMetricSpace):
        return space.dist, space.points, False
    raise InvalidInputError(f"unsupported space type {type(space).__name__}")


def gromov_product(space: Graph | FiniteMetricSpace, x: str, y: str, o: str) -> Fraction | float:
    """(x|y)_o = (d(x,o) + d(y,o) - d(x,y)) / 2; exact Fraction on graphs."""
    dmat, _, integral = _distance_matrix(space)
    idx = space.index
    try:
        i, j, k = idx[x], idx[y], idx[o]
    except KeyError as exc:
        raise InvalidInputError(f"unknown point {exc.args[0]!r}") from None
    num = dmat[i, k] + dmat[j, k] - dmat[i, j]
    return Fraction(int(num), 2) if integral else float(num) / 2.0


class DeltaReport(NamedTuple):
    """Sharp four-point constant (or a sampled lower bound for it)."""

    delta: Fraction | float
    witness: tuple[str, str, str, str]  # roles (x, y, z, o)
    mode: str  # "exhaustive" | "sampled"
    lower_bound_only: bool
    seed: int | None = None
    sample_count: int | None = None


def _role_order(dmat, names, i, j, k, l) -> tuple[str, str, str, str]:
    # order the quadruple so that {x,y} and {z,o} form the largest pairing sum
    s1 = dmat[i, j] + dmat[k, l]
    s2 = dmat[i, k] + dmat[j, l]
    s3 = dmat[i, l] + dmat[j, k]
    if s1 >= s2 and s1 >= s3:
        order = (i, j, k, l)
    elif s2 >= s3:
        order = (i, k, j, l)
    else:
        order = (i, l, j, k)
    return tuple(names[t] for t in order)


def _pairing_values(dmat, rows, cols):
    # cols: quadruples (i, j, k, l); rows: the dmat rows of i, j and k, one of
    # which is an endpoint of every pair in the three pairings
    (ri, rj, rk), (ii, jj, kk, ll) = rows, cols
    s1 = dmat[ri, jj] + dmat[rk, ll]
    s2 = dmat[ri, kk] + dmat[rj, ll]
    s3 = dmat[ri, ll] + dmat[rj, kk]
    top = np.maximum(s1, np.maximum(s2, s3))
    low = np.minimum(s1, np.minimum(s2, s3))
    return top - (s1 + s2 + s3 - top - low)  # largest minus second largest


def _scan(dmat: np.ndarray):
    """Exhaustive scan of one distance matrix: twice its sharp four-point
    constant, and the first maximizing quadruple of indices.

    The witness is the first maximizer over pairs of index pairs (p, q),
    p <= q, in lexicographic order of their ``triu_indices`` ranks.  Integer
    matrices are scanned exactly."""
    n = len(dmat)
    ii, jj = np.triu_indices(n, k=1)
    if np.issubdtype(dmat.dtype, np.integer):
        # pairing sums reach twice the diameter; the narrowest safe integer
        # type keeps the scan's memory traffic low
        top_d = dmat.max()
        work = dmat.astype(np.int8 if top_d < 64 else np.int16 if top_d < 16000 else np.int32)
    else:
        work = dmat
    pair_w = work[ii, jj]
    wi, wj = work[ii], work[jj]  # (m, n) row gathers, sliced as views per block
    best_val = 0  # quadruples with a repeated point give 0
    best_at = (0, 0)
    # Pairs q = (k, l), l > k, are contiguous in triu order, so for a fixed k
    # every operand is a slice: d(i_p, k) + d(j_p, l) and d(i_p, l) + d(j_p, k).
    # Rows p < end cover every p <= q; a swapped (q, p) repeats the value of
    # (p, q), so keeping the lexicographically first maximizer yields p <= q.
    start = 0
    for k in range(n - 1):
        width = n - k - 1
        end = start + width
        rows = max(1, _CHUNK_ELEMS // width)
        for a in range(0, end, rows):
            b = min(a + rows, end)
            s1 = pair_w[a:b, None] + pair_w[None, start:end]
            s2 = wi[a:b, k, None] + wj[a:b, k + 1:]
            s3 = wi[a:b, k + 1:] + wj[a:b, k, None]
            hi = np.maximum(s2, s3)
            np.minimum(s2, s3, out=s2)  # s2 becomes the smaller of the two
            top = np.maximum(s1, hi)
            np.minimum(s1, hi, out=hi)
            np.maximum(hi, s2, out=hi)  # hi becomes the middle sum
            vals = np.subtract(top, hi, out=top)
            at = int(vals.argmax())  # first maximizer in row-major block order
            val = vals.flat[at]
            pq = (a + at // width, start + at % width)
            if val > best_val or (val == best_val and pq < best_at):
                best_val, best_at = val, pq
        start = end
    if best_val <= 0:
        return best_val, (0, 0, 0, 0)
    p, q = best_at
    return best_val, (int(ii[p]), int(jj[p]), int(ii[q]), int(jj[q]))


def delta_four_point(
    space: Graph | FiniteMetricSpace,
    mode: str = "exhaustive",
    budget: int = DEFAULT_DELTA_BUDGET,
    seed: int = 0,
    samples: int = 100_000,
) -> DeltaReport:
    """Sharp hyperbolicity constant by exhaustive quadruple scan, or a seeded
    sampled lower bound when the instance is too large.

    On a graph the exhaustive scan runs block by block, and ``budget`` bounds
    b^4 for the largest biconnected block b; it is checked before any
    distance is computed.  A metric space is scanned whole, against n^4.
    In sampled mode ``budget`` bounds ``samples``, which must be at least 1,
    before any quadruple is drawn; on a graph, MAX_SAMPLED_DISTANCE_CELLS
    also bounds the BFS rows those samples may need.

    Witness rule: blocks are taken in order of their sorted parent-index
    tuples, and the witness comes from the first block attaining the maximum.
    Within that block (or the whole metric space) it is the first maximizer
    over pairs of vertex pairs (p, q), p <= q, in lexicographic order of their
    ``triu_indices`` ranks, with vertices in parent order.  When the constant
    is 0 the witness is the first vertex four times."""
    if mode not in ("exhaustive", "sampled"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if isinstance(space, Graph) and not space.vertices:
        raise InvalidInputError("four-point constant requested on an empty graph")

    if mode == "sampled":
        if samples < 1:
            raise InvalidInputError(f"sampled mode needs samples >= 1 (got {samples})")
        if samples > budget:
            raise BudgetExceededError(samples, budget, what="sampled quadruples")
        if isinstance(space, Graph):
            n = len(space.vertices)
            cells = min(n, 3 * samples) * n
            if cells > MAX_SAMPLED_DISTANCE_CELLS:
                raise BudgetExceededError(
                    cells, MAX_SAMPLED_DISTANCE_CELLS,
                    f"BFS distance cells for {samples} samples on {n} vertices", option=None,
                )
            if not space.is_connected:
                raise InvalidInputError("distance matrix requested on a disconnected graph")
            names, integral = space.vertices, True
        else:
            dmat, names, integral = _distance_matrix(space)
        qs = np.random.default_rng(seed).integers(0, len(names), size=(4, samples))
        rows = qs[:3]
        if integral:  # only the BFS rows of the points drawn as i, j or k are read
            sources = unique_sorted(rows)
            dmat, rows = space.distance_rows(sources.tolist()), np.searchsorted(sources, rows)
        vals = _pairing_values(dmat, rows, qs)
        at = int(vals.argmax())
        quad = qs[:, at]
        delta = Fraction(int(vals[at]), 2) if integral else float(vals[at]) / 2.0
        # rows i, j, k at columns i, j, k, l hold the maximizer's six distances
        witness = _role_order(dmat[rows[:, at]][:, quad], [names[t] for t in quad], 0, 1, 2, 3)
        return DeltaReport(
            delta, witness, "sampled", lower_bound_only=True, seed=seed, sample_count=samples
        )

    if isinstance(space, Graph):
        if not space.is_connected:
            raise InvalidInputError("four-point constant requested on a disconnected graph")
        blocks = space.blocks()
        largest = max(map(len, blocks), default=len(space.vertices))
        where = f"the largest biconnected block ({largest} vertices)"
        names, integral = space.vertices, True
        # each block is isometric in the graph, so its own BFS gives its
        # distances; blocks below 4 vertices hold no 4 distinct points.  The
        # generator defers every BFS past the budget check below.
        parts = (space.induced(names[i] for i in block) for block in blocks if len(block) >= 4)
    else:
        _, names, integral = _distance_matrix(space)
        largest, where = len(names), f"a {len(names)}-point space"
        parts = (space,)
    if largest**4 > budget:
        raise BudgetExceededError(
            largest**4, budget, what=f"ordered quadruples in {where} (sampled mode draws fewer)"
        )

    best_val, witness = 0, (names[0],) * 4
    for part in parts:
        dmat, part_names, _ = _distance_matrix(part)
        val, (i, j, k, l) = _scan(dmat)
        if val > best_val:
            best_val, witness = val, _role_order(dmat, part_names, i, j, k, l)
    delta = Fraction(int(best_val), 2) if integral else float(best_val) / 2.0
    return DeltaReport(delta, witness, "exhaustive", lower_bound_only=False)


def evaluate_witness(space: Graph | FiniteMetricSpace, witness: tuple[str, str, str, str]):
    """Re-evaluate min{(x|z)_o,(z|y)_o} - (x|y)_o on a witness quadruple."""
    x, y, z, o = witness
    val = min(gromov_product(space, x, z, o), gromov_product(space, z, y, o)) - gromov_product(
        space, x, y, o
    )
    return max(val, Fraction(0) if isinstance(val, Fraction) else 0.0)


# ---------------------------------------------------------------------------
# Finite-horizon pole surrogate
# ---------------------------------------------------------------------------


class PoleDefectReport(NamedTuple):
    """Max distance from the depth-D ball to the union of ray prefixes.

    Rays are seen only up to the horizon: the covered set consists of every
    vertex lying on some geodesic from the base to the depth-D sphere, so for
    trees the defect equals the deepest dead branch.
    """

    defect: int
    horizon: int
    witness: str  # vertex realizing the defect
    covered: frozenset[str]


def pole_defect(g: Graph, v: str, horizon: int) -> PoleDefectReport:
    if v not in g.index:
        raise InvalidInputError(f"unknown vertex {v!r}")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if horizon > g.eccentricity(v):
        raise InvalidHorizonError(
            f"horizon {horizon} exceeds the eccentricity {g.eccentricity(v)} of {v!r}"
        )
    dmat = g.distance_matrix
    dv = dmat[g.index[v]]
    sphere = np.nonzero(dv == horizon)[0]
    on_ray = (dv[:, None] + dmat[:, sphere] == horizon).any(axis=1)
    covered = [g.vertices[i] for i in np.nonzero(on_ray)[0]]
    reach = g.bfs_distances(covered)
    defect, witness = 0, v
    for name in g.vertices:
        if dv[g.index[name]] <= horizon and reach[name] > defect:
            defect, witness = reach[name], name
    return PoleDefectReport(defect, horizon, witness, frozenset(covered))
