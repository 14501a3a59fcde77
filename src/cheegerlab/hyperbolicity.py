"""Gromov products, the sharp four-point hyperbolicity constant, and a
finite-horizon pole check.

The exhaustive constant is the maximum over quadruples of
min{(x|z)_o, (z|y)_o} - (x|y)_o, computed via the equivalent pairing form:
for the three pairings of {x,y,z,o} into two pairs, twice the contribution is
(largest pairing sum) - (second largest).  Quadruples with repeated points
contribute 0, so scanning unordered pairs-of-pairs loses nothing; the scan is
blocked through numpy and exact (integer distances for graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, InvalidHorizonError, InvalidInputError
from .graphs import Graph
from .metric import FiniteMetricSpace

#: Exhaustive scans refuse above this many ordered quadruples (n^4).
DEFAULT_DELTA_BUDGET = 2**31

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
    dmat, names, integral = _distance_matrix(space)
    idx = {v: i for i, v in enumerate(names)}
    try:
        i, j, k = idx[x], idx[y], idx[o]
    except KeyError as exc:
        raise InvalidInputError(f"unknown point {exc.args[0]!r}") from None
    num = dmat[i, k] + dmat[j, k] - dmat[i, j]
    return Fraction(int(num), 2) if integral else float(num) / 2.0


@dataclass(frozen=True)
class DeltaReport:
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


def _pairing_values(dmat, ii, jj, kk, ll):
    s1 = dmat[ii, jj] + dmat[kk, ll]
    s2 = dmat[ii, kk] + dmat[jj, ll]
    s3 = dmat[ii, ll] + dmat[jj, kk]
    top = np.maximum(s1, np.maximum(s2, s3))
    low = np.minimum(s1, np.minimum(s2, s3))
    return top - (s1 + s2 + s3 - top - low)  # largest minus second largest


def delta_four_point(
    space: Graph | FiniteMetricSpace,
    mode: str = "exhaustive",
    budget: int = DEFAULT_DELTA_BUDGET,
    seed: int = 0,
    samples: int = 100_000,
) -> DeltaReport:
    """Sharp hyperbolicity constant by exhaustive quadruple scan, or a seeded
    sampled lower bound when the instance is too large.

    The exhaustive witness is the first maximizer over pairs of vertex pairs
    (p, q), p <= q, in lexicographic order of their ``triu_indices`` ranks."""
    dmat, names, integral = _distance_matrix(space)
    n = len(names)
    if mode not in ("exhaustive", "sampled"):
        raise InvalidInputError(f"unknown mode {mode!r}")

    if mode == "sampled":
        rng = np.random.default_rng(seed)
        qs = rng.integers(0, n, size=(4, samples))
        vals = _pairing_values(dmat, qs[0], qs[1], qs[2], qs[3])
        at = int(vals.argmax())
        best = vals[at]
        i, j, k, l = (int(qs[t, at]) for t in range(4))
        delta = Fraction(int(best), 2) if integral else float(best) / 2.0
        return DeltaReport(
            delta, _role_order(dmat, names, i, j, k, l), "sampled",
            lower_bound_only=True, seed=seed, sample_count=samples,
        )

    if n**4 > budget:
        raise BudgetExceededError(
            n**4, budget, what="ordered quadruples; rerun in sampled mode"
        )
    if n < 2:
        return DeltaReport(
            Fraction(0) if integral else 0.0,
            (names[0],) * 4, "exhaustive", lower_bound_only=False,
        )

    ii, jj = np.triu_indices(n, k=1)
    if integral:
        # pairing sums reach twice the diameter; the narrowest safe integer
        # type keeps the scan's memory traffic low
        top_d = dmat.max()
        work = dmat.astype(np.int8 if top_d < 64 else np.int16 if top_d < 16000 else np.int32)
    else:
        work = dmat
    pair_w = work[ii, jj]
    wi, wj = work[ii], work[jj]  # (m, n) row gathers, sliced as views per block
    best_val = -1  # every block value is >= 0, so the first block replaces it
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
    p, q = best_at
    i, j, k, l = int(ii[p]), int(jj[p]), int(ii[q]), int(jj[q])
    delta = Fraction(int(best_val), 2) if integral else float(best_val) / 2.0
    witness = _role_order(dmat, names, i, j, k, l) if best_val > 0 else (names[0],) * 4
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


@dataclass(frozen=True)
class PoleDefectReport:
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
