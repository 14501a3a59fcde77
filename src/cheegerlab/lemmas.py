"""The paper's lemma and proposition checks, which no CLI command runs.

Green's identity on a window, the connected-set corollary of the
gradient/Laplacian certificate, quasi-isometry checking, the exhaustive suite
of the tree lemmas' connected-set inequalities, and the identification of the
approximation's boundary with the sample.  They are kept apart from the
modules every command imports, so no command compiles them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import BudgetExceededError, InvalidInputError, InvalidSupportError
from .graphs import (
    DEFAULT_SUBSET_BUDGET,
    Graph,
    Rational,
    _check_subset,
    _gradient_laplacian,
    _laplacian,
    admissible_vertices,
    boundary,
    vertex_function,
)
from .window import _connected_bitsets, _members

if TYPE_CHECKING:
    from .approximation import LeveledGraph
    from .trees import RootedTree


# ---------------------------------------------------------------------------
# Graphs: Green's identity, the connected-set corollary, quasi-isometries
# ---------------------------------------------------------------------------


def support(f: Mapping[str, Fraction]) -> frozenset[str]:
    return frozenset(v for v, x in f.items() if x != 0)


def green_identity_check(
    g: Graph, f: Mapping[str, Fraction], g2: Mapping[str, Fraction]
) -> Fraction:
    """Residual of the discrete Green identity; the contract is exactly 0.

    Computes sum_x (Lf)(x) g2(x) |N(x)| + (1/2) sum over ordered adjacent
    pairs of (grad f)(grad g2).  On a truncated window the identity is only
    ambient-meaningful when one of the functions is supported away from the
    frontier zone, so that support is required up front.
    """
    f = vertex_function(g, f)
    g2 = vertex_function(g, g2)
    if g.frontier:
        zone = frozenset(g.vertices) - admissible_vertices(g)
        if support(f) & zone and support(g2) & zone:
            offender = sorted((support(f) | support(g2)) & zone)[0]
            raise InvalidSupportError(
                f"support touches the frontier zone at {offender!r}; the identity "
                "is not guaranteed on truncations"
            )
    lhs = Fraction(0)
    for x in g.vertices:
        if g.adjacency[x] and g2[x] != 0:
            lhs += _laplacian(g, f, x) * g.degree(x) * g2[x]
    cross = Fraction(0)
    for u, v in g.edges:
        cross += 2 * (f[v] - f[u]) * (g2[v] - g2[u])  # both orientations
    return lhs + cross / 2


class CorollaryCheck(NamedTuple):
    holds: bool
    ratio: Fraction
    c1: Fraction
    c2: Fraction


def corollary_connected_bound(
    g: Graph, f: Mapping[str, Fraction], subset: Iterable[str]
) -> CorollaryCheck:
    """Check |dA|/|A| >= c2/c1 for a set whose boundary vertices each have a
    single neighbor inside, with c1, c2 evaluated on A and its boundary."""
    f = vertex_function(g, f)
    a = _check_subset(g, subset)
    bd = boundary(g, a)
    for x in sorted(bd):
        k = len(g.adjacency[x] & a)
        if k != 1:
            raise InvalidInputError(
                f"boundary vertex {x!r} has {k} neighbors in A (need exactly 1)"
            )
    closure = a | bd
    edges = [(u, v) for u, v in g.edges if u in closure and v in closure]
    c1, c2, _ = _gradient_laplacian(g, f, edges, sorted(a))
    ratio = Fraction(len(bd), len(a))
    if c1 > 0:
        holds = ratio >= c2 / c1
    else:  # constant f on the closure forces c2 = 0; nothing left to verify
        holds = c2 <= 0
    return CorollaryCheck(holds, ratio, c1, c2)


# ---------------------------------------------------------------------------
# Quasi-isometry checking
# ---------------------------------------------------------------------------


class QuasiIsometryReport(NamedTuple):
    holds: bool
    embedding_ok: bool
    fullness_ok: bool
    alpha: Fraction
    beta: Fraction
    eps: Fraction
    worst_pair: tuple[str, str] | None = None
    worst_pair_slack: Fraction | None = None
    worst_vertex: str | None = None
    worst_vertex_distance: int | None = None


def quasi_isometry_check(
    g1: Graph,
    g2: Graph,
    mapping: Mapping[str, str],
    alpha: Rational = 1,
    beta: Rational = 0,
    eps: Rational = 0,
) -> QuasiIsometryReport:
    """Verify the two-sided quasi-isometric-embedding inequalities on all
    vertex pairs, plus eps-fullness of the image; report the worst witness."""
    alpha, beta, eps = Fraction(alpha), Fraction(beta), Fraction(eps)
    if alpha < 1 or beta < 0 or eps < 0:
        raise InvalidInputError("need alpha >= 1, beta >= 0, eps >= 0")
    missing = [v for v in g1.vertices if v not in mapping]
    if missing:
        raise InvalidInputError(f"map not total: missing {missing[0]!r}")
    bad_image = [v for v in g1.vertices if mapping[v] not in g2.index]
    if bad_image:
        raise InvalidInputError(f"map image {mapping[bad_image[0]]!r} not in target graph")

    import numpy as np

    d1 = g1.distance_matrix
    d2 = g2.distance_matrix
    img_idx = np.array([g2.index[mapping[v]] for v in g1.vertices])

    worst_pair = None
    worst_slack: Fraction | None = None
    n = len(g1.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            a = int(d1[i, j])
            b = int(d2[img_idx[i], img_idx[j]])
            slack = min(Fraction(b) - (Fraction(a) / alpha - beta), alpha * a + beta - b)
            if worst_slack is None or slack < worst_slack:
                worst_slack = slack
                worst_pair = (g1.vertices[i], g1.vertices[j])
    embedding_ok = worst_slack is None or worst_slack >= 0

    cover = d2[np.asarray(sorted(set(img_idx.tolist())), dtype=int)].min(axis=0)
    far = int(cover.argmax())
    worst_vertex = g2.vertices[far]
    worst_dist = int(cover[far])
    fullness_ok = Fraction(worst_dist) <= eps

    return QuasiIsometryReport(
        holds=embedding_ok and fullness_ok,
        embedding_ok=embedding_ok,
        fullness_ok=fullness_ok,
        alpha=alpha,
        beta=beta,
        eps=eps,
        worst_pair=worst_pair,
        worst_pair_slack=worst_slack,
        worst_vertex=worst_vertex,
        worst_vertex_distance=worst_dist,
    )


# ---------------------------------------------------------------------------
# Trees: the connected-set inequalities
# ---------------------------------------------------------------------------


class LemmaCounterexample(NamedTuple):
    lemma: str
    vertices: tuple[str, ...]
    detail: str


class LemmaSuiteReport(NamedTuple):
    sets_checked: int
    min_boundary_ratio: Fraction | None
    min_essential_ratio: Fraction | None
    min_inner_ratio: Fraction | None
    counterexamples: tuple[LemmaCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _connected_sets(g: Graph, allowed: list[str], max_size: int, budget: int):
    """Enumerate the connected vertex sets of the induced subgraph on
    ``allowed`` with at most ``max_size`` elements, each exactly once, as
    tuples of names in ``allowed`` order."""
    rank = {v: i for i, v in enumerate(allowed)}
    adj = [sum(1 << rank[u] for u in g.adjacency[v] if u in rank) for v in allowed]
    for produced, sub in enumerate(_connected_bitsets(adj, max_size), 1):
        if produced > budget:
            raise BudgetExceededError(produced, budget, "connected sets", option="budget=")
        yield tuple(map(allowed.__getitem__, _members(sub)))


def lemma_suite(
    t: RootedTree,
    max_size: int = 8,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> LemmaSuiteReport:
    """Exhaustively test the three connected-set inequalities, plus the
    shallow-set counting bound, over every connected set of dead-free,
    1-pseudo-regular trees.

    Sets avoid the horizon sphere so that window boundaries equal ambient
    boundaries; any counterexample is a build-breaking bug and is reported.
    """
    from .trees import essential_boundary, maximal_complete_subtree, pseudo_regularity_index

    tinf = maximal_complete_subtree(t)
    if set(t.vertices) - tinf:
        raise InvalidInputError("lemma suite requires a tree that equals its complete subtree")
    pseudo = pseudo_regularity_index(t)
    if pseudo.k != 1:
        raise InvalidInputError(f"lemma suite requires 1-pseudo-regularity (got K={pseudo.k})")

    g = t.graph
    allowed = [v for v in g.vertices if v not in g.frontier]
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    counter: list[LemmaCounterexample] = []
    mins: list[Fraction | None] = [None, None, None]
    checked = 0
    for a in _connected_sets(g, allowed, max_size, budget):
        checked += 1
        aset = frozenset(a)
        bd = boundary(g, aset)
        eb = essential_boundary(t, aset)
        size = len(aset)
        ratios = (
            ("boundary-third", Fraction(len(bd), size), third, 0),
            ("essential-third", Fraction(len(eb.essential), size), third, 1),
            ("inner-sixth", Fraction(len(eb.inner), size), sixth, 2),
        )
        for name, ratio, floor_val, slot in ratios:
            if mins[slot] is None or ratio < mins[slot]:
                mins[slot] = ratio
            if ratio < floor_val:
                counter.append(LemmaCounterexample(name, tuple(sorted(aset)), f"{ratio} < {floor_val}"))
        max_depth = max(t.depth[x] for x in aset)
        if size > 1 + max_depth * len(eb.essential):
            counter.append(
                LemmaCounterexample(
                    "shallow-count", tuple(sorted(aset)),
                    f"|A|={size} > 1 + {max_depth}*{len(eb.essential)}",
                )
            )
    return LemmaSuiteReport(checked, mins[0], mins[1], mins[2], tuple(counter))


# ---------------------------------------------------------------------------
# Approximations: boundary identification
# ---------------------------------------------------------------------------

#: Default additive slack for the boundary-identification report: a measured
#: regression constant, not a theorem value.  Across the reference builds
#: (Cantor samples at r = 1/9, tree end spaces at r = e^-2) the largest
#: deviation observed was exactly 1.0; the default leaves headroom.
DEFAULT_BOUNDARY_SLACK = 2.0




# ---------------------------------------------------------------------------
# Boundary identification
# ---------------------------------------------------------------------------


class BoundaryPairCheck(NamedTuple):
    u: str
    w: str
    product: float
    expected: float
    deviation: float


class BoundaryIdentificationReport(NamedTuple):
    ok: bool
    slack: float
    max_deviation: float
    pairs: tuple[BoundaryPairCheck, ...]


def boundary_identification_check(
    lg: LeveledGraph,
    pairs: list[tuple[str, str]] | None = None,
    sample: int = 50,
    seed: int = 0,
    slack: float = DEFAULT_BOUNDARY_SLACK,
) -> BoundaryIdentificationReport:
    """Compare Gromov products of deepest-level vertices (from the base) with
    log_{1/r}(1/d) of their centers.

    The identification theorem guarantees a visual metric with parameter 1/r
    but fixes no additive constant; ``slack`` is a measured regression value
    carried in the report, and exceeding it is a finding.
    """
    import numpy as np

    from .hyperbolicity import gromov_product

    deepest = lg.level_vertices(lg.k_max)
    if pairs is None:
        cands = [
            (u, w)
            for i, u in enumerate(deepest)
            for w in deepest[i + 1:]
            if lg.center[u] != lg.center[w]
        ]
        if len(cands) > sample:
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(cands), size=sample, replace=False)
            cands = [cands[i] for i in sorted(int(x) for x in picks)]
        pairs = cands
    base = lg.base
    out = []
    for u, w in pairs:
        if lg.level[u] != lg.k_max or lg.level[w] != lg.k_max:
            raise InvalidInputError(f"pair ({u}, {w}) is not on the deepest level")
        if lg.center[u] == lg.center[w]:
            raise InvalidInputError(f"pair ({u}, {w}) shares its center point")
        prod = float(gromov_product(lg.graph, u, w, base))
        dist = lg.space.d(lg.center[u], lg.center[w])
        expected = math.log(1.0 / dist) / math.log(1.0 / lg.r)
        out.append(BoundaryPairCheck(u, w, prod, expected, abs(prod - expected)))
    max_dev = max((p.deviation for p in out), default=0.0)
    return BoundaryIdentificationReport(max_dev <= slack, slack, max_dev, tuple(out))
