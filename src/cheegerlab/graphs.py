"""Finite graphs with unit-length edges and the exact Cheeger machinery on them.

Vertex boundaries, the BFS metric, discrete gradient/Laplacian with Green's
identity, the interior-Cheeger window oracle (a parametric minimum cut at
full cap, a scan of the connected subsets below it) behind one entry point,
:func:`window_bound`, which picks the size cap, and function-based lower-bound
certificates.  Everything combinatorial is computed in exact
`fractions.Fraction` arithmetic; floats never enter this module.

A graph may carry a *frontier*: the set of vertices where an infinite ambient
graph was cut off.  Window results are only ambient-faithful for sets that
keep distance >= 2 from the frontier, and the ops below enforce exactly that
discipline.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
from math import comb
from operator import or_
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BudgetExceededError,
    ConstructionError,
    EmptyWindowError,
    InvalidInputError,
    InvalidSupportError,
)
from .frozen import FrozenValue

if TYPE_CHECKING:
    import numpy as np

#: Hard cap on how many subsets a brute-force scan may enumerate.
DEFAULT_SUBSET_BUDGET = 2**22

#: Exhaustive four-point scans refuse above this many ordered quadruples: b^4
#: for the largest biconnected block of a graph, n^4 for a metric space.
DEFAULT_DELTA_BUDGET = 2**31

Rational = Fraction | int


def normalize_edge(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def edges_where(mask: np.ndarray, rows: Sequence[str], cols: Sequence[str]) -> set[tuple[str, str]]:
    """Canonical edges {rows[i], cols[j]} for the true entries (i, j) of a
    boolean relation matrix."""
    return {normalize_edge(rows[i], cols[j]) for i, j in zip(*mask.nonzero())}


class Graph(FrozenValue):
    """Finite undirected simple graph with optional frontier markers.

    ``vertices`` keeps its declared order (serialization sorts); ``edges``
    holds canonical sorted pairs.  Simplicity and endpoint membership are
    validated on construction; :meth:`from_edges` additionally rejects
    disconnected input unless told otherwise.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    frontier: frozenset[str]
    _fields = ("vertices", "edges", "frontier")

    def __init__(
        self,
        vertices: tuple[str, ...],
        edges: frozenset[tuple[str, str]],
        frontier: frozenset[str] = frozenset(),
    ):
        self.__dict__.update(vertices=vertices, edges=edges, frontier=frontier)
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise InvalidInputError("duplicate vertex identifiers")
        bad = [(u, v) for u, v in self.edges if u >= v or u not in seen or v not in seen]
        if bad:  # only a failure sorts: the smallest offender, whatever the hash seed
            u, v = min(bad)
            if u == v:
                raise InvalidInputError(f"self-loop at {u!r}")
            if u > v:
                raise InvalidInputError(f"edge {(u, v)!r} not in canonical order")
            raise InvalidInputError(f"edge {(u, v)!r} has undeclared endpoint")
        if not self.frontier <= seen:
            raise InvalidInputError("frontier contains undeclared vertices")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        vertices: Iterable[str] | None = None,
        frontier: Iterable[str] = (),
        require_connected: bool = True,
    ) -> "Graph":
        edge_set = frozenset(normalize_edge(str(u), str(v)) for u, v in edges)
        if vertices is None:
            names = sorted({x for e in edge_set for x in e})
        else:
            names = [str(v) for v in vertices]
        g = cls(tuple(names), edge_set, frozenset(str(v) for v in frontier))
        if require_connected and not g.is_connected:
            raise InvalidInputError(
                "graph is disconnected; pass require_connected=False for "
                "per-component analysis (h is then the min over components)"
            )
        return g

    # -- basic structure -------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise InvalidInputError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    @cached_property
    def mu(self) -> int:
        """Uniformity constant: the maximum vertex degree."""
        return max((len(s) for s in self.adjacency.values()), default=0)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self, within: Iterable[str] | None = None) -> list[frozenset[str]]:
        """Connected components of the subgraph induced on ``within`` (every
        vertex when omitted), ordered by their smallest vertex."""
        remaining = set(self.vertices if within is None else within)
        unknown = remaining - self.adjacency.keys()
        if unknown:
            raise InvalidInputError(f"unknown vertex {min(unknown)!r}")
        out = []
        while remaining:
            start = min(remaining)
            remaining.remove(start)
            comp = [start]
            for x in comp:
                for y in self.adjacency[x]:
                    if y in remaining:
                        remaining.remove(y)
                        comp.append(y)
            out.append(frozenset(comp))
        return out

    def induced(self, verts: Iterable[str]) -> "Graph":
        """Subgraph induced on ``verts``, in this graph's vertex order, keeping
        their frontier marks; the graph itself (with its cached distances)
        when ``verts`` covers it."""
        keep = frozenset(verts)
        if keep >= self.index.keys():
            return self
        order = tuple(sorted(keep & self.index.keys(), key=self.index.__getitem__))
        edges = frozenset((u, w) for u in order for w in self.adjacency[u] if u < w and w in keep)
        return Graph(order, edges, self.frontier & keep)

    def blocks(self) -> list[tuple[int, ...]]:
        """Biconnected blocks as sorted vertex-index tuples, in sorted order.

        One iterative Tarjan pass, O(n + m): the DFS parent u of v closes a
        block when nothing below v reaches above u (low[v] >= disc[u]).  Every
        edge lies in exactly one block, so a bridge is a 2-vertex block and an
        isolated vertex lies in none."""
        nbrs = self._index_adjacency
        disc = [-1] * len(nbrs)
        low = [0] * len(nbrs)
        clock = 0
        out = []
        for root in range(len(nbrs)):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = clock
            clock += 1
            stack = [root]  # vertices not yet assigned to a closed block
            walk = [(root, iter(nbrs[root]))]  # the DFS path with unread neighbours
            while walk:
                v, rest = walk[-1]
                for w in rest:
                    if disc[w] < 0:
                        disc[w] = low[w] = clock
                        clock += 1
                        stack.append(w)
                        walk.append((w, iter(nbrs[w])))
                        break
                    low[v] = min(low[v], disc[w])
                else:
                    walk.pop()
                    if walk:
                        u = walk[-1][0]
                        low[u] = min(low[u], low[v])
                        if low[v] >= disc[u]:
                            block = [u]
                            while block[-1] != v:
                                block.append(stack.pop())
                            out.append(tuple(sorted(block)))
        return sorted(out)

    @cached_property
    def _index_adjacency(self) -> list[list[int]]:
        idx = self.index
        return [[idx[w] for w in self.adjacency[v]] for v in self.vertices]

    def _bfs(self, sources: Iterable[int]) -> list[int]:
        """Multi-source BFS over vertex indices, level by level; -1 marks an
        unreachable vertex."""
        nbrs = self._index_adjacency
        dist = [-1] * len(nbrs)
        level = []
        for s in sources:
            if dist[s] < 0:
                dist[s] = 0
                level.append(s)
        d = 0
        while level:
            d += 1
            nxt = []
            for x in level:
                for y in nbrs[x]:
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
            level = nxt
        return dist

    def bfs_distances(self, sources: Iterable[str]) -> dict[str, int]:
        """Multi-source BFS distances to every reachable vertex."""
        try:
            idx = [self.index[s] for s in sources]
        except KeyError as exc:
            raise InvalidInputError(f"unknown vertex {exc.args[0]!r}") from None
        return {v: d for v, d in zip(self.vertices, self._bfs(idx)) if d >= 0}

    def distance_rows(self, sources: Iterable[int]) -> np.ndarray:
        """BFS distances from each source index, one int32 row per source;
        -1 marks an unreachable vertex."""
        import numpy as np

        sources = list(sources)
        rows = np.empty((len(sources), len(self.vertices)), dtype=np.int32)
        for r, i in enumerate(sources):  # one BFS list alive at a time
            rows[r] = self._bfs((i,))
        return rows

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances as int32 (requires connectivity)."""
        if not self.is_connected:
            raise InvalidInputError("distance matrix requested on a disconnected graph")
        return self.distance_rows(range(len(self.vertices)))

    def distance(self, u: str, v: str) -> int:
        return int(self.distance_matrix[self.index[u], self.index[v]])

    def eccentricity(self, v: str) -> int:
        return int(self.distance_matrix[self.index[v]].max())


def relabeled(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """Copy of ``g`` with vertices renamed through a bijection."""
    if sorted(mapping) != sorted(g.vertices) or len(set(mapping.values())) != len(g.vertices):
        raise InvalidInputError("relabeling must be a bijection on the vertex set")
    return Graph(
        tuple(mapping[v] for v in g.vertices),
        frozenset(normalize_edge(mapping[u], mapping[v]) for u, v in g.edges),
        frozenset(mapping[v] for v in g.frontier),
    )


# ---------------------------------------------------------------------------
# Vertex functions
# ---------------------------------------------------------------------------


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
        out[v] = Fraction(raw)
    return out


def support(f: Mapping[str, Fraction]) -> frozenset[str]:
    return frozenset(v for v, x in f.items() if x != 0)


# ---------------------------------------------------------------------------
# Boundaries and ratios
# ---------------------------------------------------------------------------


def _check_subset(g: Graph, subset: Iterable[str]) -> frozenset[str]:
    a = frozenset(subset)
    if not a:
        raise InvalidInputError("the set A must be non-empty")
    unknown = a.difference(g.index)
    if unknown:
        raise InvalidInputError(f"A contains non-vertices: {sorted(unknown)}")
    return a


def boundary(g: Graph, subset: Iterable[str]) -> frozenset[str]:
    """Vertex boundary: all vertices at graph distance exactly 1 from the set."""
    a = _check_subset(g, subset)
    out: set[str] = set()
    for v in a:
        out.update(g.adjacency[v])
    return frozenset(out - a)


def cheeger_ratio(g: Graph, subset: Iterable[str]) -> Fraction:
    """|boundary(A)| / |A| as an exact rational."""
    a = _check_subset(g, subset)
    return Fraction(len(boundary(g, a)), len(a))


def admissible_vertices(g: Graph) -> frozenset[str]:
    """Vertices at distance >= 2 from the frontier (all vertices if no frontier)."""
    if not g.frontier:
        return frozenset(g.vertices)
    near = g.bfs_distances(g.frontier)
    return frozenset(v for v in g.vertices if near.get(v, 2) >= 2)


# ---------------------------------------------------------------------------
# Certified bounds
# ---------------------------------------------------------------------------


class BoundEndpoint(FrozenValue):
    """One certified endpoint of a Cheeger interval, with its provenance."""

    value: Fraction
    kind: str  # certificate | tree-theorem | decomposition-theorem | brute-force-window | trivial
    witness: Any
    horizon_certified: bool
    _fields = ("value", "kind", "witness", "horizon_certified")

    def __init__(
        self, value: Rational, kind: str, witness: Any = None, horizon_certified: bool = False
    ):
        self.__dict__.update(
            value=Fraction(value), kind=kind, witness=witness, horizon_certified=horizon_certified
        )
        if self.value < 0:
            raise InvalidInputError("bound endpoints are non-negative")


class CheegerBound(FrozenValue):
    """A certified interval [lower, upper] for a Cheeger constant.

    ``upper is None`` means +infinity (no upper evidence).  Every endpoint
    carries the witness that produced it.
    """

    lower: BoundEndpoint
    upper: BoundEndpoint | None
    _fields = ("lower", "upper")

    def __init__(self, lower: BoundEndpoint, upper: BoundEndpoint | None = None):
        self.__dict__.update(lower=lower, upper=upper)
        if self.upper is not None and self.lower.value > self.upper.value:
            raise InvalidInputError(
                f"inconsistent bound: lower {self.lower.value} > upper {self.upper.value}"
            )


def subset_count(n: int, max_size: int) -> int:
    """Number of non-empty subsets of an n-set with at most ``max_size`` elements."""
    return sum(comb(n, k) for k in range(1, max_size + 1))


def auto_max_size(n: int, budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Largest subset-size cap whose full enumeration stays within ``budget``."""
    m = 0
    while m < n and subset_count(n, m + 1) <= budget:
        m += 1
    if m == 0:
        raise BudgetExceededError(n, budget)
    return m


def _check_max_size(max_size: int, n: int) -> None:
    """Refuse a subset-size cap outside [1, n] for a window of n admissible vertices."""
    if not 1 <= max_size <= n:
        raise InvalidInputError(
            f"max_size must be in [1, {n}] (admissible vertices), got {max_size}"
        )


def _connected_bitsets(adj: list[int], carry: list[int], max_size: int):
    """Yield ``(set, acc)`` once for each connected set of at most ``max_size``
    vertices; vertex i is bit i, ``adj[i]`` its neighbours, ``acc`` the OR of
    ``carry`` over the set.  Exclusive-neighbourhood extension (ESU; Wernicke,
    IEEE/ACM TCBB 2006) on an explicit stack, twice as fast as recursion.

    An int L sent back is a limit: each set reached after it whose ``acc`` has
    more than L bits is neither yielded nor grown.  Every set grown from a set
    holds it, so its ``acc`` holds the smaller ``acc`` too, and the sets left
    out are exactly the unlimited enumeration's sets over L.  A plain ``for``
    loop sends None and gets every connected set, in the same order."""
    limit = reduce(or_, carry, 0).bit_length()  # no acc has more bits
    for v in range(len(adj)):
        above = -(2 << v)  # every bit position greater than v
        stack = [(0, 0, 1 << v, 0, 0)]  # (set, its neighbours, extension, acc, size)
        while stack:
            sub, nbrs, ext, acc, size = stack.pop()
            low = ext & -ext
            ext ^= low
            if ext:
                stack.append((sub, nbrs, ext, acc, size))
            w = low.bit_length() - 1
            sub |= low
            acc |= carry[w]
            if acc.bit_count() > limit:
                continue
            sent = yield sub, acc
            if sent is not None:
                limit = sent
            grown = ext | (adj[w] & above & ~nbrs)
            if size + 1 < max_size and grown:
                stack.append((sub, nbrs | adj[w], grown, acc, size + 1))


def _lex_less(x: int, y: int) -> bool:
    """Whether bit set ``x`` sorts before ``y`` as an increasing tuple: at their
    lowest differing bit j, the set holding j is first unless the other stops below j."""
    j = (x ^ y) & -(x ^ y)
    return bool(x & j and y >= j << 1 or y & j and x < j)


def interior_cheeger_bruteforce(
    g: Graph,
    max_size: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> CheegerBound:
    """Exact minimum of |dA|/|A| over every non-empty subset of admissible
    vertices with at most ``max_size`` elements.

    Admissible means distance >= 2 from the frontier, so each window ratio
    equals its value in the ambient graph and the minimum is a true upper
    bound for the ambient Cheeger constant.  The witness reported is the
    lexicographically smallest minimizing set.  ``budget`` bounds the count of
    all subsets up to the cap, checked before any work.

    At full cap (``max_size`` = the admissible count) no set is excluded, and
    the minimum is p/q - 1 for p/q the least |N[A]|/|A|, where N[A] = A + dA.
    A -> |N[A]| is a coverage function, so q|N[A]| - p|A| is submodular, and
    :func:`selection_cut.min_closed_ratio` finds p/q by a few minimum cuts
    (Dinkelbach's iteration over Picard's selection network).  It re-verifies
    the final flow in exact integers, and it returns U, the admissible
    vertices that cannot reach t in the final residual graph: the source side
    of the largest minimum cut, which is the inclusion-maximal minimizer.
    Minimizers are closed under union and intersection (for
    f(A) = |N[A]| - (p/q)|A| >= 0, f(M + U) + f(M & U) <= f(M) + f(U) = 0),
    so every minimizer M lies inside U.  The witness is the shortest prefix P
    of U in name order whose ratio is p/q.  A minimizer M other than P cannot
    sort before it: M is not a shorter prefix of U, by the choice of P; if P
    is a prefix of M, P sorts first; otherwise M and P first differ at a
    position where P holds the next element u of U and M, a subset of U,
    skips u for a larger element, so P sorts first again.  A flow that fails
    its check, or a U with no prefix of ratio p/q, raises ConstructionError.

    Below full cap a scan enumerates the sets connected in G^2 (distance <= 2
    joins): a set's G^2-components lie at distance >= 3, so its ratio is a
    mediant of theirs, and the minimizers are the unions of far-apart
    G^2-connected ones.

    The scan is a branch and bound on the closed neighbourhood N[S] = S + dS,
    whose size the enumerator already holds as the bit count of ``acc``.  Let
    m = ``max_size`` and b/s the best ratio so far.  Every set S' of at most m
    vertices with |N[S']| > L = floor(m(b + s)/s) has ratio
    |N[S']|/|S'| - 1 >= |N[S']|/m - 1 > b/s, so it can neither beat nor tie the
    best, and nor can any set grown from it, as N[S'] only grows.  The oracle
    sends L to the enumerator each time the best ratio falls.  Ties are never
    lost: a minimizer M of ratio r <= b/s has |N[M]| = |M|(1 + r) <= m(1 + b/s),
    so |N[M]| <= L, and the sets M grows from have smaller N[.].
    """
    adm = sorted(admissible_vertices(g))
    if not adm:
        raise EmptyWindowError("no vertex is at distance >= 2 from the frontier")
    _check_max_size(max_size, len(adm))
    required = subset_count(len(adm), max_size)
    if required > budget:
        raise BudgetExceededError(required, budget)

    # bit i is adm[i] for i < n, so bit order is name order; other vertices follow
    n = len(adm)
    pos = {v: i for i, v in enumerate(adm + sorted(set(g.vertices) - set(adm)))}
    closed = {v: sum(1 << pos[u] for u in g.adjacency[v] | {v}) for v in pos}
    if max_size == n:
        from .selection_cut import min_closed_ratio

        p, q, maximal = min_closed_ratio([closed[v] for v in adm])
        prefix = covered = 0
        for i in range(n):
            if maximal >> i & 1:
                prefix |= 1 << i
                covered |= closed[adm[i]]
                if covered.bit_count() * q == p * prefix.bit_count():
                    break
        else:
            raise ConstructionError(f"no prefix of the maximal minimizer has ratio {p}/{q}")
        return _oracle_result(g, adm, prefix, Fraction(p - q, q), max_size)

    square = [  # G^2 on the admissible vertices
        reduce(or_, map(closed.get, g.adjacency[v]), 0) & ((1 << n) - 1) & ~(1 << i)
        for i, v in enumerate(adm)
    ]

    # ratio best_b/best_s (first above all), its lex-smallest minimizer, the least
    # size of one, and the minimizers below the cap; ``limit`` is the closed-
    # neighbourhood size past which a set loses to the best, sent when it falls
    best_b, best_s, lex_min, least, tied = 1, 0, 0, 0, []
    sets = _connected_bitsets(square, [closed[v] for v in adm], max_size)
    limit = None
    while True:
        try:
            sub, acc = sets.send(limit)
        except StopIteration:
            break
        s = sub.bit_count()
        b, limit = acc.bit_count() - s, None
        if b * best_s < best_b * s:
            best_b, best_s, lex_min, least, tied = b, s, sub, s, []
            limit = max_size * (b + s) // s
        elif b * best_s > best_b * s:
            continue
        elif _lex_less(sub, lex_min):
            lex_min = sub
        least = min(least, s)
        if s < max_size:
            tied.append((sub, acc, s))

    # Unions of pairwise distance->=3 minimizers, parts in lex order.  Extensions
    # add only bits above the last part's lowest, so a union that differs from
    # lex_min on those bits cannot lead below lex_min.
    tied = sorted((t for t in tied if t[2] + least <= max_size),
                  key=lambda t: [i for i in range(n) if t[0] >> i & 1])
    stack = [(0, 0, 0, 0, 0)]  # (next part, union, its closed neighbourhood, size, bits fixed)
    while stack:
        start, union, covered, size, fixed = stack.pop()
        if (union ^ lex_min) & fixed:
            continue
        for i in reversed(range(start, len(tied))):  # lex-smallest part is popped first
            sub, acc, s = tied[i]
            if acc & covered or size + s > max_size:
                continue
            grown = union | sub
            if _lex_less(grown, lex_min):
                lex_min = grown
            if size + s + least <= max_size:
                stack.append((i + 1, grown, covered | acc, size + s, (sub & -sub) * 2 - 1))
    return _oracle_result(g, adm, lex_min, Fraction(best_b, best_s), max_size)


def _oracle_result(
    g: Graph, adm: list[str], witness_bits: int, value: Fraction, max_size: int
) -> CheegerBound:
    """The window oracle's result: ``value`` with the admissible vertices of
    ``witness_bits`` (bit i is ``adm[i]``) as witness."""
    witness = tuple(v for i, v in enumerate(adm) if witness_bits >> i & 1)
    upper = BoundEndpoint(
        value,
        "brute-force-window",
        witness={"set": witness, "boundary_size": len(boundary(g, witness)), "max_size": max_size},
        horizon_certified=bool(g.frontier),
    )
    return CheegerBound(lower=BoundEndpoint(Fraction(0), "trivial"), upper=upper)


def window_bound(
    g: Graph, max_size: int | None = None, budget: int = DEFAULT_SUBSET_BUDGET
) -> CheegerBound:
    """The window's upper endpoint: :func:`interior_cheeger_bruteforce` at cap
    ``max_size``, or, when it is None, at the largest cap whose enumeration of
    the admissible vertices fits ``budget``.  The witness records the cap as
    ``max_size``.  Raises EmptyWindowError when no vertex is admissible."""
    if max_size is None:
        adm = admissible_vertices(g)
        if not adm:
            raise EmptyWindowError("no vertex is at distance >= 2 from the frontier")
        max_size = auto_max_size(len(adm), budget)
    return interior_cheeger_bruteforce(g, max_size, budget)


# ---------------------------------------------------------------------------
# Discrete calculus
# ---------------------------------------------------------------------------


def gradient(g: Graph, f: Mapping[str, Fraction], x: str, y: str) -> Fraction:
    """Edge gradient f(y) - f(x) for an edge xy, else 0."""
    if x not in g.adjacency or y not in g.adjacency:
        raise InvalidInputError(f"unknown vertex in pair ({x!r}, {y!r})")
    if y in g.adjacency[x]:
        return Fraction(f[y]) - Fraction(f[x])
    return Fraction(0)


def laplacian(g: Graph, f: Mapping[str, Rational], x: str) -> Fraction:
    """Averaged Laplacian (1/|N(x)|) * sum of f(y)-f(x) over neighbors y,
    summed first and divided once, so an integer f stays in integer arithmetic."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise InvalidInputError(f"vertex {x!r} is isolated; Laplacian undefined")
    n = len(nbrs)
    try:
        return Fraction(sum(map(f.__getitem__, nbrs)) - n * f[x], n)
    except TypeError:  # a value such as "1/2" or 0.5: exact through Fraction()
        return Fraction(sum(map(Fraction, map(f.__getitem__, nbrs))) - n * Fraction(f[x]), n)


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
            lhs += laplacian(g, f, x) * g.degree(x) * g2[x]
    cross = Fraction(0)
    for u, v in g.edges:
        cross += 2 * (f[v] - f[u]) * (g2[v] - g2[u])  # both orientations
    return lhs + cross / 2


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
    worst = min(vertices, key=partial(laplacian, g, f))
    return c1, laplacian(g, f, worst), worst


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
# Window generators (plumbing for tests, demos and the decomposition module)
# ---------------------------------------------------------------------------


def path_window(n: int, truncated: bool = True) -> Graph:
    """Path 1..n; with ``truncated`` both endpoints are marked as frontier."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    names = [str(i) for i in range(1, n + 1)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    frontier = {names[0], names[-1]} if truncated and n >= 2 else set()
    return Graph.from_edges(edges, vertices=names, frontier=frontier)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("need n >= 3")
    names = [str(i) for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return Graph.from_edges(edges, vertices=names)


def grid_window(rows: int, cols: int, truncated: bool = True) -> Graph:
    """rows x cols window of the square lattice; the border ring is the frontier."""
    if rows < 1 or cols < 1:
        raise InvalidInputError("need positive grid dimensions")
    names = [f"g{r}.{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"g{r}.{c}", f"g{r}.{c + 1}") for r in range(rows) for c in range(cols - 1)]
    edges += [(f"g{r}.{c}", f"g{r + 1}.{c}") for r in range(rows - 1) for c in range(cols)]
    frontier = set()
    if truncated:
        frontier = {
            f"g{r}.{c}"
            for r in range(rows)
            for c in range(cols)
            if r in (0, rows - 1) or c in (0, cols - 1)
        }
    return Graph.from_edges(edges, vertices=names, frontier=frontier)
