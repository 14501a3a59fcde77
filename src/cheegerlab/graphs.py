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
from operator import index, or_
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
        pairs = set()
        for a, b in edges:  # one pass, one str() per endpoint
            u, v = str(a), str(b)
            pairs.add((u, v) if u <= v else (v, u))
        edge_set = frozenset(pairs)
        if vertices is None:
            names = sorted({x for e in edge_set for x in e})
        else:
            names = list(map(str, vertices))
        g = cls(tuple(names), edge_set, frozenset(map(str, frontier)))
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
            comp = [remaining.pop()]
            for x in comp:
                for y in self.adjacency[x]:
                    if y in remaining:
                        remaining.remove(y)
                        comp.append(y)
            out.append(frozenset(comp))
        return sorted(out, key=min)

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


def _connected_bitsets(adj: list[int], max_size: int):
    """Yield each connected set of at most ``max_size`` vertices once, as a bit
    set: vertex i is bit i and ``adj[i]`` its neighbours.  Exclusive-
    neighbourhood extension (ESU; Wernicke, IEEE/ACM TCBB 2006) on an explicit
    stack, twice as fast as recursion: each set grows only by vertices above
    its lowest one that no earlier member neighbours."""
    for v in range(len(adj)):
        above = -(2 << v)  # every bit position greater than v
        stack = [(0, 0, 1 << v, 0)]  # (set, its neighbours, extension, size)
        while stack:
            sub, nbrs, ext, size = stack.pop()
            low = ext & -ext
            ext ^= low
            if ext:
                stack.append((sub, nbrs, ext, size))
            w = low.bit_length() - 1
            sub |= low
            yield sub
            grown = ext | (adj[w] & above & ~nbrs)
            if size + 1 < max_size and grown:
                stack.append((sub, nbrs | adj[w], grown, size + 1))


def _members(x: int) -> list[int]:
    """The set bits of ``x``, lowest first: the lists compare as the sets sort
    as increasing tuples, a proper prefix first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _window_scan(square: list[int], closed: list[int], max_size: int):
    """The scan below full cap: ``(b, s, tied, judged)`` for b/s the least
    ratio |N[S]|/|S| - 1 over the sets S of at most ``max_size`` vertices
    connected in ``square`` (G^2; vertex i is bit i), with N[S] the OR of
    ``closed`` over S; ``tied`` the ``(set, N[set], size)`` of every minimizer,
    and ``judged`` how many sets came within the limit thr[m].  The enumeration
    is :func:`_connected_bitsets`'s, except that each popped set builds all its
    children at once and judges each as it is built."""
    m = max_size
    # thr[k]: the largest |N[S]| with which a k-set ties or beats the best so
    # far; before the first set, every N[S] fits
    thr = [reduce(or_, closed, 0).bit_count()] * (m + 1)
    limit = thr[m]
    best_b, best_s, tied, judged = 1, 0, [], 0
    for v in range(len(square)):
        above = -(2 << v)  # every bit position greater than v
        stack = [(0, 0, 1 << v, 0, 0)]  # (set, its neighbours, extension, N[set], size)
        # not ``while stack``: CPython 3.11 specializes a function's bytecode
        # only after eight calls or unconditional backward jumps, and a
        # conditional loop ends in a conditional one, so the one call a CLI
        # process makes would run its costly first roots unspecialized
        while True:
            if not stack:
                break
            sub, nbrs, ext, acc, size = stack.pop()
            size += 1  # each child's size
            cut, grow, rest = thr[size], size < m, 0
            while ext:  # highest bit first, so the lowest child is popped first
                w = ext.bit_length() - 1
                low = 1 << w
                ext ^= low
                grown = acc | closed[w]
                c = grown.bit_count()
                if c <= limit:
                    judged += 1
                    child = sub | low
                    if c <= cut:
                        b = c - size
                        if b * best_s < best_b * size:
                            best_b, best_s, tied = b, size, []
                            thr = [(b + size) * k // size for k in range(m + 1)]
                            cut, limit = thr[size], thr[m]
                        tied.append((child, grown, size))
                    if grow:
                        x = rest | (square[w] & above & ~nbrs)
                        if x:
                            stack.append((child, nbrs | square[w], x, grown, size))
                rest |= low
    return best_b, best_s, tied, judged


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
    G^2-connected ones.  The scan returns every G^2-connected minimizer; they
    are sorted once, and the witness is the least of them and their unions.

    The scan (:func:`_window_scan`) is a branch and bound on the closed
    neighbourhood N[S] = S + dS, carried as a bit set along the enumeration.
    Let m = ``max_size`` and b/s the best ratio so far, and keep the table
    thr[k] = floor((b + s)k/s) for k <= m.  A k-set S ties or beats the best
    exactly when |N[S]|/k - 1 <= b/s, that is |N[S]| <= (b + s)k/s, that is
    |N[S]| <= thr[k] (|N[S]| is an integer), so each set is judged by one
    comparison as it is built.  A set S' with |N[S']| > thr[m] has ratio
    |N[S']|/|S'| - 1 >= |N[S']|/m - 1 > b/s, so it can neither beat nor tie the
    best, and nor can any set grown from it, as N[S'] only grows; it is
    dropped and not grown.  The table is rebuilt each time the best ratio
    falls, and its entries only fall.  Ties are never lost: a minimizer M of
    ratio r <= b/s has |N[M]| = |M|(1 + r) <= thr[|M|] <= thr[m] at every
    moment of the scan, and the sets M grows from have smaller N[.], so none
    of them is dropped either.
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
        for i in _members(maximal):
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

    best_b, best_s, tied, _ = _window_scan(square, [closed[v] for v in adm], max_size)
    tied.sort(key=lambda t: _members(t[0]))
    lex_min, least = tied[0][0], min(t[2] for t in tied)

    # Unions of pairwise distance->=3 minimizers, parts in lex order.  Extensions
    # add only bits above the last part's lowest, so a union that differs from
    # lex_min on those bits cannot lead below lex_min.
    tied = [t for t in tied if t[2] + least <= max_size]
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
            if _members(grown) < _members(lex_min):
                lex_min = grown
            if size + s + least <= max_size:
                stack.append((i + 1, grown, covered | acc, size + s, (sub & -sub) * 2 - 1))
    return _oracle_result(g, adm, lex_min, Fraction(best_b, best_s), max_size)


def _oracle_result(
    g: Graph, adm: list[str], witness_bits: int, value: Fraction, max_size: int
) -> CheegerBound:
    """The window oracle's result: ``value`` with the admissible vertices of
    ``witness_bits`` (bit i is ``adm[i]``) as witness, re-verified: a witness
    whose recounted ratio |dA|/|A| on ``g`` is not ``value`` raises ConstructionError."""
    witness = tuple(adm[i] for i in _members(witness_bits))
    b = len(boundary(g, witness))
    if not witness or Fraction(b, len(witness)) != value:
        raise ConstructionError(f"window witness has ratio {b}/{len(witness)}, not {value}")
    upper = BoundEndpoint(
        value,
        "brute-force-window",
        witness={"set": witness, "boundary_size": b, "max_size": max_size},
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
