"""Finite graphs with unit-length edges and the exact Cheeger machinery on them.

Vertex boundaries, the BFS metric, certified bounds, and the subset budget
from which :func:`cheegerlab.window.window_bound` picks the window oracle's
size cap.  Everything combinatorial is computed in exact
`fractions.Fraction` arithmetic; floats never enter this module.  The window
oracle itself is in :mod:`cheegerlab.window`, the gradient/Laplacian
certificate in :mod:`cheegerlab.certificate`, and the paper's lemma checks
in :mod:`cheegerlab.lemmas`.

A graph may carry a *frontier*: the set of vertices where an infinite ambient
graph was cut off.  Window results are only ambient-faithful for sets that
keep distance >= 2 from the frontier, and the ops below enforce exactly that
discipline.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NoReturn, Sequence

# The budgets live in errors; graphs.DEFAULT_* still resolve.
from .errors import (
    DEFAULT_DELTA_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    InvalidInputError,
)
from .frozen import FrozenValue

if TYPE_CHECKING:
    import numpy as np

Rational = Fraction | int


def normalize_edge(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def _refuse_edges(bad: list[tuple[str, str]]) -> NoReturn:
    """Refuse invalid edges, naming the smallest offender whatever the hash
    seed: a self-loop, a pair out of canonical order or an undeclared
    endpoint."""
    u, v = min(bad)
    if u == v:
        raise InvalidInputError(f"self-loop at {u!r}")
    if u > v:
        raise InvalidInputError(f"edge {(u, v)!r} not in canonical order")
    raise InvalidInputError(f"edge {(u, v)!r} has undeclared endpoint")


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
        if bad:
            _refuse_edges(bad)
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
        """The graph on ``edges``, each an unordered pair of names, with the
        checks and messages of the constructor.  One pass over ``edges``
        normalizes them and builds :attr:`adjacency`; ``vertices``, when
        omitted, are the endpoints in sorted order."""
        declared = vertices is not None
        names = tuple(map(str, vertices)) if declared else ()
        nbrs: dict[str, set[str]] = {v: set() for v in names}
        if len(nbrs) != len(names):
            raise InvalidInputError("duplicate vertex identifiers")
        pairs = set()
        bad = []
        for a, b in edges:  # one str() per endpoint
            u, v = str(a), str(b)
            if v < u:
                u, v = v, u
            pairs.add((u, v))
            nu, nv = nbrs.get(u), nbrs.get(v)
            if nu is None or nv is None or u == v:  # an offender, or a new name
                if declared or u == v:
                    bad.append((u, v))
                    continue
                nu, nv = nbrs.setdefault(u, set()), nbrs.setdefault(v, set())
            nu.add(v)
            nv.add(u)
        if bad:
            _refuse_edges(bad)
        if not declared:
            names = tuple(sorted(nbrs))
        marks = frozenset(map(str, frontier))
        if not marks.issubset(nbrs):
            raise InvalidInputError("frontier contains undeclared vertices")
        g = cls.__new__(cls)
        g.__dict__.update(
            vertices=names, edges=frozenset(pairs), frontier=marks,
            adjacency={v: frozenset(nbrs[v]) for v in names},
        )
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
        """At most one component: a search from the first vertex reaches all."""
        adj = self.adjacency
        reached = set(self.vertices[:1])
        stack = list(reached)
        for x in stack:
            for y in adj[x]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        return len(reached) == len(adj)

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


def _subset_counts(n: int):
    """Yields ``subset_count(n, k)`` for k = 1, ..., n, each term C(n, k) from
    the one before by C(n, k) = C(n, k - 1)(n - k + 1)/k.  The k-th sum is at
    least 2^(k - 1), so a scan that stops once the sum passes a cap takes at
    most log2(cap) + 2 steps, however large n is."""
    total, term = 0, 1
    for k in range(1, n + 1):
        term = term * (n - k + 1) // k
        total += term
        yield total


def capped_subset_count(n: int, max_size: int, cap: int) -> int | None:
    """``subset_count(n, max_size)`` if it is at most ``cap``, else None, for
    1 <= ``max_size`` <= n; the sum stops as soon as it passes ``cap``, and at
    full cap the count is 2^n - 1."""
    if max_size == n:
        total = (1 << n) - 1
        return total if total <= cap else None
    for k, total in enumerate(_subset_counts(n), 1):
        if total > cap:
            return None
        if k == max_size:
            return total


def auto_max_size(n: int, budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Largest subset-size cap whose full enumeration stays within ``budget``."""
    m = 0
    if (1 << n) - 1 <= budget:
        m = n
    else:
        for m, total in enumerate(_subset_counts(n)):  # m = k - 1 at the k-th sum
            if total > budget:
                break
    if m == 0:
        raise BudgetExceededError(n, budget)
    return m


def _check_max_size(max_size: int, n: int) -> None:
    """Refuse a subset-size cap outside [1, n] for a window of n admissible vertices."""
    if not 1 <= max_size <= n:
        raise InvalidInputError(
            f"max_size must be in [1, {n}] (admissible vertices), got {max_size}"
        )


def __getattr__(name: str):
    # The benchmark's span list (perfbench/spans.py) traces the window oracle
    # as ``graphs.interior_cheeger_bruteforce``.  It lives in ``window``,
    # imported here on first access only, so the commands that never run it
    # never compile it.  Drop this forwarder once the span list names
    # ``window``.
    if name == "interior_cheeger_bruteforce":
        from .window import interior_cheeger_bruteforce

        return interior_cheeger_bruteforce
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
