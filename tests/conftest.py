"""Shared independent oracles for the test suite.

These deliberately re-implement definitions in the most literal way possible
(BFS over adjacency dicts, itertools enumeration, four nested loops) so that
library results are checked against code that shares nothing with them.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest


def bfs_dist(edges, source):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    dist = {source: 0}
    q = deque([source])
    while q:
        x = q.popleft()
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def oracle_boundary(vertices, edges, subset):
    """Vertices at BFS distance exactly 1 from the set."""
    out = set()
    for v in vertices:
        if v in subset:
            continue
        best = None
        for a in subset:
            d = bfs_dist(edges, a).get(v)
            if d is not None and (best is None or d < best):
                best = d
        if best == 1:
            out.add(v)
    return out


def oracle_adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def oracle_min_ratio(vertices, edges, candidates, max_size):
    """Minimum |boundary|/|set| over all non-empty subsets of ``candidates``
    with at most max_size elements, via plain itertools enumeration."""
    return oracle_min_ratio_witness(vertices, edges, candidates, max_size)[0]


def oracle_min_ratio_witness(vertices, edges, candidates, max_size):
    """(minimum ratio, lexicographically smallest sorted minimizing tuple)
    over the same subsets as :func:`oracle_min_ratio`."""
    adj = oracle_adjacency(edges)
    best = None
    for k in range(1, max_size + 1):
        for combo in combinations(sorted(candidates), k):
            bd = set()
            for v in combo:
                bd |= adj.get(v, set())
            bd -= set(combo)
            key = (Fraction(len(bd), len(combo)), combo)
            if best is None or key < best:
                best = key
    return best


def oracle_blocks(vertices, edges):
    """Biconnected blocks as vertex sets: two edges share a block iff no
    single vertex x leaves them in different components of G - x (an edge at
    x sides with its other endpoint)."""
    edges = [tuple(e) for e in edges]
    sides = []
    for x in vertices:
        rest = [e for e in edges if x not in e]
        comp = {}
        for v in vertices:
            if v != x and v not in comp:
                for w in bfs_dist(rest, v):
                    comp[w] = v
                comp[v] = v
        sides.append(
            [comp[e[0]] if e[0] != x else comp[e[1]] for e in edges]
        )
    classes = {}
    for k, e in enumerate(edges):
        classes.setdefault(tuple(side[k] for side in sides), set()).update(e)
    return {frozenset(c) for c in classes.values()}


def oracle_delta(vertices, edges):
    """Sharp four-point constant by four nested loops over ordered tuples."""
    dist = {v: bfs_dist(edges, v) for v in vertices}
    best = Fraction(0)
    for x in vertices:
        for y in vertices:
            for z in vertices:
                for o in vertices:
                    gp = lambda a, b: Fraction(dist[a][o] + dist[b][o] - dist[a][b], 2)
                    val = min(gp(x, z), gp(z, y)) - gp(x, y)
                    if val > best:
                        best = val
    return best


def oracle_random_branching(depth, seed, min_children=2, max_children=3):
    """(children, live) of the seeded branching tree, level by level: one
    ``default_rng(seed).integers`` draw per vertex, in frontier order, picks
    its child count; children append a digit ("v." + digit under the root)."""
    rng = np.random.default_rng(seed)
    children = {}
    frontier = ["v"]
    for _ in range(depth):
        nxt = []
        for name in frontier:
            count = int(rng.integers(min_children, max_children + 1))
            kids = [(name + "." if name == "v" else name) + str(i) for i in range(count)]
            children[name] = tuple(kids)
            nxt += kids
        frontier = nxt
    for name in frontier:
        children[name] = ()
    return children, set(frontier)


def oracle_pseudo_regularity(root, children, live):
    """(K, horizon, defect chain) of a rooted tree.

    T_inf is the union of the root paths of the live leaves.  K is the least
    k in [1, horizon] such that every T_inf vertex a at depth <= horizon - k
    has at least two T_inf vertices exactly k levels deeper whose root path
    passes through a.  Without such a k, the single-child chain is walked
    from every non-root T_inf vertex; the defect vertex has the longest,
    ties going to the shallower and then the smaller name, and the defect
    chain is that vertex's chain (empty when K exists)."""
    parent = {c: p for p, kids in children.items() for c in kids}
    paths = {}
    for v in children:
        path = [v]
        while path[-1] != root:
            path.append(parent[path[-1]])
        paths[v] = path
    depth = {v: len(path) - 1 for v, path in paths.items()}
    horizon = max(depth.values())
    tinf = {x for leaf in live for x in paths[leaf]}
    for k in range(1, horizon + 1):
        if all(
            sum(1 for y in tinf if depth[y] == depth[a] + k and a in paths[y]) >= 2
            for a in tinf
            if depth[a] <= horizon - k
        ):
            return k, horizon, ()
    chains = {}
    for a in tinf - {root}:
        chain = [a]
        while len(children[chain[-1]]) == 1:
            chain.append(children[chain[-1]][0])
        chains[a] = chain
    vertex = min(chains, key=lambda a: (-len(chains[a]), depth[a], a))
    return None, horizon, tuple(chains[vertex])


def oracle_triangle_worst(dist):
    """Largest d(i,j) - d(i,k) - d(k,j) over all ordered triples, in exact
    Fractions (every binary64 distance is a dyadic rational)."""
    d = [[Fraction(float(x)) for x in row] for row in dist]
    n = len(d)
    return max(
        d[i][j] - d[i][k] - d[k][j] for i in range(n) for j in range(n) for k in range(n)
    )


def oracle_greedy_separated(points, dist, r):
    """Greedy r-separated subset in input order: a point is kept iff it lies
    at distance >= r from every point kept before it."""
    kept = []
    for i in range(len(points)):
        if all(dist[i][j] >= r for j in kept):
            kept.append(i)
    return tuple(points[i] for i in kept)


def oracle_perfectness(points, dist, constant, form, eps0, floor, grid=()):
    """(holds, witness, checked_eps) of a perfectness check, scale by scale.

    The checked scales are floor, eps0, the grid and every d(x, y), x != y,
    within [floor, eps0].  For each in increasing order and each point x in
    index order, the closed ball B(x, eps) is listed; the one-point form asks
    for a ball point beyond eps / constant (its radius above it), the
    two-point form for two ball points more than eps / constant apart (its
    diameter above it).  The first (point, eps) where that fails is the
    witness."""
    d = [[float(v) for v in row] for row in dist]
    n = len(d)
    scales = sorted(
        {d[x][y] for x in range(n) for y in range(n) if x != y and floor <= d[x][y] <= eps0}
        | {float(floor), float(eps0)}
        | {float(e) for e in grid}
    )
    for eps in scales:
        for x in range(n):
            ball = [y for y in range(n) if d[x][y] <= eps]
            if form == "one-point":
                reaches = any(d[x][y] > eps / constant for y in ball)
            else:
                reaches = any(d[a][b] > eps / constant for a in ball for b in ball)
            if not reaches:
                return False, (points[x], eps), len(scales)
    return True, None, len(scales)


def oracle_net_edges(points, dist, eps):
    """Edges of the eps-net: pairs of greedy eps-separated points at distance
    <= 2*eps, one pair at a time."""
    at = {p: i for i, p in enumerate(points)}
    kept = oracle_greedy_separated(points, dist, eps)
    return {
        tuple(sorted((a, b)))
        for a, b in combinations(kept, 2)
        if dist[at[a]][at[b]] <= 2 * eps
    }


def oracle_approximation_edges(points, dist, r, k0, k_max):
    """Edges of the truncated approximation, one vertex pair at a time, on
    the greedy r^k-separated levels: horizontal iff some x lies in both
    closed balls of radius 2 r^k, radial iff every x in the upper open ball
    lies in the lower open ball."""
    at = {p: i for i, p in enumerate(points)}
    levels = {k: oracle_greedy_separated(points, dist, r**k) for k in range(k0, k_max + 1)}
    edges = set()
    for k in range(k0, k_max + 1):
        rad = 2 * r**k
        for a, b in combinations(levels[k], 2):
            if any(dist[at[a]][x] <= rad and dist[at[b]][x] <= rad for x in range(len(points))):
                edges.add(tuple(sorted((f"L{k}:{a}", f"L{k}:{b}"))))
        if k == k_max:
            continue
        rad_up = 2 * r ** (k + 1)
        for a in levels[k]:
            for b in levels[k + 1]:
                if all(dist[at[a]][x] < rad for x in range(len(points)) if dist[at[b]][x] < rad_up):
                    edges.add(tuple(sorted((f"L{k}:{a}", f"L{k + 1}:{b}"))))
    return edges


def oracle_level_certificate(vertices, edges, level, k0, k_max):
    """The gradient/Laplacian certificate of the level function, from its
    definition: c1 the largest |level step| over the edges, c2 the least
    (1/deg v) * sum of level steps over the vertices v with k0 < level < k_max
    (the first in ``vertices`` order on ties), and the bound c2/(mu*c1) when
    c2 > 0, else None.  Returns (c1, c2, minimizer, bound)."""
    adj = oracle_adjacency(edges)
    c1 = max((abs(level[u] - level[v]) for u, v in edges), default=0)
    mu = max(len(adj.get(v, ())) for v in vertices)
    c2 = worst = None
    for v in vertices:
        if k0 < level[v] < k_max:
            lap = sum(Fraction(level[w] - level[v], len(adj[v])) for w in adj[v])
            if c2 is None or lap < c2:
                c2, worst = lap, v
    return c1, c2, worst, c2 / (mu * c1) if c2 > 0 else None


def oracle_json_bytes(payload):
    """The canonical document bytes straight from the standard library."""
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def oracle_piece_tree(g, piece, root):
    """The tree piece in two steps: the piece is a tree when it has n - 1
    inner edges and a BFS from the root (any vertex, when the root lies
    outside) reaches all of it; a vertex's children are the new neighbours
    BFS finds there, sorted; then the validating ``RootedTree`` walks the
    children map again."""
    from cheegerlab import InvalidInputError, RootedTree

    adj = g.adjacency
    piece = piece & adj.keys()
    if sum(len(adj[v] & piece) for v in piece) != 2 * (len(piece) - 1):
        raise InvalidInputError("piece is not a tree")
    start = root if root in piece else next(iter(piece))
    seen = {start}
    level = [start]
    children = {}
    while level:
        nxt = []
        for x in level:
            kids = tuple(sorted(y for y in adj[x] if y in piece and y not in seen))
            seen.update(kids)
            children[x] = kids
            nxt.extend(kids)
        level = nxt
    if len(seen) != len(piece):
        raise InvalidInputError("piece is not a tree")
    if root not in piece:
        raise InvalidInputError(f"root {root!r} is not a vertex of the piece")
    return RootedTree(root, children, (g.frontier & piece) - {root})


def oracle_shared_edges(edges, pieces):
    """{(a, b): smallest edge with both ends in pieces a and b} over the
    piece-name pairs a < b that share an edge, one pair at a time."""
    out = {}
    for a, b in combinations(sorted(pieces), 2):
        common = [e for e in edges if set(e) <= pieces[a] & pieces[b]]
        if common:
            out[a, b] = min(common)
    return out


def oracle_piece_clauses(vertices, edges, pieces):
    """The structural violations of a decomposition with pieces ``pieces``
    (name -> vertex set), in report order, with every pair of pieces
    compared: each piece's smallest unknown vertex (in the pieces' own
    order), the smallest uncovered vertex, each set of two or more names of
    equal pieces, then per name pair a < b of pieces that no smaller name
    equals the smallest shared edge, "a in b" and "b in a"."""
    out = []
    for name, verts in pieces.items():
        unknown = sorted(set(verts) - set(vertices))
        if unknown:
            out.append(f"piece {name!r} contains unknown vertex {unknown[0]!r}")
    missing = sorted(set(vertices) - set().union(*pieces.values()))
    if missing:
        out.append(f"cover misses vertex {missing[0]!r}")
    first = []  # names of pieces that no smaller name equals
    for name in sorted(pieces):
        equal = [b for b in sorted(pieces) if set(pieces[b]) == set(pieces[name])]
        if equal[0] == name:
            first.append(name)
            if len(equal) > 1:
                out.append(f"pieces {', '.join(map(repr, equal))} have equal vertex sets")
    shared = oracle_shared_edges(edges, pieces)
    for a, b in combinations(first, 2):
        if (a, b) in shared:
            u, v = shared[a, b]
            out.append(
                f"pieces {a!r} and {b!r} share the edge {u}--{v}; "
                "intersections must be vertex sets"
            )
        if pieces[a] <= pieces[b]:
            out.append(f"piece {a!r} is contained in {b!r}")
        if pieces[b] <= pieces[a]:
            out.append(f"piece {b!r} is contained in {a!r}")
    return out


def oracle_components(edges, within):
    """Components of the subgraph induced on ``within``: one BFS from every
    vertex, duplicates merged, ordered by their smallest vertex."""
    inner = [e for e in edges if set(e) <= set(within)]
    return sorted({frozenset(bfs_dist(inner, v)) for v in within}, key=min)


@pytest.fixture
def rng_seeds():
    return list(range(10))
