"""Graph core: boundaries, ratios, the brute-force oracle, discrete calculus,
certificates and the quasi-isometry checker."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import (
    BudgetExceededError,
    ConstructionError,
    EmptyWindowError,
    Graph,
    InvalidInputError,
    InvalidSupportError,
    graphs,
    window,
)

from conftest import (
    bfs_dist,
    oracle_adjacency,
    oracle_blocks,
    oracle_boundary,
    oracle_components,
    oracle_min_ratio,
    oracle_min_ratio_witness,
)


def p5():
    return cl.path_window(5, truncated=False)


def tri_path():
    return Graph.from_edges([("a", "c"), ("c", "b")])


# -- construction and validation ---------------------------------------------


def test_rejects_self_loop():
    with pytest.raises(InvalidInputError):
        Graph.from_edges([("a", "a")], vertices=["a"])


def test_rejects_undeclared_endpoint():
    with pytest.raises(InvalidInputError):
        Graph(("a",), frozenset({("a", "b")}))


def test_edge_errors_name_the_smallest_offender_under_every_hash_seed():
    # ('a', 'x') and ('b', 'y') both have an undeclared endpoint; the edge set
    # iterates in a different order under seeds 0 and 2
    script = (
        "import cheegerlab as cl\n"
        "for edges in ({('a', 'x'), ('b', 'y'), ('a', 'b')}, {('b', 'a'), ('a', 'a')},\n"
        "              {('b', 'a'), ('b', 'x')}):\n"
        "    try:\n"
        "        cl.Graph(('a', 'b'), frozenset(edges))\n"
        "    except cl.InvalidInputError as exc:\n"
        "        print(exc)\n"
    )
    for seed in (0, 1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "edge ('a', 'x') has undeclared endpoint", "self-loop at 'a'",
            "edge ('b', 'a') not in canonical order",
        ], seed


def test_rejects_disconnected_by_default():
    with pytest.raises(InvalidInputError):
        Graph.from_edges([("a", "b"), ("c", "d")])
    g = Graph.from_edges([("a", "b"), ("c", "d")], require_connected=False)
    assert not g.is_connected


def _random_connected_graph(seed, n):
    rng = np.random.default_rng(seed)
    edges = {(f"n{int(rng.integers(0, i))}", f"n{i}") for i in range(1, n)}
    for _ in range(n):
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i != j:
            edges.add((f"n{i}", f"n{j}"))
    return Graph.from_edges(edges)


BFS_GRAPHS = {
    "tree12": lambda: cl.random_tree(12, 0).graph,
    "tree60": lambda: cl.random_tree(60, 1).graph,
    "grid5x7": lambda: cl.grid_window(5, 7),
    "grid9x9": lambda: cl.grid_window(9, 9),
    "random15": lambda: _random_connected_graph(0, 15),
    "random40": lambda: _random_connected_graph(1, 40),
    "graft": lambda: cl.graft(cl.grid_window(3, 4), cl.homogeneous_tree(3, 2).graph, "v").graph,
}


@pytest.mark.parametrize("name", sorted(BFS_GRAPHS))
def test_bfs_and_distance_matrix_match_oracle(name):
    g = BFS_GRAPHS[name]()
    rows = {v: bfs_dist(g.edges, v) for v in g.vertices}
    dmat = g.distance_matrix
    assert dmat.dtype == np.int32
    assert dmat.tolist() == [[rows[u][v] for v in g.vertices] for u in g.vertices]
    rng = np.random.default_rng(len(g.vertices))
    for k in (1, 2, 5):
        sources = [g.vertices[int(i)] for i in rng.integers(0, len(g.vertices), size=k)]
        expected = {v: min(rows[s][v] for s in sources) for v in g.vertices}
        assert g.bfs_distances(sources) == expected
    if g.frontier:
        assert g.bfs_distances(g.frontier) == {
            v: min(rows[s][v] for s in g.frontier) for v in g.vertices
        }


def test_bfs_on_disconnected_graph_and_unknown_source():
    g = Graph.from_edges([("a", "b"), ("c", "d"), ("d", "e")], require_connected=False)
    with pytest.raises(InvalidInputError, match="disconnected"):
        g.distance_matrix
    assert g.bfs_distances(["a"]) == {"a": 0, "b": 1}
    assert g.bfs_distances(["b", "e"]) == {"a": 1, "b": 0, "c": 2, "d": 1, "e": 0}
    with pytest.raises(InvalidInputError, match="unknown vertex"):
        g.bfs_distances(["a", "z"])


def test_cli_import_loads_no_scipy():
    code = "import sys, cheegerlab.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_components_of_graph_and_of_vertex_subset():
    g = Graph.from_edges(
        [("d", "e"), ("a", "b"), ("b", "c"), ("x", "y")],
        vertices=["x", "y", "e", "d", "c", "b", "a", "z"],
        require_connected=False,
    )
    assert g.components() == [{"a", "b", "c"}, {"d", "e"}, {"x", "y"}, {"z"}]
    assert not g.is_connected
    # removing the middle of a-b-c splits it; order is by smallest vertex
    assert g.components({"y", "c", "a", "e"}) == [{"a"}, {"c"}, {"e"}, {"y"}]
    assert g.components({"c", "b", "x"}) == [{"b", "c"}, {"x"}]
    assert g.components(()) == []
    assert cl.path_window(5).components() == [frozenset("12345")]
    with pytest.raises(InvalidInputError):
        g.components({"a", "q"})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_components_match_the_literal_oracle(data):
    names = [f"v{i}" for i in range(data.draw(st.integers(1, 12)))]
    pairs = data.draw(st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names))))
    g = Graph.from_edges([e for e in pairs if e[0] != e[1]], names, require_connected=False)
    within = data.draw(st.sets(st.sampled_from(names)))
    assert g.components(within) == oracle_components(g.edges, within)
    assert g.components() == oracle_components(g.edges, names)


def test_many_isolated_vertices_decide_connectivity_in_linear_time():
    # a start vertex taken as the minimum of all that is left makes this quadratic
    g = Graph(tuple(f"v{i}" for i in range(20_000)), frozenset(), frozenset())
    started = time.perf_counter()
    assert not g.is_connected
    assert time.perf_counter() - started < 1.0
    assert [min(c) for c in g.components()[:3]] == ["v0", "v1", "v10"]


@pytest.mark.parametrize("name", sorted(BFS_GRAPHS))
def test_induced_matches_literal_filter(name):
    g = BFS_GRAPHS[name]()
    # the same vertices listed backwards, so the vertex order is not sorted order
    back = Graph(g.vertices[::-1], g.edges, g.frontier)
    rng = np.random.default_rng(len(g.vertices))
    for graph in (g, back):
        for _ in range(4):
            keep = {v for v in graph.vertices if rng.random() < 0.6} | {"no-such-vertex"}
            sub = graph.induced(keep)
            assert sub.vertices == tuple(v for v in graph.vertices if v in keep)
            assert sub.edges == frozenset(e for e in graph.edges if set(e) <= keep)
            assert sub.frontier == graph.frontier & keep


@pytest.mark.parametrize("name", sorted(BFS_GRAPHS))
def test_blocks_match_oracle(name):
    g = BFS_GRAPHS[name]()
    blocks = g.blocks()
    assert blocks == sorted(blocks) and all(list(b) == sorted(b) for b in blocks)
    found = [frozenset(g.vertices[i] for i in b) for b in blocks]
    assert len(found) == len(set(found))
    assert set(found) == oracle_blocks(g.vertices, g.edges)


def test_blocks_of_small_and_disconnected_graphs():
    assert Graph(("a",), frozenset()).blocks() == []
    # a triangle and a pendant edge at c, a separate edge, an isolated z
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("x", "y")],
        vertices=["a", "b", "c", "d", "x", "y", "z"],
        require_connected=False,
    )
    assert g.blocks() == [(0, 1, 2), (2, 3), (4, 5)]
    assert cl.cycle_graph(6).blocks() == [tuple(range(6))]


def test_rejects_frontier_outside_vertices():
    with pytest.raises(InvalidInputError):
        Graph(("a", "b"), frozenset({("a", "b")}), frozenset({"z"}))


def test_mu_is_max_degree():
    t = cl.homogeneous_tree(3, 3)
    assert t.graph.mu == 3
    assert cl.grid_window(5, 5).mu == 4


# -- boundary and ratio --------------------------------------------------------


def test_boundary_middle_of_path():
    assert cl.boundary(p5(), {"3"}) == {"2", "4"}


def test_boundary_of_everything_is_empty():
    assert cl.boundary(p5(), {"1", "2", "3", "4", "5"}) == frozenset()


def test_boundary_shared_vertex_counted_once():
    assert cl.boundary(tri_path(), {"a", "b"}) == {"c"}


def test_boundary_rejects_empty_and_foreign_sets():
    with pytest.raises(InvalidInputError):
        cl.boundary(p5(), set())
    with pytest.raises(InvalidInputError):
        cl.boundary(p5(), {"zzz"})


def test_cheeger_ratio_examples():
    assert cl.cheeger_ratio(p5(), {"3"}) == 2
    assert cl.cheeger_ratio(p5(), {"2", "3", "4"}) == Fraction(2, 3)


def test_disconnected_set_beats_connected_pieces():
    g = tri_path()
    assert cl.cheeger_ratio(g, {"a", "b"}) == Fraction(1, 2)
    # oracle: enumerate every proper subset of the 3-vertex path
    best = oracle_min_ratio(g.vertices, g.edges, g.vertices, 2)
    assert best == Fraction(1, 2)
    assert cl.cheeger_ratio(g, {"a"}) == 1  # each singleton component is worse


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_boundary_matches_distance_definition(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    names = [f"n{i}" for i in range(n)]
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)}
    for _ in range(n):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            edges.add((min(names[i], names[j]), max(names[i], names[j])))
    g = Graph.from_edges(edges)
    k = int(rng.integers(1, n))
    subset = set(rng.choice(names, size=k, replace=False).tolist())
    assert cl.boundary(g, subset) == oracle_boundary(g.vertices, g.edges, subset)


def test_boundary_of_distant_components_is_union():
    g = cl.path_window(9, truncated=False)
    a1, a2 = {"1", "2"}, {"5", "6"}
    assert cl.boundary(g, a1 | a2) == cl.boundary(g, a1) | cl.boundary(g, a2)


@given(st.integers(0, 5_000))
@settings(max_examples=40, deadline=None)
def test_boundary_union_over_induced_components(seed):
    # induced components sit at pairwise distance >= 2, so the boundary of a
    # set is the union of its components' boundaries
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    names = [f"n{i}" for i in range(n)]
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)}
    g = Graph.from_edges(edges)
    k = int(rng.integers(1, n))
    subset = frozenset(rng.choice(names, size=k, replace=False).tolist())
    comps = []
    left = set(subset)
    while left:
        start = left.pop()
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y in left:
                    left.discard(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    union = frozenset().union(*(cl.boundary(g, c) for c in comps))
    assert cl.boundary(g, subset) == union


def test_relabeling_invariance():
    g = cl.path_window(6, truncated=False)
    mapping = {v: f"w{9 - int(v)}" for v in g.vertices}
    h = cl.relabeled(g, mapping)
    assert cl.cheeger_ratio(g, {"2", "3"}) == cl.cheeger_ratio(h, {mapping["2"], mapping["3"]})


# -- brute-force interior oracle ------------------------------------------------


def test_interior_p7_example():
    g = cl.path_window(7)
    bound = cl.interior_cheeger_bruteforce(g, 3)
    assert bound.upper.value == Fraction(2, 3)
    assert bound.upper.witness["set"] == ("3", "4", "5")
    assert bound.upper.horizon_certified


def test_interior_without_frontier_reaches_zero():
    g = cl.path_window(5, truncated=False)
    bound = cl.interior_cheeger_bruteforce(g, 5)
    assert bound.upper.value == 0
    assert set(bound.upper.witness["set"]) == set(g.vertices)


def test_interior_matches_oracle_on_tree_window():
    t = cl.homogeneous_tree(3, 4)
    g = t.graph
    admissible = sorted(cl.admissible_vertices(g))
    assert len(admissible) == 10  # depths 0..2 of the 3-regular tree
    bound = cl.interior_cheeger_bruteforce(g, 8)
    expected = oracle_min_ratio(g.vertices, g.edges, admissible, 8)
    assert bound.upper.value == expected == Fraction(5, 4)
    # the witness re-verifies
    assert cl.cheeger_ratio(g, set(bound.upper.witness["set"])) == bound.upper.value


def test_interior_witness_is_lexicographically_smallest():
    g = cl.path_window(8)  # admissible 3..6; sizes up to 4
    bound = cl.interior_cheeger_bruteforce(g, 4)
    assert bound.upper.value == Fraction(1, 2)
    # {3,4,5,6} and no other set attains 2/4; smaller-ratio sets don't exist
    assert bound.upper.witness["set"] == ("3", "4", "5", "6")


def test_interior_witness_can_be_a_union_of_far_apart_sets():
    # {a, z} and {b, c} each have ratio 1/2 and lie at distance 4 (via x-f-y);
    # their union ties them and is the lexicographically smallest minimizer
    g = Graph.from_edges(
        [("a", "z"), ("a", "x"), ("x", "z"), ("b", "c"), ("b", "y"), ("c", "y"),
         ("f", "x"), ("f", "y")],
        frontier=["f"],
    )
    bound = cl.interior_cheeger_bruteforce(g, 4)
    assert bound.upper.value == Fraction(1, 2)
    assert bound.upper.witness["set"] == ("a", "b", "c", "z")
    assert bound.upper.witness["boundary_size"] == 2


@pytest.mark.parametrize(
    "edges, vertices, frontier, cap, value, witness",
    [
        # the components {a, c} and {b} of ratio 0; {a, c} fills all but one
        # place of the cap
        ([("a", "c")], "abc", "", 3, 0, "abc"),
        # {a, d} and {b, c} tie at 1 and lie at distance 5; the single tied
        # set {a, b, c, e} sorts before {a, d} but after their union
        ([("d", "a"), ("a", "y"), ("y", "e"), ("e", "z"), ("z", "b"), ("b", "c"),
          ("y", "F1"), ("z", "F2"), ("d", "p"), ("p", "F3"), ("c", "q"), ("q", "F4")],
         "", ["F1", "F2", "F3", "F4"], 4, 1, "abcd"),
    ],
)
def test_interior_union_witness_search(edges, vertices, frontier, cap, value, witness):
    g = Graph.from_edges(edges, vertices or None, frontier, require_connected=False)
    bound = cl.interior_cheeger_bruteforce(g, cap)
    assert (bound.upper.value, bound.upper.witness["set"]) == (value, tuple(witness))
    adm = cl.admissible_vertices(g)
    assert oracle_min_ratio_witness(g.vertices, g.edges, adm, cap) == (value, tuple(witness))


def test_interior_dense_window_with_many_tied_sets():
    # a hub joined to K_20, with the frontier next to the hub: the automatic
    # cap is 6 and all 38,760 six-sets of the clique tie at 15/6; none of
    # them can share the cap with another, so no union search runs
    clique = [f"k{i:02d}" for i in range(20)]
    g = Graph.from_edges(
        [*combinations(clique, 2), *(("hub", v) for v in clique), ("f", "hub")],
        frontier=["f"],
    )
    start = time.perf_counter()
    bound = cl.window_bound(g, budget=2**16)
    assert time.perf_counter() - start < 10
    assert bound.upper.witness["max_size"] == 6
    assert bound.upper.value == Fraction(15, 6)
    assert bound.upper.witness["set"] == tuple(clique[:6])


def test_interior_union_search_with_many_far_apart_ties():
    # every subset of an edgeless 22-vertex window ties at 0, so the 22
    # singletons have about four million unions within the cap; the first
    # singleton is already the lexicographically smallest of them.  Cap 21
    # runs the scan and its union search, the full cap 22 the minimum cut.
    g = Graph(tuple(f"v{i:02d}" for i in range(22)), frozenset())
    for cap in (21, 22):
        start = time.perf_counter()
        bound = cl.interior_cheeger_bruteforce(g, cap)
        assert time.perf_counter() - start < 2
        assert (bound.upper.value, bound.upper.witness["set"]) == (0, ("v00",))


ENUMERATE = window._connected_bitsets
SCAN = window._window_scan


@pytest.fixture
def scan_counts(monkeypatch):
    """Count the window oracle's scans and the sets they judged; keep the
    last scan's arguments."""
    counts = {"scans": 0, "judged": 0, "args": None}

    def counting(*args):
        result = SCAN(*args)
        counts["scans"] += 1
        counts["judged"] += result[-1]
        counts["args"] = args
        return result

    monkeypatch.setattr(window, "_window_scan", counting)
    return counts


def plain_count(counts):
    """Number of sets the plain enumerator yields on the scan's G^2 and cap:
    every set the scan would judge with no limit."""
    square, _, max_size = counts["args"]
    return sum(1 for _ in ENUMERATE(square, max_size))


@st.composite
def enumerator_inputs(draw):
    """A graph on up to 9 vertices as neighbour bitmasks, and a size cap."""
    n = draw(st.integers(1, 9))
    adj = [0] * n
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if i != j:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj, draw(st.integers(1, n))


def is_connected_bits(adj, verts):
    """Whether the vertices ``verts`` induce a connected subgraph of ``adj``."""
    seen, todo = {verts[0]}, [verts[0]]
    while todo:
        u = todo.pop()
        for w in verts:
            if adj[u] >> w & 1 and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(verts)


@given(enumerator_inputs())
@settings(max_examples=200, deadline=None)
def test_enumerator_yields_exactly_the_connected_sets_up_to_the_cap(inputs):
    adj, max_size = inputs
    sets = list(ENUMERATE(adj, max_size))
    expected = {
        sum(1 << i for i in verts)
        for k in range(1, max_size + 1)
        for verts in combinations(range(len(adj)), k)
        if is_connected_bits(adj, verts)
    }
    assert len(sets) == len(set(sets)) and set(sets) == expected


PRUNED_WINDOWS = {
    "grid8": lambda: cl.grid_window(8, 8),
    "grid9": lambda: cl.grid_window(9, 9),
    "T3d6": lambda: cl.homogeneous_tree(3, 6).graph,
}


@pytest.mark.parametrize(
    "name, cap", [*(("grid8", cap) for cap in range(2, 7)), ("grid9", 4), ("grid9", 5), ("T3d6", 5)]
)
def test_pruned_oracle_matches_literal_oracle(scan_counts, name, cap):
    g = PRUNED_WINDOWS[name]()
    bound = cl.interior_cheeger_bruteforce(g, cap)
    adm = cl.admissible_vertices(g)
    expected = oracle_min_ratio_witness(g.vertices, g.edges, adm, cap)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected
    assert scan_counts["judged"] < plain_count(scan_counts)


def random_window(seed):
    """One to three identical copies, with vertex names shuffled across them,
    of a vertex 0 joining a random tree on 1..t to a clique (where many sets
    tie), plus up to two random edges.  The frontier hangs off each copy's
    vertex 0, so the copies lie far apart and tied minimizers can unite."""
    rng = np.random.default_rng(seed)
    copies, t, q = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
    n = 1 + t + q
    edges = {(int(rng.integers(0, i)), i) for i in range(1, t + 1)}
    edges |= {*combinations(range(t + 1, n), 2), (0, int(rng.integers(t + 1, n)))}
    edges |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
              for _ in range(int(rng.integers(0, 3)))}
    names = [f"v{k:02d}" for k in rng.permutation(copies * n)]
    pairs = [(names[c * n + i], names[c * n + j]) for c in range(copies) for i, j in edges]
    pairs += [(names[c * n], f"f{c}") for c in range(copies)]
    frontier = [f"f{c}" for c in range(copies)]
    return Graph.from_edges(pairs, [*names, *frontier], frontier, require_connected=False)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_pruned_oracle_on_random_windows_below_the_admissible_count(seed, cap_seed):
    g = random_window(seed)
    adm = cl.admissible_vertices(g)
    # caps below the admissible count that the literal oracle can check quickly
    caps = [m for m in range(1, len(adm)) if m == 1 or graphs.subset_count(len(adm), m) <= 20_000]
    cap = caps[cap_seed % len(caps)]
    bound = cl.interior_cheeger_bruteforce(g, cap)
    expected = oracle_min_ratio_witness(g.vertices, g.edges, adm, cap)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected


@pytest.mark.parametrize("seed, cap", [(1, 4), (128, 3), (282, 4)])
def test_pruned_oracle_keeps_union_witnesses(scan_counts, seed, cap):
    g = random_window(seed)
    adm = cl.admissible_vertices(g)
    bound = cl.interior_cheeger_bruteforce(g, cap)
    witness = set(bound.upper.witness["set"])
    assert scan_counts["judged"] < plain_count(scan_counts)
    assert sum(1 for part in g.components() if part & witness) > 1
    expected = oracle_min_ratio_witness(g.vertices, g.edges, adm, cap)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected


def test_pruned_oracle_keeps_ties_at_the_cap():
    # the lex-smallest minimizer fills the cap and grows from a set whose
    # superset bound equals the best ratio, so pruning on ties would lose it
    g = random_window(203)
    adm = cl.admissible_vertices(g)
    bound = cl.interior_cheeger_bruteforce(g, 8)
    assert (bound.upper.value, len(bound.upper.witness["set"])) == (Fraction(1, 4), 8)
    assert (bound.upper.value, bound.upper.witness["set"]) == oracle_min_ratio_witness(
        g.vertices, g.edges, adm, 8
    )


def test_oracle_work_on_grid9_at_cap9(scan_counts):
    # with no limit the scan would judge all 1,899,059 sets connected in G^2
    bound = cl.interior_cheeger_bruteforce(cl.grid_window(9, 9), 9)
    assert scan_counts["scans"] == 1 and scan_counts["judged"] <= 60_000
    assert bound.upper.value == Fraction(11, 9)
    assert bound.upper.witness["set"] == (
        "g2.2", "g2.3", "g2.4", "g3.2", "g3.3", "g3.4", "g3.5", "g4.3", "g4.4"
    )


# -- full cap: the minimum cut ------------------------------------------------------


def full_cap(g):
    """The oracle at full cap, and the literal oracle's (value, witness)."""
    adm = cl.admissible_vertices(g)
    bound = cl.interior_cheeger_bruteforce(g, len(adm))
    return bound, oracle_min_ratio_witness(g.vertices, g.edges, adm, len(adm))


@st.composite
def small_windows(draw):
    """A graph on up to 14 vertices with up to three frontier vertices, and at
    most 12 admissible ones."""
    names = [f"x{i:02d}" for i in range(draw(st.integers(1, 14)))]
    pairs = draw(st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names))))
    frontier = draw(st.sets(st.sampled_from(names), max_size=3))
    g = Graph.from_edges([e for e in pairs if e[0] != e[1]], names, frontier,
                         require_connected=False)
    assume(0 < len(cl.admissible_vertices(g)) <= 12)
    return g


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_full_cap_matches_literal_oracle_on_random_windows(seed):
    g = random_window(seed)
    assume(len(cl.admissible_vertices(g)) <= 12)
    bound, expected = full_cap(g)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected
    assert bound.upper.witness["boundary_size"] == len(cl.boundary(g, expected[1]))


@given(small_windows())
@settings(max_examples=150, deadline=None)
def test_full_cap_matches_literal_oracle_on_small_windows(g):
    bound, expected = full_cap(g)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected


def admissible_closed(g):
    """The admissible vertices in name order, and each one's closed
    neighbourhood as a bit set: the admissible vertices first, in name order."""
    adm = sorted(cl.admissible_vertices(g))
    bit = {v: i for i, v in enumerate(adm + sorted(set(g.vertices) - set(adm)))}
    return adm, [sum(1 << bit[w] for w in g.adjacency[v] | {v}) for v in adm]


def maximal_minimizer(g):
    """U from the selection cut, as admissible vertex names."""
    adm, closed = admissible_closed(g)
    p, q, maximal = window.min_closed_ratio(closed)
    return Fraction(p - q, q), {v for i, v in enumerate(adm) if maximal >> i & 1}


@given(st.sets(st.integers(0, 80)), st.sets(st.integers(0, 80)))
def test_members_lists_the_set_bits_in_lex_order(a, b):
    x, y = sum(1 << i for i in a), sum(1 << i for i in b)
    literal = [i for i in range(x.bit_length()) if x >> i & 1]
    assert window._members(x) == literal == sorted(a)
    assert (window._members(x) < window._members(y)) == (tuple(sorted(a)) < tuple(sorted(b)))


def test_selection_network_build_is_not_quadratic():
    # the network build walks each closed neighbourhood's set bits; testing
    # every bit position instead is quadratic in the window
    _, closed = admissible_closed(cl.random_tree(8000, 0).graph)
    start = time.perf_counter()
    p, q, _ = window.min_closed_ratio(closed)
    assert time.perf_counter() - start < 4
    assert (p, q) == (7999, 7998)


@given(st.one_of(st.integers(0, 10**6).map(random_window), small_windows()))
@settings(max_examples=60, deadline=None)
def test_every_minimizer_lies_inside_the_maximal_one(g):
    adm = sorted(cl.admissible_vertices(g))
    assume(len(adm) <= 12)
    adj = oracle_adjacency(g.edges)
    ratios = {}
    for k in range(1, len(adm) + 1):
        for a in combinations(adm, k):
            near = set(a).union(*(adj.get(v, ()) for v in a))
            ratios[frozenset(a)] = Fraction(len(near) - k, k)
    least = min(ratios.values())
    minimizers = [a for a, r in ratios.items() if r == least]
    value, maximal = maximal_minimizer(g)
    assert value == least and maximal in minimizers
    assert all(a <= maximal for a in minimizers)


def test_full_cap_draws_no_set_from_the_enumerator(scan_counts, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("the full cap enumerated sets")

    monkeypatch.setattr(window, "_connected_bitsets", enumerate_nothing)
    g = cl.grid_window(8, 8)
    bound = cl.interior_cheeger_bruteforce(g, 16)
    assert bound.upper.value == 1
    assert scan_counts["scans"] == 0 and scan_counts["args"] is None


@pytest.mark.parametrize("depth, m", [(4, 10), (5, 22)])
def test_full_cap_on_the_3_regular_tree_is_m_plus_2_over_m(depth, m):
    # the default cap admits every admissible vertex, so the cut answers, and
    # its witness is the whole admissible ball
    g = cl.homogeneous_tree(3, depth).graph
    adm = cl.admissible_vertices(g)
    assert len(adm) == m
    bound = cl.window_bound(g)
    assert bound.upper.value == Fraction(m + 2, m)
    assert bound.upper.witness == {"set": tuple(sorted(adm)), "boundary_size": m + 2, "max_size": m}


def test_flow_verifier_rejects_broken_flows():
    net = window.SelectionNetwork(admissible_closed(cl.homogeneous_tree(3, 3).graph)[1])
    p, q = 10, 4  # the ball of radius 1 has 4 vertices and a closed neighbourhood of 10
    flow, _ = net.max_flow(p, q)
    net.verify(p, q, flow)
    assert flow[:net.n] == [p] * net.n
    # one source arc lowered by 1
    lowered = list(flow)
    lowered[0] -= 1
    with pytest.raises(ConstructionError, match="not conserved"):
        net.verify(p, q, lowered)
    # a whole s -> a -> w -> t path lowered by 1: feasible but one short of p*n
    path = [0]
    path.append(next(k for k in range(net.n, net.first_sink)
                     if net.tails[k] == 1 and flow[k] > 0))
    path.append(next(k for k in range(net.first_sink, len(flow))
                     if net.tails[k] == net.heads[path[1]]))
    short = list(flow)
    for k in path:
        short[k] -= 1
    with pytest.raises(ConstructionError, match="is not 40"):
        net.verify(p, q, short)
    # flow moved off one unbounded arc: capacities hold, conservation breaks
    moved = list(flow)
    moved[path[1]] -= 1
    with pytest.raises(ConstructionError, match="not conserved"):
        net.verify(p, q, moved)
    over = list(flow)
    over[0] += 1
    with pytest.raises(ConstructionError, match="outside"):
        net.verify(p, q, over)


def test_converse_scan_over_grids_keeps_values_and_witnesses():
    report = cl.converse_scan([cl.grid_window(k, k) for k in range(5, 10)])
    assert report.values == (4, 2, Fraction(4, 3), 1, Fraction(11, 9))
    def square(rows, cols):
        return tuple(f"g{r}.{c}" for r in rows for c in cols)

    assert report.witnesses == (
        ("g2.2",),
        square((2, 3), (2, 3)),
        square((2, 3, 4), (2, 3, 4)),
        square((2, 3, 4), (2, 3, 4, 5)) + square((5,), (2, 3, 4)),
        ("g2.2", "g2.3", "g2.4", "g3.2", "g3.3", "g3.4", "g3.5", "g4.3", "g4.4"),
    )


def test_interior_budget_and_window_errors():
    t = cl.homogeneous_tree(3, 6)
    with pytest.raises(BudgetExceededError):
        cl.interior_cheeger_bruteforce(t.graph, 46)
    g = cl.path_window(4)  # every vertex is within distance 1 of the frontier
    with pytest.raises(EmptyWindowError):
        cl.interior_cheeger_bruteforce(g, 1)
    with pytest.raises(InvalidInputError):
        cl.interior_cheeger_bruteforce(cl.path_window(7), 99)


def test_window_bound():
    g = cl.homogeneous_tree(3, 6).graph
    adm = len(cl.admissible_vertices(g))

    def cap(*args, **kwargs):
        return cl.window_bound(g, *args, **kwargs).upper.witness["max_size"]

    assert cap() == cl.auto_max_size(adm) == 5
    assert cap(3) == 3
    assert cap(budget=adm) == 1
    with pytest.raises(EmptyWindowError):
        cl.window_bound(cl.path_window(3))
    with pytest.raises(EmptyWindowError):
        cl.window_bound(cl.path_window(3), 1)


SUBSET_BUDGETS = [0, 1, 5, 30, 1000, 2**20, 2**22, 2**30 - 1, 2**30]


def test_auto_max_size():
    assert cl.auto_max_size(10, budget=2**22) == 10
    assert cl.auto_max_size(46, budget=2**22) == 5
    with pytest.raises(BudgetExceededError):
        cl.auto_max_size(100, budget=10)
    for n in range(31):  # the largest cap within the budget, by the literal sum
        for budget in SUBSET_BUDGETS:
            fits = [m for m in range(1, n + 1) if graphs.subset_count(n, m) <= budget]
            if not fits:
                with pytest.raises(BudgetExceededError):
                    cl.auto_max_size(n, budget)
            else:
                assert cl.auto_max_size(n, budget) == max(fits), (n, budget)


def test_capped_subset_count_agrees_with_the_literal_sum():
    for n in range(1, 31):
        for m in range(1, n + 1):
            exact = graphs.subset_count(n, m)
            for budget in SUBSET_BUDGETS:
                capped = graphs.capped_subset_count(n, m, budget)
                assert (capped is None) == (exact > budget), (n, m, budget)
                assert capped in (None, exact)


def test_a_huge_subset_count_is_refused_without_being_summed_or_printed():
    # C(20000, k) summed to k = 8000 has over 4,300 digits, past Python's
    # int-to-str limit; the refusal neither sums nor prints it
    g = cl.path_window(20000)
    for cap in (2000, 8000, 19996):
        with pytest.raises(BudgetExceededError) as info:
            cl.interior_cheeger_bruteforce(g, cap)
        assert info.value.required is None
        assert str(info.value).startswith(f"more than {cl.DEFAULT_SUBSET_BUDGET} subsets")
    assert graphs.capped_subset_count(20000, 8000, 10**4000) is None
    with pytest.raises(BudgetExceededError, match="^5 subsets exceed the budget of 4;"):
        cl.interior_cheeger_bruteforce(cl.path_window(9), 1, budget=4)


def test_squeeze_certificate_below_bruteforce():
    t = cl.homogeneous_tree(3, 5)
    g = t.graph
    cert = cl.certificate_lower_bound(g, {v: t.depth[v] for v in g.vertices})
    brute = cl.interior_cheeger_bruteforce(g, 6)
    assert cert.bound.lower.value <= brute.upper.value


# -- discrete calculus -----------------------------------------------------------


def test_gradient_examples():
    g = p5()
    f = cl.vertex_function(g, {v: int(v) for v in g.vertices})
    assert cl.gradient(g, f, "2", "3") == 1
    assert cl.gradient(g, f, "3", "2") == -1
    assert cl.gradient(g, f, "1", "3") == 0
    with pytest.raises(InvalidInputError):
        cl.gradient(g, f, "1", "zz")


def test_laplacian_depth_function_on_tree():
    t = cl.homogeneous_tree(3, 3)
    g = t.graph
    f = {v: t.depth[v] for v in g.vertices}
    assert cl.laplacian(g, f, "v") == 1
    assert cl.laplacian(g, f, "v0") == Fraction(1, 3)
    const = {v: 7 for v in g.vertices}
    assert cl.laplacian(g, const, "v1") == 0


def test_laplacian_is_exact_on_every_value_fraction_accepts():
    from decimal import Decimal

    g = cl.Graph.from_edges([("a", "b"), ("b", "c"), ("b", "d")])
    for f in (
        {"a": 0, "b": 1, "c": 3, "d": 7},
        {"a": "1/3", "b": "1/2", "c": "0", "d": "5/7"},
        {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.7},
        {"a": Decimal("0.1"), "b": 1, "c": Fraction(1, 3), "d": True},
    ):
        exact = sum(Fraction(f[y]) - Fraction(f["b"]) for y in "acd") / 3
        got = cl.laplacian(g, f, "b")
        assert type(got) is Fraction and got == exact
    with pytest.raises(InvalidInputError, match="isolated"):
        cl.laplacian(cl.Graph(("a",), frozenset()), {"a": 0}, "a")


def test_numpy_integers_stay_exact_past_int64():
    # at the parent the numpy numerators wrapped at 2^63 (RuntimeWarning, an
    # error under the test settings)
    g = cl.Graph.from_edges([("a", "b"), ("b", "c"), ("b", "d")])
    big = np.int64(2**62)
    f = {"a": big, "b": np.int64(0), "c": big, "d": big}
    assert cl.laplacian(g, f, "b") == 2**62
    assert cl.laplacian(g, {**f, "b": np.uint64(2**63)}, "b") == 2**62 - 2**63
    assert cl.gradient(g, {**f, "b": -big}, "b", "a") == 2**63
    exact = cl.vertex_function(g, f)
    assert all(type(x.numerator) is int for x in exact.values())
    assert cl.laplacian(g, exact, "b") == 2**62
    assert cl.green_identity_check(g, f, {v: 1 for v in "abcd"}) == 0


def test_green_identity_indicator_example():
    g = p5()
    ind = {v: 1 if v == "3" else 0 for v in g.vertices}
    # left-hand side alone equals -2 for f = g = indicator of the midpoint
    lhs = sum(
        cl.laplacian(g, ind, x) * ind[x] * g.degree(x) for x in g.vertices
    )
    assert lhs == -2
    assert cl.green_identity_check(g, ind, ind) == 0


def test_green_identity_constant_function():
    g = cl.cycle_graph(7)
    f = {v: 3 for v in g.vertices}
    g2 = {v: int(v) ** 2 for v in g.vertices}
    assert cl.green_identity_check(g, f, g2) == 0


def test_green_identity_random_interior_support(rng_seeds):
    import numpy as np

    for seed in rng_seeds:
        rng = np.random.default_rng(seed)
        t = cl.random_tree(12, seed)
        g = t.graph
        interior = sorted(
            v for v, d in g.bfs_distances(g.frontier).items() if d >= 2
        ) or sorted(set(g.vertices) - set(g.frontier))
        f = {v: 0 for v in g.vertices}
        h = {v: 0 for v in g.vertices}
        for v in interior:
            f[v] = int(rng.integers(-9, 10))
        h[interior[0]] = int(rng.integers(1, 5))
        assert cl.green_identity_check(g, f, h) == 0
        # independent evaluation of both sides of the identity
        lhs = sum(
            cl.laplacian(g, f, x) * Fraction(h[x]) * g.degree(x) for x in g.vertices
        )
        rhs = Fraction(0)
        for x in g.vertices:
            for y in g.adjacency[x]:
                rhs += (Fraction(f[y]) - Fraction(f[x])) * (Fraction(h[y]) - Fraction(h[x]))
        assert lhs == -rhs / 2


def test_green_identity_rejects_frontier_support():
    g = cl.path_window(6)
    f = {v: 1 for v in g.vertices}  # support touches the frontier
    with pytest.raises(InvalidSupportError):
        cl.green_identity_check(g, f, f)


# -- certificates -----------------------------------------------------------------


def test_certificate_depth_function_t3():
    t = cl.homogeneous_tree(3, 6)
    g = t.graph
    res = cl.certificate_lower_bound(g, {v: t.depth[v] for v in g.vertices})
    assert res.certified
    assert (res.c1, res.c2) == (1, Fraction(1, 3))
    assert res.bound.lower.value == Fraction(1, 9)
    assert res.bound.lower.horizon_certified


def test_certificate_depth_function_t5():
    t = cl.homogeneous_tree(5, 5)
    g = t.graph
    res = cl.certificate_lower_bound(g, {v: t.depth[v] for v in g.vertices})
    assert res.certified
    assert res.c2 == Fraction(3, 5)
    assert g.mu == 5
    assert res.bound.lower.value == Fraction(3, 25)


def test_certificate_fails_on_path():
    g = cl.path_window(9)
    res = cl.certificate_lower_bound(g, {v: int(v) for v in g.vertices})
    assert not res.certified
    assert res.c2 == 0
    assert res.violating_vertex is not None


def test_certificate_empty_interior():
    g = cl.path_window(4)
    with pytest.raises(EmptyWindowError):
        cl.certificate_lower_bound(g, {v: int(v) for v in g.vertices})


def test_corollary_connected_subtree():
    t = cl.homogeneous_tree(3, 5)
    g = t.graph
    f = {v: t.depth[v] for v in g.vertices}
    a = {"v", "v0", "v1", "v2", "v00"}  # connected, size 5
    check = cl.corollary_connected_bound(g, f, a)
    assert check.holds
    assert check.ratio == Fraction(7, 5)
    assert check.ratio >= Fraction(1, 3)


def test_corollary_singleton_and_ball():
    t = cl.homogeneous_tree(3, 5)
    g = t.graph
    f = {v: t.depth[v] for v in g.vertices}
    single = cl.corollary_connected_bound(g, f, {"v0"})
    assert single.holds and single.ratio == 3
    ball = {v for v in g.vertices if t.depth[v] <= 2}  # 10 vertices
    check = cl.corollary_connected_bound(g, f, ball)
    assert len(ball) == 10 and check.ratio == Fraction(6, 5)
    assert check.holds


def test_corollary_rejects_double_contact():
    g = p5()
    f = {v: int(v) for v in g.vertices}
    with pytest.raises(InvalidInputError, match="'3'"):
        cl.corollary_connected_bound(g, f, {"2", "4"})


# -- quasi-isometry ---------------------------------------------------------------


def test_quasi_isometry_identity():
    g = cl.cycle_graph(8)
    rep = cl.quasi_isometry_check(g, g, {v: v for v in g.vertices}, 1, 0, 0)
    assert rep.holds and rep.embedding_ok and rep.fullness_ok


def test_quasi_isometry_collapse_fails_with_witness():
    g = cl.path_window(9, truncated=False)
    h = Graph(("x",), frozenset())
    rep = cl.quasi_isometry_check(g, h, {v: "x" for v in g.vertices}, 1, 1, 0)
    assert not rep.embedding_ok
    assert rep.worst_pair == ("1", "9")
    assert rep.worst_pair_slack == Fraction(1) - 8  # d=8 collapses to 0 with beta=1


def test_quasi_isometry_complete_subtree_inclusion():
    base = cl.homogeneous_tree(3, 5)
    t = cl.grafted_dead_branches(base, 2)
    tinf = cl.maximal_complete_subtree(t)
    sub_edges = [
        (v, c) for v in t.vertices if v in tinf for c in t.children[v] if c in tinf
    ]
    sub = Graph.from_edges(sub_edges, vertices=sorted(tinf))
    rep = cl.quasi_isometry_check(
        sub, t.graph, {v: v for v in sub.vertices}, 1, 0, eps=3
    )
    assert rep.holds
    # dead chains have 2 vertices, so the image is 2-full already
    assert rep.worst_vertex_distance <= 2


def test_quasi_isometry_requires_total_map():
    g = cl.cycle_graph(4)
    with pytest.raises(InvalidInputError):
        cl.quasi_isometry_check(g, g, {"0": "0"}, 1, 0, 0)
