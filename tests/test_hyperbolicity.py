"""Gromov products, the exact four-point constant against a nested-loop
oracle, sampled mode, and the finite-horizon pole defect."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import (
    BudgetExceededError,
    Graph,
    InvalidHorizonError,
    InvalidInputError,
    hyperbolicity,
)

from conftest import oracle_blocks, oracle_delta


def random_connected_graph(seed, nmin=4, nmax=9):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(nmin, nmax))
    names = [f"n{i}" for i in range(n)]
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            a, b = names[int(min(i, j))], names[int(max(i, j))]
            edges.add((a, b))
    return Graph.from_edges(edges)


def glued_graph(seed):
    """Random connected pieces of 2-4 vertices, each glued to the graph built
    so far at one vertex, which becomes a cut vertex."""
    rng = np.random.default_rng(seed)
    names = ["n0"]
    edges = set()
    for _ in range(int(rng.integers(2, 5))):
        size = int(rng.integers(2, 5))
        members = [names[int(rng.integers(0, len(names)))]]
        members += [f"n{len(names) + i}" for i in range(size - 1)]
        names += members[1:]
        edges |= {(members[int(rng.integers(0, i))], members[i]) for i in range(1, size)}
        for _ in range(int(rng.integers(0, size + 1))):
            i, j = rng.integers(0, size, size=2)
            if i != j:
                edges.add((members[int(i)], members[int(j)]))
    return Graph.from_edges(edges)


def check_block_delta(g):
    """Block-by-block delta against the scan of the whole distance matrix,
    the nested-loop oracle on small graphs, and its own witness."""
    rep = cl.delta_four_point(g)
    whole, _ = hyperbolicity._scan(g.distance_matrix)
    assert rep.delta == Fraction(int(whole), 2)
    if len(g.vertices) <= 8:
        assert rep.delta == oracle_delta(g.vertices, g.edges)
    assert cl.evaluate_witness(g, rep.witness) == rep.delta
    assert any(set(rep.witness) <= {g.vertices[i] for i in b} for b in g.blocks())
    return rep


# -- gromov product ----------------------------------------------------------------


def test_gromov_product_path():
    g = Graph.from_edges([("o", "a"), ("a", "b")])
    assert cl.gromov_product(g, "a", "b", "o") == 1
    assert cl.gromov_product(g, "o", "o", "o") == 0


def test_gromov_product_splits_at_root():
    t = cl.homogeneous_tree(3, 3)
    assert cl.gromov_product(t.graph, "v00", "v10", "v") == 0


def test_gromov_product_unknown_point():
    g = cl.cycle_graph(4)
    with pytest.raises(InvalidInputError):
        cl.gromov_product(g, "0", "1", "zz")


@given(st.integers(0, 2_000))
@settings(max_examples=30, deadline=None)
def test_base_point_stability(seed):
    g = random_connected_graph(seed)
    rng = np.random.default_rng(seed + 1)
    x, y, o1, o2 = (g.vertices[int(i)] for i in rng.integers(0, len(g.vertices), 4))
    lhs = abs(cl.gromov_product(g, x, y, o1) - cl.gromov_product(g, x, y, o2))
    assert lhs <= g.distance(o1, o2)


# -- exact four-point constant -------------------------------------------------------


def test_trees_have_delta_zero():
    trees = [t.graph for t in (cl.homogeneous_tree(3, 4), cl.comb_tree(6, 2), cl.random_tree(40, 7))]
    # diameter 69: pairing sums reach 138, past the range of int8
    trees.append(cl.path_window(70, truncated=False))
    for g in trees:
        rep = cl.delta_four_point(g)
        assert rep.delta == 0
        assert rep.mode == "exhaustive" and not rep.lower_bound_only


def test_cycle_four():
    rep = cl.delta_four_point(cl.cycle_graph(4))
    assert rep.delta == 1
    assert cl.evaluate_witness(cl.cycle_graph(4), rep.witness) == 1


def test_cycle_six_matches_oracle():
    g = cl.cycle_graph(6)
    rep = cl.delta_four_point(g)
    assert rep.delta == oracle_delta(g.vertices, g.edges) == 1
    assert rep.delta >= 1  # antipodal pair with midpoints already forces 1


@given(st.integers(0, 5_000))
@settings(max_examples=25, deadline=None)
def test_exhaustive_matches_nested_loop_oracle(seed):
    g = random_connected_graph(seed, nmin=4, nmax=8)
    rep = cl.delta_four_point(g)
    assert rep.delta == oracle_delta(g.vertices, g.edges)
    assert cl.evaluate_witness(g, rep.witness) == rep.delta


@pytest.mark.parametrize(
    "graph, witness",
    [
        (cl.cycle_graph(13), ("0", "6", "3", "9")),
        (random_connected_graph(28, nmin=13, nmax=17), ("n0", "n7", "n4", "n9")),
    ],
    ids=["cycle13", "random15"],
)
def test_exhaustive_scan_over_several_chunks(monkeypatch, graph, witness):
    # The scanned blocks have 78 and 45 vertex pairs (cycle13 is one block;
    # random15's largest block has 10 of its 15 vertices): more than one run
    # of pairs, and with small chunk sizes every run also splits into row
    # chunks.  Both graphs have several maximizing quadruples, so the
    # first-maximizer rule is exercised across chunk borders.  random15's
    # whole-graph scan found ('n0', 'n7', 'n13', 'n9'); n13 hangs off the cut
    # vertex n4, so inside the block the same pairing is witnessed by n4.
    expected = oracle_delta(graph.vertices, graph.edges)
    assert expected > 0
    for chunk in (1, 7, 64, hyperbolicity._CHUNK_ELEMS):
        monkeypatch.setattr(hyperbolicity, "_CHUNK_ELEMS", chunk)
        rep = cl.delta_four_point(graph)
        assert rep.delta == expected
        assert rep.witness == witness
        assert cl.evaluate_witness(graph, rep.witness) == rep.delta


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_block_delta_on_graphs_with_cut_vertices(seed):
    g = glued_graph(seed)
    blocks = {frozenset(g.vertices[i] for i in b) for b in g.blocks()}
    assert len(blocks) >= 2 and blocks == oracle_blocks(g.vertices, g.edges)
    check_block_delta(g)


@pytest.mark.parametrize(
    "base, att",
    [
        (cl.grid_window(3, 3, truncated=False), cl.homogeneous_tree(3, 2).graph),
        (cl.cycle_graph(5), cl.cycle_graph(4)),
    ],
    ids=["grid3-t3", "cycle5-cycle4"],
)
def test_block_delta_on_grafts(base, att):
    # each attachment copy meets the rest of the graft at one cut vertex
    g = cl.graft(base, att, att.vertices[0]).graph
    expected = max(cl.delta_four_point(base).delta, cl.delta_four_point(att).delta)
    assert check_block_delta(g).delta == expected


@pytest.mark.parametrize("depth, k_max, s", [(5, 3, 1), (6, 4, 1), (6, 4, 2)])
def test_block_delta_on_leveled_cantor_graphs(depth, k_max, s):
    lg = cl.build_truncated(cl.cantor_sample(depth), 1 / 9, k_max)
    if s > 1:
        lg = cl.relevel(lg, s)
    assert check_block_delta(lg.graph).delta == Fraction(1, 2)


def test_delta_on_metric_space():
    space = cl.line_space([0.0, 1.0, 2.5, 7.0])
    rep = cl.delta_four_point(space)
    assert rep.delta == 0.0  # subsets of the line are 0-hyperbolic


def test_delta_isomorphism_invariance():
    g = cl.cycle_graph(5)
    mapping = {v: f"z{(3 * int(v)) % 5}" for v in g.vertices}
    assert cl.delta_four_point(g).delta == cl.delta_four_point(cl.relabeled(g, mapping)).delta


def test_budget_error_instructs_sampling():
    g = cl.grid_window(6, 6, truncated=False)
    with pytest.raises(BudgetExceededError, match="sampled"):
        cl.delta_four_point(g, budget=1000)


def test_budget_is_checked_before_any_distance_work():
    g = cl.cycle_graph(300)  # one block: 300^4 exceeds the default budget
    with pytest.raises(BudgetExceededError, match=r"largest biconnected block \(300 vertices\)"):
        cl.delta_four_point(g)
    assert "distance_matrix" not in g.__dict__


def test_budget_bounds_the_largest_block():
    g = cl.path_window(3000, truncated=False)  # 3000^4 is far past the budget; blocks are edges
    rep = cl.delta_four_point(g)
    assert rep.delta == 0 and rep.mode == "exhaustive"
    assert rep.witness == (g.vertices[0],) * 4
    with pytest.raises(BudgetExceededError, match=r"\(2 vertices\)"):
        cl.delta_four_point(g, budget=15)


def test_disconnected_or_empty_graph_is_invalid():
    g = Graph.from_edges([("a", "b"), ("c", "d")], require_connected=False)
    with pytest.raises(InvalidInputError, match="disconnected"):
        cl.delta_four_point(g)
    with pytest.raises(InvalidInputError, match="disconnected"):
        cl.delta_four_point(g, mode="sampled", samples=10)
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(InvalidInputError, match="empty graph"):
            cl.delta_four_point(Graph((), frozenset()), mode=mode)


def test_sampled_mode_is_a_lower_bound():
    g = cl.grid_window(5, 5, truncated=False)
    exact = cl.delta_four_point(g)
    sampled = cl.delta_four_point(g, mode="sampled", seed=3, samples=4000)
    assert sampled.lower_bound_only
    assert sampled.delta <= exact.delta
    assert cl.evaluate_witness(g, sampled.witness) == sampled.delta
    again = cl.delta_four_point(g, mode="sampled", seed=3, samples=4000)
    assert again.delta == sampled.delta and again.witness == sampled.witness


def _sampled_on_the_full_matrix(g, seed, samples):
    """Sampled mode spelled out on the all-pairs matrix: the same draws, the
    largest minus second-largest pairing sum, and the first pairing among the
    largest sums as the (x, y | z, o) split of the witness."""
    d = g.distance_matrix
    qs = np.random.default_rng(seed).integers(0, len(g.vertices), size=(4, samples))
    best, witness = -1, None
    for i, j, k, l in qs.T:
        sums = [(d[i, j] + d[k, l], (i, j, k, l)), (d[i, k] + d[j, l], (i, k, j, l)),
                (d[i, l] + d[j, k], (i, l, j, k))]
        ordered = sorted(s for s, _ in sums)
        if ordered[2] - ordered[1] > best:
            best = ordered[2] - ordered[1]
            top = next(q for s, q in sums if s == ordered[2])
            witness = tuple(g.vertices[t] for t in top)
    return Fraction(int(best), 2), witness


def test_sampled_mode_on_graphs_matches_the_full_matrix():
    graphs = [cl.grid_window(6, 5, truncated=False), cl.path_window(40, truncated=False),
              cl.homogeneous_tree(3, 3).graph, cl.cycle_graph(11),
              cl.graft(cl.cycle_graph(5), cl.homogeneous_tree(2, 2).graph, "v").graph]
    for g in graphs:
        for seed in range(4):
            for samples in (1, 9, 300):
                rep = cl.delta_four_point(g, mode="sampled", seed=seed, samples=samples)
                assert (rep.delta, rep.witness) == _sampled_on_the_full_matrix(g, seed, samples)


def test_sampled_mode_runs_bfs_only_from_the_drawn_points(monkeypatch):
    g = cl.path_window(2000, truncated=False)
    calls = []
    bfs = Graph._bfs
    monkeypatch.setattr(Graph, "_bfs", lambda self, sources: calls.append(1) or bfs(self, sources))
    rep = cl.delta_four_point(g, mode="sampled", samples=100)
    assert rep.sample_count == 100 and "distance_matrix" not in vars(g)
    assert len(calls) <= 3 * 100


def test_sampled_mode_bounds_the_distance_rows_before_any_bfs(monkeypatch):
    g = cl.path_window(2000, truncated=False)
    calls = []
    bfs = Graph._bfs
    monkeypatch.setattr(Graph, "_bfs", lambda self, sources: calls.append(1) or bfs(self, sources))
    monkeypatch.setattr(hyperbolicity, "MAX_SAMPLED_DISTANCE_CELLS", 299 * 2000)
    with pytest.raises(BudgetExceededError, match="distance cells"):
        cl.delta_four_point(g, mode="sampled", samples=100)  # up to 300 rows of 2000
    assert calls == []
    assert cl.delta_four_point(g, mode="sampled", samples=99).sample_count == 99
    assert 0 < len(calls) <= 297


def test_sampled_mode_bounds_the_sample_count():
    g = cl.grid_window(5, 5, truncated=False)
    for samples in (0, -3):
        with pytest.raises(InvalidInputError, match="samples >= 1"):
            cl.delta_four_point(g, mode="sampled", samples=samples)
    with pytest.raises(BudgetExceededError, match="sampled quadruples"):
        cl.delta_four_point(g, mode="sampled", samples=10**12)  # past the default budget
    with pytest.raises(BudgetExceededError):
        cl.delta_four_point(g, mode="sampled", samples=101, budget=100)
    assert cl.delta_four_point(g, mode="sampled", samples=100, budget=100).sample_count == 100


def test_small_spaces_are_trivially_zero():
    g = Graph.from_edges([("a", "b")])
    assert cl.delta_four_point(g).delta == 0


# -- pole defect -------------------------------------------------------------------------


def test_pole_defect_tree_root_is_zero():
    t = cl.homogeneous_tree(3, 4)
    rep = cl.pole_defect(t.graph, "v", 4)
    assert rep.defect == 0
    assert set(rep.covered) == set(t.graph.vertices)


def test_pole_defect_star_of_paths():
    g = Graph.from_edges(
        [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
    )
    assert cl.pole_defect(g, "c", 2).defect == 0


def test_pole_defect_comb_teeth():
    # spine of length 12 with teeth of length 2: tips near the middle sit at
    # distance 2 from every base-to-sphere geodesic
    spine = [f"s{i}" for i in range(13)]
    edges = [(spine[i], spine[i + 1]) for i in range(12)]
    for i in range(13):
        edges += [(spine[i], f"t{i}a"), (f"t{i}a", f"t{i}b")]
    g = Graph.from_edges(edges)
    rep = cl.pole_defect(g, "s6", 6)
    assert rep.defect == 2
    assert rep.witness.endswith("b")


def test_pole_defect_on_tree_equals_dead_branch_depth():
    # covered set = complete subtree; defect = deepest dead hang-off
    t = cl.comb_tree(8, 3)
    rep = cl.pole_defect(t.graph, t.root, t.horizon)
    assert rep.covered == cl.maximal_complete_subtree(t)
    assert rep.defect == 3
    full = cl.homogeneous_tree(3, 4)
    assert cl.pole_defect(full.graph, "v", 4).defect == 0


def test_pole_defect_horizon_validation():
    g = cl.path_window(5, truncated=False)
    with pytest.raises(InvalidHorizonError):
        cl.pole_defect(g, "1", 10)
    with pytest.raises(InvalidInputError):
        cl.pole_defect(g, "zz", 2)
