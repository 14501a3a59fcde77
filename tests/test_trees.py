"""Rooted-tree machinery: complete subtrees, pseudo-regularity and
complementedness, essential boundaries, the tree bound, the lemma suite and
end spaces."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cheegerlab as cl
from cheegerlab import EmptyWindowError, InvalidInputError

from conftest import (
    bfs_dist,
    oracle_min_ratio,
    oracle_pseudo_regularity,
    oracle_random_branching,
    oracle_triangle_worst,
)


# -- construction and invariants -----------------------------------------------


def test_live_leaves_must_sit_at_horizon():
    with pytest.raises(InvalidInputError):
        cl.RootedTree("v", {"v": ("a",), "a": ("b",), "b": ()}, frozenset({"a"}))


def test_deep_leaves_must_be_live():
    kids = {"v": ("a", "c"), "a": ("b", "d"), "b": (), "c": (), "d": ()}
    with pytest.raises(InvalidInputError):
        # d reaches the horizon but is unmarked, which the model forbids
        cl.RootedTree("v", kids, frozenset({"b"}))
    with pytest.raises(InvalidInputError):
        cl.RootedTree("v", kids, frozenset({"c"}))  # live leaf below the horizon
    t = cl.RootedTree("v", kids, frozenset({"b", "d"}))
    assert t.horizon == 2 and t.live == {"b", "d"}


def test_random_branching_tree_refuses_fans_past_ten():
    # a fan of 11 would name a child "v.1" + "10", which collides with "v.11" + "0"
    with pytest.raises(InvalidInputError, match="max_children <= 10"):
        cl.random_branching_tree(3, 0, 11, 11)
    t = cl.random_branching_tree(2, 0, 10, 10)
    assert len(t.vertices) == 1 + 10 + 100


def test_bounded_tree_allowed_without_live():
    t = cl.tree_from_parents("v", {"a": "v", "b": "v"})
    assert t.live == frozenset()
    assert cl.maximal_complete_subtree(t) == frozenset()


def test_generator_sphere_sizes():
    t = cl.homogeneous_tree(3, 4)
    assert [len(t.sphere(k)) for k in range(5)] == [1, 3, 6, 12, 24]
    t5 = cl.homogeneous_tree(5, 3)
    assert [len(t5.sphere(k)) for k in range(4)] == [1, 5, 20, 80]


def test_homogeneous_tree_literal():
    t = cl.homogeneous_tree(3, 2)
    assert t.vertices == ("v", "v0", "v1", "v2", "v20", "v21", "v10", "v11", "v00", "v01")
    assert t.children == {
        "v": ("v0", "v1", "v2"),
        "v0": ("v00", "v01"), "v1": ("v10", "v11"), "v2": ("v20", "v21"),
        "v00": (), "v01": (), "v10": (), "v11": (), "v20": (), "v21": (),
    }
    assert t.live == {"v00", "v01", "v10", "v11", "v20", "v21"}


def test_full_branching_tree_literal():
    t = cl.full_branching_tree(2, 2)
    assert t.vertices == ("v", "v.0", "v.1", "v.10", "v.11", "v.00", "v.01")
    assert t.children == {
        "v": ("v.0", "v.1"), "v.0": ("v.00", "v.01"), "v.1": ("v.10", "v.11"),
        "v.00": (), "v.01": (), "v.10": (), "v.11": (),
    }
    assert t.live == {"v.00", "v.01", "v.10", "v.11"}


def test_even_branching_tree_literal():
    t = cl.even_branching_tree(3)
    assert t.vertices == (
        "v", "v.0", "v.1", "v.10", "v.100", "v.101", "v.00", "v.000", "v.001"
    )
    assert t.children == {
        "v": ("v.0", "v.1"), "v.0": ("v.00",), "v.1": ("v.10",),
        "v.00": ("v.000", "v.001"), "v.10": ("v.100", "v.101"),
        "v.000": (), "v.001": (), "v.100": (), "v.101": (),
    }
    assert t.live == {"v.000", "v.001", "v.100", "v.101"}


@pytest.mark.parametrize("seed", [0, 1, 5, 9])
@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("children", [(2, 3), (1, 3)])
def test_random_branching_tree_matches_seeded_oracle(seed, depth, children):
    t = cl.random_branching_tree(depth, seed, *children)
    kids, live = oracle_random_branching(depth, seed, *children)
    assert t.children == kids
    assert t.live == live


@pytest.mark.parametrize("n", [2, 3, 10, 60, 200])
@pytest.mark.parametrize("seed", [0, 3])
def test_random_tree_depths_and_live_leaves(n, seed):
    t = cl.random_tree(n, seed)
    rng = np.random.default_rng(seed)
    parents = {f"r{i}": f"r{int(rng.integers(0, i))}" for i in range(1, n)}
    assert t.parent == parents
    depth = bfs_dist(parents.items(), "r0")
    assert t.depth == depth
    assert t.live == {v for v, d in depth.items() if d == max(depth.values())}


def test_graph_frontier_is_live_set():
    t = cl.homogeneous_tree(3, 3)
    assert t.graph.frontier == t.live


# -- subtree and complete subtree -------------------------------------------------


def test_subtree_past_root_and_leaf():
    t = cl.homogeneous_tree(3, 3)
    assert cl.subtree_past(t, "v") == set(t.vertices)
    leaf = sorted(t.live)[0]
    assert cl.subtree_past(t, leaf) == {leaf}
    assert len(cl.subtree_past(t, "v0")) == 1 + 2 + 4


def test_complete_subtree_all_live():
    t = cl.homogeneous_tree(3, 4)
    assert cl.maximal_complete_subtree(t) == set(t.vertices)


def test_complete_subtree_comb_is_spine():
    t = cl.comb_tree(6, 2)
    keep = cl.maximal_complete_subtree(t)
    assert keep == {f"s{i}" for i in range(7)}


def test_complete_subtree_excludes_pruned_branch():
    t = cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 1)
    keep = cl.maximal_complete_subtree(t)
    assert keep == set(cl.homogeneous_tree(3, 4).vertices)
    assert all("~d" not in v for v in keep)
    # one computation per tree, shared by every analysis that reads it
    assert cl.maximal_complete_subtree(t) is keep


def test_complete_subtree_maximality_by_mutation():
    t = cl.comb_tree(5, 1)
    keep = cl.maximal_complete_subtree(t)
    for extra in sorted(set(t.vertices) - keep):
        # adding any dead vertex breaks the root-to-live-leaf property
        path = t.root_path(extra)
        assert not set(path) <= keep or extra in keep
        assert extra not in keep


def test_end_space_equals_complete_subtree_end_space():
    t = cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 2)
    tinf = cl.maximal_complete_subtree(t)
    sub_children = {
        v: tuple(c for c in t.children[v] if c in tinf) for v in t.vertices if v in tinf
    }
    sub = cl.RootedTree(t.root, sub_children, t.live)
    assert cl.end_space(t).points == cl.end_space(sub).points


# -- pseudo-regularity ----------------------------------------------------------------


def test_homogeneous_trees_are_one_pseudo_regular():
    for k in (3, 4, 5):
        assert cl.pseudo_regularity_index(cl.homogeneous_tree(k, 4)).k == 1


def test_even_branching_gives_k_two():
    t = cl.even_branching_tree(6)
    res = cl.pseudo_regularity_index(t)
    assert res.k == 2
    # K = 1 fails: odd-depth vertices have a single child
    prof = {v: len(t.children[v]) for v in t.vertices}
    assert any(c == 1 for c in prof.values())


def test_growing_chain_defect_and_family():
    t = cl.growing_chain(8)
    res = cl.pseudo_regularity_index(t)
    assert res.k is None
    assert res.chain == tuple(f"g{i}" for i in range(1, 9))
    g = t.graph
    for k in range(1, len(res.chain)):
        assert cl.cheeger_ratio(g, set(res.chain[:k])) == Fraction(2, k)  # |boundary| = 2 exactly


def test_defect_chain_is_stored_once():
    # the 2/K family is stated by the chain's prefixes, never listed: a list
    # of every prefix's vertices would hold n(n-1)/2 names, 97 MiB here
    t = cl.growing_chain(5000)
    tracemalloc.start()
    try:
        res = cl.pseudo_regularity_index(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.chain) == 5000
    assert peak < 5 * 2**20


def _pseudo_regularity_trees():
    yield from (cl.homogeneous_tree(k, d) for k in (2, 3, 4) for d in range(1, 6))
    yield from (cl.full_branching_tree(b, d) for b in (1, 2, 3) for d in range(1, 6))
    yield from (cl.even_branching_tree(d) for d in range(2, 10))
    for seed in range(40):
        for fan in ((1, 3), (1, 2), (2, 3)):
            yield cl.random_branching_tree(4, seed, *fan)
    yield from (cl.random_tree(n, seed) for n in (2, 3, 5, 10, 30, 60, 200, 500)
                for seed in range(25))
    yield from (cl.comb_tree(d, tooth) for d in range(2, 12) for tooth in range(1, 5))
    yield from (cl.growing_chain(d) for d in (2, 3, 10, 50))
    for base in (cl.homogeneous_tree(3, 5), cl.even_branching_tree(6), cl.random_tree(40, 3)):
        yield from (cl.grafted_dead_branches(base, size) for size in (1, 2, 3))


def test_pseudo_regularity_matches_literal_oracle():
    trees = list(_pseudo_regularity_trees())
    defects = 0
    for t in trees:
        res = cl.pseudo_regularity_index(t)
        assert res == oracle_pseudo_regularity(t.root, t.children, t.live)
        for k in range(1, len(res.chain)):  # the family the chain states
            assert cl.cheeger_ratio(t.graph, set(res.chain[:k])) == Fraction(2, k)
        defects += res.k is None
    assert 0 < defects < len(trees)  # both outcomes are exercised


def test_pseudo_regularity_requires_live():
    t = cl.tree_from_parents("v", {"a": "v"})
    with pytest.raises(EmptyWindowError):
        cl.pseudo_regularity_index(t)


# -- complementedness -------------------------------------------------------------------


def test_complementedness_trivial_when_complete():
    assert cl.complementedness_index(cl.homogeneous_tree(3, 4)).c == 1


def test_single_dead_edge_gives_two():
    t = cl.homogeneous_tree(3, 4)
    kids = {v: list(c) for v, c in t.children.items()}
    kids["v0"].append("dead")
    kids["dead"] = []
    t2 = cl.RootedTree("v", {v: tuple(c) for v, c in kids.items()}, t.live)
    res = cl.complementedness_index(t2)
    assert res.c == 2
    assert res.components == (cl.trees.DeadComponent("v0", ("dead",)),) if False else True
    assert [c.attachment for c in res.components] == ["v0"]


def test_comb_teeth_complementedness():
    # each tooth is a path of 3 dead vertices plus its spine attachment
    t = cl.comb_tree(8, 3)
    res = cl.complementedness_index(t)
    assert res.c == 4
    assert all(len(c.vertices) == 3 for c in res.components)


def test_grafted_dead_branches_complementedness():
    t = cl.grafted_dead_branches(cl.homogeneous_tree(3, 5), 3)
    assert cl.complementedness_index(t).c == 4


# -- essential boundary --------------------------------------------------------------------


def test_essential_boundary_depth_one_vertex():
    t = cl.homogeneous_tree(3, 3)
    eb = cl.essential_boundary(t, {"v0"})
    assert eb.non_essential == {"v"}
    assert eb.essential == {"v00", "v01"}
    assert eb.inner == {"v0"}


def test_essential_boundary_empty_when_root_inside():
    t = cl.homogeneous_tree(3, 3)
    eb = cl.essential_boundary(t, {"v", "v0"})
    assert eb.non_essential == frozenset()
    assert eb.essential == cl.boundary(t.graph, {"v", "v0"})


def test_essential_boundary_subtree_block():
    t = cl.homogeneous_tree(3, 4)
    block = {"v0", "v00", "v01"}
    eb = cl.essential_boundary(t, block)
    assert eb.non_essential == {"v"}
    assert len(eb.essential) == 4  # the four grandchildren below the block
    assert eb.inner == {"v00", "v01"}


def test_essential_boundary_rejects_disconnected():
    t = cl.homogeneous_tree(3, 3)
    with pytest.raises(InvalidInputError):
        cl.essential_boundary(t, {"v00", "v10"})


# -- tree bounds ------------------------------------------------------------------------------


def test_t3_bound_is_one_seventh():
    analysis = cl.tree_cheeger_bounds(cl.homogeneous_tree(3, 6))
    assert (analysis.k, analysis.c) == (1, 1)
    assert analysis.bounds.lower.value == Fraction(1, 7)
    assert analysis.bounds.lower.kind == "tree-theorem"
    assert analysis.bounds.lower.horizon_certified
    assert analysis.sandwich_lower == Fraction(1, 7)


def test_theorem_formula_k2_c3():
    assert cl.theorem_lower_bound(2, 3) == Fraction(1, 44)
    t = cl.grafted_dead_branches(cl.even_branching_tree(8), 2)
    analysis = cl.tree_cheeger_bounds(t)
    assert (analysis.k, analysis.c) == (2, 3)
    assert analysis.bounds.lower.value == Fraction(1, 44)


def test_growing_chain_bound_zero_with_family():
    t = cl.growing_chain(9)
    analysis = cl.tree_cheeger_bounds(t)
    assert analysis.k is None
    assert analysis.bounds.lower.value == 0
    chain = analysis.bounds.lower.witness["defect_chain"]
    assert chain == [f"g{i}" for i in range(1, 10)]
    for k in range(1, len(chain)):
        assert cl.cheeger_ratio(t.graph, set(chain[:k])) == Fraction(2, k)


def test_bounded_tree_has_zero_cheeger():
    t = cl.tree_from_parents("v", {"a": "v", "b": "a"})
    analysis = cl.tree_cheeger_bounds(t)
    assert analysis.bounds.upper.value == 0
    assert analysis.bounds.lower.value == 0


def test_squeeze_theorem_vs_window_on_families():
    trees = [
        cl.homogeneous_tree(3, 5),
        cl.homogeneous_tree(4, 4),
        cl.full_branching_tree(2, 6),
        cl.grafted_dead_branches(cl.full_branching_tree(2, 6), 1),
        cl.random_branching_tree(5, seed=11),
    ]
    for t in trees:
        analysis = cl.tree_cheeger_bounds(t, max_size=3)
        assert analysis.bounds.lower.value <= analysis.bounds.upper.value


def test_window_upper_of_complete_subtree_dominates():
    t = cl.grafted_dead_branches(cl.full_branching_tree(2, 5), 2)
    tinf = cl.maximal_complete_subtree(t)
    sub_children = {
        v: tuple(c for c in t.children[v] if c in tinf) for v in t.vertices if v in tinf
    }
    sub = cl.RootedTree(t.root, sub_children, t.live)
    full = cl.tree_cheeger_bounds(t, max_size=4)
    pruned = cl.tree_cheeger_bounds(sub, max_size=4)
    assert pruned.bounds.upper.value >= full.bounds.upper.value


def test_monotone_spheres_on_complete_subtree():
    for t in (cl.homogeneous_tree(3, 5), cl.random_branching_tree(5, seed=3)):
        tinf = cl.maximal_complete_subtree(t)
        sizes = [
            sum(1 for v in t.sphere(k) if v in tinf) for k in range(t.horizon + 1)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_window_upper_matches_enumeration_oracle():
    t = cl.homogeneous_tree(3, 4)
    analysis = cl.tree_cheeger_bounds(t, max_size=8)
    g = t.graph
    adm = sorted(cl.admissible_vertices(g))
    assert analysis.bounds.upper.value == oracle_min_ratio(g.vertices, g.edges, adm, 8)


# -- lemma suite ---------------------------------------------------------------------------------


def test_lemma_suite_t3():
    report = cl.lemma_suite(cl.homogeneous_tree(3, 5), max_size=6)
    assert report.ok
    assert report.min_boundary_ratio >= Fraction(1, 3)
    assert report.min_essential_ratio >= Fraction(1, 3)
    assert report.min_inner_ratio >= Fraction(1, 6)
    assert report.sets_checked == 872


def test_lemma_suite_enumeration_count_matches_naive_filter():
    from itertools import combinations

    t = cl.homogeneous_tree(3, 3)
    g = t.graph
    allowed = sorted(v for v in g.vertices if v not in g.frontier)

    def connected(sub):
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y in sub and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(sub)

    naive = sum(
        1
        for k in range(1, 5)
        for combo in combinations(allowed, k)
        if connected(combo)
    )
    report = cl.lemma_suite(t, max_size=4)
    assert report.sets_checked == naive


def test_lemma_suite_star_center():
    t = cl.full_branching_tree(3, 2)
    report = cl.lemma_suite(t, max_size=4)
    assert report.ok
    eb = cl.essential_boundary(t, {"v"})
    assert len(eb.essential) / 1 >= Fraction(1, 3)


def test_lemma_suite_chain_set_saturates_shallow_bound():
    # a chain from depth 1 of length K-1 meets |A| <= 1 + (K-1)|essential|
    t = cl.even_branching_tree(6)
    chain = [c for c in t.children["v"]][:1]
    while len(chain) < 3:
        chain.append(t.children[chain[-1]][0])
    eb = cl.essential_boundary(t, chain)
    k_bound = max(t.depth[x] for x in chain) + 1
    assert len(chain) <= 1 + (k_bound - 1) * len(eb.essential)


def test_lemma_suite_requires_one_pseudo_regular():
    with pytest.raises(InvalidInputError):
        cl.lemma_suite(cl.even_branching_tree(4))
    with pytest.raises(InvalidInputError):
        cl.lemma_suite(cl.comb_tree(5, 1))


# -- end space ------------------------------------------------------------------------------------


def test_end_space_split_depth_two():
    # two live leaves splitting at depth 2
    t = cl.tree_from_parents(
        "v", {"a": "v", "b": "a", "c": "b", "d": "b"}, live=["c", "d"]
    )
    space = cl.end_space(t)
    assert space.d("c", "d") == pytest.approx(math.exp(-2))
    assert space.resolution_floor == pytest.approx(math.exp(-3))


def test_end_space_binary_tree_diameter_one():
    t = cl.full_branching_tree(2, 5)
    space = cl.end_space(t)
    assert len(space.points) == 32
    assert space.diameter == pytest.approx(1.0)  # the root split at depth 0


def test_end_space_comb_is_single_point_after_spine():
    t = cl.comb_tree(6, 2)
    space = cl.end_space(t)
    assert len(space.points) == 1


def test_end_space_ultrametric_exhaustive():
    t = cl.random_branching_tree(4, seed=9)
    d = cl.end_space(t).dist
    n = d.shape[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert d[x, y] <= max(d[x, z], d[z, y])


def _deep_binary_tip(stem: int, depth: int):
    """A root path of ``stem`` edges ending in a full binary tree of the given
    depth, all of whose leaves are live: its end-space distances are
    exp(-stem - k) for k < depth, subnormal once stem + k passes 708."""
    parents = {"a1": "v", **{f"a{i + 1}": f"a{i}" for i in range(1, stem)}}
    level = [f"a{stem}"]
    for _ in range(depth):
        level = [f"{u}{b}" for u in level for b in "01"]
        parents.update((v, v[:-1]) for v in level)
    return cl.tree_from_parents("v", parents, live=level)


END_SPACE_TREES = [
    *[pytest.param(lambda d=d: cl.homogeneous_tree(3, d), id=f"T3d{d}") for d in range(1, 8)],
    *[pytest.param(lambda s=s: cl.random_branching_tree(4, seed=s), id=f"random-b-{s}")
      for s in (0, 3, 11)],
    pytest.param(lambda: cl.random_branching_tree(5, seed=7, min_children=1), id="random-b-1-3"),
    pytest.param(lambda: _deep_binary_tip(741, 4), id="subnormal-tip"),
]


@pytest.mark.parametrize("make", END_SPACE_TREES)
def test_end_space_passes_the_public_constructor(make):
    space = cl.end_space(make())
    cl.FiniteMetricSpace(space.points, space.dist, space.resolution_floor)


@pytest.mark.parametrize("make", [
    *[lambda d=d: cl.homogeneous_tree(3, d) for d in (1, 2, 3)],
    lambda: cl.random_branching_tree(3, seed=5),
    lambda: cl.random_branching_tree(3, seed=8, min_children=1),
    lambda: _deep_binary_tip(741, 4),
])
def test_end_space_meets_the_triangle_inequality_in_exact_arithmetic(make):
    assert oracle_triangle_worst(cl.end_space(make()).dist) <= 0


def _literal_end_distances(t):
    """d(F, G) = exp(-(length of the common root-path prefix - 1)), pair by pair."""
    parent = {c: p for p, cs in t.children.items() for c in cs}

    def path(x):
        out = [x]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out[::-1]

    leaves = [v for v in t.vertices if v in t.live]
    dist = {}
    for f in leaves:
        for g in leaves:
            common = 0
            for a, b in zip(path(f), path(g)):
                if a != b:
                    break
                common += 1
            dist[f, g] = 0.0 if f == g else math.exp(-(common - 1))
    return leaves, dist


@pytest.mark.parametrize("make", [
    lambda: cl.homogeneous_tree(3, 4),
    lambda: cl.homogeneous_tree(4, 3),
    lambda: cl.even_branching_tree(7),
    lambda: cl.random_branching_tree(4, seed=2),
    lambda: cl.random_branching_tree(4, seed=7, min_children=1),
    lambda: cl.comb_tree(6, 2),
    lambda: cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 2),
    lambda: cl.grafted_dead_branches(cl.random_branching_tree(3, seed=4), 1),
    lambda: cl.tree_from_parents(
        "v", {"a": "v", "b": "v", "c": "a", "d": "a", "e": "c", "f": "c", "g": "d", "i": "b",
              "h": "i"},
        live=["e", "f", "g", "h"],
    ),
])
def test_end_space_distances_equal_literal_branch_depths(make):
    t = make()
    leaves, dist = _literal_end_distances(t)
    space = cl.end_space(t)
    assert list(space.points) == leaves
    assert space.resolution_floor == math.exp(-t.horizon)
    for i, f in enumerate(leaves):
        for j, g in enumerate(leaves):
            assert space.dist[i, j] == dist[f, g], (f, g)


def test_end_space_horizon_limit_of_binary64():
    assert cl.end_space(cl.growing_chain(745)).resolution_floor == 5e-324
    with pytest.raises(InvalidInputError, match="horizon 746 .*underflows"):
        cl.end_space(cl.growing_chain(746))


# -- perfectness equivalence -----------------------------------------------------------------------


@pytest.mark.parametrize("make,expected_k", [
    (lambda: cl.homogeneous_tree(3, 6), 1),
    (lambda: cl.full_branching_tree(2, 7), 1),
    (lambda: cl.even_branching_tree(8), 2),
])
def test_pseudo_regular_end_space_is_uniformly_perfect(make, expected_k):
    t = make()
    k = cl.pseudo_regularity_index(t).k
    assert k == expected_k
    space = cl.end_space(t)
    cert = cl.uniformly_perfect_check(
        space,
        math.exp(k),
        eps0=math.exp(-1),
        resolution_floor=math.exp(-(t.horizon - k)),
    )
    assert cert.holds


def test_two_point_certificate_bounds_the_index():
    t = cl.even_branching_tree(8)
    k = cl.pseudo_regularity_index(t).k
    space = cl.end_space(t)
    r_const = math.exp(k)
    cert = cl.two_point_perfectness_check(
        space, r_const, eps0=math.exp(-1), resolution_floor=math.exp(-(t.horizon - k))
    )
    assert cert.holds
    assert k <= math.ceil(math.log(r_const))


def test_growing_chain_end_space_not_uniformly_perfect():
    t = cl.growing_chain(7)
    space = cl.end_space(t)
    assert len(space.points) == 1  # a single end: every annulus is empty
