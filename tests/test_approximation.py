"""Truncated hyperbolic approximations: construction, structural checks,
level certificates, releveling and boundary identification."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cheegerlab as cl
from cheegerlab import FiniteMetricSpace, InvalidInputError
from cheegerlab.cli import main
from cheegerlab.io import (
    canonical_json_bytes,
    leveled_from_payload,
    leveled_payload,
    load_leveled,
    save_leveled,
)

from conftest import oracle_approximation_edges, oracle_level_certificate


def singleton():
    return FiniteMetricSpace(("o",), np.zeros((1, 1)))


# -- construction -----------------------------------------------------------------


def test_parameter_range_enforced():
    X = cl.two_point(1.0)
    with pytest.raises(InvalidInputError):
        cl.build_truncated(X, 0.3, 2)
    with pytest.raises(InvalidInputError):
        cl.build_truncated(X, 0.0, 2)


@pytest.mark.parametrize("k_max,k0", [(0, -400), (-300, -308), (400, -2)])
def test_level_radius_out_of_float_range_is_invalid_input(k_max, k0):
    # 0.1^-400 overflows, 2 * 0.1^-308 is inf, and 2 * 0.1^400 underflows to 0
    with pytest.raises(InvalidInputError, match="not a finite positive float"):
        cl.build_truncated(cl.cantor_sample(3), 0.1, k_max, k0=k0)


@pytest.mark.parametrize("k_max,k0", [("0", "-400"), ("-300", "-308")])
def test_cli_approx_level_radius_out_of_float_range_exits_invalid(tmp_path, capsys, k_max, k0):
    argv = ["approx", "--in", "cantor:3", "--r", "0.1", "--k-max", k_max, "--k0", k0,
            "--out", str(tmp_path / "lg.json")]
    assert main(argv) == 2
    assert "not a finite positive float" in capsys.readouterr().err
    assert not (tmp_path / "lg.json").exists()


def test_two_point_structure():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 2)
    assert lg.k0 == -1
    assert len(lg.level_vertices(-1)) == 1
    assert len(lg.level_vertices(0)) == 2
    adj = lg.graph.adjacency
    # level 0 is a horizontal pair, joined downward to the base
    assert "L0:q" in adj["L0:p"]
    assert "L-1:p" in adj["L0:p"] and "L-1:p" in adj["L0:q"]
    # level 1 onward the two sides separate from each other (no horizontal)
    assert "L1:q" not in adj["L1:p"]
    assert lg.graph.frontier == {"L2:p", "L2:q"}


def test_two_point_deep_levels_are_twin_chains():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 4)
    adj = lg.graph.adjacency
    for k in (2, 3):
        assert sorted(adj[f"L{k}:p"]) == [f"L{k - 1}:p", f"L{k + 1}:p"]


def test_singleton_is_a_chain_and_needs_explicit_base():
    with pytest.raises(InvalidInputError):
        cl.build_truncated(singleton(), 1 / 6, 3)
    lg = cl.build_truncated(singleton(), 1 / 6, 4, k0=0)
    assert len(lg.graph.vertices) == 5
    assert lg.graph.mu <= 2  # a path
    cert = cl.level_certificate(lg)
    assert not cert.certified and cert.c2 == 0


def test_cantor_level_sizes_and_determinism():
    X = cl.cantor_sample(6)
    lg = cl.build_truncated(X, 1 / 9, 3)
    sizes = [len(lg.level_vertices(k)) for k in range(lg.k0, lg.k_max + 1)]
    assert sizes == [1, 4, 16, 64]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    again = cl.build_truncated(cl.cantor_sample(6), 1 / 9, 3)
    assert canonical_json_bytes(leveled_payload(lg)) == canonical_json_bytes(
        leveled_payload(again)
    )


@pytest.mark.parametrize("make,r,k_max", [
    pytest.param(lambda: cl.cantor_sample(5), 1 / 9, 3, id="cantor5"),
    pytest.param(lambda: cl.cantor_sample(4), 1 / 6, 3, id="cantor4-r6"),
    pytest.param(lambda: cl.interval_sample(17), 1 / 6, 2, id="interval17"),
    pytest.param(lambda: cl.interval_sample(9), 1 / 9, 2, id="interval9-r9"),
    pytest.param(lambda: cl.end_space(cl.homogeneous_tree(3, 4)), math.exp(-2), 2, id="ends-T3d4"),
])
def test_build_matches_literal_edge_oracle(make, r, k_max):
    space = make()
    lg = cl.build_truncated(space, r, k_max)
    assert lg.graph.edges == oracle_approximation_edges(
        space.points, space.dist.tolist(), r, lg.k0, k_max
    )


def test_kmax_must_reach_base():
    with pytest.raises(InvalidInputError):
        cl.build_truncated(cl.cantor_sample(4), 1 / 9, -1)


# -- structural checks ---------------------------------------------------------------


def test_structural_checks_singleton_chain():
    lg = cl.build_truncated(singleton(), 1 / 6, 4, k0=0)
    rep = cl.structural_checks(lg)
    assert rep.structural_ok
    assert rep.delta.delta == 0
    assert rep.max_degree <= 2


def test_structural_checks_two_point():
    rep = cl.structural_checks(cl.build_truncated(cl.two_point(1.0), 1 / 6, 3))
    assert rep.structural_ok
    assert float(rep.delta.delta) <= 3.0


def test_structural_checks_report_level_violations():
    # a(0) - b(1) - c(2) is a proper ray; a--c skips level 1 and d(1) has no
    # neighbor on level 2
    g = cl.Graph.from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")], frontier=["c"]
    )
    level = {"a": 0, "b": 1, "c": 2, "d": 1}
    center = {"a": "p", "b": "p", "c": "p", "d": "q"}
    lg = cl.LeveledGraph(g, cl.two_point(1.0), 1 / 6, 0, 2, level, center)
    rep = cl.structural_checks(lg)
    assert not rep.classification_ok
    assert not rep.upper_neighbor_ok
    assert rep.unique_base_ok
    assert not rep.structural_ok
    assert "edge a--c is neither horizontal nor radial" in rep.violations
    assert "d has no neighbor one level up" in rep.violations


def test_structural_checks_cantor():
    for depth, kmax in ((5, 2), (6, 3)):
        lg = cl.build_truncated(cl.cantor_sample(depth), 1 / 9, kmax)
        rep = cl.structural_checks(lg)
        assert rep.structural_ok, rep.violations
        assert rep.classification_ok and rep.unique_base_ok and rep.upper_neighbor_ok
        assert rep.degree_cap_ok and rep.max_degree <= rep.degree_cap
        assert rep.delta_ok


def test_radial_geodesics_have_monotone_levels():
    # every edge moves the level by at most one and every vertex has both an
    # upper and (above the base) a lower neighbor, so base distances realize
    # the level offsets exactly: base geodesics are radial with monotone level
    for lg in (
        cl.build_truncated(cl.cantor_sample(5), 1 / 9, 2),
        cl.build_truncated(cl.two_point(1.0), 1 / 6, 4),
    ):
        dist = lg.graph.bfs_distances([lg.base])
        for v in lg.graph.vertices:
            assert dist[v] == lg.level[v] - lg.k0


# -- level certificates -----------------------------------------------------------------


def test_level_certificate_needs_three_levels():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 0)
    with pytest.raises(InvalidInputError):
        cl.level_certificate(lg)


def test_level_certificate_rejects_an_empty_interior():
    # k_max - k0 = 2 but no vertex sits on level 1
    lg = cl.LeveledGraph(
        cl.Graph.from_edges([("a", "b")]), cl.two_point(1.0), 1 / 6, 0, 2,
        {"a": 0, "b": 2}, {"a": "p", "b": "q"},
    )
    with pytest.raises(cl.EmptyWindowError):
        cl.level_certificate(lg)


def test_two_point_certificate_pinches():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 4)
    cert = cl.level_certificate(lg)
    assert not cert.certified
    assert cert.c2 < 0
    assert cert.violating_vertex in ("L1:p", "L1:q")


def test_cantor_certificate_after_relevel():
    lg = cl.build_truncated(cl.cantor_sample(6), 1 / 9, 4)
    coarse = cl.relevel(lg, 2)
    assert coarse.k_max - coarse.k0 >= 2
    cert = cl.level_certificate(coarse)
    assert cert.certified
    assert cert.c2 > 0
    assert cert.bound.lower.value > 0
    assert cert.bound.lower.horizon_certified


def test_relevel_identity():
    lg = cl.build_truncated(cl.cantor_sample(5), 1 / 9, 2)
    same = cl.relevel(lg, 1)
    assert canonical_json_bytes(leveled_payload(lg)) == canonical_json_bytes(
        leveled_payload(same)
    )


def test_relevel_singleton_still_a_chain():
    lg = cl.build_truncated(singleton(), 1 / 6, 4, k0=0)
    coarse = cl.relevel(lg, 2)
    assert coarse.graph.mu <= 2


def skipped_level_graph():
    """A hand-built leveled graph whose edge b--x skips level 1: at x the
    level steps are -2, +1, 0, 0, so the Laplacian is -1/4 and c1 = 2, while
    counting only the +-1 steps would give x the drift +1/4."""
    edges = [
        ("a", "b"), ("b", "x"), ("x", "y1"), ("h1", "x"), ("h2", "x"), ("a", "h1"),
        ("a", "h2"), ("h1", "y2"), ("h1", "y3"), ("h2", "y4"), ("h2", "y5"),
    ]
    deepest = [f"y{i}" for i in range(1, 6)]
    g = cl.Graph.from_edges(edges, frontier=deepest)
    level = {"b": 0, "a": 1, "x": 2, "h1": 2, "h2": 2, **{y: 3 for y in deepest}}
    return cl.LeveledGraph(g, cl.two_point(1.0), 1 / 6, 0, 3, level, {v: "p" for v in g.vertices})


def test_level_certificate_reads_the_real_gradient_and_laplacian(tmp_path):
    lg = skipped_level_graph()
    cert = cl.level_certificate(lg)
    assert not cert.certified and cert.bound is None
    assert (cert.c1, cert.c2, cert.violating_vertex) == (2, Fraction(-1, 4), "x")
    # the document loader keeps such a graph as it is, and so does the certificate
    save_leveled(tmp_path / "lg.json", lg)
    assert cl.level_certificate(load_leveled(tmp_path / "lg.json")) == cert


BUILT_APPROXIMATIONS = {
    "cantor6-relevel2": lambda: cl.relevel(cl.build_truncated(cl.cantor_sample(6), 1 / 9, 4), 2),
    "cantor7-k4": lambda: cl.build_truncated(cl.cantor_sample(7), 0.111111, 4),
    "cantor7-k5-relevel2": lambda: cl.relevel(
        cl.build_truncated(cl.cantor_sample(7), 0.111111, 5), 2
    ),
    "two-point": lambda: cl.build_truncated(cl.two_point(1.0), 1 / 6, 4),
    "singleton-chain": lambda: cl.build_truncated(singleton(), 1 / 6, 4, k0=0),
    "t3d6-ends": lambda: cl.build_truncated(
        cl.end_space(cl.homogeneous_tree(3, 6)), math.exp(-2), 3
    ),
    "chain-ends": lambda: cl.build_truncated(cl.end_space(cl.growing_chain(6)), 1 / 6, 3, k0=0),
}


@pytest.mark.parametrize("name", [*BUILT_APPROXIMATIONS, "skipped-level"])
def test_level_certificate_matches_the_literal_oracle(name):
    lg = skipped_level_graph() if name == "skipped-level" else BUILT_APPROXIMATIONS[name]()
    c1, c2, worst, bound = oracle_level_certificate(
        lg.graph.vertices, lg.graph.edges, lg.level, lg.k0, lg.k_max
    )
    cert = cl.level_certificate(lg)
    assert (cert.c1, cert.c2) == (c1, c2)
    assert cert.certified == (bound is not None)
    if bound is None:
        assert cert.violating_vertex == worst
    else:
        assert cert.bound.lower.value == bound
        assert cert.bound.lower.witness == {"function": "level", "c1": c1, "c2": c2}
    if name != "skipped-level":  # every level step of a built approximation is -1, 0 or +1
        assert c1 == 1


# -- tree end spaces through the pipeline ---------------------------------------------------


def test_tree_end_space_certificate_positive_iff_pseudo_regular():
    # a pseudo-regular tree's end space certifies; a chain end space cannot
    t = cl.homogeneous_tree(3, 6)
    space = cl.end_space(t)
    lg = cl.build_truncated(space, math.exp(-2), 3)
    cert = cl.level_certificate(lg)
    assert cert.certified and cert.bound.lower.value > 0

    chain_space = cl.end_space(cl.growing_chain(6))
    lg2 = cl.build_truncated(chain_space, 1 / 6, 3, k0=0)
    cert2 = cl.level_certificate(lg2)
    assert not cert2.certified


# -- boundary identification ------------------------------------------------------------------


def test_boundary_identification_sibling_pair():
    lg = cl.build_truncated(cl.cantor_sample(3), 1 / 9, 1)
    # centers 0 and 2/3 split at the first Cantor branching
    pairs = [("L1:c000", "L1:c100")]
    rep = cl.boundary_identification_check(lg, pairs=pairs)
    expected = math.log(1 / (2 / 3)) / math.log(9.0)
    assert rep.pairs[0].expected == pytest.approx(expected)
    assert rep.ok


def test_boundary_identification_sampled_pairs_stable():
    lg = cl.build_truncated(cl.cantor_sample(6), 1 / 9, 3)
    rep1 = cl.boundary_identification_check(lg, sample=50, seed=0)
    rep2 = cl.boundary_identification_check(lg, sample=50, seed=0)
    assert rep1.max_deviation == rep2.max_deviation
    assert len(rep1.pairs) == 50
    assert rep1.ok  # measured deviations stay below the recorded slack
    assert rep1.max_deviation <= 1.0


def test_boundary_identification_rejects_same_center():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 2)
    with pytest.raises(InvalidInputError):
        cl.boundary_identification_check(lg, pairs=[("L2:p", "L2:p")])


def test_loaded_document_with_two_base_vertices_is_invalid_input():
    doc = leveled_payload(cl.build_truncated(cl.cantor_sample(3), 1 / 9, 2))
    k0 = doc["k0"]
    doc["level"][min(v for v, k in doc["level"].items() if k == k0 + 1)] = k0
    lg = leveled_from_payload(doc)
    with pytest.raises(InvalidInputError, match=f"level {k0} has 2 vertices"):
        cl.boundary_identification_check(lg)
