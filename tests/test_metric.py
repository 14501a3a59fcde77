"""Metric spaces: separated sets, perfectness checks and conversions,
bounded-geometry profiles, nets and generators."""

import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import FiniteMetricSpace, InvalidInputError, io, metric
from cheegerlab.cli import main as cli_main

from conftest import oracle_greedy_separated, oracle_net_edges, oracle_triangle_worst


def oracle_scales(space, eps0, floor, grid=()):
    pts = space.points
    return sorted(
        {space.d(a, b) for a in pts for b in pts if floor <= space.d(a, b) <= eps0}
        | {floor, eps0, *grid}
    )


def annulus_oracle(space, s, eps0, floor, grid=()):
    """Literal double-loop annulus check over realized and grid scales in range."""
    pts = space.points
    for eps in oracle_scales(space, eps0, floor, grid):
        for x in pts:
            if not any(eps / s < space.d(x, y) <= eps for y in pts):
                return False, (x, eps)
    return True, None


def two_point_oracle(space, r_const, eps0, floor, grid=()):
    """Literal loops over scales and points: the closed ball B(x, eps) holds
    two points more than eps/R apart."""
    pts = space.points
    for eps in oracle_scales(space, eps0, floor, grid):
        for x in pts:
            ball = [y for y in pts if space.d(x, y) <= eps]
            if not any(space.d(a, b) > eps / r_const for a in ball for b in ball):
                return False, (x, eps)
    return True, None


# -- validation ------------------------------------------------------------------


def test_rejects_asymmetric_matrix():
    with pytest.raises(InvalidInputError):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_rejects_triangle_violation():
    d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(InvalidInputError):
        FiniteMetricSpace(("a", "b", "c"), d)


def test_triangle_check_memory_is_quadratic():
    d = cl.interval_sample(400).dist  # built without the scan, so the scan is timed below
    tracemalloc.start()
    try:
        FiniteMetricSpace(tuple(f"i{i}" for i in range(400)), d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an n x n x n float64 temporary would be 512 MB; a few n x n rows fit easily
    assert peak < 64 * 2**20


@st.composite
def near_metrics(draw):
    """A symmetric matrix with entries below 200, so float rounding in the
    check stays far below 1e-12: Euclidean points, an integer line metric
    times a scale, or the end space of a small random tree.  Maybe one
    symmetric pair is then scaled, by a free factor or so that its best
    triangle breaks by about the tolerance, and moved first, last, or right
    after its best witness k."""
    kind = draw(st.sampled_from(["euclidean", "line", "ends"]))
    if kind == "euclidean":
        dim = draw(st.integers(1, 3))
        coord = st.floats(-50, 50, allow_nan=False)
        pts = np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=3, max_size=8,
                                     unique=True)))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    elif kind == "line":
        ts = np.array(draw(st.lists(st.integers(-50, 50), min_size=3, max_size=8, unique=True)))
        d = np.abs(ts[:, None] - ts[None, :]) * draw(st.floats(1e-3, 1.0))
    else:
        d = cl.end_space(cl.random_tree(draw(st.integers(2, 14)), draw(st.integers(0, 999)))).dist
    n = len(d)
    if n < 2 or not draw(st.sampled_from([False, True, True])):
        return d
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    rest = [k for k in range(n) if k not in (i, j)]
    if rest and draw(st.booleans()):
        near = min(d[i, k] + d[k, j] for k in rest)
        excess = draw(st.sampled_from([-1e-9, 0.0, 0.9e-9, 1.1e-9, 2e-9, 1e-6]))
        # a pair that rounded to distance 0 stays 0; the test's assume drops it
        factor = (near + excess) / d[i, j] if d[i, j] > 0 else 1.0
    else:
        factor = draw(st.floats(0.25, 4.0))
    d = d.copy()
    d[i, j] = d[j, i] = d[i, j] * factor
    where = draw(st.sampled_from(["first", "last", "after-witness"] if rest else ["first"]))
    if where == "first":
        order = [i, j, *rest]
    elif where == "last":
        order = [*rest, i, j]
    else:
        k = min(rest, key=lambda k: d[i, k] + d[k, j])
        order = [k, i, j, *(x for x in rest if x != k)]
    return d[np.ix_(order, order)]


@given(near_metrics())
@example(np.zeros((1, 1)))
@example(np.array([[0.0, 2.0], [2.0, 0.0]]))
@settings(max_examples=300, deadline=None)
def test_triangle_check_accepts_exactly_what_the_exact_oracle_accepts(d):
    # close Euclidean points can round to distance 0, and scaling such a pair
    # gives 0 * inf = nan, which the exact oracle cannot read; so this goes first
    assume((d[~np.eye(len(d), dtype=bool)] > 0).all())
    worst = oracle_triangle_worst(d)
    tol = Fraction(metric.TRIANGLE_TOL)
    assume(abs(worst - tol) > Fraction(1, 10**12))  # float rounding could go either way
    names = tuple(f"p{i}" for i in range(len(d)))
    if worst <= tol:
        FiniteMetricSpace(names, d)
    else:
        with pytest.raises(InvalidInputError, match="triangle inequality violated"):
            FiniteMetricSpace(names, d)


def test_rejects_zero_offdiagonal():
    d = np.zeros((2, 2))
    with pytest.raises(InvalidInputError):
        FiniteMetricSpace(("a", "b"), d)


def test_rejects_non_finite_distances():
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, bad], [bad, 0.0]]))


def test_rejects_distances_whose_sum_overflows():
    """Four-point sums add two distances; above half the largest float they
    would overflow, on both construction paths and from the CLI generator."""
    half = float(np.finfo(float).max) / 2
    assert cl.two_point(half).diameter == half
    big = np.nextafter(half, np.inf)
    with pytest.raises(InvalidInputError, match="at most"):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, big], [big, 0.0]]))
    with pytest.raises(InvalidInputError, match="at most"):
        cl.two_point(big)
    assert cl.delta_four_point(cl.two_point(half)).delta == 0


@pytest.mark.parametrize("floor", [np.inf, np.nan, 0.0, -1.0])
def test_rejects_resolution_floor_that_is_not_finite_and_positive(floor):
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError, match="resolution_floor"):
        FiniteMetricSpace(("a", "b"), d, floor)
    assert FiniteMetricSpace(("a", "b"), d, 0.5).resolution_floor == 0.5


# -- the exact path -----------------------------------------------------------------


EXACT_SAMPLES = [
    *[pytest.param(lambda k=k: cl.cantor_sample(k), id=f"cantor{k}") for k in range(1, 10)],
    *[pytest.param(lambda n=n: cl.interval_sample(n), id=f"interval{n}")
      for n in (2, 3, 7, 10, 33, 100, 257, 400, 599, 600)],
    pytest.param(lambda: cl.two_point(1.0), id="two-point"),
    pytest.param(lambda: cl.two_point(1e-300), id="two-point-tiny"),
]


@pytest.mark.parametrize("make", EXACT_SAMPLES)
def test_exact_samples_pass_the_public_constructor(make):
    space = make()
    FiniteMetricSpace(space.points, space.dist, space.resolution_floor)


@pytest.mark.parametrize("make", [
    *[lambda k=k: cl.cantor_sample(k) for k in range(1, 5)],
    *[lambda n=n: cl.interval_sample(n) for n in (2, 3, 5, 10, 17, 24)],
    lambda: cl.two_point(0.3),
])
def test_exact_line_samples_meet_the_triangle_inequality_in_exact_arithmetic(make):
    assert oracle_triangle_worst(make().dist) <= Fraction(metric.TRIANGLE_TOL)


def test_generators_skip_the_triangle_scan(monkeypatch):
    def scan(self):
        raise AssertionError("__post_init__ ran")

    monkeypatch.setattr(FiniteMetricSpace, "__post_init__", scan)
    for space in (cl.cantor_sample(5), cl.interval_sample(40), cl.two_point(2.0),
                  cl.end_space(cl.homogeneous_tree(3, 3))):
        assert space.d(space.points[0], space.points[-1]) > 0  # a usable space
    with pytest.raises(AssertionError, match="__post_init__ ran"):
        cl.line_space([0.0, 1.0])


@pytest.mark.parametrize("dist, floor, message", [
    ([[0.0, 1.0], [2.0, 0.0]], None, "symmetric"),
    ([[0.0, np.inf], [np.inf, 0.0]], None, "finite"),
    ([[0.0, np.nan], [np.nan, 0.0]], None, "finite"),
    ([[1.0, 1.0], [1.0, 0.0]], None, r"dist\(x,x\) must be 0"),
    ([[0.0, 0.0], [0.0, 0.0]], None, "positive"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], None, "must be 2x2"),
    ([[0.0, 1.0], [1.0, 0.0]], 0.0, "resolution_floor"),
    ([[0.0, 1.0], [1.0, 0.0]], np.inf, "resolution_floor"),
])
def test_exact_path_runs_every_quadratic_check(dist, floor, message):
    with pytest.raises(InvalidInputError, match=message):
        FiniteMetricSpace._exact(("a", "b"), np.array(dist), floor)


@pytest.mark.parametrize("d", [float("inf"), float("nan"), 0.0, -1.0])
def test_two_point_rejects_a_distance_outside_zero_to_infinity(d):
    with pytest.raises(InvalidInputError):
        cl.two_point(d)


def test_loaders_keep_the_triangle_scan(tmp_path):
    space = cl.cantor_sample(6)
    payload = io.metric_payload(space)
    payload["dist"][0][1] = payload["dist"][1][0] = 0.5  # c000000 and c000001 are 2/729 apart
    io.write_canonical(tmp_path / "bent.json", payload)
    with pytest.raises(InvalidInputError, match="triangle inequality violated"):
        io.load_metric(tmp_path / "bent.json")
    with pytest.raises(InvalidInputError, match="triangle inequality violated"):
        io.load_space(tmp_path / "bent.json")
    argv = ["perfect", "--in", str(tmp_path / "bent.json"), "--s", "3.01", "--eps0", "1.0"]
    assert cli_main(argv) == 2


@given(st.lists(st.floats(allow_nan=False), max_size=60))
@example([])
@example([0.0, -0.0, 1.0, 1.0])
@settings(max_examples=200, deadline=None)
def test_unique_sorted_equals_np_unique_on_floats(xs):
    a = np.array(xs, dtype=float)
    got = metric.unique_sorted(a)
    assert np.array_equal(got, np.unique(a))
    assert got.dtype == a.dtype


@given(st.lists(st.integers(0, 30), min_size=3, max_size=90).map(
    lambda xs: np.array(xs[: len(xs) // 3 * 3]).reshape(3, -1)))
@settings(max_examples=100, deadline=None)
def test_unique_sorted_and_searchsorted_equal_np_unique_with_inverse(rows):
    sources, inverse = np.unique(rows, return_inverse=True)
    got = metric.unique_sorted(rows)
    assert np.array_equal(got, sources)
    assert np.array_equal(np.searchsorted(got, rows), inverse.reshape(rows.shape))


# -- greedy separated sets ----------------------------------------------------------


def test_greedy_line_example():
    space = cl.line_space([0, 0.5, 1.1, 3])
    assert cl.greedy_separated(space, 1.0) == ("x0", "x2", "x3")


def test_greedy_degenerate_radii():
    space = cl.line_space([0, 0.5, 1.1, 3])
    assert cl.greedy_separated(space, 10.0) == ("x0",)
    assert cl.greedy_separated(space, 0.25) == ("x0", "x1", "x2", "x3")


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_greedy_output_is_separated_and_maximal(seed):
    rng = np.random.default_rng(seed)
    coords = sorted(rng.uniform(0, 10, size=int(rng.integers(2, 20))).tolist())
    coords = [c + i * 1e-6 for i, c in enumerate(coords)]  # force distinct
    space = cl.line_space(coords)
    r = float(rng.uniform(0.1, 5.0))
    kept = cl.greedy_separated(space, r)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert space.d(a, b) >= r
    for p in space.points:
        assert min(space.d(p, a) for a in kept) < r


ORACLE_SPACES = [
    pytest.param(lambda: cl.interval_sample(17), id="interval17"),
    pytest.param(lambda: cl.cantor_sample(5), id="cantor5"),
    pytest.param(lambda: cl.end_space(cl.homogeneous_tree(3, 4)), id="ends-T3d4"),
    pytest.param(lambda: cl.line_space([0, 0.5, 1.1, 3, 3.5, 4.5]), id="line"),
]


def oracle_radii(space):
    """A fixed grid plus every distance from the first point, so that some
    pairs sit exactly at the radius."""
    return sorted({1 / 16, 1 / 8, 0.25, 1 / 3, 0.5, 1.0} | {d for d in space.dist[0].tolist() if d > 0})


@pytest.mark.parametrize("make", ORACLE_SPACES)
def test_greedy_matches_literal_oracle(make):
    space = make()
    dist = space.dist.tolist()
    for r in oracle_radii(space):
        assert cl.greedy_separated(space, r) == oracle_greedy_separated(space.points, dist, r), r
    # a point exactly r from the kept ones is kept
    assert cl.greedy_separated(cl.interval_sample(17), 1 / 8) == tuple(f"i{i}" for i in range(0, 17, 2))


# -- epsilon nets ----------------------------------------------------------------


@pytest.mark.parametrize("make", ORACLE_SPACES)
def test_net_matches_literal_oracle(make):
    space = make()
    dist = space.dist.tolist()
    for eps in oracle_radii(space):
        g = cl.epsilon_net(space, eps)
        assert g.vertices == oracle_greedy_separated(space.points, dist, eps)
        assert g.edges == oracle_net_edges(space.points, dist, eps), eps
    # kept points 1/8 apart: the pair at exactly 2*eps is an edge
    assert ("i0", "i4") in cl.epsilon_net(cl.interval_sample(17), 1 / 8).edges


def test_net_line_example():
    space = cl.line_space([0, 0.5, 1.1, 3])
    g = cl.epsilon_net(space, 1.0)
    assert set(g.vertices) == {"x0", "x2", "x3"}
    assert g.edges == {("x0", "x2"), ("x2", "x3")}
    assert not g.frontier


def test_net_singleton_when_eps_dominates():
    space = cl.line_space([0, 0.2, 0.4])
    g = cl.epsilon_net(space, 1.0)
    assert len(g.vertices) == 1 and not g.edges


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_net_rejects_eps_outside_zero_to_infinity(eps):
    with pytest.raises(InvalidInputError):
        cl.epsilon_net(cl.line_space([0, 1]), eps)


def test_net_uniform_sample_includes_distance_ties():
    # kept points sit exactly eps apart, so second neighbors at 2*eps are edges
    space = cl.interval_sample(17)
    g = cl.epsilon_net(space, 1 / 8)
    assert len(g.vertices) == 9
    idx = {v: i for i, v in enumerate(sorted(g.vertices, key=lambda v: int(v[1:])))}
    for u, v in g.edges:
        assert abs(idx[u] - idx[v]) <= 2  # consecutive plus the 2*eps ties


# -- uniform perfectness --------------------------------------------------------------


def test_cantor_is_uniformly_perfect():
    space = cl.cantor_sample(7)
    cert = cl.uniformly_perfect_check(space, 3.01, 1.0, 2 * 3.0**-7)
    assert cert.holds
    assert cert.checked_eps > 100


def test_cantor_matches_literal_oracle_at_small_depth():
    space = cl.cantor_sample(5)
    ok, witness = annulus_oracle(space, 3.01, 1.0, 2 * 3.0**-5)
    cert = cl.uniformly_perfect_check(space, 3.01, 1.0, 2 * 3.0**-5)
    assert cert.holds == ok is True
    bad_ok, bad_witness = annulus_oracle(space, 1.5, 1.0, 2 * 3.0**-5)
    bad_cert = cl.uniformly_perfect_check(space, 1.5, 1.0, 2 * 3.0**-5)
    assert bad_cert.holds == bad_ok is False
    assert bad_cert.witness == bad_witness


def l1_space(points):
    pts = np.asarray(points, dtype=float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(len(pts))), d)


@pytest.mark.parametrize("make, floor", [
    (lambda: cl.line_space([0, 1, 2, 4, 5, 6, 8, 9, 10, 16, 17, 18, 20, 21, 22, 24, 25, 26]), 1.0),
    (lambda: cl.line_space([0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]), 1.0),
    (lambda: l1_space([(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 1), (4, 5)]), 1.0),
    # p1's ball at eps = 6 has diameter 6, though its farthest point is within 4 of the rest
    (lambda: l1_space([(0, 2), (2, 0), (2, 2), (3, 3), (4, 0), (4, 2)]), 2.0),
    (lambda: cl.two_point(1.0), 0.25),
    (lambda: cl.cantor_sample(5), 2 * 3.0**-5),
])
@pytest.mark.parametrize("grid_steps", [(), (0.5, 1.5, 2.5)])
def test_both_forms_match_literal_oracles_on_ties(make, floor, grid_steps):
    # integer distances and exact Cantor gaps make eps/const land on distances
    space = make()
    eps0 = space.diameter
    grid = [floor * step for step in grid_steps if floor * step >= floor]
    failures = 0
    for const in (1.01, 1.5, 2.0, 3.0, 3.01, 4.0, 9.1):
        for check, oracle in (
            (cl.uniformly_perfect_check, annulus_oracle),
            (cl.two_point_perfectness_check, two_point_oracle),
        ):
            cert = check(space, const, eps0, floor, grid)
            assert (cert.holds, cert.witness) == oracle(space, const, eps0, floor, grid)
            assert cert.checked_eps == len(oracle_scales(space, eps0, floor, grid))
            failures += not cert.holds
    assert failures >= 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=9,
             unique=True),
    st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    st.integers(1, 4),
    st.lists(st.integers(1, 12), max_size=3),
)
def test_both_forms_match_literal_oracles_on_random_integer_spaces(points, const, floor, grid):
    # integer l1 distances with integer floors, grids and constants: eps and
    # eps/const land on realized distances, so ties at both ends are common
    space = l1_space(points)
    eps0 = max(space.diameter, floor)
    grid = [float(e) for e in grid if floor <= e <= eps0]
    for check, oracle in (
        (cl.uniformly_perfect_check, annulus_oracle),
        (cl.two_point_perfectness_check, two_point_oracle),
    ):
        cert = check(space, const, eps0, floor, grid)
        assert (cert.holds, cert.witness) == oracle(space, const, eps0, floor, grid)
        assert cert.checked_eps == len(oracle_scales(space, eps0, floor, grid))


def _count_diameter_prefixes(monkeypatch):
    calls = []
    measure = metric._ball_diameters

    def counting(d, ids):
        calls.append(len(ids))
        return measure(d, ids)

    monkeypatch.setattr(metric, "_ball_diameters", counting)
    return calls


def test_two_point_form_measures_no_diameter_the_radius_decides(monkeypatch, tmp_path):
    calls = _count_diameter_prefixes(monkeypatch)
    report = tmp_path / "r.json"
    argv = ["perfect", "--in", "cantor:8", "--two-point-r", "10", "--eps0", "1.0"]
    assert cli_main([*argv, "--report", str(report)]) == 0
    assert calls == []


def test_two_point_form_measures_the_diameter_the_radius_leaves_open(monkeypatch):
    # at eps = 6 every ball is the whole space, of diameter 6; p1's radius is
    # only 4 = eps/1.5, so its one-point annulus is empty but its ball passes
    calls = _count_diameter_prefixes(monkeypatch)
    space = l1_space([(0, 2), (2, 0), (2, 2), (3, 3), (4, 0), (4, 2)])
    one = cl.uniformly_perfect_check(space, 1.5, 6.0, 6.0)
    assert (one.holds, one.witness) == (False, ("p1", 6.0))
    assert calls == []
    assert cl.two_point_perfectness_check(space, 1.5, 6.0, 6.0).holds
    assert calls and max(calls) <= len(space.points)


def test_two_point_space_fails_with_witness():
    space = cl.two_point(1.0)
    cert = cl.uniformly_perfect_check(space, 2.0, 1.0, 0.25)
    assert not cert.holds
    assert cert.witness == ("p", 0.25)


@pytest.mark.parametrize("s", [1.5, 2.0, 10.0, 1e6])
def test_two_point_space_fails_for_every_s_below_the_gap(s):
    # once the scale range dips below the gap, no constant can save it
    space = cl.two_point(1.0)
    assert not cl.uniformly_perfect_check(space, s, 1.0, 0.5).holds


def test_top_scale_always_holds_with_huge_constant():
    space = cl.line_space([0, 0.3, 1.9, 4])
    top = space.diameter
    cert = cl.uniformly_perfect_check(space, 1e9, top, top)
    assert cert.holds


def test_interval_sample_perfect_down_to_step():
    space = cl.interval_sample(33)
    cert = cl.uniformly_perfect_check(space, 2.01, 1.0, space.resolution_floor)
    assert cert.holds


def test_monotone_in_s():
    space = cl.cantor_sample(5)
    for s in (3.01, 4.0, 8.0, 50.0):
        assert cl.uniformly_perfect_check(space, s, 1.0, 2 * 3.0**-5).holds
    # and a failing S stays failing below the threshold
    assert not cl.uniformly_perfect_check(space, 1.2, 1.0, 2 * 3.0**-5).holds


def test_invalid_range_rejected():
    space = cl.two_point(1.0)
    with pytest.raises(InvalidInputError):
        cl.uniformly_perfect_check(space, 2.0, 0.1, 0.5)
    with pytest.raises(InvalidInputError):
        cl.uniformly_perfect_check(space, 2.0, 1.0, 0.5, grid=[2.0])
    with pytest.raises(InvalidInputError):
        cl.uniformly_perfect_check(space, 1.0, 1.0, 0.5)
    # non-finite constants, ranges and grid values cannot reach a report
    for check in (cl.uniformly_perfect_check, cl.two_point_perfectness_check):
        for const, eps0, grid in ((np.nan, 1.0, ()), (np.inf, 1.0, ()), (2.0, np.inf, ()),
                                  (2.0, np.nan, ()), (2.0, 1.0, [np.nan])):
            with pytest.raises(InvalidInputError):
                check(space, const, eps0, 0.5, grid=grid)


# -- two-point form and conversions ------------------------------------------------------


def test_two_point_form_on_cantor():
    space = cl.cantor_sample(7)
    cert = cl.two_point_perfectness_check(space, 9.1, 1.0, 2 * 3.0**-7)
    assert cert.holds


def test_conversion_constants():
    assert cl.two_point_to_one_point_constant(3.0) == 6.0
    assert cl.one_point_to_two_point_constant(2.0) == 4.0
    assert cl.rescale_eps0(3.0, 1.0, 2.0) == 6.0
    assert cl.rescale_eps0(3.0, 1.0, 0.5) == 3.0
    assert cl.rescale_eps0(2.0, 0.5, 1.0) == 4.0


@pytest.mark.parametrize("make", [
    lambda: cl.cantor_sample(5),
    lambda: cl.interval_sample(17),
    lambda: cl.line_space([0, 0.11, 0.31, 0.65, 1.07, 1.55, 2.1]),
])
def test_two_point_implies_one_point(make):
    # two-point form with R gives the one-point form with S = 2R at each scale
    space = make()
    floor = space.resolution_floor or 0.05
    r_const = 4.0
    two = cl.two_point_perfectness_check(space, r_const, 1.0, floor)
    if two.holds:
        one = cl.uniformly_perfect_check(
            space, cl.two_point_to_one_point_constant(r_const), 1.0, floor
        )
        assert one.holds


@pytest.mark.parametrize("s", [2.0, 3.01])
def test_one_point_implies_two_point_at_rescaled_floor(s):
    # the converse direction consumes scales down to eps/S^2, so the two-point
    # claim is made on [floor * S^2, eps0]
    space = cl.cantor_sample(6)
    floor = 2 * 3.0**-6
    one = cl.uniformly_perfect_check(space, max(s, 3.01), 1.0, floor)
    assert one.holds
    r_const = cl.one_point_to_two_point_constant(max(s, 3.01))
    two = cl.two_point_perfectness_check(
        space, r_const, 1.0, min(1.0, floor * max(s, 3.01) ** 2)
    )
    assert two.holds


# -- strongly bounded geometry -----------------------------------------------------------


def test_profile_interval_example():
    space = cl.interval_sample(65)
    profile = cl.strongly_bounded_geometry_profile(space, 5.0, [1 / 8])
    assert profile.max_count <= 11
    assert profile.m <= 12
    # independent recount at the worst point
    net = cl.greedy_separated(space, 1 / 8)
    count = sum(1 for a in net if space.d(profile.worst_point, a) < 5 / 8)
    assert count == profile.max_count


def test_profile_singleton_and_large_scale():
    single = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    assert cl.strongly_bounded_geometry_profile(single, 5.0, [1.0]).m == 2
    space = cl.interval_sample(9)
    prof = cl.strongly_bounded_geometry_profile(space, 2.0, [5.0])
    assert prof.max_count == 1  # scale above the diameter keeps one point


def test_profile_rejects_empty_scales():
    with pytest.raises(InvalidInputError):
        cl.strongly_bounded_geometry_profile(cl.two_point(1.0), 2.0, [])


# -- generators ---------------------------------------------------------------------------


def test_cantor_sample_depth2():
    space = cl.cantor_sample(2)
    coords = sorted(space.d("c00", p) for p in space.points)
    assert coords == pytest.approx([0, 2 / 9, 2 / 3, 8 / 9])
    assert space.resolution_floor == pytest.approx(2 / 9)


def test_interval_sample_three_points():
    space = cl.interval_sample(3)
    assert space.d("i0", "i1") == pytest.approx(0.5)
    assert space.d("i0", "i2") == pytest.approx(1.0)


def test_two_point_generator():
    space = cl.two_point(1.0)
    assert space.d("p", "q") == 1.0
