"""The perfectness scan by gaps of sorted rows, cross-checked scale by scale
against ``oracle_perfectness``: verdict, witness and the number of checked
scales, for both forms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import FiniteMetricSpace, metric

from conftest import oracle_perfectness

CHECKS = {"one-point": cl.uniformly_perfect_check, "two-point": cl.two_point_perfectness_check}


def scan(space, constant, form, eps0, floor, grid=()):
    cert = CHECKS[form](space, constant, eps0, floor, grid)
    return cert.holds, cert.witness, cert.checked_eps


def oracle(space, constant, form, eps0, floor, grid=()):
    return oracle_perfectness(space.points, space.dist, constant, form, eps0, floor, grid)


def assert_matches(space, constants, eps0, floor, grid=()):
    """Both forms agree with the oracle at every constant; returns the verdicts."""
    verdicts = []
    for constant in constants:
        for form in CHECKS:
            got = scan(space, constant, form, eps0, floor, grid)
            assert got == oracle(space, constant, form, eps0, floor, grid), (constant, form)
            verdicts.append(got[0])
    return verdicts


def l1_space(points):
    pts = np.asarray(points, dtype=float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(len(pts))), d)


# -- samples ----------------------------------------------------------------------------


@pytest.mark.parametrize("depth", range(1, 8))
def test_cantor_samples_match_the_oracle(depth):
    space = cl.cantor_sample(depth)
    floor = space.resolution_floor
    # near the sample's own ratio 3 and below it; a run of the oracle that holds
    # costs n^2 per scale, so depth 7 runs one failing and one holding constant
    constants = (1.5, 3.01) if depth == 7 else (1.5, 2.99, 3.0, 3.01, 9.1)
    verdicts = assert_matches(space, constants, 1.0, floor)
    if depth < 7:
        for eps0 in (1.0, 1 / 3):
            grid = [g for g in (1.5 * floor, 2 / 9) if floor <= g <= eps0]
            if floor <= eps0:
                verdicts += assert_matches(space, constants, eps0, floor, grid)
    assert True in verdicts and (False in verdicts or depth == 1)


@pytest.mark.parametrize("n", [2, 3, 10, 33, 65, 130])
def test_interval_samples_match_the_oracle(n):
    space = cl.interval_sample(n)
    step = space.resolution_floor
    grid = [g for g in (1.5 * step,) if g <= 1.0]
    verdicts = assert_matches(space, (1.5, 2.0, 2.01, 3.0), 1.0, step, grid)
    verdicts += assert_matches(space, (1.5, 2.0, 2.01), 0.5, 0.5)
    assert False in verdicts


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12,
             unique=True),
    st.sampled_from(["line", "l1", "euclid"]),
    st.sampled_from([0.0, 1e-12, 1e-9]),
    st.sampled_from([1.5, 2.0, 2.99, 3.0, 3.01, 4.0]),
    st.data(),
)
def test_random_spaces_match_the_oracle(points, kind, jitter, constant, data):
    # integer coordinates give exact ties, among distances in a row and
    # between eps and constant * distance; a jitter of one point makes near-ties
    pts = np.asarray(points, dtype=float)
    pts[0] += jitter
    if kind == "line":
        space = cl.line_space(sorted(set(pts[:, 0].tolist())))
    elif kind == "l1":
        space = l1_space(pts)
    else:
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        space = FiniteMetricSpace(tuple(f"p{i}" for i in range(len(pts))), d)
    values = sorted(set(space.dist.ravel().tolist()) - {0.0}) or [1.0]
    floor = data.draw(st.sampled_from(values + [values[0] / 2]))
    eps0 = max(floor, data.draw(st.sampled_from(values)))
    grid = [g for g in [constant * v for v in values] + [(floor + eps0) / 2]
            if floor <= g <= eps0][:3]
    assert_matches(space, [constant], eps0, floor, grid)


# -- the cases the gaps must get right ---------------------------------------------------


def test_eps_exactly_constant_times_the_radius_fails():
    # at eps = 2, the ball of x0 has radius 1 = eps / 2: its annulus (1, 2] is
    # empty; a hair more constant and the same ball passes
    space = cl.line_space([0, 1])
    assert scan(space, 2.0, "one-point", 2.0, 2.0) == (False, ("x0", 2.0), 1)
    assert scan(space, 2.0000001, "one-point", 2.0, 2.0) == (True, None, 1)
    assert_matches(space, (2.0, 2.0000001), 2.0, 2.0)
    assert_matches(cl.line_space([0, 1, 3, 9]), (2.0, 3.0, 9.0), 9.0, 1.0, [6.0])


def test_eps_equal_to_a_realized_distance_closes_the_ball():
    # at eps = 1 the point at distance exactly 1 is in the ball; a grid scale
    # just below 1 leaves x0 alone in its ball
    space = cl.line_space([0, 1, 2])
    assert scan(space, 1.5, "one-point", 1.0, 1.0) == (True, None, 1)
    assert scan(space, 1.5, "one-point", 1.0, 0.5, [0.999]) == (False, ("x0", 0.5), 3)
    assert_matches(space, (1.5, 2.0, 3.0), 2.0, 0.5, [0.999])


def test_repeated_distances_in_one_row():
    # x1's row is 0, 1, 1, 2, 2: its gaps inside the runs are empty
    space = cl.line_space([-2, -1, 0, 1, 2])
    verdicts = assert_matches(space, (1.5, 2.0, 3.0, 4.0), 4.0, 1.0, [1.5, 3.0])
    assert True in verdicts and False in verdicts


def test_a_grid_scale_can_fail_where_realized_ones_pass():
    # two pairs at distance 1, ten apart: at eps = 5 each ball is its pair, of
    # radius 1 <= 5/2, while the realized scales 1 and 10 pass at S = 2
    d = np.array([[0, 1, 10, 10], [1, 0, 10, 10], [10, 10, 0, 1], [10, 10, 1, 0]], float)
    space = FiniteMetricSpace(("a1", "a2", "b1", "b2"), d)
    assert scan(space, 2.0, "one-point", 10.0, 1.0) == (True, None, 2)
    assert scan(space, 2.0, "one-point", 10.0, 1.0, [5.0]) == (False, ("a1", 5.0), 3)
    assert_matches(space, (1.5, 2.0, 9.0, 11.0), 10.0, 1.0, [5.0])


def test_two_points_failing_at_the_same_eps_give_the_lower_index():
    # 70 points on the integers, so rows span two blocks; a point moved far
    # away is alone in its ball at eps = 1, the floor
    coords = list(range(70))
    coords[68] = 2000
    for form in CHECKS:
        assert scan(cl.line_space(coords), 2.0, form, 3.0, 1.0)[:2] == (False, ("x68", 1.0))
    coords[3], coords[2] = 1000, 1001  # x2 and x3 fail only at eps = 3
    for form in CHECKS:
        assert scan(cl.line_space(coords), 2.0, form, 3.0, 1.0)[:2] == (False, ("x68", 1.0))
    coords[2] = 2
    for form in CHECKS:
        assert scan(cl.line_space(coords), 2.0, form, 3.0, 1.0)[:2] == (False, ("x3", 1.0))
    assert_matches(cl.line_space(coords), (1.5, 2.0, 3.0), 4.0, 1.0, [1.5])


def test_the_radius_can_fail_where_the_diameter_passes():
    # at eps = 6 every ball is the whole space, of diameter 6, but p1's
    # farthest point is at 4 = eps / 1.5
    space = l1_space([(0, 2), (2, 0), (2, 2), (3, 3), (4, 0), (4, 2)])
    assert scan(space, 1.5, "one-point", 6.0, 6.0) == (False, ("p1", 6.0), 1)
    assert scan(space, 1.5, "two-point", 6.0, 6.0) == (True, None, 1)
    assert_matches(space, (1.5, 2.0, 3.0), 6.0, 2.0, [5.0])


def test_the_scan_keeps_no_square_array():
    # each block of rows is sorted on its own, and the realized distances are
    # gathered block by block: no n x n order or rows array, no n^2 / 2 pair
    # index arrays
    space = cl.cantor_sample(9)
    floor = space.resolution_floor
    tracemalloc.start()
    try:
        for form in CHECKS:
            scan(space, 3.01, form, 1.0, floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < space.dist.nbytes


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 130, 200])
def test_ball_diameters_match_the_whole_submatrix(m):
    # the blocked running maximum gives the floats of the m x m formula
    rng = np.random.default_rng(m)
    x = rng.normal(size=(200, 3))
    d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))
    for ids in (np.arange(m), rng.permutation(200)[:m]):
        whole = np.maximum.accumulate(np.tril(d[np.ix_(ids, ids)]).max(axis=1))
        assert np.array_equal(metric._ball_diameters(d, ids), whole)


def test_a_failing_two_point_check_keeps_no_square_ball():
    # the failing row's ball holds 512 points: its 512 x 512 submatrix and a
    # tril copy of it alone would take 4 MiB
    space = cl.cantor_sample(10)
    calls = []
    measure = metric._ball_diameters

    def counting(d, ids):
        calls.append(len(ids))
        return measure(d, ids)

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_ball_diameters", counting)
            cert = cl.two_point_perfectness_check(space, 1.5, 1.0, space.resolution_floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not cert.holds and calls == [512]
    assert peak < space.dist.nbytes / 2
