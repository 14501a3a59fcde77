"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each (run with ``pytest -s`` to see the lines).

Criterion 2 brackets the Cheeger constant h(T3) = 1 of the 3-regular tree
between the certified endpoints of a depth-6 window.  The upper endpoint can
never reach 1: for a finite non-empty A, the forest induced on A and its
boundary has every vertex of A at degree 3, so 3|A| + |dA| <= 2(|A| + |dA| - 1),
that is |dA| >= |A| + 2.  The window minimum at size cap m is therefore exactly
(m+2)/m, attained by any connected admissible m-set, and 1 is an infimum that
no finite set attains.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import cheegerlab as cl
from cheegerlab import io
from cheegerlab.cli import main as cli_main


def criterion(number, name, limit=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit is not None:
                    assert elapsed < limit, f"runtime {elapsed:.1f}s over the {limit}s limit"
            except BaseException:
                print(f"criterion {number:2d} [{name}]: FAIL ({time.perf_counter() - start:.1f}s)")
                raise
            print(f"criterion {number:2d} [{name}]: PASS ({elapsed:.1f}s)")

        return wrapper

    return deco


def fifty_trees():
    trees = [cl.random_tree(n, seed=n) for n in range(10, 151, 5)]  # 29 trees
    trees += [
        cl.random_tree(200, seed=1),
        cl.homogeneous_tree(3, 4),
        cl.homogeneous_tree(3, 5),
        cl.homogeneous_tree(3, 6),
        cl.homogeneous_tree(4, 4),
        cl.homogeneous_tree(5, 3),
        cl.full_branching_tree(2, 5),
        cl.full_branching_tree(2, 6),
        cl.full_branching_tree(3, 4),
        cl.even_branching_tree(6),
        cl.even_branching_tree(8),
        cl.comb_tree(10, 3),
        cl.comb_tree(20, 5),
        cl.comb_tree(30, 2),
        cl.growing_chain(12),
        cl.growing_chain(40),
        cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 2),
        cl.grafted_dead_branches(cl.full_branching_tree(2, 6), 1),
        cl.random_branching_tree(4, seed=2),
        cl.random_branching_tree(4, seed=5),
        cl.random_branching_tree(3, seed=8),
    ]
    return trees


@criterion(1, "trees have four-point constant zero", limit=10.0)
def test_criterion_1_tree_delta_zero():
    trees = fifty_trees()
    assert len(trees) == 50
    assert all(len(t.vertices) <= 200 for t in trees)
    for t in trees:
        report = cl.delta_four_point(t.graph, budget=2**33)
        assert report.mode == "exhaustive"
        assert report.delta == 0, f"nonzero delta on {len(t.vertices)}-vertex tree"


@criterion(2, "3-regular tree pipeline", limit=60.0)
def test_criterion_2_t3_pipeline():
    """K = 1, C = 1 and the 1/7 theorem bound are exact; the depth-function
    certificate gives 1/9; the window minimum dominates both, and the
    certified interval brackets the true constant h(T3) = 1.

    The window value is exactly (m+2)/m at size cap m: the forest induced on
    A and its boundary gives 3|A| + |dA| <= 2(|A| + |dA| - 1), so every finite
    set has |dA| >= |A| + 2, and any connected admissible m-set attains it.
    The default budget allows m = 5, so the window is 7/5.
    """
    t = cl.homogeneous_tree(3, 6)
    analysis = cl.tree_cheeger_bounds(t)  # largest cap within the default budget
    assert (analysis.k, analysis.c) == (1, 1)
    assert analysis.bounds.lower.value == Fraction(1, 7)

    cert = cl.certificate_lower_bound(
        t.graph, {v: t.depth[v] for v in t.vertices}
    )
    assert cert.certified and cert.bound.lower.value == Fraction(1, 9)

    window = analysis.bounds.upper.value
    assert window >= Fraction(1, 9)  # dominates the certificate bound
    assert window >= Fraction(1, 7)
    assert analysis.bounds.lower.value <= 1 <= window  # brackets h(T3) = 1
    witness = analysis.bounds.upper.witness
    m = witness["max_size"]
    assert window == Fraction(m + 2, m)
    assert len(witness["set"]) == m and witness["boundary_size"] == m + 2
    assert cl.cheeger_ratio(t.graph, set(witness["set"])) == window


@criterion(3, "vanishing constants are detected, never bounded below", limit=60.0)
def test_criterion_3_zero_detection():
    for depth in (6, 9, 12):
        t = cl.growing_chain(depth)
        analysis = cl.tree_cheeger_bounds(t)
        assert analysis.k is None
        assert analysis.bounds.lower.value == 0  # no positive bound emitted
        chain = analysis.pseudo.chain
        assert chain == tuple(f"g{i}" for i in range(1, depth + 1))
        g = t.graph
        for k in range(1, len(chain)):
            assert cl.cheeger_ratio(g, set(chain[:k])) == Fraction(2, k)

    windows = [cl.path_window(n) for n in range(9, 26, 2)]
    scan = cl.converse_scan(windows)
    assert scan.values == tuple(Fraction(2, n - 4) for n in range(9, 26, 2))
    assert scan.decay

    for n in (9, 17):
        res = cl.certificate_lower_bound(
            cl.path_window(n), {v: int(v) for v in cl.path_window(n).vertices}
        )
        assert not res.certified  # position function pinches flat


@criterion(4, "connected-set lemmas hold exhaustively", limit=60.0)
def test_criterion_4_lemma_suite():
    trees = [
        cl.homogeneous_tree(3, 5),
        cl.homogeneous_tree(4, 4),
        cl.homogeneous_tree(5, 3),
        cl.full_branching_tree(2, 6),
        cl.random_branching_tree(4, seed=2),
    ]
    for t in trees:
        assert cl.pseudo_regularity_index(t).k == 1
        report = cl.lemma_suite(t, max_size=8)
        assert report.counterexamples == ()
        assert report.min_boundary_ratio >= Fraction(1, 3)
        assert report.min_essential_ratio >= Fraction(1, 3)
        assert report.min_inner_ratio >= Fraction(1, 6)


@criterion(5, "Green identity residual is exactly zero", limit=60.0)
def test_criterion_5_green_identity():
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t = cl.random_tree(int(rng.integers(8, 20)), seed)
        g = t.graph
        interior = sorted(v for v, d in g.bfs_distances(g.frontier).items() if d >= 2)
        if not interior:
            interior = [t.root]
            if t.root in g.frontier or g.frontier & g.adjacency[t.root]:
                continue
        f = {v: 0 for v in g.vertices}
        h = {v: 0 for v in g.vertices}
        for v in interior:
            f[v] = int(rng.integers(-9, 10))
            h[v] = int(rng.integers(-9, 10))
        assert cl.green_identity_check(g, f, h) == 0
        checked += 1
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(6, 14))
        names = [f"n{i}" for i in range(n)]
        edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)}
        for _ in range(n // 2):
            i, j = sorted(rng.integers(0, n, size=2).tolist())
            if i != j:
                edges.add((names[i], names[j]))
        g = cl.Graph.from_edges(edges)
        f = {v: int(x) for v, x in zip(g.vertices, rng.integers(-20, 21, size=n))}
        h = {v: int(x) for v, x in zip(g.vertices, rng.integers(-20, 21, size=n))}
        assert cl.green_identity_check(g, f, h) == 0
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def twenty_spaces():
    spaces = [(cl.cantor_sample(d), 9.1) for d in (3, 4, 5, 6, 7)]
    spaces += [(cl.interval_sample(n), 4.0) for n in (5, 9, 12, 17, 21, 33, 65, 129)]
    for i, n in enumerate((7, 11, 15, 19, 25, 31, 41)):
        base = cl.interval_sample(n)  # rescaling keeps equal gaps equal floats
        scaled = cl.FiniteMetricSpace(
            tuple(f"s{i}_{p}" for p in base.points),
            base.dist * (1.0 + i),
            resolution_floor=base.resolution_floor * (1.0 + i),
        )
        spaces.append((scaled, 4.0))
    return spaces


@criterion(6, "perfectness forms convert both ways", limit=60.0)
def test_criterion_6_perfectness_conversions():
    spaces = twenty_spaces()
    assert len(spaces) == 20
    for space, r_const in spaces:
        floor = space.resolution_floor
        eps0 = space.diameter
        two = cl.two_point_perfectness_check(space, r_const, eps0, floor)
        assert two.holds, (space.points[:2], two.witness)
        # two-point form with R gives the one-point form with S = 2R
        s = cl.two_point_to_one_point_constant(r_const)
        assert cl.uniformly_perfect_check(space, s, eps0, floor).holds
        # one-point form with S gives the two-point form with R = S^2/(S-1),
        # consuming scales down to eps/S^2
        back = cl.one_point_to_two_point_constant(s)
        floor2 = min(eps0, floor * s * s)
        assert cl.two_point_perfectness_check(space, back, eps0, floor2).holds

    trees = [
        cl.homogeneous_tree(3, 6),
        cl.homogeneous_tree(3, 7),
        cl.homogeneous_tree(4, 5),
        cl.homogeneous_tree(5, 4),
        cl.full_branching_tree(2, 7),
        cl.full_branching_tree(3, 5),
        cl.even_branching_tree(7),
        cl.even_branching_tree(8),
        cl.random_branching_tree(5, seed=4),
        cl.random_branching_tree(6, seed=6),
    ]
    for t in trees:
        k = cl.pseudo_regularity_index(t).k
        assert k is not None
        space = cl.end_space(t)
        eps0 = math.exp(-1)
        floor = math.exp(-(t.horizon - k))
        assert cl.uniformly_perfect_check(space, math.exp(k), eps0, floor).holds
        r_const = math.exp(k)
        assert cl.two_point_perfectness_check(space, r_const, eps0, floor).holds
        assert k <= math.ceil(math.log(r_const))


@criterion(7, "hyperbolic approximations behave structurally", limit=120.0)
def test_criterion_7_hyperbolic_approximation():
    for depth, kmax in ((5, 2), (6, 3)):
        lg = cl.build_truncated(cl.cantor_sample(depth), 1 / 9, kmax)
        rep = cl.structural_checks(lg)
        assert rep.classification_ok
        assert rep.unique_base_ok
        assert rep.upper_neighbor_ok
        assert rep.degree_cap_ok and rep.max_degree <= rep.degree_cap
        assert rep.structural_ok

    single = cl.FiniteMetricSpace(("o",), np.zeros((1, 1)))
    chain = cl.build_truncated(single, 1 / 6, 4, k0=0)
    assert chain.graph.mu <= 2
    assert not cl.level_certificate(chain).certified

    twin = cl.build_truncated(cl.two_point(1.0), 1 / 6, 4)
    adj = twin.graph.adjacency
    assert "L3:q" not in adj["L3:p"]  # deep levels split into two chains
    assert not cl.level_certificate(twin).certified

    lg = cl.build_truncated(cl.cantor_sample(6), 1 / 9, 4)
    coarse = cl.relevel(lg, 2)
    cert = cl.level_certificate(coarse)
    assert cert.certified and cert.bound.lower.value > 0


@criterion(8, "decomposition squeeze", limit=120.0)
def test_criterion_8_decomposition_squeeze():
    spec = cl.graft_decomposition(
        cl.grid_window(7, 7), cl.homogeneous_tree(3, 4).graph, "v", radius=0
    )
    assert spec.rate == Fraction(1, 7)
    report = cl.validate(spec)
    assert report.valid and report.strong

    bound = cl.decomposition_bound(spec, report)
    assert bound.lower.value > 0
    window = cl.window_bound(spec.ambient)
    assert bound.lower.value <= window.upper.value

    rates = [Fraction(1, 7), Fraction(1, 2), 1, 2, Fraction(22, 7)]
    points = 0
    for mu in (2, 3, 4, 5, 7):
        for radius in (0, 1, 2, 3):
            for rate in rates:
                assert cl.bound_strong(mu, radius, rate) >= cl.bound_general(mu, radius, rate)
                points += 1
    assert points == 100
    assert cl.bound_general(3, 0, 1) == Fraction(1, 22)
    assert cl.bound_strong(3, 0, 1) == Fraction(1, 7)


@criterion(9, "isometric grafts never shrink the four-point constant", limit=120.0)
def test_criterion_9_delta_monotone_under_graft():
    instances = [
        (cl.grid_window(3, 3, truncated=False), cl.homogeneous_tree(3, 2).graph),
        (cl.grid_window(4, 4, truncated=False), cl.homogeneous_tree(3, 1).graph),
        (cl.grid_window(5, 5, truncated=False), cl.homogeneous_tree(3, 1).graph),
    ]
    base_deltas = []
    for base, att in instances:
        result = cl.graft(base, att, "v")
        at = [result.graph.index[v] for v in base.vertices]
        assert (result.graph.distance_matrix[np.ix_(at, at)] == base.distance_matrix).all()
        d_base = cl.delta_four_point(base).delta
        d_graft = cl.delta_four_point(result.graph, budget=2**33).delta
        assert d_graft >= d_base
        base_deltas.append(d_base)
    # the window constant grows with the window while the certified lower
    # bound of the grafted graph stays put
    assert base_deltas == sorted(base_deltas)
    assert base_deltas[0] < base_deltas[-1]


@criterion(10, "reports are byte-identical across runs and workers", limit=120.0)
def test_criterion_10_cli_determinism(tmp_path):
    t = cl.homogeneous_tree(3, 5)
    io.save_tree(tmp_path / "tree.json", t)
    io.save_graph(tmp_path / "p11.json", cl.path_window(11))
    runs = {
        "tree": ["tree", "--in", str(tmp_path / "tree.json"), "--max-size", "5"],
        "delta": ["delta", "--in", str(tmp_path / "p11.json"), "--mode", "sampled",
                   "--samples", "2000"],
        "perfect": ["perfect", "--in", "cantor:5", "--s", "3.01", "--eps0", "1.0"],
    }
    import contextlib
    import io as std_io

    for name, args in runs.items():
        blobs = set()
        for rep in range(3):
            for threads in ("1", "4"):
                out = tmp_path / f"{name}_{rep}_{threads}.json"
                with contextlib.redirect_stdout(std_io.StringIO()) as captured:
                    code = cli_main(
                        [*args, "--seed", "0", "--threads", threads, "--report", str(out)]
                    )
                assert code == 0
                assert captured.getvalue().encode() == out.read_bytes()
                blobs.add(out.read_bytes())
        assert len(blobs) == 1, f"{name} reports varied across runs"
