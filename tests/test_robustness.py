"""Randomized cross-checks beyond the per-module suites: every combinatorial
engine against a naive enumeration on instances it was not tuned for."""

import ast
import contextlib
import json
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import Graph, io
from cheegerlab.cli import main as cli_main
from cheegerlab.lemmas import _connected_sets

from conftest import oracle_min_ratio_witness


def random_graph(seed, nmin=5, nmax=10, extra_factor=1.0):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(nmin, nmax))
    names = [f"n{i}" for i in range(n)]
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)}
    for _ in range(int(n * extra_factor)):
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i != j:
            edges.add((names[i], names[j]))
    return Graph.from_edges(edges)


@pytest.mark.parametrize("seed", range(12))
def test_connected_set_enumeration_on_dense_graphs(seed):
    g = random_graph(seed, nmin=5, nmax=9, extra_factor=2.0)
    allowed = sorted(g.vertices)[: max(4, len(g.vertices) - 1)]

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

    naive = {
        frozenset(combo)
        for k in range(1, 5)
        for combo in combinations(allowed, k)
        if connected(combo)
    }
    ours = [frozenset(s) for s in _connected_sets(g, allowed, 4, budget=10**6)]
    assert len(ours) == len(set(ours)), "a connected set was produced twice"
    assert set(ours) == naive


@pytest.mark.parametrize("seed", range(50))
def test_interior_bruteforce_against_oracle_on_random_windows(seed):
    rng = np.random.default_rng(seed)
    g0 = random_graph(seed, nmin=5, nmax=13, extra_factor=[1.0, 0.0, 0.3][seed % 3])
    # mark 1, 2 or 0 random vertices as frontier, keep the window analyzable
    frontier = {g0.vertices[int(i)] for i in rng.integers(0, len(g0.vertices), size=(1 + seed) % 3)}
    g = Graph(g0.vertices, g0.edges, frozenset(frontier))
    if not cl.admissible_vertices(g):
        g = g0
    adm = sorted(cl.admissible_vertices(g))
    max_size = min(1 + seed % 6, len(adm))
    bound = cl.interior_cheeger_bruteforce(g, max_size)
    # the witness is the lexicographically smallest minimizing set
    expected = oracle_min_ratio_witness(g.vertices, g.edges, adm, max_size)
    assert (bound.upper.value, bound.upper.witness["set"]) == expected
    witness = set(bound.upper.witness["set"])
    assert cl.cheeger_ratio(g, witness) == bound.upper.value
    assert all(v in adm for v in witness)


@pytest.mark.parametrize("seed", range(8))
def test_build_invariants_on_random_line_spaces(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    coords = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    space = cl.line_space(coords.tolist())
    lg = cl.build_truncated(space, 1 / 7, 2)  # construction asserts invariants
    rep = cl.structural_checks(lg)
    assert rep.classification_ok and rep.unique_base_ok and rep.upper_neighbor_ok
    assert rep.degree_cap_ok
    # base distances realize levels exactly (radial geodesics exist everywhere)
    dist = lg.graph.bfs_distances([lg.base])
    assert all(dist[v] == lg.level[v] - lg.k0 for v in lg.graph.vertices)


def test_green_identity_with_fractional_values():
    g = cl.cycle_graph(9)
    f = {v: Fraction(int(v) * 7, 3) - Fraction(5, 2) for v in g.vertices}
    h = {v: Fraction((int(v) ** 2) % 5, 4) for v in g.vertices}
    assert cl.green_identity_check(g, f, h) == 0


def test_certificate_scale_invariance():
    # scaling f scales c1 and c2 together; the bound is unchanged
    t = cl.homogeneous_tree(3, 5)
    g = t.graph
    base = cl.certificate_lower_bound(g, {v: t.depth[v] for v in t.vertices})
    scaled = cl.certificate_lower_bound(
        g, {v: Fraction(5, 3) * t.depth[v] for v in t.vertices}
    )
    assert base.bound.lower.value == scaled.bound.lower.value


def test_cli_approx_relevel_path(tmp_path):
    out = tmp_path / "coarse.json"
    report_path = tmp_path / "r.json"
    code = cli_main(
        ["approx", "--in", "cantor:6", "--r", str(1 / 9), "--k-max", "4",
         "--s", "2", "--out", str(out), "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["level_certificate"]["certified"] is True
    assert report["results"]["k_max"] == 2  # coarsened to floor(4/2)


def test_relevel_two_point_rebases():
    lg = cl.build_truncated(cl.two_point(1.0), 1 / 6, 4)
    coarse = cl.relevel(lg, 2)
    assert coarse.r == pytest.approx((1 / 6) ** 2)
    assert len(coarse.level_vertices(coarse.k0)) == 1


@pytest.mark.parametrize("seed", range(6))
def test_delta_oracle_on_random_metric_spaces(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    coords = rng.uniform(0, 3, size=(n, 2))
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    space = cl.FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), d)
    rep = cl.delta_four_point(space)
    best = 0.0
    pts = space.points
    for x in pts:
        for y in pts:
            for z in pts:
                for o in pts:
                    gp = lambda a, b: 0.5 * (space.d(a, o) + space.d(b, o) - space.d(a, b))
                    best = max(best, min(gp(x, z), gp(z, y)) - gp(x, y))
    assert rep.delta == pytest.approx(best, abs=1e-12)


# -- CLI fuzzing: one corrupted field in an otherwise valid document ---------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**7) | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """Valid documents of each kind the CLI reads, with the commands reading them."""
    root = tmp_path_factory.mktemp("fuzz")
    io.save_graph(root / "g.json", cl.path_window(6))
    io.save_metric(root / "m.json", cl.cantor_sample(2))
    io.save_tree(root / "t.json", cl.homogeneous_tree(2, 3))
    graft = cl.graft_decomposition(cl.grid_window(3, 3), cl.homogeneous_tree(3, 1).graph, "v")
    io.save_decomposition(root / "d.json", graft)  # also writes d.ambient.json
    function = {v: str(i % 3) for i, v in enumerate(cl.path_window(6).vertices)}
    io.write_canonical(root / "f.json", function)
    g, m, t, d, f = (str(root / f"{stem}.json") for stem in "gmtdf")
    commands = {
        "g.json": [["cheeger", "--in", g, "--max-size", "3"], ["delta", "--in", g]],
        "m.json": [["perfect", "--in", m, "--s", "3", "--eps0", "1"],
                   ["net", "--in", m, "--eps", "0.3"], ["delta", "--in", m]],
        "t.json": [["tree", "--in", t, "--max-size", "3"], ["endspace", "--in", t]],
        "d.json": [["decomp", "--spec", d]],
        "d.ambient.json": [["decomp", "--spec", d]],
        "f.json": [["certify", "--in", g, "--function", f]],
    }
    return root, commands


def _field_paths(doc, prefix=()):
    """The key path of the document itself and of every field nested in it."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _field_paths(value, (*prefix, key))


@given(st.data())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes_on_one_corrupted_field(fuzz_documents, data):
    root, commands = fuzz_documents
    name = data.draw(st.sampled_from(sorted(commands)))
    path = root / name
    original = path.read_bytes()
    doc = json.loads(original)
    field = data.draw(st.sampled_from(list(_field_paths(doc))))
    value = data.draw(JSON_VALUES)
    if field:
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc))
    try:
        for argv in commands[name]:
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            assert code in (0, 2, 3, 4), (argv, doc)
    finally:
        path.write_bytes(original)


GENERATOR_PARAMETERS = st.one_of(
    st.integers(-3, 10**7).map(str), st.floats().map(repr), st.text(max_size=6)
)
GENERATOR_COMMANDS = {
    "delta": [],
    "net": ["--eps", "0.3"],
    "perfect": ["--s", "3", "--eps0", "1"],
}


@given(st.sampled_from(["cantor", "interval", "two_point"]), GENERATOR_PARAMETERS,
       st.sampled_from(sorted(GENERATOR_COMMANDS)))
@settings(max_examples=80, deadline=None)
def test_cli_exit_codes_on_generator_specs(kind, parameter, command):
    argv = [command, "--in", f"{kind}:{parameter}", *GENERATOR_COMMANDS[command]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cheegerlab.commands.MAX_GENERATOR_POINTS", 32)  # keeps every accepted spec tiny
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            code = cli_main(argv)
    assert code in (0, 2, 3, 4), argv


def test_library_has_no_assert_statements():
    """Invariants must survive ``python -O``, which strips every assert."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cl.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
