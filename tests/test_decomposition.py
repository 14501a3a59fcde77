"""Decomposition formulas, validation with recomputed shields/components,
certificate re-verification, grafting and window scans."""

import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import DecompositionSpec, InvalidInputError, PieceCertificate
from cheegerlab.decomposition import _piece_tree
from cheegerlab.graphs import normalize_edge
from conftest import oracle_piece_clauses, oracle_piece_tree
from cheegerlab.cli import main as cli_main
from cheegerlab.io import load_decomposition, save_decomposition

SPEC_FIELDS = ("ambient", "pieces", "s1", "s2", "radius", "rate", "certificates")


def respec(spec, **changes):
    """A new spec with the fields of ``spec``, the named ones replaced."""
    return DecompositionSpec(
        **{name: changes.get(name, getattr(spec, name)) for name in SPEC_FIELDS}
    )


# -- formulas ----------------------------------------------------------------------


def test_general_formula_values():
    assert cl.bound_general(3, 0, 1) == Fraction(1, 22)
    assert cl.bound_general(2, 1, Fraction(1, 2)) == Fraction(1, 83)


def test_strong_formula_values():
    assert cl.bound_strong(3, 0, 1) == Fraction(1, 7)


def test_strong_dominates_general_on_sweep():
    rates = [Fraction(1, 7), Fraction(1, 2), 1, 2, Fraction(22, 7)]
    count = 0
    for mu in (2, 3, 4, 5, 7):
        for radius in (0, 1, 2, 3):
            for rate in rates:
                assert cl.bound_strong(mu, radius, rate) >= cl.bound_general(mu, radius, rate)
                count += 1
    assert count == 100


def test_strong_below_general_raises_construction_error(monkeypatch):
    monkeypatch.setattr(cl.decomposition, "bound_general", lambda *args: Fraction(1))
    with pytest.raises(cl.ConstructionError):
        cl.bound_strong(3, 0, 1)


def test_general_monotone_in_rate_spot_check():
    assert cl.bound_general(3, 0, 1) == Fraction(1, 22)
    assert cl.bound_general(3, 0, 2) == Fraction(8, 74)
    assert cl.bound_general(3, 0, 2) > cl.bound_general(3, 0, 1)


def test_radius_zero_cross_evaluation():
    # with R = 0 the mu^{R+1}-1 factor collapses to mu-1: check 20 points
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = int(rng.integers(2, 9))
        rate = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        general = cl.bound_general(mu, 0, rate)
        assert general == rate**2 * (mu - 1) / ((mu - 1) * (mu + rate) ** 2 + 2 * rate * mu * (mu - 1))


def test_formula_preconditions():
    with pytest.raises(InvalidInputError):
        cl.bound_general(1, 0, 1)
    with pytest.raises(InvalidInputError):
        cl.bound_strong(3, -1, 1)
    with pytest.raises(InvalidInputError):
        cl.bound_general(3, 0, 0)


# -- graft --------------------------------------------------------------------------


def test_graft_vertex_count():
    base = cl.grid_window(5, 5)
    att = cl.homogeneous_tree(3, 4).graph
    result = cl.graft(base, att, "v")
    assert len(result.graph.vertices) == 25 + 25 * (len(att.vertices) - 1)
    assert result.graph.mu == base.mu + 3


def test_graft_single_vertex_base_is_attachment():
    base = cl.Graph(("w",), frozenset())
    att = cl.homogeneous_tree(3, 2).graph
    result = cl.graft(base, att, "v")
    assert len(result.graph.vertices) == len(att.vertices)
    assert len(result.graph.edges) == len(att.edges)


def test_graft_preserves_base_distances():
    att = cl.homogeneous_tree(3, 2).graph
    for rows in (4, 6):  # 160 and 360 vertices
        base = cl.grid_window(rows, rows)
        result = cl.graft(base, att, "v")
        db = base.distance_matrix
        dr = result.graph.distance_matrix
        for i, u in enumerate(base.vertices):
            for j, w in enumerate(base.vertices):
                assert db[i, j] == dr[result.graph.index[u], result.graph.index[w]]
    assert len(result.graph.vertices) == 360


def test_graft_delta_monotone():
    att = cl.homogeneous_tree(3, 2).graph
    base = cl.grid_window(3, 3, truncated=False)
    result = cl.graft(base, att, "v")
    d_base = cl.delta_four_point(base).delta
    d_graft = cl.delta_four_point(result.graph).delta
    assert d_graft >= d_base


def test_graft_size_budget(monkeypatch):
    base, att = cl.grid_window(3, 3), cl.homogeneous_tree(3, 2).graph
    size = 9 * 10 + 12 + 9 * 9  # vertices, base edges, copy edges
    result = cl.graft(base, att, "v").graph
    assert len(result.vertices) + len(result.edges) == size
    monkeypatch.setattr(cl.decomposition, "MAX_GRAFT_ELEMENTS", size)
    cl.graft(base, att, "v")
    monkeypatch.setattr(cl.decomposition, "MAX_GRAFT_ELEMENTS", size - 1)
    with pytest.raises(cl.BudgetExceededError, match=f"{size} graft vertices and edges"):
        cl.graft(base, att, "v")


def test_graft_budget_is_checked_before_any_copy(monkeypatch):
    # a lowered cap keeps the graft small should the check come too late:
    # the 100 copies of a 94-vertex tree take about 4 MiB to build
    base, att = cl.grid_window(10, 10), cl.homogeneous_tree(3, 4).graph
    monkeypatch.setattr(cl.decomposition, "MAX_GRAFT_ELEMENTS", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(cl.BudgetExceededError):
            cl.graft(base, att, "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_graft_rejects_frontier_port():
    base = cl.grid_window(3, 3)
    att = cl.homogeneous_tree(3, 2).graph
    leaf = sorted(att.frontier)[0]
    with pytest.raises(InvalidInputError):
        cl.graft(base, att, leaf)


@st.composite
def connected_graphs(draw, prefix: str):
    """A connected graph of 1 to 7 vertices: a random spanning tree plus
    random chords, and a random frontier."""
    n = draw(st.integers(1, 7))
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    frontier = draw(st.sets(st.sampled_from(names), max_size=n - 1))
    return cl.Graph.from_edges([(names[i], names[j]) for i, j in edges], names, frontier)


@settings(max_examples=80, deadline=None)
@given(base=connected_graphs("b"), att=connected_graphs("a"), data=st.data())
def test_graft_reads_its_degree_bound_off_the_inputs(base, att, data):
    port = data.draw(st.sampled_from(sorted(set(att.vertices) - att.frontier)))
    graph = cl.graft(base, att, port).graph
    literal = cl.Graph(graph.vertices, graph.edges, graph.frontier)
    assert graph.mu == literal.mu
    assert "adjacency" not in vars(graph)  # the result's adjacency was never built


def test_graft_onto_an_empty_base_has_degree_bound_zero():
    graph = cl.graft(cl.Graph((), frozenset()), cl.homogeneous_tree(3, 2).graph, "v").graph
    assert graph.vertices == () and graph.mu == 0


def test_graft_decomposition_builds_no_adjacency_of_the_result(tmp_path):
    spec = cl.graft_decomposition(cl.grid_window(4, 4), cl.homogeneous_tree(3, 3).graph, "v")
    save_decomposition(tmp_path / "d.json", spec)
    assert "adjacency" not in vars(spec.ambient)
    assert spec.ambient.mu == cl.Graph(*spec.ambient._values()).mu == 4 + 3


# -- validation -------------------------------------------------------------------------


def graft_spec(rows=5, depth=3, radius=0):
    base = cl.grid_window(rows, rows)
    att = cl.homogeneous_tree(3, depth).graph
    return cl.graft_decomposition(base, att, "v", radius=radius)


def test_graft_decomposition_validates_strong():
    spec = graft_spec()
    report = cl.validate(spec)
    assert report.valid, report.violations
    assert report.strong
    assert not report.unverified
    assert spec.rate == Fraction(1, 7)
    assert all(v >= spec.rate for v in report.verified_lower.values())
    scan = report.scans["base"]
    assert set(scan.contact) == set(scan.shield) == set(spec.pieces["base"])
    assert scan.components == ()


def test_graft_decomposition_bound_value():
    spec = graft_spec()
    bound = cl.decomposition_bound(spec, cl.validate(spec))
    mu = spec.ambient.mu
    assert bound.lower.value == cl.bound_strong(mu, 0, Fraction(1, 7))
    assert bound.lower.kind == "decomposition-theorem"
    assert bound.lower.horizon_certified


def test_dropping_a_piece_from_s1_breaks_validation():
    spec = graft_spec(rows=3, depth=2)
    victim = sorted(spec.s1)[0]
    moved = DecompositionSpec(
        ambient=spec.ambient,
        pieces=spec.pieces,
        s1=spec.s1 - {victim},
        s2=spec.s2 | {victim},
        radius=spec.radius,
        rate=spec.rate,
        certificates={k: v for k, v in spec.certificates.items() if k != victim},
    )
    report = cl.validate(moved)
    assert not report.valid
    # the grid vertex under the dropped tree is now an uncertified leftover
    assert any("copy" in v or "base" in v for v in report.violations)


def test_first_class_label_naming_no_piece_is_a_violation():
    spec = graft_spec(rows=3, depth=2)
    report = cl.validate(respec(spec, pieces={}))
    assert not report.valid
    assert "class labels must partition the piece ids with S1 non-empty" in report.violations


def test_shared_edge_intersection_rejected():
    g = cl.path_window(4, truncated=False)
    pieces = {
        "left": frozenset({"1", "2", "3"}),
        "right": frozenset({"2", "3", "4"}),  # shares the edge 2-3
    }
    spec = DecompositionSpec(
        ambient=g,
        pieces=pieces,
        s1=frozenset({"left"}),
        s2=frozenset({"right"}),
        radius=0,
        rate=Fraction(1, 2),
        certificates={},
    )
    report = cl.validate(spec)
    assert not report.valid
    assert any("share the edge" in v for v in report.violations)


def test_decomposition_bound_rejects_an_invalid_report():
    g = cl.path_window(4, truncated=False)
    spec = DecompositionSpec(
        ambient=g,
        pieces={"left": frozenset({"1", "2", "3"}), "right": frozenset({"2", "3", "4"})},
        s1=frozenset({"left"}), s2=frozenset({"right"}),
        radius=0, rate=Fraction(1, 2), certificates={},
    )
    with pytest.raises(InvalidInputError, match="does not validate"):
        cl.decomposition_bound(spec, cl.validate(spec))


def test_decomposition_bound_rejects_a_report_of_another_spec():
    g = cl.path_window(4, truncated=False)
    spec = DecompositionSpec(
        ambient=g,
        pieces={"left": frozenset({"1", "2", "3"}), "right": frozenset({"3", "4"})},
        s1=frozenset({"left"}), s2=frozenset({"right"}),
        radius=0, rate=Fraction(1, 2), certificates={},
    )
    twin = respec(spec, rate=Fraction(1))
    with pytest.raises(InvalidInputError, match="another decomposition"):
        cl.decomposition_bound(twin, cl.validate(spec))


def test_shared_edge_violation_is_the_same_under_every_hash_seed():
    # pieces 1234 and 2345 of a 6-path share the edges 2-3 and 3-4; the
    # smallest is reported whatever order the edge set iterates in
    script = (
        "import cheegerlab as cl; from fractions import Fraction\n"
        "spec = cl.DecompositionSpec(ambient=cl.path_window(6, truncated=False),\n"
        "    pieces={'A': frozenset('1234'), 'B': frozenset('2345')},\n"
        "    s1=frozenset({'A'}), s2=frozenset({'B'}), radius=0, rate=Fraction(1, 2),\n"
        "    certificates={})\n"
        "print([v for v in cl.validate(spec).violations if 'share the edge' in v])\n"
    )
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "share the edge 2--3;" in proc.stdout, (seed, proc.stdout)


@pytest.mark.parametrize(
    "edges, live, named",
    [
        # live leaves b and d sit at depth 1, below the horizon 2 that c reaches
        ([("r", "a"), ("a", "c"), ("r", "b"), ("r", "d")], ["b", "d"], "live leaf 'b'"),
        # c is live at depth 2, and the dead leaves e and f reach depth 2 too
        (
            [("r", "a"), ("a", "c"), ("r", "b"), ("b", "e"), ("r", "d"), ("d", "f")],
            ["c"], "leaf 'f'",  # the first in walk order: r, a, b, d, f, e, c
        ),
    ],
)
def test_decomp_report_names_the_same_tree_offender_under_every_hash_seed(
    tmp_path, edges, live, named
):
    g = cl.Graph.from_edges(edges, frontier=live)
    spec = DecompositionSpec(
        ambient=g, pieces={"T": frozenset(g.vertices)}, s1=frozenset({"T"}), s2=frozenset(),
        radius=0, rate=Fraction(1, 10),
        certificates={"T": PieceCertificate("tree-theorem", root="r")},
    )
    save_decomposition(tmp_path / "spec.json", spec)
    reports = set()
    for seed in (0, 1, 2):  # these seeds iterate the offending sets in different orders
        out = tmp_path / f"report{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cheegerlab.cli", "decomp",
             "--spec", str(tmp_path / "spec.json"), "--report", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 4, proc.stderr
        reports.add(out.read_bytes())
    assert len(reports) == 1
    assert named in reports.pop().decode()


def test_second_class_needs_contact():
    g = cl.path_window(6, truncated=False)
    pieces = {
        "a": frozenset({"1", "2", "3"}),
        "b": frozenset({"4", "5", "6"}),  # disjoint from a
    }
    spec = DecompositionSpec(
        ambient=g, pieces=pieces,
        s1=frozenset({"a"}), s2=frozenset({"b"}),
        radius=1, rate=Fraction(1, 3), certificates={},
    )
    report = cl.validate(spec)
    assert any("does not meet" in v for v in report.violations)


def test_unknown_vertex_in_second_class_piece_is_a_violation():
    # the second-class scan reads the piece on its known vertices only
    spec = cl.graft_decomposition(cl.grid_window(3, 3), cl.homogeneous_tree(3, 2).graph, "v")
    pieces = {**spec.pieces, "base": spec.pieces["base"] | {"zz"}}
    report = cl.validate(respec(spec, pieces=pieces))
    assert report.violations == ("piece 'base' contains unknown vertex 'zz'",)
    assert report.scans == cl.validate(spec).scans


def test_tree_certificate_rooted_outside_its_piece_is_a_violation():
    spec = cl.graft_decomposition(cl.grid_window(3, 3), cl.homogeneous_tree(3, 2).graph, "v")
    victim = sorted(spec.s1)[0]
    certs = {**spec.certificates, victim: PieceCertificate("tree-theorem", root="zz")}
    report = cl.validate(respec(spec, certificates=certs))
    assert not report.valid
    assert any("root 'zz' is not a vertex of the piece" in v for v in report.violations)


def test_bound_too_large_to_render_exceeds_the_budget():
    # either bound's reduced denominator exceeds mu^R; here mu^R has 84,510 digits
    for bound in (cl.bound_general, cl.bound_strong):
        with pytest.raises(cl.BudgetExceededError, match="digits in the exact bound"):
            bound(7, 100_000, 1)
    # near the limit the exact value decides: R = 5086 renders, R = 5087 does not
    spec = cl.graft_decomposition(cl.grid_window(4, 4), cl.homogeneous_tree(3, 2).graph, "v")
    assert spec.ambient.mu == 7
    limit = sys.get_int_max_str_digits()
    for radius, renders in ((5086, True), (5087, False)):
        near = respec(spec, radius=radius)
        report = cl.validate(near)
        if renders:
            value = cl.decomposition_bound(near, report).lower.value
            assert len(str(value.denominator)) <= limit
        else:
            with pytest.raises(cl.BudgetExceededError):
                cl.decomposition_bound(near, report)


def test_frontier_crossing_component_reported_unverified():
    base = cl.grid_window(5, 5)
    att = cl.homogeneous_tree(3, 2).graph
    spec = cl.graft_decomposition(base, att, "v", radius=0)
    # shrink the certified class: pretend one corner copy is second-class and
    # shielded by nothing, leaving a leftover that touches the frontier
    victim = sorted(spec.s1)[0]
    moved = DecompositionSpec(
        ambient=spec.ambient,
        pieces=spec.pieces,
        s1=spec.s1 - {victim},
        s2=spec.s2 | {victim},
        radius=spec.radius,
        rate=spec.rate,
        certificates={k: v for k, v in spec.certificates.items() if k != victim},
    )
    report = cl.validate(moved)
    assert not report.valid or report.unverified  # corner copies touch the window edge


def leftover_spec(last_certificate):
    """T3 d6 cut at v0.  The first-class piece A is the tree without v0's
    descendants, certified by depth with f(v0) = -1 (1/9).  The second-class
    piece B, the subtree at v0, shields only the ball of radius 1 around v0,
    so its four depth-3 subtrees are leftover components B/0..B/3, each with
    a certificate of its own; the last one is ``last_certificate``."""
    t = cl.homogeneous_tree(3, 6)
    below = frozenset(v for v in t.vertices if v.startswith("v0"))
    a = frozenset(t.vertices) - below | {"v0"}
    depth = {v: t.depth[v] for v in t.vertices}
    return DecompositionSpec(
        ambient=t.graph, pieces={"A": a, "B": below},
        s1=frozenset({"A"}), s2=frozenset({"B"}), radius=1, rate=Fraction(1, 100),
        certificates={
            "A": PieceCertificate("function", f={**depth, "v0": -1}),
            "B/0": PieceCertificate("function", f=depth),
            "B/1": PieceCertificate("function", f=depth),
            "B/2": PieceCertificate("tree-theorem", root="v010"),
            "B/3": last_certificate,
        },
    )


def test_leftover_components_are_reverified_and_give_the_general_bound(tmp_path):
    zero = {v: 0 for v in cl.homogeneous_tree(3, 6).vertices}
    bad = leftover_spec(PieceCertificate("function", f=zero))
    report = cl.validate(bad)
    assert not report.valid and not report.strong
    assert report.violations == ("component 'B/3': function certificate fails at v011",)
    assert [c[0] for c in report.scans["B"].components] == ["v000", "v001", "v010", "v011"]

    spec = leftover_spec(PieceCertificate("tree-theorem", root="v011"))
    report = cl.validate(spec)
    assert report.valid and not report.strong and report.unverified == ()
    assert report.verified_lower["A"] == report.verified_lower["B/0"] == Fraction(1, 9)
    assert set(report.verified_lower) == {"A", "B/0", "B/1", "B/2", "B/3"}
    bound = cl.decomposition_bound(spec, report)
    assert bound.lower.value == cl.bound_general(3, 1, Fraction(1, 100))
    assert bound.lower.witness["strong"] is False

    # the function certificates survive the document round trip and the CLI
    save_decomposition(tmp_path / "leftover.json", spec)
    loaded = load_decomposition(tmp_path / "leftover.json")
    assert loaded.certificates["A"].f == spec.certificates["A"].f
    out = tmp_path / "report.json"
    argv = ["decomp", "--spec", str(tmp_path / "leftover.json"), "--report", str(out)]
    assert cli_main(argv) == 0
    results = json.loads(out.read_text())["results"]
    assert results["valid"] and not results["strong"]
    assert Fraction(results["bound"]["lower"]["value"]) == bound.lower.value


def test_certificate_reverification_rejects_wrong_rate():
    spec = graft_spec(rows=3, depth=2)
    stricter = DecompositionSpec(
        ambient=spec.ambient, pieces=spec.pieces,
        s1=spec.s1, s2=spec.s2, radius=spec.radius,
        rate=Fraction(1, 2),  # above what the tree theorem certifies
        certificates=spec.certificates,
    )
    report = cl.validate(stricter)
    assert not report.valid
    assert any("below the required" in v for v in report.violations)


def frontierless_t3_spec():
    """One tree-theorem piece covering T3 d3 with its frontier removed: the
    whole vertex set has boundary 0, so h = 0 and no bound may validate."""
    g = cl.homogeneous_tree(3, 3).graph
    bare = cl.Graph(g.vertices, g.edges, frozenset())
    return DecompositionSpec(
        ambient=bare, pieces={"T": frozenset(bare.vertices)},
        s1=frozenset({"T"}), s2=frozenset(), radius=0, rate=Fraction(1, 7),
        certificates={"T": PieceCertificate("tree-theorem", root="v")},
    )


def test_tree_piece_without_frontier_has_no_live_leaf():
    assert "live" not in inspect.signature(PieceCertificate).parameters
    assert not hasattr(PieceCertificate("tree-theorem", root="v"), "live")
    report = cl.validate(frontierless_t3_spec())
    assert not report.valid
    assert report.violations == (
        "piece 'T': tree certificate rejected: "
        "tree has no live leaf; complete subtree is empty",
    )
    assert report.verified_lower == {}


def test_tree_piece_live_leaves_are_its_frontier_copies():
    base = cl.grid_window(3, 3)
    att = cl.homogeneous_tree(3, 2)
    spec = cl.graft_decomposition(base, att.graph, "v")
    roots = {spec.certificates[pid].root for pid in spec.s1}
    assert roots == set(base.vertices) and roots & base.frontier  # frontier roots stay inner
    for pid in sorted(spec.s1):
        root = spec.certificates[pid].root
        tree = cl.decomposition._piece_tree(spec.ambient, spec.pieces[pid], root)
        assert tree.live == {f"{root}/{x}" for x in att.live}


def _piece_tree_outcome(build, g, piece, root):
    try:
        t = build(g, piece, root)
    except InvalidInputError as exc:
        return "error", str(exc)
    return t.root, t.children, t.vertices, t.parent, t.depth, t.live, t.horizon


@st.composite
def embedded_pieces(draw):
    """A random tree on x0.. (root x0) inside an ambient graph with extra
    vertices and edges; the piece is the tree, give or take a vertex, and
    extra edges may close cycles inside it."""
    n = draw(st.integers(1, 12))
    extra = draw(st.integers(0, 5))
    names = [f"x{i}" for i in range(n + extra)]
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {normalize_edge(names[p], names[i]) for i, p in enumerate(parents, 1)}
    for u, v in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                              max_size=6)):
        if u != v:
            edges.add(normalize_edge(u, v))
    depth = [0] * n
    for i, p in enumerate(parents, 1):
        depth[i] = depth[p] + 1
    deepest = [names[i] for i in range(n) if depth[i] == max(depth)]
    frontier = draw(st.one_of(
        st.just(deepest), st.lists(st.sampled_from(names), max_size=4), st.just([])
    ))
    g = cl.Graph.from_edges(edges, vertices=names, frontier=frontier, require_connected=False)
    piece = set(names[:n])
    piece ^= set(draw(st.lists(st.sampled_from(names + ["zz"]), max_size=2)))
    root = draw(st.sampled_from(["x0", "x0", "zz", *names]))
    return g, frozenset(piece), root


@settings(max_examples=300, deadline=None)
@given(embedded_pieces())
def test_piece_tree_matches_the_two_step_oracle(case):
    g, piece, root = case
    assert _piece_tree_outcome(_piece_tree, g, piece, root) == _piece_tree_outcome(
        oracle_piece_tree, g, piece, root
    )


def test_piece_tree_rejects_what_the_oracle_rejects():
    square = cl.cycle_graph(4)
    two_parts = cl.Graph.from_edges(
        [("a", "b"), ("b", "c"), ("a", "c")], vertices="abcd", require_connected=False
    )
    path = cl.path_window(5, truncated=False)
    cases = [
        (square, frozenset(square.vertices), "0", "piece is not a tree"),
        (two_parts, frozenset("abcd"), "a", "piece is not a tree"),  # n - 1 edges
        (path, frozenset(), "1", "piece is not a tree"),
        (path, frozenset({"zz", "yy"}), "zz", "piece is not a tree"),
        (path, frozenset({"1", "3"}), "1", "piece is not a tree"),
        (path, frozenset({"1", "2", "zz"}), "2", None),  # unknown vertices are dropped
        (path, frozenset({"1", "2"}), "3", "root '3' is not a vertex of the piece"),
        (path, frozenset({"1", "2", "3"}), "zz", "root 'zz' is not a vertex of the piece"),
        (square, frozenset(square.vertices), "zz", "piece is not a tree"),
    ]
    for g, piece, root, message in cases:
        got = _piece_tree_outcome(_piece_tree, g, piece, root)
        assert got == _piece_tree_outcome(oracle_piece_tree, g, piece, root)
        assert (got[1] if got[0] == "error" else None) == message


def test_piece_tree_matches_the_oracle_on_graft_pieces():
    for base, att in (
        (cl.grid_window(3, 3), cl.homogeneous_tree(3, 3)),
        (cl.grid_window(4, 4), cl.random_branching_tree(3, 0)),
        (cl.grid_window(3, 3), cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 2)),
    ):
        spec = cl.graft_decomposition(base, att.graph, "v")
        for pid, piece in spec.pieces.items():
            root = spec.certificates[pid].root if pid in spec.certificates else "0,0"
            got = _piece_tree_outcome(_piece_tree, spec.ambient, piece, root)
            assert got == _piece_tree_outcome(oracle_piece_tree, spec.ambient, piece, root)
            assert (got[0] == "error") == (pid == "base")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piece_clauses_match_the_all_pairs_oracle(data):
    n = data.draw(st.integers(1, 8))
    names = [str(i) for i in range(n)]
    edges = {
        normalize_edge(u, v)
        for u, v in data.draw(st.lists(st.tuples(st.sampled_from(names),
                                                 st.sampled_from(names)), max_size=14))
        if u != v
    }
    g = cl.Graph.from_edges(edges, vertices=names, require_connected=False)
    pieces = {}
    for i in range(data.draw(st.integers(1, 6))):
        if pieces and data.draw(st.booleans()):  # a duplicate of an earlier piece
            verts = pieces[data.draw(st.sampled_from(sorted(pieces)))]
        else:  # possibly empty, possibly naming unknown vertices
            verts = frozenset(data.draw(st.lists(st.sampled_from(names + ["zz", "yy"]))))
        pieces[data.draw(st.sampled_from(["a", "b", "c"])) + str(i)] = verts
    spec = DecompositionSpec(g, pieces, frozenset(pieces), frozenset(), 0, Fraction(1), {})
    got = [v for v in cl.validate(spec).violations if "has no certificate" not in v]
    assert got == oracle_piece_clauses(g.vertices, g.edges, pieces)


def _path_spec(n):
    """n two-vertex pieces along the path 1..n+1, plus a copy of piece 5."""
    pieces = {f"p{i}": frozenset({str(i), str(i + 1)}) for i in range(1, n + 1)}
    pieces["dup"] = pieces["p5"]
    g = cl.path_window(n + 1, truncated=False)
    return DecompositionSpec(g, pieces, frozenset(pieces), frozenset(), 0, Fraction(1), {})


def _hub_spec(n):
    """n two-vertex pieces that meet at one hub vertex, plus a copy of piece 5."""
    pieces = {f"p{i}": frozenset({"h", f"x{i}"}) for i in range(n)}
    pieces["dup"] = pieces["p5"]
    g = cl.Graph.from_edges([("h", f"x{i}") for i in range(n)])
    return DecompositionSpec(g, pieces, frozenset(pieces), frozenset(), 0, Fraction(1), {})


@pytest.mark.parametrize(
    "make, n, edge", [(_path_spec, 12_000, "5--6"), (_hub_spec, 20_000, "h--x5")]
)
def test_pair_clauses_of_many_pieces_are_read_off_the_index(make, n, edge):
    # comparing every pair of pieces would make 72M checks for the path, 200M for the hub
    spec = make(n)
    started = time.perf_counter()
    report = cl.validate(spec)
    assert time.perf_counter() - started < 5.0
    # the two equal pieces share ``edge``; they are reported once, as equal
    assert set(edge.split("--")) == spec.pieces["dup"]
    assert [v for v in report.violations if "has no certificate" not in v] == [
        "pieces 'dup', 'p5' have equal vertex sets"
    ]


def test_graft_decomposition_rate_needs_a_certified_attachment():
    base = cl.grid_window(3, 3)
    bare = cl.homogeneous_tree(3, 2).graph
    bare = cl.Graph(bare.vertices, bare.edges, frozenset())
    with pytest.raises(InvalidInputError, match="no live leaf"):
        cl.graft_decomposition(base, bare, "v")
    chain = cl.growing_chain(6).graph
    with pytest.raises(InvalidInputError, match="not pseudo-regular"):
        cl.graft_decomposition(base, chain, chain.vertices[0])
    with pytest.raises(InvalidInputError, match="not a tree"):
        cl.graft_decomposition(base, cl.cycle_graph(4), "0")


def test_function_certificate_kind():
    # a second-class-free decomposition where the single piece certifies by
    # the depth-function certificate on the tree window
    t = cl.homogeneous_tree(3, 4)
    g = t.graph
    f = {v: t.depth[v] for v in g.vertices}
    spec = DecompositionSpec(
        ambient=g,
        pieces={"all": frozenset(g.vertices), "stub": frozenset({"v"})},
        s1=frozenset({"all"}),
        s2=frozenset({"stub"}),
        radius=0,
        rate=Fraction(1, 9),
        certificates={"all": PieceCertificate("function", f=f)},
    )
    report = cl.validate(spec)
    assert not any("all" in v and "certificate" in v for v in report.violations)
    assert report.verified_lower["all"] == Fraction(1, 9)


# -- converse scan -----------------------------------------------------------------------


def test_path_windows_decay():
    windows = [cl.path_window(n) for n in range(9, 22, 2)]
    report = cl.converse_scan(windows)
    assert report.values == tuple(Fraction(2, n - 4) for n in range(9, 22, 2))
    assert report.nonincreasing and report.decay


def test_tree_windows_hold_a_floor():
    windows = [cl.homogeneous_tree(3, d).graph for d in (3, 4, 5)]
    report = cl.converse_scan(windows, max_size=8, ambient_lower=Fraction(1, 7))
    assert report.lower_respected
    assert not report.decay
    assert report.floor >= Fraction(1, 7)


def test_grafted_windows_respect_strong_bound():
    spec = graft_spec(rows=5, depth=3)
    bound = cl.decomposition_bound(spec, cl.validate(spec))
    report = cl.converse_scan([spec.ambient], ambient_lower=bound.lower.value)
    assert report.lower_respected
