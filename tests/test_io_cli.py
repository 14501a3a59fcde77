"""File formats (byte-stable round trips) and the CLI contract: exit codes,
report determinism, library equivalence."""

import importlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cheegerlab as cl
from cheegerlab import commands, graphs, io
from cheegerlab.cli import main as cli_main
from conftest import oracle_graph_document, oracle_json_bytes


@pytest.fixture
def workdir(tmp_path):
    t = cl.homogeneous_tree(3, 5)
    io.save_tree(tmp_path / "t3_d5.json", t)
    io.save_graph(tmp_path / "p9.json", cl.path_window(9))
    io.save_graph(tmp_path / "p13.json", cl.path_window(13))
    io.save_graph(tmp_path / "p21.json", cl.path_window(21))
    io.save_metric(tmp_path / "cantor4.json", cl.cantor_sample(4))
    spec = cl.graft_decomposition(
        cl.grid_window(4, 4), cl.homogeneous_tree(3, 2).graph, "v"
    )
    io.save_decomposition(tmp_path / "graft.json", spec)
    f = {v: str(t.depth[v]) for v in t.vertices}
    io.write_canonical(tmp_path / "depth.json", f)
    return tmp_path


def run_cli(args, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main([*args, "--report", str(out)])
    return code, out.read_bytes() if out.exists() else b""


# -- round trips --------------------------------------------------------------------


def test_graph_round_trip_is_byte_stable(tmp_path):
    g = cl.grid_window(3, 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.save_graph(p1, g)
    io.save_graph(p2, io.load_graph(p1))
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["vertices"] == sorted(payload["vertices"])
    assert payload["edges"] == sorted(payload["edges"])


def test_tree_round_trip(tmp_path):
    trees = [
        *(cl.homogeneous_tree(3, d) for d in range(1, 8)),
        *(cl.random_tree(n, seed) for n in (2, 17, 60, 200) for seed in (0, 1, 2)),
        *(cl.random_branching_tree(d, seed, 1, 4) for d in (1, 3, 5) for seed in (0, 1, 2)),
        *(cl.comb_tree(d, tooth) for d, tooth in ((5, 1), (9, 3), (1200, 3))),
        *(cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), size) for size in (1, 2)),
        cl.even_branching_tree(8),
        cl.tree_from_parents("v", {"a": "v", "b": "a", "c": "v"}),  # bounded: no live leaf
        cl.growing_chain(3000),
    ]
    path = tmp_path / "t.json"
    for t in trees:
        io.save_tree(path, t)
        back = io.load_tree(path)
        assert (back.root, back.children, back.live) == (t.root, t.children, t.live)
        assert back.vertices == t.vertices  # child order survives the document


def test_tree_document_is_flat():
    t = cl.tree_from_parents("v", {"b": "v", "a": "v", "c": "a"}, live=["c"])
    assert io.tree_payload(t) == {
        "root": "v",
        "children": {"v": ["a", "b"], "a": ["c"], "b": [], "c": []},
        "live": ["c"],
    }


def test_metric_round_trip_preserves_point_order(tmp_path):
    space = cl.line_space([0, 0.5, 1.1, 3])
    path = tmp_path / "m.json"
    io.save_metric(path, space)
    back = io.load_metric(path)
    assert back.points == space.points
    assert (back.dist == space.dist).all()


def test_leveled_round_trip(tmp_path):
    lg = cl.build_truncated(cl.cantor_sample(4), 1 / 9, 2)
    path = tmp_path / "lg.json"
    io.save_leveled(path, lg)
    back = io.load_leveled(path)
    assert back.level == lg.level and back.center == lg.center
    assert back.graph.edges == lg.graph.edges


def _first_vertex(field, value):
    """Mutation setting ``field`` of the first vertex (in sorted order) to ``value``."""
    def mutate(doc):
        doc[field][min(doc[field])] = value
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda doc: doc.update(graph=[]), id="graph-not-object"),
        pytest.param(lambda doc: doc["space"].pop("dist"), id="space-without-dist"),
        pytest.param(lambda doc: doc.update(r="abc"), id="r-string"),
        pytest.param(lambda doc: doc.update(r=float("inf")), id="r-infinite"),
        pytest.param(lambda doc: doc.update(r=True), id="r-bool"),
        # boundary_identification_check divides by log(1/r)
        pytest.param(lambda doc: doc.update(r=1.0), id="r-one"),
        pytest.param(lambda doc: doc.update(r=0.0), id="r-zero"),
        pytest.param(lambda doc: doc.update(r=-0.5), id="r-negative"),
        pytest.param(lambda doc: doc.update(r=1.5), id="r-above-one"),
        pytest.param(lambda doc: doc.update(k0=None), id="k0-null"),
        pytest.param(lambda doc: doc.update(k0=0.5), id="k0-float"),
        pytest.param(lambda doc: doc.update(k_max="2"), id="k_max-string"),
        pytest.param(lambda doc: doc.update(level=[]), id="level-list"),
        pytest.param(_first_vertex("level", "1"), id="level-string"),
        pytest.param(_first_vertex("level", 99), id="level-above-k_max"),
        pytest.param(lambda doc: doc["level"].pop(min(doc["level"])), id="level-misses-vertex"),
        pytest.param(lambda doc: doc.update(center="x"), id="center-string"),
        pytest.param(_first_vertex("center", 1.5), id="center-float"),
        pytest.param(_first_vertex("center", "no-such-point"), id="center-unknown-point"),
        pytest.param(lambda doc: doc["center"].update(extra="0"), id="center-extra-vertex"),
    ],
)
def test_leveled_loader_type_checks_fields(mutate):
    doc = io.leveled_payload(cl.build_truncated(cl.cantor_sample(3), 1 / 9, 2))
    mutate(doc)
    with pytest.raises(cl.InvalidInputError):
        io.leveled_from_payload(doc)


def test_leveled_loader_rejects_non_object_documents(tmp_path):
    path = tmp_path / "lg.json"
    for text in ("[]", '"lg"', "3", "null", '{"r": Infinity}'):
        path.write_text(text)
        with pytest.raises(cl.InvalidInputError):
            io.load_leveled(path)




# -- the canonical writer -----------------------------------------------------------

# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=8)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1e16]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), FLOATS, TEXT
)


def _json_trees(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    )


JSON_TREES = st.recursive(
    st.one_of(
        SCALARS,
        # the shapes the writer joins in one pass, and ones that start like them
        st.lists(TEXT, max_size=6),
        st.lists(FLOATS, max_size=6),
        st.lists(st.lists(TEXT, min_size=2, max_size=2), max_size=4),
        st.lists(st.tuples(TEXT, TEXT), max_size=4),
        st.lists(st.one_of(TEXT, FLOATS, st.integers(), st.booleans()), max_size=6),
        st.lists(st.lists(TEXT, max_size=3), max_size=4),
        st.lists(st.one_of(st.lists(TEXT, min_size=2, max_size=2), TEXT), max_size=4),
    ),
    _json_trees,
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
def test_canonical_writer_matches_the_stdlib(payload):
    assert io.canonical_json_bytes(payload) == oracle_json_bytes(payload)


def _same_error(payload, kind):
    with pytest.raises(kind) as want:
        oracle_json_bytes(payload)
    with pytest.raises(kind) as got:
        io.canonical_json_bytes(payload)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_canonical_writer_rejects_non_finite_floats(bad):
    for payload in (bad, [1.0, bad], {"a": [0.5, 2.0, bad]}, {"a": {"b": bad}}, [[1.0], [bad]]):
        _same_error(payload, ValueError)


def test_canonical_writer_leaves_other_values_to_the_stdlib():
    for payload in (
        Fraction(1, 3), {"a": [Fraction(1, 2)]}, ["a", Fraction(1)], {1: 2, "b": 3}, {None: 1, True: 2}
    ):
        _same_error(payload, TypeError)
    loop: list = ["a"]
    loop.append(loop)
    _same_error(loop, ValueError)
    # keys that are not strings: the stdlib renders them, so the bytes match
    for payload in ({1: "a", 2: ["b"]}, {True: 1, False: 2.5}, {0.5: [1]}, {None: {}}):
        assert io.canonical_json_bytes(payload) == oracle_json_bytes(payload)



PAIR_ITEMS = st.one_of(TEXT, TEXT, st.integers(), st.none())
PAIR_LISTS = st.one_of(
    st.lists(st.lists(TEXT, min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(
        st.one_of(st.lists(PAIR_ITEMS, min_size=2, max_size=2), st.tuples(PAIR_ITEMS, PAIR_ITEMS)),
        min_size=1,
        max_size=6,
    ),
)


@settings(max_examples=400, deadline=None)
@given(PAIR_LISTS, st.sampled_from([lambda x: x, lambda x: {"edges": x}, lambda x: [[x]]]))
def test_pair_lists_match_the_stdlib(pairs, wrap):
    # escapes, non-ASCII text, int or None items, list and tuple pairs, at three indents
    payload = wrap(pairs)
    assert io.canonical_json_bytes(payload) == oracle_json_bytes(payload)


def test_pair_lists_match_the_stdlib_on_escapes_and_fail_as_it_does():
    text = [["\"\\\n\t", "\u00e9\u2028"], ["\ud800", "\U0001f600"], ["", "/\x7f"]]
    for payload in (text, {"e": text}, [text, ("a", "b")]):
        assert io.canonical_json_bytes(payload) == oracle_json_bytes(payload)
    for bad, kind in ((float("nan"), ValueError), (Fraction(1, 2), TypeError)):
        for payload in ([["a", bad]], [["a", "b"], [bad, "c"]], {"e": [["a", "b"], ("c", bad)]}):
            _same_error(payload, kind)


def test_graph_payload_keeps_list_pairs():
    # loaders check for lists, so a leveled or decomposition payload read
    # back before it is written must not hold tuple pairs
    g = cl.grid_window(3, 3)
    payload = io.graph_payload(g)
    assert {type(e) for e in payload["edges"]} == {list}
    assert io.graph_from_payload(payload).edges == g.edges

def test_every_saved_document_is_the_stdlib_bytes(tmp_path, monkeypatch):
    t = cl.homogeneous_tree(3, 3)
    spec = cl.graft_decomposition(cl.grid_window(3, 3), t.graph, "v")
    f = {v: Fraction(t.depth[v], 3) for v in t.vertices}
    spec = cl.DecompositionSpec(
        ambient=spec.ambient, pieces=spec.pieces, s1=spec.s1, s2=spec.s2, radius=1,
        rate=spec.rate,
        certificates={**spec.certificates, "base/0": cl.PieceCertificate("function", f=f)},
    )
    lg = cl.build_truncated(cl.cantor_sample(4), 1 / 9, 3)
    saves = [
        (io.save_graph, "graph.json", cl.path_window(9)),
        (io.save_metric, "cantor8.json", cl.cantor_sample(8)),
        (io.save_metric, "ends.json", cl.end_space(t)),
        (io.save_tree, "tree.json", cl.grafted_dead_branches(t, 1)),
        (io.save_leveled, "leveled.json", lg),
        (io.save_decomposition, "d.json", spec),
    ]
    for side in ("fast", "stdlib"):
        (tmp_path / side).mkdir()
        if side == "stdlib":
            monkeypatch.setattr(io, "canonical_json_bytes", oracle_json_bytes)
        for save, name, obj in saves:
            save(tmp_path / side / name, obj)
    names = sorted(p.name for p in (tmp_path / "fast").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "stdlib").iterdir())
    assert "d.ambient.json" in names
    for name in names:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "stdlib" / name).read_bytes()


def _report_fields(report):
    return (report.valid, report.strong, report.violations, report.unverified,
            report.verified_lower, report.scans)


def test_decomposition_round_trip(tmp_path):
    attachments = [cl.homogeneous_tree(3, d) for d in range(1, 5)]
    attachments += [cl.random_branching_tree(d, seed) for d in (2, 3) for seed in (0, 1)]
    for rows in (3, 4, 5, 6):
        for i, att in enumerate(attachments):
            spec = cl.graft_decomposition(cl.grid_window(rows, rows), att.graph, "v")
            path = tmp_path / f"d{i}.json"
            io.save_decomposition(path, spec)
            back = io.load_decomposition(path)
            assert (back.pieces, back.rate) == (spec.pieces, spec.rate)
            assert set(back.certificates) == set(spec.certificates)
            report = cl.validate(back)
            assert report.valid
            assert _report_fields(report) == _report_fields(cl.validate(spec))
    # one document plus its ambient graph per decomposition
    assert len(list(tmp_path.iterdir())) == 2 * len(attachments)


def test_frontierless_tree_piece_exits_falsified(tmp_path, capsys):
    g = cl.homogeneous_tree(3, 3)
    spec = cl.DecompositionSpec(
        ambient=cl.Graph(g.graph.vertices, g.graph.edges, frozenset()),
        pieces={"T": frozenset(g.vertices)}, s1=frozenset({"T"}), s2=frozenset(),
        radius=0, rate=Fraction(1, 7),
        certificates={"T": cl.PieceCertificate("tree-theorem", root="v")},
    )
    path = tmp_path / "d.json"
    io.save_decomposition(path, spec)
    declared = json.loads(path.read_text())
    declared["certificates"]["T"]["live"] = sorted(g.live)  # not read
    io.write_canonical(tmp_path / "declared.json", declared)
    for name in ("d.json", "declared.json"):
        code, blob = run_cli(["decomp", "--spec", str(tmp_path / name)], tmp_path)
        assert code == 4
        results = json.loads(blob)["results"]
        assert results["valid"] is False and "bound" not in results
        assert any("no live leaf" in v for v in results["violations"])


def test_second_class_piece_with_an_unknown_vertex_exits_falsified(tmp_path):
    spec = cl.DecompositionSpec(
        ambient=cl.path_window(4, truncated=False),
        pieces={"A": frozenset({"1", "2"}), "B": frozenset({"2", "3", "4", "zz"})},
        s1=frozenset({"A"}), s2=frozenset({"B"}), radius=1, rate=Fraction(1, 2),
        certificates={"A": cl.PieceCertificate("function", f={"1": 0, "2": 1})},
    )
    io.save_decomposition(tmp_path / "d.json", spec)
    code, blob = run_cli(["decomp", "--spec", str(tmp_path / "d.json")], tmp_path)
    assert code == 4
    results = json.loads(blob)["results"]
    assert results["violations"][0] == "piece 'B' contains unknown vertex 'zz'"


def test_loader_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cl.InvalidInputError):
        io.load_graph(bad)
    bad.write_text('{"vertices": ["a"]}')
    with pytest.raises(cl.InvalidInputError):
        io.load_graph(bad)


def test_graph_loader_type_checks_fields(tmp_path):
    bad = tmp_path / "bad.json"
    for doc in (
        {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
        {"vertices": ["a", "b"], "edges": [["a"]]},
        {"vertices": ["a", "b"], "edges": ["ab"]},
        {"vertices": "ab", "edges": [["a", "b"]]},
        {"vertices": ["a", "b"], "edges": {"a": "b"}},
        {"vertices": ["a", "e"], "edges": [["a", "e"]], "frontier": "ae"},
    ):
        bad.write_text(json.dumps(doc))
        with pytest.raises(cl.InvalidInputError):
            io.load_graph(bad)


def loaded_graph(load):
    """What ``load()`` gives, in the oracle's terms: the message it raises or
    the graph as (vertices, edges, frontier, adjacency)."""
    try:
        g = load()
    except cl.InvalidInputError as exc:
        return str(exc)
    return g.vertices, set(g.edges), set(g.frontier), {v: set(s) for v, s in g.adjacency.items()}


def assert_loads_like_built(load, expected):
    """When ``expected`` is a graph, what ``load()`` gives is ``==`` to, and
    hashes as, the graph built from the oracle's pairs, and its edges are the
    oracle's whether its adjacency is read before them or not."""
    if isinstance(expected, str):
        return
    names, pairs, marks, adjacency = expected
    built = cl.Graph(names, frozenset(pairs), frozenset(marks))
    g = load()
    assert g == built and hash(g) == hash(built)
    assert load().edges == pairs
    g = load()
    assert g.adjacency == adjacency and g.edges == pairs


GRAPH_DOCUMENTS = {
    "self-loop": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "b"]]},
    "self-loop-first": {"vertices": ["a", "b", "c"],
                        "edges": [["c", "c"], ["b", "z"], ["a", "a"]]},
    "undeclared-first": {"vertices": ["a", "b"], "edges": [["b", "b"], ["z", "a"]]},
    "non-canonical": {"vertices": ["a", "b", "c"], "edges": [["b", "a"], ["c", "b"], ["b", "c"]]},
    "undeclared": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "q"]]},
    "bad-frontier": {"vertices": ["a", "b"], "edges": [["a", "b"]], "frontier": ["b", "z"]},
    "disconnected": {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["d", "c"]]},
    "isolated": {"vertices": ["a", "b", "c"], "edges": [["b", "a"]]},
    "duplicate": {"vertices": ["a", "b", "a"], "edges": [["a", "z"]]},
    "numbers": {"vertices": [2, 10, "x"], "edges": [[10, 2], ["x", 2]], "frontier": [10]},
    "empty": {"vertices": [], "edges": []},
    "single": {"vertices": ["a"], "edges": [], "frontier": ["a"]},
}


@pytest.mark.parametrize("name", list(GRAPH_DOCUMENTS))
def test_one_pass_graph_loader_matches_the_literal_oracle(tmp_path, name):
    doc = GRAPH_DOCUMENTS[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    expected = oracle_graph_document(doc["edges"], doc["vertices"], doc.get("frontier", ()))
    assert loaded_graph(lambda: io.load_graph(path)) == expected
    assert_loads_like_built(lambda: io.load_graph(path), expected)
    expected = oracle_graph_document(doc["edges"])
    assert loaded_graph(lambda: cl.Graph.from_edges(doc["edges"])) == expected
    assert_loads_like_built(lambda: cl.Graph.from_edges(doc["edges"]), expected)


def test_one_pass_graph_loader_matches_the_literal_oracle_on_random_documents(rng_seeds):
    for seed in rng_seeds:
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(1, 12))]
        pool = names + ["w0", "w1"]  # two undeclared names
        for trial in range(30):
            edges = [[rng.choice(pool), rng.choice(pool)] for _ in range(rng.randint(0, 20))]
            edges = [e for e in edges if e[0] != e[1] or rng.random() < 0.1]
            frontier = rng.sample(pool, rng.randint(0, 2)) if trial % 3 == 0 else []
            declared = names + (["v0"] if trial % 11 == 0 else [])
            def load():
                return io.graph_from_payload(
                    {"vertices": declared, "edges": edges, "frontier": frontier})

            expected = oracle_graph_document(edges, declared, frontier)
            assert loaded_graph(load) == expected, (seed, trial)
            assert_loads_like_built(load, expected)
            expected = oracle_graph_document(edges, connected=False)
            got = loaded_graph(lambda: cl.Graph.from_edges(edges, require_connected=False))
            assert got == expected, (seed, trial)
            assert_loads_like_built(
                lambda: cl.Graph.from_edges(edges, require_connected=False), expected
            )


# -- CLI contract -------------------------------------------------------------------


def test_cli_tree_matches_library(workdir):
    code, blob = run_cli(
        ["tree", "--in", str(workdir / "t3_d5.json"), "--max-size", "6"], workdir
    )
    assert code == 0
    report = json.loads(blob)
    analysis = cl.tree_cheeger_bounds(cl.homogeneous_tree(3, 5), max_size=6)
    assert report["results"]["K"] == analysis.k
    assert report["results"]["C"] == analysis.c
    assert report["results"]["bound"]["lower"]["value"] == str(analysis.bounds.lower.value)
    assert report["results"]["bound"]["upper"]["value"] == str(analysis.bounds.upper.value)
    assert report["disclosures"]["horizon"] == 5


def test_cli_delta_on_tree_file_and_generator(workdir):
    code, blob = run_cli(["delta", "--in", str(workdir / "p9.json")], workdir)
    assert code == 0
    assert json.loads(blob)["results"]["delta"] == "0"
    code, blob = run_cli(["delta", "--in", "cantor:4"], workdir)
    assert code == 0
    assert json.loads(blob)["results"]["lower_bound_only"] is False


def test_cli_cheeger_and_certify(workdir):
    code, blob = run_cli(["cheeger", "--in", str(workdir / "p9.json")], workdir)
    assert code == 0
    assert json.loads(blob)["results"]["interior_cheeger_upper"] == "2/5"
    code, blob = run_cli(
        ["certify", "--in", str(workdir / "t3_d5.json").replace("t3_d5", "t3_d5"),
         "--function", str(workdir / "depth.json")],
        workdir,
    )
    # the tree file is a tree document, not a graph document
    assert code == 2


def test_cli_certify_graph_function(workdir, tmp_path):
    t = cl.homogeneous_tree(3, 5)
    io.save_graph(workdir / "t3_graph.json", t.graph)
    code, blob = run_cli(
        ["certify", "--in", str(workdir / "t3_graph.json"),
         "--function", str(workdir / "depth.json")],
        workdir,
    )
    assert code == 0
    report = json.loads(blob)
    assert report["results"]["certified"] is True
    assert report["results"]["bound"]["lower"]["value"] == "1/9"


def test_cli_exit_codes(workdir):
    # invalid input: missing file
    assert cli_main(["cheeger", "--in", str(workdir / "nope.json")]) == 2
    # budget exceeded
    assert (
        cli_main(
            ["delta", "--in", str(workdir / "p13.json"), "--budget", "10"]
        )
        == 3
    )
    # falsified finding: two-point space is not uniformly perfect
    code, blob = run_cli(
        ["perfect", "--in", "two_point:1.0", "--s", "2.0", "--eps0", "1.0",
         "--floor", "0.25"],
        workdir,
    )
    assert code == 4
    assert json.loads(blob)["results"]["witness"] == ["p", 0.25]


def test_cli_cheeger_exits_falsified_when_the_scan_reports_a_tie_off_its_ratio(
    tmp_path, monkeypatch, capsys
):
    # the witness is re-verified: a scan naming a set whose ratio is not the
    # reported minimum is a finding (exit 4), not a reported bound
    scan = cl.window._window_scan

    def lying(square, closed, max_size):
        b, s, _, judged = scan(square, closed, max_size)
        return b, s, [(1, closed[0], 1)], judged  # one interior vertex: ratio 4

    monkeypatch.setattr(cl.window, "_window_scan", lying)
    io.save_graph(tmp_path / "g.json", cl.grid_window(9, 9))
    code, blob = run_cli(["cheeger", "--in", str(tmp_path / "g.json")], tmp_path)
    assert (code, blob) == (4, b"")
    assert "window witness has ratio 4/1, not 11/9" in capsys.readouterr().err


def test_cli_malformed_graph_documents_exit_invalid(workdir):
    bad = workdir / "bad.json"
    bad.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}')
    assert cli_main(["cheeger", "--in", str(bad)]) == 2
    bad.write_text('{"vertices": ["a", "e"], "edges": [["a", "e"]], "frontier": "ae"}')
    assert cli_main(["cheeger", "--in", str(bad)]) == 2


def test_cli_cheeger_window_errors_exit_invalid(workdir):
    io.save_graph(workdir / "p3.json", cl.path_window(3))  # no admissible vertex
    assert cli_main(["cheeger", "--in", str(workdir / "p3.json")]) == 2
    assert cli_main(["cheeger", "--in", str(workdir / "p9.json"), "--max-size", "0"]) == 2


def test_cli_tree_without_live_leaves_checks_the_cap(tmp_path, capsys):
    # no live leaf means no frontier, so all three vertices are admissible
    path = tmp_path / "bounded.json"
    io.save_tree(path, cl.tree_from_parents("v", {"a": "v", "b": "v"}))
    for cap in ("0", "4"):
        assert cli_main(["tree", "--in", str(path), "--max-size", cap]) == 2
        assert "max_size must be in [1, 3]" in capsys.readouterr().err
    for cap in ("1", "3"):
        code, blob = run_cli(["tree", "--in", str(path), "--max-size", cap], tmp_path)
        assert code == 0
        assert json.loads(blob)["results"]["bound"]["upper"]["value"] == "0"


@pytest.mark.parametrize(
    "make, value, cap",
    [
        (lambda: cl.grid_window(6, 6), 2, 4),
        (lambda: cl.grid_window(9, 9), Fraction(11, 9), 9),
        (lambda: cl.homogeneous_tree(3, 5), Fraction(12, 11), 22),
        (lambda: cl.homogeneous_tree(3, 6), Fraction(7, 5), 5),
    ],
    ids=["grid6", "grid9", "T3d5", "T3d6"],
)
def test_window_callers_agree_with_window_bound(tmp_path, monkeypatch, make, value, cap):
    # each caller makes one oracle call, at the automatic cap
    caps = []
    oracle = cl.window.interior_cheeger_bruteforce

    def recording(g, max_size, budget=graphs.DEFAULT_SUBSET_BUDGET):
        caps.append(max_size)
        return oracle(g, max_size, budget)

    monkeypatch.setattr(cl.window, "interior_cheeger_bruteforce", recording)
    window = make()
    g = window.graph if isinstance(window, cl.RootedTree) else window
    upper = cl.window_bound(g).upper
    assert (upper.value, upper.witness["max_size"]) == (value, cap)
    witness = tuple(upper.witness["set"])

    io.save_graph(tmp_path / "g.json", g)
    code, blob = run_cli(["cheeger", "--in", str(tmp_path / "g.json")], tmp_path)
    report = json.loads(blob)
    reported = report["results"]["bound"]["upper"]
    assert code == 0 and report["parameters"]["max_size"] == cap
    assert (reported["value"], reported["witness"]["set"]) == (str(value), list(witness))

    scan = cl.converse_scan([g])
    assert (scan.values, scan.witnesses) == ((value,), (witness,))
    calls = 3
    if isinstance(window, cl.RootedTree):
        tree = cl.tree_cheeger_bounds(window).bounds.upper
        assert (tree.value, tree.witness) == (value, upper.witness)
        calls += 1
    assert caps == [cap] * calls


def test_cli_bad_generator_parameter_exits_invalid():
    proc = subprocess.run(
        [sys.executable, "-m", "cheegerlab.cli", "perfect", "--in", "cantor:abc",
         "--s", "3", "--eps0", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cantor:abc" in proc.stderr


def test_generator_point_budget_is_checked_before_allocating(monkeypatch, capsys):
    def refuse(value):
        raise AssertionError(f"generator called with {value!r} past the point budget")

    for kind in ("cantor", "interval"):
        monkeypatch.setitem(commands._GENERATORS, kind, (refuse, *commands._GENERATORS[kind][1:]))
    assert cli_main(["delta", "--in", "cantor:40"]) == 3
    assert cli_main(["net", "--in", "interval:1000000", "--eps", "0.1"]) == 3
    assert "interval:1000000" in capsys.readouterr().err
    monkeypatch.undo()

    monkeypatch.setattr(commands, "MAX_GENERATOR_POINTS", 16)
    assert cli_main(["delta", "--in", "cantor:4"]) == 0  # 16 points
    assert cli_main(["delta", "--in", "cantor:5"]) == 3
    assert cli_main(["net", "--in", "interval:16", "--eps", "0.5"]) == 0
    assert cli_main(["net", "--in", "interval:17", "--eps", "0.5"]) == 3
    assert cli_main(["delta", "--in", "two_point:1.0"]) == 0
    assert cli_main(["delta", "--in", "cantor:-1"]) == 2  # under the cap, invalid depth


def test_cli_delta_on_a_disconnected_graph_says_so(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text('{"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}')
    messages = []
    for command in ("cheeger", "delta"):
        assert cli_main([command, "--in", str(path)]) == 2
        messages.append(capsys.readouterr().err)
    assert "graph is disconnected" in messages[0]
    assert messages[1] == messages[0]


@pytest.mark.parametrize(
    "argv, cap, message",
    [
        (["delta", "--in", "cantor:12"], None,
         "4096 generator points for 'cantor:12' exceed the fixed cap of 2048; "
         "no option raises it"),
        (["endspace", "--in", "b2d5.json"], ("commands", "MAX_GENERATOR_POINTS", 16),
         "32 end-space points (live leaves) exceed the fixed cap of 16; no option raises it"),
        (["delta", "--in", "p9.json", "--mode", "sampled", "--samples", "2"],
         ("hyperbolicity", "MAX_SAMPLED_DISTANCE_CELLS", 53),
         "54 BFS distance cells for 2 samples on 9 vertices exceed the fixed cap of 53; "
         "no option raises it"),
        (["cheeger", "--in", "p9.json", "--budget", "4"], None,
         "5 subsets exceed the budget of 4; raise it with --budget"),
        (["delta", "--in", "p13.json", "--budget", "10"], None,
         "exceed the budget of 10; raise it with --budget"),
    ],
    ids=["generator", "endspace", "sampled-cells", "cheeger-budget", "delta-budget"],
)
def test_cli_budget_messages_name_the_remedy(workdir, monkeypatch, capsys, argv, cap, message):
    io.save_tree(workdir / "b2d5.json", cl.full_branching_tree(2, 5))  # 32 live leaves
    monkeypatch.chdir(workdir)
    if cap is not None:  # lowered to keep the instance small
        module, name, value = cap
        monkeypatch.setattr(importlib.import_module(f"cheegerlab.{module}"), name, value)
    assert cli_main(argv) == 3
    assert message in capsys.readouterr().err


def test_approx_delta_refusal_names_what_approx_can_change(capsys):
    # approx has no --mode and no --budget: its delta scan runs at a fixed cap
    assert cli_main(["approx", "--in", "interval:300", "--r", "0.16", "--k-max", "4"]) == 3
    assert capsys.readouterr().err == (
        "error: 61013446081 ordered quadruples in the largest biconnected block (497 "
        "vertices) exceed the fixed cap of 2147483648; no option raises it, so lower "
        "--k-max or pass fewer points\n"
    )
    assert cli_main(["delta", "--in", "interval:300"]) == 3
    assert capsys.readouterr().err == (
        "error: 8100000000 ordered quadruples in a 300-point space (sampled mode draws "
        "fewer) exceed the budget of 2147483648; raise it with --budget or shrink the "
        "instance\n"
    )


def test_cli_refuses_a_count_past_the_int_to_str_limit_quickly(tmp_path, capsys):
    path = tmp_path / "p20k.json"
    io.save_graph(path, cl.path_window(20000))
    start = time.perf_counter()
    assert cli_main(["cheeger", "--in", str(path), "--max-size", "8000"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: more than 4194304 subsets exceed the budget")
    assert len(err) < 200


@pytest.mark.parametrize("samples, expected", [("0", 2), ("-3", 2), ("1000000000000", 3)])
def test_cli_sampled_delta_bounds_samples(samples, expected, capsys):
    argv = ["delta", "--in", "two_point:1.0", "--mode", "sampled", "--samples", samples]
    assert cli_main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("infile", ["two_point:1.0", "p9.json"])
def test_sampled_delta_cap_is_checked_before_drawing(workdir, monkeypatch, capsys, infile):
    monkeypatch.chdir(workdir)

    def no_draw(*args, **kwargs):
        raise AssertionError("quadruples drawn past the sample cap")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    samples = cl.hyperbolicity.MAX_SAMPLES + 1
    argv = ["delta", "--in", infile, "--mode", "sampled", "--samples", str(samples),
            "--budget", str(2**40)]
    assert cli_main(argv) == 3
    assert (
        f"{samples} sampled quadruples exceed the fixed cap of {samples - 1}; no option raises it"
        in capsys.readouterr().err
    )
    monkeypatch.undo()
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cl.hyperbolicity, "MAX_SAMPLES", 100)  # the cap itself still runs
    assert cli_main([*argv[:-3], "100"]) == 0
    assert cli_main([*argv[:-3], "101"]) == 3


def test_endspace_point_budget_is_checked_before_allocating(monkeypatch, tmp_path):
    built, end_space = [], cl.trees.end_space  # the original, before the patch
    monkeypatch.setattr(cl.trees, "end_space", lambda t: built.append(len(t.live)) or end_space(t))
    monkeypatch.setattr(commands, "MAX_GENERATOR_POINTS", 16)
    for depth, expected in ((5, 3), (4, 0)):  # 32 live leaves, then 16
        tree, out, report = (tmp_path / f"{name}{depth}.json" for name in ("b2d", "ends", "rep"))
        io.save_tree(tree, cl.full_branching_tree(2, depth))
        argv = ["endspace", "--in", str(tree), "--out", str(out), "--report", str(report)]
        assert cli_main(argv) == expected
        assert out.exists() == report.exists() == (expected == 0)
    assert built == [16]


@pytest.mark.parametrize(
    "argv, document",
    [
        (["net", "--eps", "0.5"], '{"points": ["a", "b"], "dist": "x"}'),
        (["net", "--eps", "0.5"], '{"points": "ab", "dist": [[0, 1], [1, 0]]}'),
        (["net", "--eps", "0.5"], '{"points": ["a", "b"], "dist": [[0, 1], [1]]}'),
        (["delta", "--in", "two_point:inf"], None),
        (["net", "--eps", "0.6"], '{"points": ["a", "b"], "dist": [[0, " 1e0 "], [" 1e0 ", 0]]}'),
        (["net", "--eps", "0.6"], '{"points": ["a", "b"], "dist": [[false, true], [true, false]]}'),
        (["net", "--eps", "0.6"], '{"points": ["a", "b"], "dist": [[0, true], [true, 0]]}'),
        (["net", "--eps", "0.6"], '{"points": ["a", "b"], "dist": [[0, %d], [%d, 0]]}' % (10**400, 10**400)),
    ],
)
def test_cli_malformed_metric_input_exits_invalid(tmp_path, argv, document):
    if document is not None:
        (tmp_path / "m.json").write_text(document)
        argv = [*argv, "--in", str(tmp_path / "m.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "cheegerlab.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("dist, message", [
    ([[0, " 1e0 "], [" 1e0 ", 0]], "'dist' must be a matrix of numbers"),
    ([[False, True], [True, False]], "'dist' must be a matrix of numbers"),
    ([[0, True], [True, 0]], "'dist' must be a matrix of numbers"),
    ([[0.0, 1], [1, False]], "'dist' must be a matrix of numbers"),
    ([[0, None], [None, 0]], "'dist' must be a matrix of numbers"),
    ([0, 1], "'dist' must be a matrix of numbers"),
    ([[0, 10**400], [10**400, 0]], "'dist' entry is too large for a float"),
])
def test_metric_documents_take_only_json_numbers_as_distances(dist, message):
    with pytest.raises(cl.InvalidInputError, match=message):
        io.metric_from_payload({"points": ["a", "b"], "dist": dist})
    space = io.metric_from_payload({"points": ["a", "b"], "dist": [[0, 1], [1.0, 0]]})
    assert space.d("a", "b") == 1.0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "--in", "cantor:4", "--k-max", "4", "--r"],
        ["approx", "--in", "cantor:4", "--r", "0.111111", "--k-max", "4", "--delta-cap"],
        ["net", "--in", "cantor:3", "--eps"],
        ["perfect", "--in", "cantor:4", "--eps0", "1.0", "--s"],
        ["perfect", "--in", "cantor:4", "--eps0", "1.0", "--two-point-r"],
        ["perfect", "--in", "cantor:4", "--s", "3", "--eps0"],
        ["perfect", "--in", "cantor:4", "--s", "3", "--eps0", "1.0", "--floor"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-1]}",
)
def test_cli_non_finite_float_options_exit_invalid(argv, value):
    proc = subprocess.run(
        [sys.executable, "-m", "cheegerlab.cli", *argv, value], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_unwritable_report_path_exits_invalid(tmp_path, capsys):
    assert cli_main(["delta", "--in", "two_point:1.0", "--report", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # the report is written to --report before it goes to stdout
    assert "error:" in err


def test_cli_tree_on_a_deep_chain(tmp_path):
    io.save_tree(tmp_path / "chain.json", cl.growing_chain(1000))
    code, blob = run_cli(["tree", "--in", str(tmp_path / "chain.json")], tmp_path)
    assert code == 0
    assert json.loads(blob)["disclosures"]["horizon"] == 1000


@pytest.mark.parametrize(
    "doc,reason",
    [
        ({"name": "v", "children": [{"name": "a", "live": True}]}, "string 'root'"),
        ({"children": {"v": []}, "live": []}, "string 'root'"),
        ({"root": 5, "children": {"v": []}, "live": []}, "string 'root'"),
        ({"root": "v", "children": [["v", []]], "live": []}, "map vertices to lists"),
        ({"root": "v", "children": {"v": "a", "a": []}, "live": []}, "map vertices to lists"),
        ({"root": "v", "children": {"v": ["a"], "a": []}, "live": "a"}, "'live' must be a list"),
        ({"root": "v", "children": {"a": []}, "live": []}, "cover the root"),
        ({"root": "v", "children": {"v": ["a"]}, "live": []}, "missing vertex 'a'"),
        ({"root": "v", "children": {"v": ["a", "b"], "a": ["b"], "b": []}, "live": ["b"]},
         "'b' reached twice"),
        ({"root": "v", "children": {"v": ["v"]}, "live": []}, "'v' reached twice"),
        ({"root": "v", "children": {"v": ["a"], "a": [], "b": []}, "live": ["a"]},
         "unreachable vertices: ['b']"),
        ({"root": "v", "children": {"v": ["a"], "a": ["b"], "b": []}, "live": ["a"]},
         "must sit on leaves"),
    ],
    ids=[
        "nested", "root-missing", "root-int", "children-list", "children-str", "live-str",
        "root-uncovered", "child-absent", "two-parents", "self-parent", "unreachable",
        "live-inner",
    ],
)
def test_cli_malformed_tree_documents_exit_invalid(tmp_path, capsys, doc, reason):
    path = _write(tmp_path, "bad.json", json.dumps(doc))
    assert cli_main(["tree", "--in", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and reason in err


def _deep_tree_text(depth):
    text = f'{{"name": "v{depth}", "live": true}}'
    for i in range(depth - 1, -1, -1):
        text = f'{{"name": "v{i}", "children": [{text}]}}'
    return text


def _decomposition_with(workdir, **fields):
    """The graft decomposition document with some fields replaced, written
    next to the files it references."""
    doc = json.loads((workdir / "graft.json").read_text())
    doc.update(fields)
    (workdir / "bad.json").write_text(json.dumps(doc))
    return ["decomp", "--spec", str(workdir / "bad.json")]


def _with_certificate(workdir, cert):
    doc = json.loads((workdir / "graft.json").read_text())
    key = sorted(doc["certificates"])[0]
    return _decomposition_with(workdir, certificates={**doc["certificates"], key: cert})


def _write(workdir, name, content):
    path = workdir / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return str(path)


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda w: ["tree", "--in", str(w)],
        lambda w: ["delta", "--in", str(w)],
        lambda w: ["tree", "--in", _write(w, "ff.json", b"\xff\xfe")],
        lambda w: ["tree", "--in", _write(w, "deep.json", _deep_tree_text(950))],
        lambda w: ["tree", "--in", _write(w, "kids.json", '{"name": "r", "children": 5}')],
        lambda w: _decomposition_with(w, pieces=[]),
        lambda w: _decomposition_with(w, R="a"),
        lambda w: _decomposition_with(w, R=1.5),
        lambda w: _decomposition_with(w, R=True),
        lambda w: _decomposition_with(w, R=-1),
        lambda w: _decomposition_with(w, r=[1]),
        lambda w: _with_certificate(w, {"kind": "function", "f": [1, 2]}),
        lambda w: _with_certificate(w, {"kind": "tree-theorem", "root": 5}),
        lambda w: ["certify", "--in", str(w / "p9.json"), "--function", _write(w, "f.json", "[1]")],
        lambda w: ["perfect", "--in", "cantor:3", "--s", "3", "--eps0", "1", "--grid", "a,b"],
        lambda w: ["perfect", "--in", _write(
            w, "m.json", '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]], "resolution_floor": "x"}'
        ), "--s", "3", "--eps0", "1"],
    ],
    ids=[
        "tree-dir", "delta-dir", "not-utf8", "nested-950", "children-int", "pieces-list",
        "R-str", "R-float", "R-bool", "R-negative", "r-list", "cert-f-list", "cert-root-int",
        "function-list", "grid-words", "floor-str",
    ],
)
def test_cli_unreadable_or_mistyped_documents_exit_invalid(workdir, make_argv):
    assert cli_main(make_argv(workdir)) == 2


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_cli_decimal_exponent_past_the_digit_limit_exits_invalid(workdir, capsys, sign):
    # Fraction would spend time superlinear in the exponent building 10**|e|
    limit = sys.get_int_max_str_digits()
    inside, past = f"1e{sign}{limit}", f"1e{sign}{limit + 1}"
    assert io.parse_fraction(inside) == Fraction(10) ** (-limit if sign == "-" else limit)
    p9 = str(workdir / "p9.json")
    code, blob = run_cli(["scan", "--in", p9, "--lower", inside], workdir)
    assert code == 0 and json.loads(blob)["results"]["lower_respected"] is (sign == "-")
    for argv in (
        ["scan", "--in", p9, "--lower", past],
        ["certify", "--in", p9, "--function", _write(workdir, "f.json", json.dumps({"1": past}))],
        _decomposition_with(workdir, r=past),
        _with_certificate(workdir, {"kind": "function", "f": {"1": past}}),
    ):
        assert cli_main(argv) == 2
        assert "exponent beyond the" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x" * 100_000, "1" * 5_000, "1" * 4_000 + "/0", "1/0"])
def test_cli_bad_rational_message_is_short(workdir, capsys, text):
    # Fraction's own message repeats its whole input
    assert cli_main(["scan", "--in", str(workdir / "p9.json"), "--lower", text]) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and err.startswith(f"error: bad rational {text[:40]!r}")
    if len(text) > 40:
        assert f"({len(text)} characters)" in err


def test_cli_graft_past_the_size_budget_exits_budget(workdir, tmp_path, capsys):
    io.save_graph(workdir / "base.json", cl.grid_window(30, 30))
    io.save_graph(workdir / "att.json", cl.homogeneous_tree(3, 8).graph)
    out = tmp_path / "big.json"
    for extra in ([], ["--decomposition", str(tmp_path / "dec.json")]):
        code = cli_main(["graft", "--base", str(workdir / "base.json"), "--attachment",
                         str(workdir / "att.json"), "--port", "v", "--out", str(out), *extra])
        assert code == 3
        assert "graft vertices and edges exceed the fixed cap" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "dec.json").exists()


def test_cli_decomp_bound_too_large_to_render_exits_budget(workdir, capsys):
    assert cli_main(_decomposition_with(workdir, R=100_000)) == 3
    assert "digits in the exact bound" in capsys.readouterr().err


def test_cli_decomp_invalid_spec_exits_falsified(workdir, tmp_path):
    spec = io.load_decomposition(workdir / "graft.json")
    victim = sorted(spec.s1)[0]
    broken = cl.DecompositionSpec(
        ambient=spec.ambient, pieces=spec.pieces,
        s1=spec.s1, s2=spec.s2, radius=spec.radius, rate=spec.rate,
        certificates={k: v for k, v in spec.certificates.items() if k != victim},
    )
    io.save_decomposition(tmp_path / "broken.json", broken)
    code, blob = run_cli(["decomp", "--spec", str(tmp_path / "broken.json")], workdir)
    assert code == 4
    report = json.loads(blob)
    assert report["results"]["valid"] is False
    assert any(victim in v for v in report["results"]["violations"])


def test_cli_perfect_cantor_holds(workdir):
    code, blob = run_cli(
        ["perfect", "--in", "cantor:6", "--s", "3.01", "--eps0", "1.0"],
        workdir,
    )
    assert code == 0
    assert json.loads(blob)["results"]["holds"] is True


def test_cli_net_and_approx_outputs(workdir, tmp_path):
    out = tmp_path / "net.json"
    code, _ = run_cli(
        ["net", "--in", "interval:17", "--eps", "0.125", "--out", str(out)], workdir
    )
    assert code == 0
    g = io.load_graph(out)
    assert len(g.vertices) == 9

    lg_out = tmp_path / "approx.json"
    code, blob = run_cli(
        ["approx", "--in", "cantor:5", "--r", str(1 / 9), "--k-max", "2",
         "--out", str(lg_out)],
        workdir,
    )
    assert code == 0
    report = json.loads(blob)
    assert report["results"]["structural_ok"] is True
    lg = io.load_leveled(lg_out)
    assert lg.k_max == 2


@pytest.mark.parametrize("floor", ["Infinity", "NaN"])
def test_cli_approx_rejects_a_floor_that_is_not_finite_and_positive(tmp_path, floor):
    doc = tmp_path / "m.json"
    doc.write_text(
        '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]], "resolution_floor": %s}' % floor
    )
    argv = ["approx", "--in", str(doc), "--r", "0.1", "--k-max", "2",
            "--out", str(tmp_path / "lg.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "cheegerlab.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "resolution_floor" in proc.stderr


@pytest.mark.parametrize("s", ["0", "-5"])
def test_cli_approx_rejects_s_below_one(workdir, capsys, s):
    code, blob = run_cli(
        ["approx", "--in", "cantor:4", "--r", str(1 / 9), "--k-max", "2", "--s", s], workdir
    )
    assert code == 2
    assert blob == b""
    assert "s >= 1" in capsys.readouterr().err


# each input with the exit code and message of the s = 1 build, which checks
# its parameters before the coarsened one is built
@pytest.mark.parametrize("args, message", [
    (["--in", "cantor:5", "--r", "0.3", "--k-max", "4"],
     "the parameter must satisfy 0 < r <= 1/6"),
    (["--in", "cantor:5", "--r", "0", "--k-max", "4"], "the parameter must satisfy 0 < r <= 1/6"),
    (["--in", "cantor:5", "--r", "1e-200", "--k-max", "4"],
     "level 4: the radius 2*r^k is not a finite positive float"),
    (["--in", "cantor:5", "--r", "0.1", "--k-max", "1000"],
     "level 1000: the radius 2*r^k is not a finite positive float"),
    (["--in", "cantor:5", "--r", "0.1", "--k-max", "4", "--k0", "-400"],
     "level -400: the radius 2*r^k is not a finite positive float"),
    (["--in", "cantor:5", "--r", "0.1", "--k-max", "-1"], "need k_max >= k0 = 0"),
    (["--in", "cantor:5", "--r", "0.1", "--k-max", "4", "--k0", "1"],
     "k0=1 does not dominate the diameter"),
    (["--in", "one.json", "--r", "0.1", "--k-max", "4"],
     "degenerate (singleton) space has no natural base level; pass k0 explicitly"),
    (["--in", "one.json", "--r", "0.1", "--k-max", "4", "--k0", "5"], "need k_max >= k0 = 5"),
])
def test_cli_approx_coarsened_rejects_with_the_unit_build_message(
    workdir, capsys, monkeypatch, args, message
):
    from cheegerlab import approximation

    io.save_metric(workdir / "one.json", cl.FiniteMetricSpace(("o",), np.zeros((1, 1))))
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(approximation, "build_truncated", None)  # never reached
    code, blob = run_cli(["approx", *args, "--s", "2"], workdir)
    assert (code, blob) == (2, b"")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_approx_coarsened_builds_once(workdir, monkeypatch):
    from cheegerlab import approximation

    calls = []
    build = approximation.build_truncated

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return build(*args, **kwargs)

    monkeypatch.setattr(approximation, "build_truncated", counting)
    argv = ["approx", "--in", "cantor:7", "--r", str(1 / 9), "--k-max", "5", "--s", "2"]
    code, blob = run_cli(argv, workdir)
    assert code == 0
    assert calls == [((1 / 9) ** 2, 2)]
    lg = cl.relevel(build(cl.cantor_sample(7), 1 / 9, 5), 2)
    assert json.loads(blob)["results"]["vertices"] == len(lg.graph.vertices)


def test_cli_decomp_matches_library(workdir):
    code, blob = run_cli(["decomp", "--spec", str(workdir / "graft.json")], workdir)
    assert code == 0
    report = json.loads(blob)
    spec = io.load_decomposition(workdir / "graft.json")
    assert report["results"]["strong"] is True
    assert report["results"]["bound"]["lower"]["value"] == str(
        cl.decomposition_bound(spec, cl.validate(spec)).lower.value
    )


def test_cli_decomp_report_hashes_the_ambient_file(workdir):
    spec_path, ambient = workdir / "graft.json", workdir / "graft.ambient.json"
    code, blob = run_cli(["decomp", "--spec", str(spec_path)], workdir)
    before = json.loads(blob)["inputs"]
    assert code == 0
    assert before["ambient"] == {"path": str(ambient), "sha256": io.sha256_file(ambient)}
    doc = json.loads(ambient.read_text())
    del doc["frontier"]
    io.write_canonical(ambient, doc)
    code, blob = run_cli(["decomp", "--spec", str(spec_path)], workdir)
    after = json.loads(blob)["inputs"]
    assert code == 4  # no tree piece has a live leaf any more
    assert after["spec"] == before["spec"]
    assert after["ambient"]["path"] == before["ambient"]["path"]
    assert after["ambient"]["sha256"] != before["ambient"]["sha256"]


def test_cli_graft_writes_artifacts(workdir, tmp_path, monkeypatch):
    io.save_graph(workdir / "base.json", cl.grid_window(3, 3))
    io.save_graph(workdir / "att.json", cl.homogeneous_tree(3, 2).graph)
    written = tmp_path / "written"
    written.mkdir()
    out = written / "big.json"
    dec = written / "dec.json"
    code, blob = run_cli(
        ["graft", "--base", str(workdir / "base.json"), "--attachment",
         str(workdir / "att.json"), "--port", "v", "--out", str(out),
         "--decomposition", str(dec)],
        workdir,
    )
    assert code == 0
    assert sorted(p.name for p in written.iterdir()) == ["big.json", "dec.ambient.json", "dec.json"]
    read = []
    monkeypatch.setattr(io, "read_json", lambda path, load=io.read_json: read.append(
        Path(path).name) or load(path))
    assert cl.validate(io.load_decomposition(dec)).valid
    assert read == ["dec.json", "dec.ambient.json"]


def test_cli_graft_results_and_out_do_not_depend_on_decomposition(workdir, tmp_path):
    io.save_graph(workdir / "base.json", cl.grid_window(3, 3))
    io.save_graph(workdir / "att.json", cl.homogeneous_tree(3, 2).graph)
    io.save_graph(workdir / "cycle.json", cl.cycle_graph(4))
    runs = []
    for extra in ([], ["--decomposition", str(tmp_path / "dec.json")]):
        out = tmp_path / f"big{len(extra)}.json"
        code, blob = run_cli(
            ["graft", "--base", str(workdir / "base.json"), "--attachment",
             str(workdir / "att.json"), "--port", "v", "--out", str(out), *extra],
            workdir,
        )
        assert code == 0
        runs.append((json.loads(blob)["results"], out.read_bytes()))
    assert runs[0] == runs[1]
    # a non-tree attachment is refused before anything is written
    out = tmp_path / "cycle-big.json"
    code, _ = run_cli(
        ["graft", "--base", str(workdir / "base.json"), "--attachment",
         str(workdir / "cycle.json"), "--port", "0", "--out", str(out),
         "--decomposition", str(tmp_path / "cycle-dec.json")],
        workdir,
    )
    assert code == 2
    assert not out.exists()


def test_cli_scan_reports_decay(workdir):
    code, blob = run_cli(
        ["scan", "--in", str(workdir / "p9.json"), "--in", str(workdir / "p13.json"),
         "--in", str(workdir / "p21.json")],
        workdir,
    )
    assert code == 0
    report = json.loads(blob)
    assert report["results"]["values"] == ["2/5", "2/9", "2/17"]
    assert report["results"]["decay"] is True


def test_cli_reports_are_deterministic(workdir, tmp_path):
    blobs = set()
    for rep in range(3):
        for threads in (1, 4):
            out = tmp_path / f"r{rep}_{threads}.json"
            code = cli_main(
                ["tree", "--in", str(workdir / "t3_d5.json"), "--max-size", "5",
                 "--seed", "0", "--threads", str(threads), "--report", str(out)]
            )
            assert code == 0
            blobs.add(out.read_bytes())
    assert len(blobs) == 1


def test_cli_entry_point_runs_as_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "cheegerlab.cli", "delta", "--in", "two_point:1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["delta"] == 0.0  # metric-space float
    assert "wall-time" in proc.stderr
