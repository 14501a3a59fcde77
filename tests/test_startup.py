"""What the CLI and the package load: no command loads ``dataclasses``, the
graph and tree commands run without numpy or ``inspect``, the metric commands
without the tree and decomposition modules, only ``cheeger``, ``tree`` and
``scan`` load the window oracle, no command loads the lemma checks, a job
that reads no file loads no ``hashlib``, and every name the package exports
still resolves.  Also what the validated types keep without ``dataclasses``:
equality, hashing and frozen fields."""

import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import cheegerlab as cl
from cheegerlab import io

# Every name ``cheegerlab`` exports; the lazy exports must keep exactly this list.
EXPORTED = [
    "BoundEndpoint", "BudgetExceededError", "CertificateResult", "CheegerBound",
    "CheegerLabError", "ConstructionError", "DEFAULT_DELTA_BUDGET", "DEFAULT_SUBSET_BUDGET",
    "DecompositionSpec", "DeltaReport", "EmptyWindowError", "FiniteMetricSpace",
    "GeometryProfile", "GraftResult", "Graph", "InvalidHorizonError", "InvalidInputError",
    "InvalidSupportError", "LeveledGraph", "PerfectnessCertificate", "PieceCertificate",
    "RootedTree", "TreeAnalysis", "admissible_vertices", "auto_max_size", "bound_general",
    "bound_strong", "boundary", "boundary_identification_check", "build_truncated",
    "cantor_sample", "certificate_lower_bound", "cheeger_ratio", "comb_tree",
    "complementedness_index", "converse_scan", "corollary_connected_bound", "cycle_graph",
    "decomposition_bound", "delta_four_point", "end_space", "epsilon_net",
    "essential_boundary", "evaluate_witness", "even_branching_tree", "full_branching_tree",
    "gradient", "graft", "graft_decomposition", "grafted_dead_branches", "greedy_separated",
    "green_identity_check", "grid_window", "gromov_product", "growing_chain",
    "homogeneous_tree", "interior_cheeger_bruteforce", "interval_sample", "laplacian",
    "lemma_suite", "level_certificate", "line_space", "maximal_complete_subtree",
    "one_point_to_two_point_constant", "path_window", "pole_defect", "pseudo_regularity_index",
    "quasi_isometry_check", "random_branching_tree", "random_tree", "relabeled", "relevel",
    "rescale_eps0", "strongly_bounded_geometry_profile", "structural_checks", "subtree_past",
    "theorem_lower_bound", "tree_cheeger_bounds", "tree_from_parents", "two_point",
    "two_point_perfectness_check", "two_point_to_one_point_constant",
    "uniformly_perfect_check", "validate", "vertex_function", "window_bound",
]

GRAPH_SIDE = [
    ["cheeger", "--in", "p9.json"],
    ["certify", "--in", "t3.json", "--function", "depth.json"],
    ["tree", "--in", "t3tree.json", "--max-size", "4"],
    ["graft", "--base", "grid3.json", "--attachment", "t3.json", "--port", "v",
     "--decomposition", "d.json"],
    ["decomp", "--spec", "d.json"],
    ["scan", "--in", "p9.json", "--in", "p13.json"],
]
METRIC_SIDE = [
    ["delta", "--in", "p9.json"],
    ["approx", "--in", "cantor:4", "--r", "0.111111", "--k-max", "3"],
]

# Runs each argv list through cli.main in one interpreter and prints the exit
# codes and which of numpy, dataclasses and inspect were loaded after the
# graph-side and after the metric-side commands.
SCRIPT = """
import contextlib, io, json, sys
from cheegerlab.cli import main

def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]

graph_side, metric_side = json.loads(sys.argv[1])
out = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    out["graph_codes"] = [main(argv) for argv in graph_side]
    out["graph_loaded"] = loaded()
    out["metric_codes"] = [main(argv) for argv in metric_side]
    out["metric_loaded"] = loaded()
print(json.dumps(out))
"""


def run_fresh(script, payload, cwd):
    """Runs ``script`` in a fresh interpreter that imports cheegerlab from this
    checkout, with ``payload`` as JSON in argv[1]; returns its parsed stdout."""
    src = str(Path(cl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(payload)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_graph_side_commands_never_load_numpy(tmp_path):
    t = cl.homogeneous_tree(3, 2)
    io.save_graph(tmp_path / "p9.json", cl.path_window(9))
    io.save_graph(tmp_path / "p13.json", cl.path_window(13))
    io.save_graph(tmp_path / "grid3.json", cl.grid_window(3, 3))
    io.save_graph(tmp_path / "t3.json", t.graph)
    io.save_tree(tmp_path / "t3tree.json", cl.homogeneous_tree(3, 4))
    io.write_canonical(tmp_path / "depth.json", {v: str(t.depth[v]) for v in t.vertices})
    out = run_fresh(SCRIPT, [GRAPH_SIDE, METRIC_SIDE], tmp_path)
    assert out["graph_codes"] == [0] * len(GRAPH_SIDE)
    assert out["graph_loaded"] == []
    assert out["metric_codes"] == [0] * len(METRIC_SIDE)
    # numpy itself loads inspect
    assert "numpy" in out["metric_loaded"] and "dataclasses" not in out["metric_loaded"]


# Runs each argv list through cli.main in one interpreter and prints, after
# each, its exit code and which of the graph-side modules, the window oracle,
# the lemma checks and hashlib are loaded.
MODULES_SCRIPT = """
import contextlib, io, json, sys
from cheegerlab.cli import main

watched = ("decomposition", "trees", "window", "lemmas")
out = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        code = main(argv)
        loaded = [m for m in watched if f"cheegerlab.{m}" in sys.modules]
        out.append([code, loaded + ["hashlib"] * ("hashlib" in sys.modules)])
print(json.dumps(out))
"""


def test_metric_side_commands_never_load_trees_or_decomposition(tmp_path):
    io.save_tree(tmp_path / "t3tree.json", cl.homogeneous_tree(3, 3))
    # every input is a generator, so no file is hashed
    metric_side = [
        ["net", "--in", "interval:40", "--eps", "0.1"],
        ["perfect", "--in", "cantor:4", "--s", "3.01", "--eps0", "1.0"],
        ["approx", "--in", "cantor:4", "--r", "0.111111", "--k-max", "3"],
        ["delta", "--in", "cantor:3"],
    ]
    out = run_fresh(MODULES_SCRIPT, [*metric_side, ["endspace", "--in", "t3tree.json"]], tmp_path)
    assert out == [[0, []]] * len(metric_side) + [[0, ["trees", "hashlib"]]]
    # a scan needs the decomposition module and the window oracle but none of
    # the tree module
    io.save_graph(tmp_path / "grid5.json", cl.grid_window(5, 5))
    io.save_graph(tmp_path / "grid6.json", cl.grid_window(6, 6))
    scan = ["scan", "--in", "grid5.json", "--in", "grid6.json"]
    expected = [[0, ["decomposition", "window", "hashlib"]]]
    assert run_fresh(MODULES_SCRIPT, [scan], tmp_path) == expected


def test_only_cheeger_tree_and_scan_load_the_window_oracle(tmp_path):
    t = cl.homogeneous_tree(3, 2)
    io.save_graph(tmp_path / "p9.json", cl.path_window(9))
    io.save_graph(tmp_path / "grid3.json", cl.grid_window(3, 3))
    io.save_graph(tmp_path / "t3.json", t.graph)
    io.save_tree(tmp_path / "t3tree.json", cl.homogeneous_tree(3, 3))
    io.write_canonical(tmp_path / "depth.json", {v: str(t.depth[v]) for v in t.vertices})
    others = [
        ["certify", "--in", "t3.json", "--function", "depth.json"],
        ["graft", "--base", "grid3.json", "--attachment", "t3.json", "--port", "v",
         "--decomposition", "d.json"],
        ["decomp", "--spec", "d.json"],
        ["delta", "--in", "p9.json"],
        ["approx", "--in", "cantor:4", "--r", "0.111111", "--k-max", "3"],
        ["net", "--in", "interval:40", "--eps", "0.1"],
        ["perfect", "--in", "cantor:4", "--s", "3.01", "--eps0", "1.0"],
        ["endspace", "--in", "t3tree.json"],
    ]
    out = run_fresh(MODULES_SCRIPT, [*others, ["cheeger", "--in", "p9.json"]], tmp_path)
    assert [code for code, _ in out] == [0] * (len(others) + 1)
    assert [("window" in loaded, "lemmas" in loaded) for _, loaded in out] == (
        [(False, False)] * len(others) + [(True, False)]
    )
    for argv in (["tree", "--in", "t3tree.json", "--max-size", "4"], ["scan", "--in", "p9.json"]):
        [(code, loaded)] = run_fresh(MODULES_SCRIPT, [argv], tmp_path)
        assert code == 0 and "window" in loaded and "lemmas" not in loaded, argv


def test_package_exports_resolve_lazily():
    assert sorted(cl.__all__) == EXPORTED
    for name in EXPORTED:
        getattr(cl, name)
    for name in ("metric", "hyperbolicity", "approximation"):
        assert isinstance(getattr(cl, name), types.ModuleType)
    assert cl.DEFAULT_DELTA_BUDGET is cl.hyperbolicity.DEFAULT_DELTA_BUDGET
    assert set(EXPORTED) <= set(dir(cl))


# Runs each argv list through cli.main in one interpreter and prints, after
# each, its exit code and whether numpy.ma is loaded.
MASKED_SCRIPT = """
import contextlib, io, json, sys
from cheegerlab.cli import main

out = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        out.append([main(argv), "numpy.ma" in sys.modules])
print(json.dumps(out))
"""


def test_perfectness_and_sampled_delta_never_load_numpy_ma(tmp_path):
    io.save_graph(tmp_path / "p9.json", cl.path_window(9))
    runs = [
        ["perfect", "--in", "cantor:5", "--s", "3.01", "--eps0", "1.0", "--grid", "0.5"],
        ["perfect", "--in", "interval:20", "--two-point-r", "3.01", "--eps0", "1.0"],
        ["delta", "--in", "p9.json", "--mode", "sampled", "--samples", "50"],
        ["delta", "--in", "cantor:4", "--mode", "sampled", "--samples", "50"],
    ]
    assert run_fresh(MASKED_SCRIPT, runs, tmp_path) == [[0, False]] * len(runs)


def _spec():
    return cl.graft_decomposition(cl.grid_window(3, 3), cl.homogeneous_tree(3, 2).graph, "v")


SPEC = _spec()

# type -> (a factory called twice for two instances with equal fields, a
# field to assign to); the first three compare field by field, the rest by
# identity
VALIDATED = {
    "Graph": (lambda: cl.path_window(5), "frontier"),
    "BoundEndpoint": (lambda: cl.BoundEndpoint(Fraction(1, 2), "trivial"), "value"),
    "CheegerBound": (
        lambda: cl.CheegerBound(cl.BoundEndpoint(0, "trivial"), cl.BoundEndpoint(1, "trivial")),
        "upper",
    ),
    "RootedTree": (lambda: cl.homogeneous_tree(3, 2), "live"),
    "PieceCertificate": (lambda: cl.PieceCertificate("tree-theorem", root="v"), "root"),
    "DecompositionSpec": (_spec, "radius"),
    "ValidationReport": (lambda: cl.validate(SPEC), "valid"),
    "GraftResult": (
        lambda: cl.graft(cl.grid_window(3, 3), cl.path_window(3, truncated=False), "1"),
        "pieces",
    ),
    "FiniteMetricSpace": (lambda: cl.two_point(1.0), "points"),
    "LeveledGraph": (lambda: cl.build_truncated(cl.cantor_sample(2), 1 / 9, 2), "r"),
}
FIELDWISE = {"Graph", "BoundEndpoint", "CheegerBound"}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_type_keeps_equality_hashing_and_frozen_fields(name):
    make, field = VALIDATED[name]
    a, b = make(), make()
    assert type(a) is type(b) and type(a).__name__ == name
    assert a == a and hash(a) == hash(a)
    if name in FIELDWISE:
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != (getattr(a, field),)  # never equal to another type
    else:
        assert a != b and len({a, b}) == 2
        assert hash(a) == object.__hash__(a)
    before = getattr(a, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before


def test_field_wise_types_differ_in_any_field():
    assert cl.path_window(5) != cl.path_window(6)
    g = cl.path_window(5, truncated=False)
    assert g != cl.Graph(g.vertices, g.edges, frozenset({"1"}))
    half = cl.BoundEndpoint(Fraction(1, 2), "trivial")
    assert half != cl.BoundEndpoint(Fraction(1, 2), "certificate")
    assert half != cl.BoundEndpoint(Fraction(1, 2), "trivial", horizon_certified=True)
    assert cl.CheegerBound(half) != cl.CheegerBound(half, half)
    assert repr(half) == (
        "BoundEndpoint(value=Fraction(1, 2), kind='trivial', witness=None, "
        "horizon_certified=False)"
    )
    assert repr(cl.validate(SPEC)).startswith("ValidationReport(valid=True, strong=")


def test_records_are_named_tuples_with_field_reprs():
    rep = cl.pseudo_regularity_index(cl.homogeneous_tree(3, 3))
    assert isinstance(rep, tuple) and rep._fields[:2] == ("k", "horizon")
    assert rep == cl.pseudo_regularity_index(cl.homogeneous_tree(3, 3))
    assert repr(rep) == (
        "PseudoRegularityResult(k=1, horizon=3, chain=())"
    )
    with pytest.raises(AttributeError):
        rep.k = 2
