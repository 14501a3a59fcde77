"""Report bytes and written files of the CLI, pinned by sha256.

Each command runs in-process in a fresh directory, on inputs written by
``io.save_*`` under relative names, so no report carries an absolute path.
The table changes only when a report or a file format changes on purpose.
Sampled ``delta`` is left out: numpy does not pin its Generator stream
across versions.  A second table runs every command on inputs from each
generator family and bounds each report by the bytes it reads.
"""

import contextlib
import hashlib
from fractions import Fraction
from io import StringIO
from pathlib import Path

import cheegerlab as cl
from cheegerlab import io
from cheegerlab.cli import main as cli_main

INPUTS = {
    "grid4.json": (io.save_graph, lambda: cl.grid_window(4, 4)),
    "grid6.json": (io.save_graph, lambda: cl.grid_window(6, 6)),
    "p9.json": (io.save_graph, lambda: cl.path_window(9)),
    "p13.json": (io.save_graph, lambda: cl.path_window(13)),
    "t3d2.json": (io.save_graph, lambda: cl.homogeneous_tree(3, 2).graph),
    "cantor4.json": (io.save_metric, lambda: cl.cantor_sample(4)),
    "t3d4.json": (io.save_tree, lambda: cl.homogeneous_tree(3, 4)),
    "dead.json": (io.save_tree, lambda: cl.grafted_dead_branches(cl.homogeneous_tree(3, 4), 1)),
    "chain.json": (io.save_tree, lambda: cl.growing_chain(12)),
}

# run name -> argv; runs go in order, so decomp reads what graft wrote
RUNS = {
    "cheeger": ["cheeger", "--in", "grid6.json", "--max-size", "4"],
    "delta-graph": ["delta", "--in", "grid4.json"],
    "delta-metric": ["delta", "--in", "cantor4.json"],
    "tree-t3d4": ["tree", "--in", "t3d4.json", "--max-size", "5"],
    "tree-dead": ["tree", "--in", "dead.json", "--max-size", "4"],
    "tree-chain": ["tree", "--in", "chain.json"],
    "endspace": ["endspace", "--in", "t3d4.json", "--out", "ends.json"],
    "approx": ["approx", "--in", "cantor:5", "--r", "0.111111", "--k-max", "3",
               "--out", "lg.json"],
    "approx-s2": ["approx", "--in", "cantor:5", "--r", "0.111111", "--k-max", "4", "--s", "2"],
    "net": ["net", "--in", "cantor4.json", "--eps", "0.1", "--out", "net.json"],
    "perfect-one-point": ["perfect", "--in", "cantor:5", "--s", "3.01", "--eps0", "1.0"],
    "perfect-two-point": ["perfect", "--in", "cantor:5", "--two-point-r", "10", "--eps0", "1.0"],
    "graft": ["graft", "--base", "grid4.json", "--attachment", "t3d2.json", "--port", "v",
              "--out", "grafted.json", "--decomposition", "graft.json"],
    "decomp": ["decomp", "--spec", "graft.json"],
    "scan": ["scan", "--in", "p9.json", "--in", "p13.json"],
}

# "report:<run>" -> [exit code, sha256 of the report]; "file:<name>" -> sha256
EXPECTED = {
    "report:cheeger":
        [0, "11e9bac62e4f1152d373f0ef27345dec74e631b3c0b1227f2e0591b57215f7b7"],
    "report:delta-graph":
        [0, "200695c8b6fe12d85559e5386c8dcbfc8d793a4317937b75ba0c86ab5ae6591c"],
    "report:delta-metric":
        [0, "c35afc2c7b22afe47f5388be2bb91202ac4170ffeb7566a92b61808bbc5d7444"],
    "report:tree-t3d4":
        [0, "6b2e787538815da1fc8325e39a2ad4dbbc2b922aae3629cbdb553834a991958d"],
    "report:tree-dead":
        [0, "deea735611f4a5a174a6819f3b463774d395d6b6a66177625ba361349af965e7"],
    "report:tree-chain":
        [0, "c9d1f6fdf27524ce1dbb41b38bdb7b57b6a2c0a1e3cb8743f986a435c4dbe325"],
    "report:endspace":
        [0, "a7a6603a227539fb5e722f8abe94f34794264f24b2fb484c9fd64e54f4c1971f"],
    "report:approx":
        [0, "76f77fadab088f2966f55d373afa14b1909ad61dafc481005975121603df363e"],
    "report:approx-s2":
        [0, "29e8d655b5b480c31523ddb45f3e90797915f81cc9add0766cf30c308d01bbfd"],
    "report:net":
        [0, "04d607ba3e11d6b94cbec4ca4c6cc377d285b168d51a75280ab7d8e07ba17818"],
    "report:perfect-one-point":
        [0, "5de07129ca21811a97c1e44adf8b370c1eeb4fdfa66f1e1a0c292ad75f4fa752"],
    "report:perfect-two-point":
        [0, "f66aca82779b9eb9beb45ff0d8c04f7fcceecae6be378749666682ce539ce713"],
    "report:graft":
        [0, "f8c42d0592ea564d3f3242a6d98da9d0c9ba980c00b797977d164a97c454b141"],
    "report:decomp":
        [0, "d9dde0b28f561613a00c8209332c1b90eb988630f84db0a4643bc76f0ab2c07e"],
    "report:scan":
        [0, "b22faae1aa28fc5a40bf9f2d4933ba484e33d7b88903cf40792976a4400f0965"],
    "file:cantor4.json":
        "335b4d8822623c5feff02de21e774aac465acb66ded01b701b229a7829d5e953",
    "file:chain.json":
        "273df2f0b6c586626b6dc0fa371f9d1bfef7a9b0cd300551262c686c9317c726",
    "file:dead.json":
        "db1a3805c1b30d51f32bf3f0e8db8ce4d1b3047b937275bfbb0e4dad9aff6d52",
    "file:ends.json":
        "223f04014411756f883faa5664498559b2bfe30fc6b0fde1ea583b7742299b2f",
    "file:graft.ambient.json":
        "61df42720191eb5507e92028e68377bc95609d80932d1b642816281e6d36434f",
    "file:graft.json":
        "1be9e0c6484cef766e51806dc10b384b15297edf6af33b24bea8118519187f70",
    "file:grafted.json":
        "61df42720191eb5507e92028e68377bc95609d80932d1b642816281e6d36434f",
    "file:grid4.json":
        "dc2b484f22e7c2b723f18eda5280636a4aee9b761bd12651c048069fd31c72de",
    "file:grid6.json":
        "f859723998d854f2bc7f9b538107f1f1b767bbfef68203341ce35556b63231f3",
    "file:lg.json":
        "a869bec6a84c70f2f833fc74c7ecde5a9835c08fb7a833b721a51679f2c1e308",
    "file:net.json":
        "7fa8ee1c4fee36db2596d680a588570feadf7e43019853cef1703e78327e1811",
    "file:p13.json":
        "cf6673d10a24dee2c0cf41e4348c445e8981deebdd038b7a51e5ee91c20ba876",
    "file:p9.json":
        "7087a152e722d2dcaec94cc0ae100bbd0603489ef39b2304a2ad745b73e81d48",
    "file:t3d2.json":
        "c5e9483c1cb9a3c31ffb71aec5114a617d1a2563c817e8e81256ad4fb6c89448",
    "file:t3d4.json":
        "a52814b32d43a1cba2ab1e12c204a6fd5b1a64ed055de7d577e9acfd52b8cf0f",
}


def run_all() -> dict:
    """Write the inputs into the working directory, run every command there,
    and return the exit code and digest of each report and the digest of
    every file."""
    for name, (save, make) in INPUTS.items():
        save(name, make())
    digests = {}
    for run, argv in RUNS.items():
        with contextlib.redirect_stdout(StringIO()) as out, contextlib.redirect_stderr(StringIO()):
            code = cli_main(argv)
        digests[f"report:{run}"] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    for path in sorted(Path().iterdir()):
        digests[f"file:{path.name}"] = io.sha256_file(path)
    return digests


def test_report_and_file_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_all() == EXPECTED


def _equal_pieces(k):
    """k copies of the piece {1, 2} of a two-vertex path, all first-class."""
    pieces = {f"p{i}": frozenset({"1", "2"}) for i in range(k)}
    g = cl.path_window(2, truncated=False)
    return cl.DecompositionSpec(g, pieces, frozenset(pieces), frozenset(), 0, Fraction(1))


# the pinned runs plus a tree from every family, a long chain among them,
# ``certify``, and a decomposition of many equal pieces; a report may grow
# with what it reads, no faster
LINEAR_INPUTS = {
    **INPUTS,
    "position.json": (io.write_canonical, lambda: {str(i): i for i in range(1, 14)}),
    "interval.json": (io.save_metric, lambda: cl.interval_sample(33)),
    "even.json": (io.save_tree, lambda: cl.even_branching_tree(6)),
    "comb.json": (io.save_tree, lambda: cl.comb_tree(10, 2)),
    "full.json": (io.save_tree, lambda: cl.full_branching_tree(2, 5)),
    "rand.json": (io.save_tree, lambda: cl.random_tree(60, 1)),
    "chain2000.json": (io.save_tree, lambda: cl.growing_chain(2000)),
    "dup1000.json": (io.save_decomposition, lambda: _equal_pieces(1000)),
}
LINEAR_RUNS = {
    **RUNS,
    **{f"tree-{name}": ["tree", "--in", f"{name}.json", "--max-size", "4"]
       for name in ("even", "comb", "full", "rand")},
    "tree-chain2000": ["tree", "--in", "chain2000.json"],
    "certify": ["certify", "--in", "p13.json", "--function", "position.json"],
    "net-interval": ["net", "--in", "interval.json", "--eps", "0.1"],
    "decomp-dup1000": ["decomp", "--spec", "dup1000.json"],
}


def test_every_report_is_linear_in_its_input(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (save, make) in LINEAR_INPUTS.items():
        save(name, make())
    for run, argv in LINEAR_RUNS.items():
        read = sum(Path(a).stat().st_size for a in argv if Path(a).is_file())
        with contextlib.redirect_stdout(StringIO()) as out, contextlib.redirect_stderr(StringIO()):
            code = cli_main(argv)
        assert code in (0, 4), run
        written = len(out.getvalue().encode())
        assert written <= 3 * read + 4096, (run, written, read)
