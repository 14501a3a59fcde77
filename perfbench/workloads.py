"""The three workloads: seeded inputs, the job mix, the set-up guard, and
the answer checks.

A workload writes its inputs through ``io.save_*`` into a work directory and
names its jobs by relative file names, so every report is the same whatever
directory the jobs run in.  Each job is one ``cheegerlab`` CLI call.  Its
answer is checked twice: every witness in the report is re-verified through
the public API at every seed, and the interval endpoints, constants, verdicts
and counts are compared with pinned reference values whenever the job's
inputs are the pinned ones (the default seed, or a job whose inputs do not
depend on the seed).  Report bytes and tie-broken witness choices are never
compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import cheegerlab as cl
from cheegerlab import io
from cheegerlab.graphs import DEFAULT_SUBSET_BUDGET, subset_count
from cheegerlab.hyperbolicity import DEFAULT_DELTA_BUDGET

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")

CANTOR_R = "0.111111"
ENDS_R = repr(math.exp(-2))
TREE_RAND_MAX_SIZE = 4  # fixed cap: the automatic one swings 4..5 (8x work) with the seed
DELTA_CAP = 3.0  # the CLI's --delta-cap default


@dataclass(frozen=True)
class Job:
    """One CLI call; ``seeded`` jobs read inputs that depend on the seed."""

    name: str
    argv: tuple[str, ...]
    seeded: bool


class Inputs:
    """Seeded input objects of one workload, kept in memory for the checks."""

    def __init__(self, seed: int, objects: dict[str, tuple[Callable, Any]]):
        self.seed = seed
        self.objects = objects
        self._ambient: dict[str, cl.Graph] = {}

    def __getitem__(self, name: str) -> Any:
        return self.objects[name][1]

    def write(self, workdir: Path) -> None:
        for name, (save, obj) in self.objects.items():
            save(workdir / name, obj)

    @cached_property
    def cantor7(self) -> cl.FiniteMetricSpace:
        return cl.cantor_sample(7)

    def space(self, token: str) -> cl.FiniteMetricSpace:
        """The metric space an ``approx --in`` token names."""
        return self.cantor7 if token == "cantor:7" else self[token]

    @cached_property
    def cantor8(self) -> cl.FiniteMetricSpace:
        return cl.cantor_sample(8)

    def ambient(self, workdir: Path, spec: str) -> cl.Graph:
        """The graft graph a ``graft --decomposition`` job wrote."""
        if spec not in self._ambient:
            self._ambient[spec] = io.load_graph(workdir / f"{Path(spec).stem}.ambient.json")
        return self._ambient[spec]


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _tree_windows(seed: int) -> tuple[Inputs, list[Job]]:
    t35 = cl.homogeneous_tree(3, 5)
    inputs = Inputs(seed, {
        "t3d5.json": (io.save_tree, t35),
        "t3d6.json": (io.save_tree, cl.homogeneous_tree(3, 6)),
        "t3d5dead.json": (io.save_tree, cl.grafted_dead_branches(t35, 2)),
        "rand60.json": (io.save_tree, cl.random_tree(60, seed)),
        "rand200.json": (io.save_graph, cl.random_tree(200, seed).graph),
    })
    jobs = [
        Job("tree-t3d5", ("tree", "--in", "t3d5.json"), False),
        Job("tree-t3d6", ("tree", "--in", "t3d6.json"), False),
        Job("tree-t3d5dead", ("tree", "--in", "t3d5dead.json"), False),
        Job("tree-rand60",
            ("tree", "--in", "rand60.json", "--max-size", str(TREE_RAND_MAX_SIZE)), True),
        Job("delta-rand200", ("delta", "--in", "rand200.json"), True),
    ]
    return inputs, jobs


def _cantor_approx(seed: int) -> tuple[Inputs, list[Job]]:
    inputs = Inputs(seed, {
        "ends4.json": (io.save_metric, cl.end_space(cl.random_branching_tree(4, seed))),
        "t3d7.json": (io.save_tree, cl.homogeneous_tree(3, 7)),
    })
    jobs = [
        Job("approx-cantor7", ("approx", "--in", "cantor:7", "--r", CANTOR_R, "--k-max", "4"),
            False),
        Job("approx-cantor7-s2",
            ("approx", "--in", "cantor:7", "--r", CANTOR_R, "--k-max", "5", "--s", "2"), False),
        Job("approx-ends4", ("approx", "--in", "ends4.json", "--r", ENDS_R, "--k-max", "3"),
            True),
        Job("perfect-two-point",
            ("perfect", "--in", "cantor:8", "--two-point-r", "10", "--eps0", "1.0"), False),
        Job("perfect-one-point",
            ("perfect", "--in", "cantor:8", "--s", "3.01", "--eps0", "1.0"), False),
        Job("endspace-t3d7", ("endspace", "--in", "t3d7.json"), False),
        Job("net-interval400", ("net", "--in", "interval:400", "--eps", "0.01"), False),
    ]
    return inputs, jobs


def _graft_decomp(seed: int) -> tuple[Inputs, list[Job]]:
    objects: dict[str, tuple[Callable, Any]] = {
        f"grid{n}.json": (io.save_graph, cl.grid_window(n, n)) for n in range(5, 10)
    }
    objects["t3d5.json"] = (io.save_graph, cl.homogeneous_tree(3, 5).graph)
    objects["branch3.json"] = (io.save_graph, cl.random_branching_tree(3, seed).graph)
    scan = ("scan",) + tuple(a for n in range(5, 10) for a in ("--in", f"grid{n}.json"))
    jobs = [
        Job("graft-grid9-t3d5", ("graft", "--base", "grid9.json", "--attachment", "t3d5.json",
                                 "--port", "v", "--decomposition", "graft9.json"), False),
        Job("decomp-grid9-t3d5", ("decomp", "--spec", "graft9.json"), False),
        Job("graft-grid7-branch3", ("graft", "--base", "grid7.json", "--attachment",
                                    "branch3.json", "--port", "v", "--decomposition",
                                    "graft7.json"), True),
        Job("decomp-grid7-branch3", ("decomp", "--spec", "graft7.json"), True),
        Job("scan-grid5-9", scan, False),
    ]
    return Inputs(seed, objects), jobs


WORKLOADS: dict[str, Callable[[int], tuple[Inputs, list[Job]]]] = {
    "tree-windows": _tree_windows,
    "cantor-approx": _cantor_approx,
    "graft-decomp": _graft_decomp,
}

# Spans each workload's traced pass must record at least once.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "tree-windows": (
        "cli.main", "io.load", "io.hash", "io.report", "trees.bounds",
        "trees.pseudo_regularity", "trees.complementedness", "graphs.oracle",
        "hyperbolicity.delta",
    ),
    "cantor-approx": (
        "cli.main", "io.load", "io.hash", "io.report", "metric.validate",
        "metric.perfectness", "metric.greedy", "metric.profile", "metric.net",
        "approximation.build", "approximation.relevel", "approximation.structural",
        "approximation.level_certificate", "hyperbolicity.delta", "trees.end_space",
    ),
    "graft-decomp": (
        "cli.main", "io.load", "io.hash", "io.save", "io.report", "decomposition.graft",
        "decomposition.validate", "decomposition.bound", "decomposition.scan",
        "graphs.oracle", "trees.pseudo_regularity", "trees.complementedness",
    ),
}


# ---------------------------------------------------------------------------
# Set-up guard: every seeded input stays inside the default budgets
# ---------------------------------------------------------------------------


class SetupError(Exception):
    """An input would push a job past a library budget; set-up stops."""


def _approx_size(space: cl.FiniteMetricSpace, r: float, k_max: int, s: int = 1) -> int:
    lg = cl.build_truncated(space, r, k_max)
    if s > 1:
        lg = cl.relevel(lg, s)
    return len(lg.graph.vertices)


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def guard(inputs: Inputs, jobs: list[Job]) -> None:
    """Raise SetupError unless every job stays within the default budgets:
    n^4 <= DEFAULT_DELTA_BUDGET for each delta and approximation graph, and a
    non-empty admissible window whose enumeration fits the subset budget for
    each tree and scan input."""

    def window(name: str, g: cl.Graph, max_size: int | None) -> None:
        adm = cl.admissible_vertices(g)
        if not adm:
            raise SetupError(f"{name}: empty admissible window")
        size = max_size or cl.auto_max_size(len(adm))
        if size > len(adm) or subset_count(len(adm), size) > DEFAULT_SUBSET_BUDGET:
            raise SetupError(f"{name}: window enumeration exceeds the subset budget")

    def quadruples(name: str, n: int) -> None:
        if n**4 > DEFAULT_DELTA_BUDGET:
            raise SetupError(f"{name}: {n}^4 quadruples exceed the delta budget")

    for job in jobs:
        command, argv = job.argv[0], job.argv
        if command == "tree":
            size = _option(argv, "--max-size")
            window(job.name, inputs[_option(argv, "--in")].graph, size and int(size))
        elif command == "scan":
            for i, arg in enumerate(argv):
                if arg == "--in":
                    window(job.name, inputs[argv[i + 1]], None)
        elif command == "delta":
            quadruples(job.name, len(inputs[_option(argv, "--in")].vertices))
        elif command == "approx":
            space = inputs.space(_option(argv, "--in"))
            n = _approx_size(space, float(_option(argv, "--r")), int(_option(argv, "--k-max")),
                             int(_option(argv, "--s", "1")))
            quadruples(job.name, n)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def _window_witness(g: cl.Graph, witness: list[str], value: str, what: str) -> list[str]:
    if not set(witness) <= cl.admissible_vertices(g):
        return [f"{what} witness leaves the admissible window"]
    if cl.cheeger_ratio(g, witness) != Fraction(value):
        return [f"{what} witness ratio {cl.cheeger_ratio(g, witness)} != {value}"]
    return []


def _check_tree(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    g = inputs[_option(argv, "--in")].graph
    low, up = res["bound"]["lower"], res["bound"]["upper"]
    problems = _window_witness(g, up["witness"]["set"], up["value"], "upper")
    if Fraction(low["value"]) > Fraction(up["value"]):
        problems.append("tree-theorem lower bound exceeds the window upper bound")
    if res["K"] is not None and (
        Fraction(low["value"]) != cl.theorem_lower_bound(res["K"], res["C"])
    ):
        problems.append("lower bound is not the (K, C) theorem value")
    for member in res.get("defect_family", []):
        if cl.cheeger_ratio(g, member["set"]) != Fraction(member["ratio"]):
            problems.append(f"defect family set of K={member['K']} has another ratio")
    return problems


def _check_delta(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    g = inputs[_option(argv, "--in")]
    if res["mode"] != "exhaustive" or res["lower_bound_only"]:
        return ["delta was not computed exhaustively"]
    got = cl.evaluate_witness(g, tuple(res["witness"]))
    if got != Fraction(res["delta"]):
        return [f"witness evaluates to {got}, not {res['delta']}"]
    return []


def _check_approx(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    space = inputs.space(_option(argv, "--in"))
    r = float(_option(argv, "--r")) ** int(_option(argv, "--s", "1"))
    sizes = {int(k): n for k, n in res["level_sizes"].items()}
    problems = []
    if not res["structural_ok"] or res["violations"]:
        problems.append(f"structural checks failed: {res['violations']}")
    if sizes[res["k0"]] != 1 or sum(sizes.values()) != res["vertices"]:
        problems.append("level sizes do not add up to a single-base approximation")
    for k, n in sizes.items():
        if len(cl.greedy_separated(space, r**k)) != n:
            problems.append(f"level {k} size {n} is not the r^k-separated set size")
    if res["delta_ok"] != (float(Fraction(res["delta"])) <= DELTA_CAP):
        problems.append("delta_ok disagrees with delta")
    if res["max_degree"] > res["degree_cap"]:
        problems.append("max degree above its cap")
    cert = res["level_certificate"]
    if cert and cert["certified"] and (
        Fraction(cert["lower"]) != Fraction(cert["c2"]) / res["max_degree"]
    ):
        problems.append("level certificate lower bound is not c2/mu")
    return problems


def _check_perfect(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    if res["holds"]:
        return []
    space = inputs.cantor8
    point, eps = res["witness"]
    row = space.dist[space.index[point]]
    if "--s" in argv:
        s = float(_option(argv, "--s"))
        empty = not ((row > eps / s) & (row <= eps)).any()
    else:
        ball = row <= eps
        empty = not space.dist[ball][:, ball].max() > eps / float(_option(argv, "--two-point-r"))
    return [] if empty else [f"perfectness witness {point} at {eps} has a non-empty annulus"]


def _check_endspace(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    tree = inputs[_option(argv, "--in")]
    ok = res["points"] == len(tree.live) and res["ultrametric"] and 0 < res["diameter"] <= 1
    return [] if ok else ["end space size or diameter is wrong"]


def _check_net(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    return [] if res["vertices"] >= 1 and res["edges"] >= res["vertices"] - 1 else [
        "epsilon-net graph is too small to be connected"]


def _check_graft(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    base, att = inputs[_option(argv, "--base")], inputs[_option(argv, "--attachment")]
    nb, na = len(base.vertices), len(att.vertices)
    expect = (nb * na, len(base.edges) + nb * len(att.edges), nb + 1)
    got = (res["vertices"], res["edges"], res["pieces"])
    problems = [] if got == expect else [f"graft sizes {got} != {expect}"]
    if res["max_degree"] > base.mu + att.mu:
        problems.append("graft exceeds the degree bound")
    return problems


def _check_decomp(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    spec = _option(argv, "--spec")
    if not res["valid"] or res["violations"]:
        return [f"decomposition rejected: {res['violations'][:2]}"]
    rate = Fraction(report["parameters"]["r"])
    problems = [f"piece {k} re-verified below the rate" for k, v in
                res["verified_lower"].items() if Fraction(v) < rate]
    g = inputs.ambient(workdir, spec)
    adm = cl.admissible_vertices(g)
    if Fraction(res["bound"]["lower"]["value"]) > cl.cheeger_ratio(g, adm):
        problems.append("decomposition lower bound exceeds a window upper bound")
    return problems


def _check_scan(report: dict, inputs: Inputs, argv, workdir) -> list[str]:
    res = report["results"]
    names = [argv[i + 1] for i, a in enumerate(argv) if a == "--in"]
    problems = []
    for name, value, witness in zip(names, res["values"], res["witnesses"]):
        problems += _window_witness(inputs[name], witness, value, name)
    values = [Fraction(v) for v in res["values"]]
    if len(values) != len(names) or Fraction(res["floor"]) != min(values):
        problems.append("scan floor is not the smallest value")
    if res["nonincreasing"] != all(b <= a for a, b in zip(values, values[1:])):
        problems.append("nonincreasing flag disagrees with the values")
    return problems


def _pinned(res: dict, command: str) -> dict:
    """The interval endpoints, constants, verdicts and counts of a report."""
    if command == "tree":
        return {"K": res["K"], "C": res["C"], "lower": res["bound"]["lower"]["value"],
                "upper": res["bound"]["upper"]["value"],
                "complete_subtree_size": res["complete_subtree_size"]}
    if command == "delta":
        return {"delta": res["delta"]}
    if command == "approx":
        cert = res["level_certificate"]
        return {"vertices": res["vertices"], "level_sizes": res["level_sizes"],
                "delta": res["delta"], "max_degree": res["max_degree"],
                "degree_cap": res["degree_cap"], "structural_ok": res["structural_ok"],
                "certified": cert and cert["certified"], "c2": cert and cert["c2"]}
    if command == "perfect":
        return {"holds": res["holds"], "checked_eps": res["checked_eps"]}
    if command == "endspace":
        return {"points": res["points"], "diameter": res["diameter"]}
    if command == "net":
        return {"vertices": res["vertices"], "edges": res["edges"]}
    if command == "graft":
        return {k: res[k] for k in ("vertices", "edges", "max_degree", "pieces")}
    if command == "decomp":
        return {"valid": res["valid"], "strong": res["strong"],
                "lower": res["bound"]["lower"]["value"],
                "verified_pieces": len(res["verified_lower"]),
                "unverified": len(res["unverified_components"])}
    if command == "scan":
        return {"values": res["values"], "nonincreasing": res["nonincreasing"],
                "decay": res["decay"], "floor": res["floor"]}
    raise ValueError(command)


CHECKS = {
    "tree": _check_tree, "delta": _check_delta, "approx": _check_approx,
    "perfect": _check_perfect, "endspace": _check_endspace, "net": _check_net,
    "graft": _check_graft, "decomp": _check_decomp, "scan": _check_scan,
}


class Checker:
    """Checks one workload's answers; pinned values apply where the inputs
    are the pinned ones."""

    def __init__(self, workload: str, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self.reference = json.loads(REFERENCE.read_text())[workload]

    def pinned_for(self, job: Job) -> dict | None:
        if job.seeded and self.inputs.seed != DEFAULT_SEED:
            return None
        return self.reference[job.name]

    def check(self, job: Job, code: int | None, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return ["report is not JSON"]
        command = job.argv[0]
        if report.get("command") != command:
            return [f"report is for {report.get('command')!r}"]
        res = report["results"]
        problems = CHECKS[command](report, self.inputs, job.argv, self.workdir)
        pinned = self.pinned_for(job)
        if pinned is not None and _pinned(res, command) != pinned:
            problems.append(f"pinned values differ: {_pinned(res, command)} != {pinned}")
        return problems


def build(workload: str, seed: int) -> tuple[Inputs, list[Job]]:
    return WORKLOADS[workload](seed)
