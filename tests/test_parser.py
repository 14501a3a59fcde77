"""A job parses its arguments with its own command's parser
(``cli.command_parser``); the full parser (``cli.build_parser``) runs only for
top-level help, an unknown or missing command, or arguments left over.  For
every command, both give the same namespace, and the same stdout, stderr and
exit code on help and on every usage error, in process and through
``python -m cheegerlab.cli``."""

import contextlib
import importlib.util
import io as stdio
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import cheegerlab as cl
from cheegerlab import cli

ROOT = Path(cl.__file__).resolve().parents[2]

# A valid argv of each command; the first two words are a required option and
# its value.  Parsing reads no file.
VALID = {
    "cheeger": ["--in", "p9.json", "--max-size", "3"],
    "certify": ["--in", "t3.json", "--function", "depth.json"],
    "delta": ["--in", "p9.json", "--mode", "sampled", "--samples", "50", "--seed", "3"],
    "tree": ["--in", "t3tree.json", "--budget", "100"],
    "endspace": ["--in", "t3tree.json", "--out", "ends.json"],
    "approx": ["--in", "cantor:4", "--r", "0.111111", "--k-max", "3", "--s", "2"],
    "net": ["--in", "interval:40", "--eps", "0.1", "--threads", "4"],
    "perfect": ["--in", "cantor:4", "--s", "3.01", "--eps0", "1.0", "--grid", "0.5"],
    "decomp": ["--spec", "d.json", "--report", "r.json"],
    "graft": ["--base", "grid3.json", "--attachment", "t3.json", "--port", "v"],
    "scan": ["--in", "p9.json", "--lower", "1/7", "--max-size", "3"],
}
# the float option of each command that has one
FLOAT_OPTION = {"approx": "--r", "net": "--eps", "perfect": "--eps0"}


def cases() -> dict[str, list[str]]:
    """Every argv on which the parser prints help or a usage error."""
    out = {"top-help": ["--help"], "unknown-command": ["bogus", "--in", "x"], "empty": []}
    for name, valid in VALID.items():
        out[f"{name}-help"] = [name, "--help"]
        out[f"{name}-bare"] = [name]
        out[f"{name}-missing"] = [name, *valid[2:]]
        out[f"{name}-seed"] = [name, *valid, "--seed", "x"]
        out[f"{name}-unknown-option"] = [name, *valid, "--bogus", "1"]
        out[f"{name}-stray"] = [name, *valid, "stray"]
        if name in FLOAT_OPTION:
            out[f"{name}-nan"] = [name, *valid, FLOAT_OPTION[name], "nan"]
    return out


CASES = cases()


def outcome(parse, argv):
    """(stdout, stderr, exit code or the namespace) of one parse."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


@pytest.fixture
def columns(monkeypatch):
    """A fixed help width, in process and in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_command_parser_prints_what_the_full_parser_prints(columns, case):
    argv = CASES[case]
    full = outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert outcome(cli.parse_args, argv) == full
    assert full[2] in (0, 2)  # help, or a usage error
    if argv and argv[0] in cli.COMMANDS and full[2] == 2 and "unrecognized" not in full[1]:
        # the command's own parser reports it, under the command's prog
        assert outcome(cli.command_parser(argv[0]).parse_args, argv[1:]) == full
        assert f"cheegerlab {argv[0]}: error:" in full[1]


# what a fresh interpreter runs for each command: help (exit 0), an error of
# the command's parser and one the full parser reports (exit 2)
ENTRY_CASES = ["top-help", "unknown-command", "empty"] + [
    f"{name}-{kind}" for name in VALID for kind in ("help", "missing", "unknown-option")
]


def test_the_module_entry_prints_what_the_full_parser_prints(columns, tmp_path):
    src = str(Path(cl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "cheegerlab.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        return proc.stdout, proc.stderr, proc.returncode

    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(fresh, [CASES[case] for case in ENTRY_CASES]))
    for case, result in zip(ENTRY_CASES, got):
        assert result == outcome(lambda a: cli.build_parser().parse_args(a), CASES[case]), case
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_give_the_full_parsers_namespace(name):
    argv = [name, *VALID[name]]
    args = cli.parse_args(argv)
    assert args == cli.build_parser().parse_args(argv)
    assert args.command == name and args.handler is cli.COMMANDS[name][1]


def load_workloads(monkeypatch):
    """The benchmark's job lists, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its data classes look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_job_parses_with_its_commands_parser(monkeypatch, seed):
    workloads = load_workloads(monkeypatch)
    jobs = [job for name in workloads.WORKLOADS for job in workloads.build(name, seed)[1]]
    full = cli.build_parser()
    expected = [full.parse_args(list(job.argv)) for job in jobs]

    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [cli.parse_args(list(job.argv)) for job in jobs] == expected
    assert {job.argv[0] for job in jobs} == {
        "tree", "delta", "approx", "perfect", "endspace", "net", "graft", "decomp", "scan"}


def test_the_table_lists_every_command_in_help_order():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(cli.COMMANDS) == list(VALID)
    for name, parser in sub.choices.items():
        assert parser.prog == cli.command_parser(name).prog == f"cheegerlab {name}"
        assert parser.format_help() == cli.command_parser(name).format_help()
        # the common options come first, as they did when they were a parent parser
        assert parser.format_usage().startswith(
            f"usage: cheegerlab {name} [-h] [--report REPORT] [--seed SEED]")
