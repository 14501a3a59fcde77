"""The process entry: ``python -m cheegerlab.cli`` and the ``cheegerlab``
script end through ``cli.run``, which sets ``OPENBLAS_THREAD_TIMEOUT`` unless
it is set, turns the cyclic garbage collector off, flushes stdout and stderr
and skips the interpreter's teardown.  Each exit path gives what an
in-process ``cli.main`` call gives, a final flush that fails exits 120 as the
interpreter's own does, and importing the CLI or calling ``cli.main`` leaves
the collector and the environment as they were, registers nothing and never
exits."""

import contextlib
import gc
import io as stdio
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cheegerlab as cl
from cheegerlab import cli, io

SRC = Path(cl.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"


def script_entry() -> str:
    """The ``cheegerlab`` script's entry point, as pyproject.toml declares it."""
    text = PYPROJECT.read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^cheegerlab\s*=\s*"([^"]+)"', scripts, re.M).group(1)


def launcher(entry: str) -> list[str]:
    """What an installed console script runs: import the entry point and
    exit with what it returns."""
    module, attr = entry.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


ENTRIES = {
    "module": [sys.executable, "-m", "cheegerlab.cli"],
    "script": launcher(script_entry()),
}

CASES = {
    "graph-side": (["cheeger", "--in", "p9.json"], 0),
    "metric-side": (["perfect", "--in", "cantor:6", "--s", "3.01", "--eps0", "1.0"], 0),
    "invalid": (["net", "--in", "bent.json", "--eps", "0.5"], 2),
    "budget": (["cheeger", "--in", "p9.json", "--budget", "4"], 3),
    "finding": (["perfect", "--in", "cantor:6", "--s", "2.0", "--eps0", "1.0"], 4),
}


def fresh(argv: list[str], cwd, environ=(), **kwargs) -> subprocess.CompletedProcess:
    """Runs ``argv`` in a fresh interpreter that imports cheegerlab from this
    checkout, with stdout and stderr buffered, so that whatever the entry
    does not flush is lost; ``environ`` holds extra environment variables."""
    env = {**os.environ, **dict(environ), "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, **kwargs)


def without_wall_time(stderr: bytes) -> list[bytes]:
    return [line for line in stderr.splitlines() if b"] wall-time " not in line]


@pytest.fixture
def inputs(tmp_path):
    io.save_graph(tmp_path / "p9.json", cl.path_window(9))
    (tmp_path / "bent.json").write_text(
        '{"points": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}'
    )
    return tmp_path


def test_the_script_entry_is_run():
    assert script_entry() == "cheegerlab.cli:run"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("case", list(CASES))
def test_every_exit_path_matches_an_in_process_main(inputs, monkeypatch, case, entry):
    argv, expected = CASES[case]
    monkeypatch.chdir(inputs)
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--report", "in_process.json"])
    proc = fresh([*ENTRIES[entry], *argv, "--report", "fresh.json"], inputs)
    assert code == proc.returncode == expected, proc.stderr
    assert proc.stdout == out.getvalue().encode()
    reports = [inputs / name for name in ("in_process.json", "fresh.json")]
    assert [p.exists() for p in reports] == [expected in (0, 4)] * 2
    if expected in (0, 4):
        assert reports[0].read_bytes() == reports[1].read_bytes() == proc.stdout
    assert without_wall_time(proc.stderr) == without_wall_time(err.getvalue().encode())
    assert (b"] wall-time " in proc.stderr) == (expected in (0, 4))


def test_usage_errors_keep_the_interpreter_exit(inputs):
    proc = fresh([*ENTRIES["module"], "cheeger"], inputs)
    assert proc.returncode == 2
    assert b"usage: cheegerlab cheeger" in proc.stderr
    with pytest.raises(SystemExit) as info, contextlib.redirect_stderr(stdio.StringIO()):
        cli.main(["cheeger"])
    assert info.value.code == 2
    proc = fresh([*ENTRIES["module"], "--help"], inputs)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: cheegerlab")


# Replaces sys.stdout or sys.stderr (argv[1]) by a stream whose writes go
# through and whose flush fails, then ends through cli.run or, as the
# interpreter ended it before cli.run existed, through sys.exit(cli.main()).
FAILING_FLUSH = """
import sys
from cheegerlab import cli

class FailingFlush:
    closed = False

    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        n = self.stream.write(text)
        self.stream.flush()
        return n

    def flush(self):
        raise OSError(28, "No space left on device")

which, entry = sys.argv[1:]
setattr(sys, which, FailingFlush(getattr(sys, which)))
argv = ["delta", "--in", "two_point:1.0"]
if entry == "run":
    cli.run(argv)
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("entry", ["run", "main"])
@pytest.mark.parametrize("which", ["stdout", "stderr"])
def test_a_failed_final_flush_exits_120(tmp_path, which, entry):
    proc = fresh([sys.executable, "-c", FAILING_FLUSH, which, entry], tmp_path)
    assert proc.returncode == 120
    assert b'"command": "delta"' in proc.stdout
    assert b"] wall-time " in proc.stderr
    reported = b"Exception ignored in: " in proc.stderr
    assert reported == (which == "stdout")
    if reported:
        assert b"OSError: [Errno 28] No space left on device" in proc.stderr


def test_importing_the_cli_registers_nothing_and_never_exits(tmp_path):
    script = (
        "import atexit\n"
        "before = atexit._ncallbacks()\n"
        "import cheegerlab.cli\n"
        "print('still running;', atexit._ncallbacks() - before, 'new atexit hooks')\n"
    )
    proc = fresh([sys.executable, "-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"still running; 0 new atexit hooks\n"


# An atexit hook runs after sys.exit(cli.main()) but not after cli.run, which
# is why main() is the API for callers that rely on one.
ATEXIT_HOOK = """
import atexit, contextlib, io, sys
from cheegerlab import cli

atexit.register(print, "hook ran")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["delta", "--in", "two_point:1.0"])
print("main returned", code, flush=True)
if sys.argv[1] == "run":
    cli.run(["delta", "--in", "two_point:1.0", "--report", "r.json"])
"""


@pytest.mark.parametrize("entry", ["run", "main"])
def test_run_skips_atexit_hooks_and_main_does_not(tmp_path, entry):
    proc = fresh([sys.executable, "-c", ATEXIT_HOOK, entry], tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "main returned 0"
    assert (lines[-1] == "hook ran") == (entry == "main")
    if entry == "run":
        assert (tmp_path / "r.json").read_text() == "\n".join(lines[1:]) + "\n"


def test_importing_the_cli_leaves_the_collector_on(tmp_path):
    script = "import gc, cheegerlab.cli; print(gc.isenabled())"
    proc = fresh([sys.executable, "-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"True\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_was(inputs, monkeypatch, enabled):
    monkeypatch.chdir(inputs)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stdout(stdio.StringIO()), \
                contextlib.redirect_stderr(stdio.StringIO()):
            assert cli.main(["cheeger", "--in", "p9.json"]) == 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


# cli.main replaced by a stub that reports whether the collector runs.
COLLECTOR_PROBE = """
import gc, sys
from cheegerlab import cli

def probe(argv):
    print("main sees the collector", "on" if gc.isenabled() else "off", argv)
    return 0

print("before run:", "on" if gc.isenabled() else "off")
cli.main = probe
cli.run(["cheeger"])
"""


def test_run_turns_the_collector_off_before_main(tmp_path):
    proc = fresh([sys.executable, "-c", COLLECTOR_PROBE], tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "before run: on", "main sees the collector off ['cheeger']",
    ]


# cli.main replaced by a stub that reports the BLAS thread timeout it sees and
# whether numpy is loaded yet.
BLAS_PROBE = """
import os, sys
from cheegerlab import cli

def probe(argv):
    print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"), "numpy" in sys.modules)
    return 0

print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
cli.main = probe
cli.run(["perfect"])
"""


@pytest.mark.parametrize("preset", [None, "7"])
def test_run_sets_the_blas_thread_timeout_before_numpy_loads(tmp_path, monkeypatch, preset):
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    environ = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
    proc = fresh([sys.executable, "-c", BLAS_PROBE], tmp_path, environ, text=True)
    assert proc.returncode == 0, proc.stderr
    # the caller's value is kept; import cheegerlab.cli sets nothing
    assert proc.stdout.splitlines() == [str(preset), f"{preset or cli.BLAS_THREAD_TIMEOUT} False"]


def test_main_leaves_the_environment_as_it_was(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    before = dict(os.environ)
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        assert cli.main(["perfect", "--in", "cantor:6", "--s", "3.01", "--eps0", "1.0"]) == 0
    assert dict(os.environ) == before


# LC_ALL=C with no UTF-8 mode and no locale coercion: the locale's encoding
# is ASCII, so a file read as text in it cannot hold "é".
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_utf8_graph_loads_under_the_c_locale(tmp_path, monkeypatch, entry):
    doc = tmp_path / "e.json"
    doc.write_bytes('{"vertices": ["\u00e9", "b"], "edges": [["b", "\u00e9"]]}'.encode())
    as_text = fresh([sys.executable, "-c", "open('e.json').read()"], tmp_path, C_LOCALE)
    assert b"UnicodeDecodeError" in as_text.stderr  # the locale cannot decode the file
    proc = fresh([*ENTRIES[entry], "cheeger", "--in", "e.json"], tmp_path, C_LOCALE)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path)
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        assert cli.main(["cheeger", "--in", "e.json"]) == 0
    assert proc.stdout == out.getvalue().encode()
    assert b'"\\u00e9"' in proc.stdout
