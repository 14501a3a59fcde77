"""Closed-loop benchmark of the cheegerlab CLI.

One client runs one ``python -m cheegerlab.cli ...`` subprocess at a time;
the next job starts only after the previous one has exited.  Each job is
timed from spawn to exit, its max RSS is read from its own ``os.wait4``
rusage, and its answer is checked (see ``workloads.py``).

The host is a shared virtual machine whose speed drifts by tens of percent
over seconds to minutes, which would swamp any change of the program between
runs.  So the client also times a fixed calibration process that does not
touch cheegerlab (``CALIBRATION``: start an interpreter, import numpy, do a
little pure-Python set and Fraction work) before and after every job and
set-up, and every reported time is corrected to a reference host speed: wall
time x ``REFERENCE_CALIBRATION_S`` / the mean of the two calibration times
around it.  Raw wall times and every calibration time are kept in the
record, and the raw median job time is printed beside the metrics.

    python3 perfbench/run.py --workload graft-decomp --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the timed loop and reports the end-to-end metrics.
``--trace 1`` runs the job mix in-process through ``cheegerlab.cli.main``,
once untraced and once with spans around each module's public functions,
and reports the per-layer metrics.  ``--workload all`` runs both for every
workload.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
(environment, every job's time, RSS and exit code, spans) goes to
``perfbench/results/``.  Jobs import the library from ``<checkout>/src`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy
from scipy.special import betainc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_ABOVE = 10  # the tail is the highest percentile with this many samples above it
# BENCHMARK.json gates cantor-approx and graft-decomp only: with calibration
# runs, repeated runs of all three take too long.  tree-windows still runs by
# name and under ``all``.
WORKLOADS = ("tree-windows", "cantor-approx", "graft-decomp")

CALIBRATION = (sys.executable, "-I", "-c", """
import numpy
from fractions import Fraction
adj = {v: {(v * 7 + k) % 10007 for k in (1, 2, 5)} for v in range(10007)}
seen, ratio = set(), Fraction(0)
for v in adj:
    ratio += Fraction(len(adj[v] - seen), 1 + len(adj[v]))
    seen |= adj[v]
""")
REFERENCE_CALIBRATION_S = 0.3  # a round figure near its wall time on a 2-vCPU VM

E2E_UNITS = {
    "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _import_checkout():
    """Import cheegerlab from this checkout's src/ and nowhere else."""
    if not (SRC / "cheegerlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no cheegerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cheegerlab

    if not Path(cheegerlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cheegerlab imported from {cheegerlab.__file__}, not {SRC}")


@dataclass
class JobRun:
    job: str
    seconds: float
    calibration_s: float | None  # mean of the calibrations before and after
    cpu_s: float
    code: int | None
    rss_mb: float
    stdout: str
    problems: list[str]

    @property
    def corrected(self) -> float:
        return to_reference(self.seconds, self.calibration_s)


def spawn(argv: list[str], cwd: Path) -> tuple[float, float, int, float, str]:
    """Run one subprocess to exit; (wall seconds, CPU seconds, exit code,
    max RSS MB, stdout)."""
    out_path, err_path = cwd / ".job.out", cwd / ".job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    return seconds, cpu_s, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text()


def setup(workloads, name: str, seed: int, workdir: Path):
    """Generate the seeded inputs, write them through io.save_*, check the
    budgets, and warm up with one import of the CLI in a fresh interpreter
    (it compiles bytecode and loads the shared libraries once).  Returns
    (inputs, jobs, import seconds)."""
    inputs, jobs = workloads.build(name, seed)
    inputs.write(workdir)
    try:
        workloads.guard(inputs, jobs)
    except workloads.SetupError as exc:
        raise SystemExit(f"error: set-up guard: {exc}") from None
    probe = "import cheegerlab, cheegerlab.cli; print(cheegerlab.__file__)"
    seconds, _, code, _, stdout = spawn([sys.executable, "-c", probe], workdir)
    if code != 0 or not Path(stdout.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: jobs would not import cheegerlab from {SRC}: {stdout!r}")
    return inputs, jobs, seconds


def calibrate(workdir: Path) -> float:
    """Wall seconds of one run of the calibration process."""
    seconds, _, code, _, _ = spawn(list(CALIBRATION), workdir)
    if code != 0:
        raise SystemExit(f"error: calibration process exited {code}")
    return seconds


def to_reference(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def timed_setups(workloads, name: str, seed: int, workdir: Path):
    """SETUP_REPEATS set-ups; returns the inputs and jobs, the raw and the
    corrected set-up times, and the import probe times."""
    raw, times, imports = [], [], []
    before = calibrate(workdir)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs, jobs, import_s = setup(workloads, name, seed, workdir)
        raw.append(time.perf_counter() - start)
        after = calibrate(workdir)
        times.append(to_reference(raw[-1], (before + after) / 2))
        imports.append(import_s)
        before = after
    return inputs, jobs, raw, times, imports


def quantile(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    the order statistics, steadier than a single order statistic on the
    few dozen jobs a run holds."""
    ordered = sorted(times)
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered)))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_ABOVE
    samples above it."""
    n = len(times)
    if n <= TAIL_ABOVE:
        raise ValueError(f"{n} jobs leave no sample with {TAIL_ABOVE} above it")
    q = (n - TAIL_ABOVE) / n
    return quantile(times, q), 100.0 * q


def closed_loop(jobs, seconds: float, workdir: Path) -> tuple[list[JobRun], float]:
    """Whole passes of the job mix, so that every job is sampled alike,
    until the jobs' corrected times add up to ``seconds`` and the tail
    percentile exists.  Counting corrected rather than wall seconds keeps the
    number of passes, and so the percentile, from following the host's
    speed.  A calibration runs before the first job and after every job."""
    runs: list[JobRun] = []
    base = [sys.executable, "-m", "cheegerlab.cli"]
    start = time.perf_counter()
    before = calibrate(workdir)
    while len(runs) <= TAIL_ABOVE or sum(r.corrected for r in runs) < seconds:
        for job in jobs:
            wall, cpu_s, code, rss, stdout = spawn(base + list(job.argv), workdir)
            after = calibrate(workdir)
            runs.append(JobRun(job.name, wall, (before + after) / 2, cpu_s, code, rss, stdout,
                               []))
            before = after
    return runs, time.perf_counter() - start


def in_process(cli, job, workdir: Path) -> tuple[float, int | None, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails this job, as an uncaught error exits 1
        traceback.print_exc()
        code = 1
    finally:
        seconds = time.perf_counter() - start
        os.chdir(cwd)
    return seconds, code, out.getvalue()


def traced_pass(cli, spans, jobs, workdir: Path):
    """Each job in-process once untraced and once traced, alternating which
    goes first; spans come from the traced runs."""
    tracer = spans.Tracer()
    runs: list[JobRun] = []
    seconds = {False: 0.0, True: 0.0}
    origin = time.perf_counter()
    for i, job in enumerate(jobs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            tracer.job = job.name
            if traced:
                tracer.install()
            try:
                wall, code, stdout = in_process(cli, job, workdir)
            finally:
                tracer.uninstall()
            seconds[traced] += wall
            runs.append(JobRun(job.name, wall, None, wall, code, 0.0, stdout, []))
    return tracer, runs, seconds[True] / seconds[False], tracer.records(origin)


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    ) if shutil.which("git") else None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit.stdout.strip() if commit and commit.returncode == 0 else "unknown",
        "seed": seed,
    }


def check_all(checker, jobs, runs: list[JobRun]) -> int:
    by_name = {job.name: job for job in jobs}
    for run in runs:
        run.problems = checker.check(by_name[run.job], run.code, run.stdout)
    return sum(1 for run in runs if run.problems)


def run_workload(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    import workloads

    scratch = BENCH / "work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        inputs, jobs, setup_raw, setup_times, import_times = timed_setups(
            workloads, name, seed, workdir)
        checker = workloads.Checker(name, inputs, workdir)
        record = {"workload": name, "trace": int(trace_on), "environment": environment(seed),
                  "reference_calibration_s": REFERENCE_CALIBRATION_S,
                  "setup_raw_s": setup_raw, "setup_s": setup_times, "import_s": import_times}
        if trace_on:
            import spans
            from cheegerlab import cli

            tracer, runs, overhead, records = traced_pass(cli, spans, jobs, workdir)
            fired = {span["name"] for span in records}
            missing = [s for s in workloads.EXPECTED_SPANS[name] if s not in fired]
            if missing:
                raise SystemExit(f"error: spans never recorded on {name}: {missing}")
            values = spans.layer_metrics(tracer, statistics.median(import_times), overhead)
            metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]} for k, v in values.items()}
            record["spans"] = records
        else:
            runs, elapsed = closed_loop(jobs, seconds, workdir)
            times = [run.corrected for run in runs]
            tail_s, tail_pct = tail(times)
            values = {
                "jobs_per_s": len(times) / sum(times),
                "job_p50_s": quantile(times, 0.5),
                "job_tail_s": tail_s,
                "peak_rss_mb": max(run.rss_mb for run in runs),
                "setup_s": statistics.median(setup_times),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            record.update(loop_s=elapsed, loop_jobs_per_s=len(runs) / elapsed,
                          tail_percentile=tail_pct,
                          calibration_p50_s=statistics.median(r.calibration_s for r in runs),
                          raw_job_p50_s=statistics.median(run.seconds for run in runs))
        failed = check_all(checker, jobs, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["jobs"] = [
        {"job": r.job, "seconds": r.seconds, "calibration_s": r.calibration_s, "cpu_s": r.cpu_s,
         "rss_mb": r.rss_mb, "exit": r.code, "problems": r.problems} for r in runs
    ]
    record["metrics"] = metrics
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace_on)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    summarize(record, runs, failed)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def summarize(record: dict, runs: list[JobRun], failed: int) -> None:
    n = len(runs)
    head = f"{record['workload']} seed {record['environment']['seed']}"
    if record["trace"]:
        print(f"{head}: traced in-process pass of {n // 2} jobs (plus an untraced pass)")
    else:
        print(f"{head}: {n} jobs in {record['loop_s']:.1f} s, closed loop, one client; "
              f"raw job p50 {record['raw_job_p50_s']:.3f} s; calibration p50 "
              f"{record['calibration_p50_s']:.3f} s, times below scaled to "
              f"{REFERENCE_CALIBRATION_S} s")
    counts = {
        "jobs_per_s": f"{n} jobs over their summed times",
        "job_p50_s": f"Harrell-Davis p50 of {n} jobs",
        "job_tail_s": f"Harrell-Davis p{record.get('tail_percentile', 0):.1f} of {n} jobs",
        "peak_rss_mb": f"max of {n} jobs", "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "cli.import_s": f"median of {SETUP_REPEATS} imports",
    }
    for key, metric in record["metrics"].items():
        note = counts.get(key, "one traced pass")
        print(f"  {key:38s} {metric['value']:14.6g} {metric['unit']:6s} ({note})")
    print(f"  {'job_fail_ratio':38s} {failed / n:14.6g} {'ratio':6s} ({failed} of {n} jobs)")
    for run in runs:
        for problem in run.problems:
            print(f"  FAILED {run.job}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {(w, t): run_workload(w, args.seed, args.seconds, t)
                 for w in WORKLOADS for t in (False, True)}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}/{k}": m for (w, _), p in parts.items()
                        for k, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
