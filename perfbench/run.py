"""Benchmark of the rfid-doppler command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop of in-process ``rfid_doppler.cli.main(argv)``
jobs from one process: one job at a time, the next sent when the previous one
returns.  Every job's output is checked (see workloads.py).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics derived
from the traced ones (see spans.py).  In an untraced run a fixed reference
kernel (reference.py) runs between jobs, and each job's time is divided by
that of the kernel runs beside it, which cancels most of the drift of a
shared machine's speed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh-interpreter imports for setup_s, spread evenly over the timed loop so
# that their median samples the machine across the run.
SETUP_REPEATS = 16
# Each import is divided by the time of a Python-only reference kernel run
# beside it (an import is mostly Python bytecode and unmarshalling), and
# setup_s is the median ratio times the kernel's nominal time: import time in
# seconds of a machine on which that kernel takes SETUP_REFERENCE_S.  On a
# shared 2-core virtual machine the kernel took 5 ms in fast stretches and
# 9.5 ms in slow ones, and raw import times 0.10 and 0.15 s; the ratio stayed
# within 4%.
SETUP_RECIPE = {"python": 10}
SETUP_REFERENCE_S = 0.007
# The reported tail percentile leaves at least this many timed jobs beyond it.
TAIL_JOBS = 10

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import rfid_doppler.cli; print(time.perf_counter() - t)")


class ProgramMissing(Exception):
    """The checkout holds no rfid_doppler package to benchmark."""


def load_program() -> dict:
    """Import the package from this checkout's src/ and return its modules by layer."""
    package_dir = SRC / "rfid_doppler"
    if not (package_dir / "cli.py").is_file():
        raise ProgramMissing(f"{package_dir} has no cli.py; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from rfid_doppler import baseband, bounds, cli, estimator, experiments, protocol
    if Path(cli.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"imported rfid_doppler from {cli.__file__}, not from {package_dir}")
    return {"cli": cli, "experiments": experiments, "baseband": baseband,
            "estimator": estimator, "bounds": bounds, "protocol": protocol}


def time_import() -> float:
    """Seconds to import rfid_doppler.cli (numpy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class SetupTimer:
    """Import times of rfid_doppler.cli, each divided by reference kernel runs beside it."""

    def __init__(self) -> None:
        self.kernel = reference.ReferenceKernel(SETUP_RECIPE)
        self.seconds: list = []
        self.ratios: list = []
        time_import()    # writes the bytecode cache

    def measure(self) -> None:
        before = self.kernel()[0]
        seconds = time_import()
        after = self.kernel()[0]
        self.seconds.append(seconds)
        self.ratios.append(2.0 * seconds / (before + after))

    def setup_s(self) -> float:
        return statistics.median(self.ratios) * SETUP_REFERENCE_S


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas() -> tuple:
    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return f"{info.get('name')} {info.get('version')}", threads


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rfid_doppler").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, jobs: int) -> dict:
    import numpy
    blas, blas_threads = _blas()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "workload": args.workload, "workload_seed": args.seed,
            "run_seconds": args.seconds, "trace": args.trace, "jobs": jobs}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    attempted: int = 0
    failed: int = 0
    job_s: list = field(default_factory=list)          # untraced timed jobs
    job_cpu_s: list = field(default_factory=list)
    job_rel: list = field(default_factory=list)        # job wall / reference wall
    job_cpu_rel: list = field(default_factory=list)    # job CPU / reference CPU
    reference_s: list = field(default_factory=list)
    traced_job_s: list = field(default_factory=list)
    work: int = 0
    csv_rows: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    outputs: list = field(default_factory=list)        # JobOutput of every passing job
    traced: dict = field(default_factory=dict)         # job index -> JobOutput
    problems: list = field(default_factory=list)
    checks: list = field(default_factory=list)         # PooledCheck results


def call_cli(cli, commands: list) -> tuple:
    """Run the commands of one job in order; return (exit codes, stdout texts, wall s, cpu s)."""
    codes, texts = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(argv))
        texts.append(buf.getvalue())
    return codes, texts, time.perf_counter() - wall0, time.process_time() - cpu0


def check_texts(workload, codes: list, texts: list):
    for argv_code in codes:
        if argv_code != 0:
            raise workloads.CheckError(f"exit code {argv_code}")
    return workload.check_job(texts)


def run_workload(workload, modules: dict, seed: int, seconds: float, tracer=None,
                 setup: SetupTimer | None = None, kernel=None) -> RunRecord:
    """Run the closed loop for ``seconds``; with a tracer, trace every other job.

    With a ``setup`` timer, SETUP_REPEATS fresh-interpreter imports are timed,
    spread evenly over the loop.  The job after an import is
    not timed, since the import leaves the processor caches cold.  With a
    reference ``kernel``, it runs after every job, and each untraced timed
    job's wall and CPU time are divided by the mean of the kernel runs just
    before and just after it.
    """
    record = RunRecord()
    cli = modules["cli"]
    reference_before = kernel() if kernel is not None else None

    def relate(wall: float | None, cpu: float) -> None:
        """Run the kernel after a job; divide a timed job's times by the kernel's beside it."""
        nonlocal reference_before
        after = kernel()
        record.reference_s.append(after[0])
        if wall is not None:
            record.job_rel.append(2.0 * wall / (reference_before[0] + after[0]))
            record.job_cpu_rel.append(2.0 * cpu / (reference_before[1] + after[1]))
        reference_before = after

    def job(index: int, timed: bool, traced: bool = False):
        commands = workload.commands(workloads.job_seed(seed, index))
        record.attempted += 1
        try:
            if traced:
                tracer.job_index = index
                tracer.install()
            try:
                codes, texts, wall, cpu = call_cli(cli, commands)
            finally:
                if traced:
                    tracer.uninstall()
            if timed and traced:
                record.traced_job_s.append(wall)
            elif timed:
                record.job_s.append(wall)
                record.job_cpu_s.append(cpu)
            if kernel is not None:
                relate(wall if timed and not traced else None, cpu)
            output = check_texts(workload, codes, texts)
        except workloads.CheckError as exc:
            record.failed += 1
            record.problems.append(f"job {index}: {exc}")
            return None
        except Exception:
            record.failed += 1
            record.problems.append(f"job {index}: {traceback.format_exc()}")
            return None
        if timed and not traced:
            record.work += output.work
            record.csv_rows += output.csv_rows
            record.wall_s += wall
            record.cpu_s += cpu
        if traced:
            record.traced[index] = output
        record.outputs.append(output)
        return texts

    # job 0 warms caches untimed; it is re-run at the end to check byte-identical output
    first = job(0, timed=False)
    start = time.perf_counter()
    index = 1
    while index <= 2 or time.perf_counter() < start + seconds:    # one job of each kind
        imported = setup is not None and len(setup.ratios) < SETUP_REPEATS and \
            time.perf_counter() >= start + len(setup.ratios) * seconds / SETUP_REPEATS
        if imported:
            setup.measure()
        job(index, timed=not imported, traced=tracer is not None and index % 2 == 0)
        index += 1
    while setup is not None and len(setup.ratios) < SETUP_REPEATS:
        setup.measure()
    again = job(0, timed=False)
    if again is not None:
        record.outputs.pop()    # the re-run duplicates job 0 in the pooled statistics
    if first is not None and again is not None and again != first:
        record.failed += 1
        record.problems.append("job 0: re-run with the same --seed gave different CSV bytes")
    record.checks = workload.pooled_checks(record.outputs) if record.outputs else []
    if any(not check.passed for check in record.checks):
        record.failed = record.attempted
    return record


def traced_metrics(workload, record: RunRecord, tracer) -> dict:
    """Per-layer metrics of the traced jobs, plus tracing overhead and failed share."""
    trials = sum(output.trials for output in record.traced.values())
    variances = {index: [float(row[workload.variance_column]) for row in output.rows]
                 for index, output in record.traced.items() if workload.variance_column}
    values = spans.layer_metrics(tracer, len(record.traced), trials, variances)
    values["trace.overhead_share"] = (statistics.median(record.traced_job_s)
                                      / statistics.median(record.job_s) - 1.0)
    values["failed_share"] = record.failed / record.attempted
    return values


def tail_percentile(values: list) -> tuple:
    """(value, percentile) of the highest whole percentile with TAIL_JOBS values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_JOBS:
        return ordered[-1], 100
    q = 100 * (n - TAIL_JOBS) // n
    return ordered[-(-q * n // 100) - 1], q    # nearest rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup = None if args.trace else SetupTimer()
    tracer = spans.Tracer(modules) if args.trace else None
    kernel = None if args.trace else reference.ReferenceKernel(workload.reference)
    record = run_workload(workload, modules, args.seed, args.seconds, tracer, setup, kernel)
    env = environment(args, record.attempted)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"job: {' | '.join(' '.join(argv) for argv in workload.commands(0))} "
          f"(--seed derived per job)")
    for check in record.checks:
        print(f"check {check.name}: {'PASS' if check.passed else 'FAIL'}: {check.detail}; "
              f"false-failure probability {check.false_failure:.2g}")
    for problem in record.problems:
        print(f"FAILED {problem}")
    if not record.job_s or (args.trace and not record.traced) or record.work == 0:
        print(json.dumps({"correct": False, "attempted": record.attempted,
                          "failed": record.failed, "metrics": {}}))
        return 0

    if args.trace:
        values = traced_metrics(workload, record, tracer)
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz", env)
        units = {name: _layer_unit(name) for name in values}
    else:
        job_ms = [s * 1e3 for s in record.job_s]
        tail_ms, q = tail_percentile(job_ms)
        rel_tail, q_rel = tail_percentile(record.job_rel)
        print(f"job_rel_tail is p{q_rel} over {len(record.job_rel)} timed jobs; failed = "
              f"{record.failed}/{record.attempted}")
        # Raw times are printed but not gated: on a shared machine they move
        # with its speed, by more than any bound a regression could be held to.
        # CPU time is not gated either: OpenBLAS worker threads spin for a
        # load-dependent time, so even its ratio to the kernel's CPU time moved
        # by 30% between sets of runs of the same code.
        print(f"not gated: job_ms_p50 = {statistics.median(job_ms):.6g} ms; "
              f"job_ms_min = {min(job_ms):.6g} ms; job_ms_p{q} = {tail_ms:.6g} ms; "
              f"{workload.work_unit}s_per_s = {record.work / record.wall_s:.6g} "
              f"(per second of job wall time); "
              f"csv_rows_per_s = {record.csv_rows / record.wall_s:.6g}; "
              f"cpu_ms_per_{workload.work_unit} = {record.cpu_s * 1e3 / record.work:.6g}; "
              f"cpu_rel_p50 = {statistics.median(record.job_cpu_rel):.6g}; "
              f"reference_ms_p50 = {statistics.median(record.reference_s) * 1e3:.6g} ms; "
              f"import_s_p50 = {statistics.median(setup.seconds):.6g} s")
        values = {
            "setup_s": setup.setup_s(),
            "job_rel_p50": statistics.median(record.job_rel),
            "job_rel_tail": rel_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "job_rel_p50": "ratio", "job_rel_tail": "ratio",
                 "peak_rss_mb": "MB"}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": record.failed == 0, "attempted": record.attempted,
                      "failed": record.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms_per_frame") or name.endswith("_ms_per_job") \
            or name.endswith("_ms_per_trial"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
