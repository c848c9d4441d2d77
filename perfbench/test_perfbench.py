"""Tests of the benchmark's own checks and counters.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = run.load_program()
MCRB = workloads.WORKLOADS["mcrb_miller8_40k"]
DETECT = workloads.WORKLOADS["detect_mode204"]
FIGURES = workloads.WORKLOADS["analytic_figures"]


def _mcrb_csv(mean: float, mse: float, var: float = 0.017) -> str:
    want = workloads.EXPECTED["mcrb_miller8_40k"]
    row = dict(want["rows"][0], trials=str(workloads.MCRB_TRIALS), emp_var_hz2=str(var),
               emp_mse_hz2=str(mse), emp_mean_err_hz=str(mean))
    header = want["header"].split(",")
    return "# mcrb monte carlo\n" + want["header"] + "\n" + \
        ",".join(row[name] for name in header) + "\n"


def _fake_cli(text_for_call):
    """A stand-in cli module whose n-th main call prints ``text_for_call(n)``."""
    calls = {"n": 0}

    def main(argv):
        print(text_for_call(calls["n"]), end="")
        calls["n"] += 1
        return 0

    return {"cli": types.SimpleNamespace(main=main)}


def _real_job_texts(workload, seed=1):
    codes, texts, _, _ = run.call_cli(MODULES["cli"], workload.commands(seed))
    assert codes == [0] * len(codes)
    return texts


def test_real_outputs_pass_every_job_check():
    for workload in (MCRB, DETECT, FIGURES):
        output = workload.check_job(_real_job_texts(workload))
        assert output.csv_rows > 0


def test_nan_row_fails_its_job():
    mcrb = float(workloads.EXPECTED["mcrb_miller8_40k"]["rows"][0]["mcrb_var_hz2"])
    with pytest.raises(workloads.CheckError, match="not finite"):
        MCRB.check_job([_mcrb_csv(0.0, "nan")])
    record = run.run_workload(MCRB, _fake_cli(lambda n: _mcrb_csv(0.0, "nan")), seed=1,
                              seconds=0.05)
    assert record.failed == record.attempted >= 3
    # the same CSV with a finite value passes
    assert MCRB.check_job([_mcrb_csv(0.0, mcrb)]).trials == workloads.MCRB_TRIALS


def test_changed_closed_form_column_fails_its_job():
    text = _mcrb_csv(0.0, 0.017).replace("0.0174057503394", "0.0174057503395")
    with pytest.raises(workloads.CheckError, match="mcrb_var_hz2"):
        MCRB.check_job([text])


def test_out_of_band_pooled_ratio_fails_the_run():
    mcrb = float(workloads.EXPECTED["mcrb_miller8_40k"]["rows"][0]["mcrb_var_hz2"])
    record = run.run_workload(MCRB, _fake_cli(lambda n: _mcrb_csv(0.0, 1.3 * mcrb)), seed=1,
                              seconds=0.05)
    ratio = {check.name: check for check in record.checks}["mcrb_ratio"]
    assert not ratio.passed
    assert record.failed == record.attempted
    # an in-band ratio passes
    record = run.run_workload(MCRB, _fake_cli(lambda n: _mcrb_csv(0.0, mcrb)), seed=1,
                              seconds=0.05)
    assert all(check.passed for check in record.checks)
    assert record.failed == 0


def test_wrong_figure_digest_fails_its_job():
    texts = _real_job_texts(FIGURES)
    assert FIGURES.check_job(texts).csv_rows == 1586
    texts[1] = texts[1].replace("\n0.01,", "\n0.010,", 1)
    with pytest.raises(workloads.CheckError, match="SHA-256"):
        FIGURES.check_job(texts)


def test_rerun_with_different_bytes_fails():
    mcrb = float(workloads.EXPECTED["mcrb_miller8_40k"]["rows"][0]["mcrb_var_hz2"])
    # every call prints another (valid) CSV, so the re-run of job 0 differs
    record = run.run_workload(MCRB, _fake_cli(lambda n: _mcrb_csv(1e-6 * n, mcrb)), seed=1,
                              seconds=0.05)
    assert any("re-run" in problem for problem in record.problems)
    assert record.failed >= 1


def test_job_seeds_are_deterministic_and_distinct():
    seeds = [workloads.job_seed(7, index) for index in range(1000)]
    assert seeds == [workloads.job_seed(7, index) for index in range(1000)]
    assert len(set(seeds)) == 1000
    assert workloads.job_seed(8, 0) != workloads.job_seed(7, 0)


def test_tail_percentile_leaves_ten_jobs_beyond():
    values = list(range(143))
    value, q = run.tail_percentile(values)
    assert q == 93
    assert sum(v > value for v in values) == 10


def test_job_times_are_divided_by_the_reference_runs_beside_them():
    mcrb = float(workloads.EXPECTED["mcrb_miller8_40k"]["rows"][0]["mcrb_var_hz2"])
    kernel_times = iter([(0.01, 0.02), (0.03, 0.06)] * 10_000)
    record = run.run_workload(MCRB, _fake_cli(lambda n: _mcrb_csv(0.0, mcrb)), seed=1,
                              seconds=0.05, kernel=lambda: next(kernel_times))
    assert record.failed == 0
    assert len(record.job_rel) == len(record.job_s) >= 2
    for wall, cpu, rel, cpu_rel in zip(record.job_s, record.job_cpu_s, record.job_rel,
                                       record.job_cpu_rel):
        assert rel == pytest.approx(wall / 0.02)
        assert cpu_rel == pytest.approx(cpu / 0.04)


def test_reference_kernel_repeats_its_result():
    # a call raises if its result differs from that of the first call
    kernel = reference.ReferenceKernel(dict.fromkeys(reference.PARTS, 1))
    for _ in range(2):
        wall, cpu = kernel()
        assert wall > 0.0 and cpu > 0.0


def _traced_counts(workload, seed):
    tracer = spans.Tracer(MODULES)
    record = run.run_workload(workload, MODULES, seed=seed, seconds=0.5, tracer=tracer)
    assert record.failed == 0, record.problems
    values = run.traced_metrics(workload, record, tracer)
    return {name: values[name] for name in ("baseband.samples_per_frame",
                                            "estimator.refine_iters_per_frame",
                                            "bounds.calls_per_job")}


@pytest.mark.parametrize("workload, samples, bounds_calls", [
    (MCRB, 46_336, None), (DETECT, 8_180, None), (FIGURES, 0, 1_604)])
def test_exact_counts_repeat_across_traced_runs(workload, samples, bounds_calls):
    first = _traced_counts(workload, seed=3)
    second = _traced_counts(workload, seed=3)
    assert first == second
    assert first["baseband.samples_per_frame"] == samples
    if bounds_calls is not None:
        assert first["bounds.calls_per_job"] == bounds_calls
    if samples:
        assert first["estimator.refine_iters_per_frame"] > 0
