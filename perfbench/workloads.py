"""Workloads of the rfid-doppler benchmark and the checks on their outputs.

A job is one or more ``rfid_doppler.cli.main(argv)`` calls.  The benchmark
checks every job's CSV output itself and never relies on the CLI's own
``--check`` flag.  Expected closed-form values and figure digests come from
``expected.json``, recorded from the commit that introduced the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Optional

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))

# Per-check probability that a correct program fails a statistical check.
# A run makes at most three such checks, so a random workload seed fails a
# correct program with probability below 3e-5.
CHECK_ALPHA = 1e-5
Z_CHECK = NormalDist().inv_cdf(1.0 - CHECK_ALPHA / 2.0)

# Accepted band of empirical variance over the MCRB (acceptance criterion 06).
RATIO_BAND = (0.9, 1.15)

# CSV columns that hold text; every other column must parse as a finite number.
STRING_FIELDS = frozenset({"parts", "modulation", "waveform_model", "encoding", "config"})

MCRB_TRIALS = 20
DETECT_TRIALS = 10
FIGURES = ("4", "8", "9", "10", "11")

# Reference kernels (reference.py) in the proportions of each workload's work.
# An mcrb_miller8_40k job spends its time on AWGN and periodograms over
# frame-sized arrays; over five minutes of its jobs, job time divided by a
# kernel of those parts alone varied by 1.9% (coefficient of variation of
# 20-s medians), by 4% with the even mix the other workloads use, and raw job
# time by 10%.
FRAME_RECIPE = {"frame": 48, "periodogram": 2}
MIXED_RECIPE = {"python": 8, "small_arrays": 8, "frame": 32, "periodogram": 4}


class CheckError(Exception):
    """A job's output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class JobOutput:
    """What the pooled checks and the traced run need from one checked job."""

    rows: list       # parsed CSV rows (dicts of printed values)
    trials: int      # Monte Carlo trials (0 for closed-form jobs)
    csv_rows: int

    @property
    def work(self) -> int:
        """Work units: Monte Carlo trials, or CSV rows for closed-form jobs."""
        return self.trials or self.csv_rows


@dataclass(frozen=True)
class PooledCheck:
    name: str
    passed: bool
    detail: str
    false_failure: float    # probability that a correct program fails this check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    commands: Callable[[int], list]               # job seed -> list of argv lists
    check_job: Callable[[list], JobOutput]        # CSV texts -> checked output
    pooled_checks: Callable[[list], list]         # checked outputs -> PooledCheck list
    variance_column: Optional[str]                # closed-form variance of each frame's estimate
    reference: dict                               # reference.py part -> runs per kernel call


def job_seed(workload_seed: int, job_index: int) -> int:
    """The ``--seed`` the program sees for one job: a hash of (workload seed, index)."""
    digest = hashlib.blake2b(f"{workload_seed}/{job_index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# ---------------------------------------------------------------------------
# Per-job checks
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list, list]:
    """Header and rows (dicts of printed values) of a CSV with '#' comment lines."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        raise CheckError("output has no CSV header")
    reader = csv.reader(lines)
    header = next(reader)
    rows = []
    for values in reader:
        if len(values) != len(header):
            raise CheckError(f"CSV row has {len(values)} fields, header has {len(header)}")
        rows.append(dict(zip(header, values)))
    return header, rows


def check_finite(rows: list) -> None:
    for row in rows:
        for key, value in row.items():
            if key in STRING_FIELDS:
                continue
            try:
                number = float(value)
            except ValueError:
                raise CheckError(f"{key} = {value!r} is not a number") from None
            if not math.isfinite(number):
                raise CheckError(f"{key} = {value} is not finite")


def check_table(text: str, expected: dict) -> list:
    """Parse one CSV and compare header, row count and closed-form columns."""
    header, rows = parse_csv(text)
    if ",".join(header) != expected["header"]:
        raise CheckError(f"CSV header {','.join(header)!r} differs from the expected one")
    if len(rows) != len(expected["rows"]):
        raise CheckError(f"{len(rows)} CSV rows, expected {len(expected['rows'])}")
    check_finite(rows)
    for row, want in zip(rows, expected["rows"]):
        for key, value in want.items():
            if row[key] != value:
                raise CheckError(f"{key} = {row[key]}, expected {value}")
    return rows


def _check_trials(rows: list, trials: int) -> None:
    for row in rows:
        if int(row["trials"]) != trials:
            raise CheckError(f"trials = {row['trials']}, expected {trials}")


# ---------------------------------------------------------------------------
# Pooled statistical checks
# ---------------------------------------------------------------------------

def chi2_cdf(x: float, dof: int) -> float:
    """Chi-squared CDF by the Wilson-Hilferty cube-root normal approximation."""
    if x <= 0.0:
        return 0.0
    h = 2.0 / (9.0 * dof)
    return NormalDist().cdf(((x / dof) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h))


def _mcrb_pooled(jobs: list) -> list:
    rows = [job.rows[0] for job in jobs]
    n = sum(int(row["trials"]) for row in rows)
    if n < 2:
        return [PooledCheck("mcrb_ratio", False, f"only {n} pooled trials", 1.0)]
    mean = sum(int(row["trials"]) * float(row["emp_mean_err_hz"]) for row in rows) / n
    mse = sum(int(row["trials"]) * float(row["emp_mse_hz2"]) for row in rows) / n
    var = (mse - mean * mean) * n / (n - 1)
    mcrb = float(EXPECTED["mcrb_miller8_40k"]["rows"][0]["mcrb_var_hz2"])
    ratio = var / mcrb
    lo, hi = RATIO_BAND
    dof = n - 1
    # (n-1) s^2 / sigma^2 is chi-squared with n-1 degrees of freedom when the
    # estimator attains the bound (true ratio 1)
    ratio_ff = chi2_cdf(lo * dof, dof) + 1.0 - chi2_cdf(hi * dof, dof)
    sem = math.sqrt(var / n)
    z = abs(mean) / sem
    return [
        PooledCheck("mcrb_ratio", lo <= ratio <= hi,
                    f"pooled variance / MCRB = {ratio:.4f} over {n} trials, "
                    f"accepted [{lo}, {hi}]", ratio_ff),
        PooledCheck("mcrb_bias", z <= Z_CHECK,
                    f"|mean error| = {z:.2f} SEM over {n} trials, accepted <= {Z_CHECK:.2f}",
                    CHECK_ALPHA),
    ]


def _error_rate(p: float, variance_ratio: float) -> float:
    """Error rate of the half-Doppler test when the variance is ratio x the design one."""
    z = NormalDist().inv_cdf(1.0 - p)
    return 1.0 - NormalDist().cdf(z / math.sqrt(variance_ratio))


def _detect_pooled(jobs: list) -> list:
    checks = []
    for r, want in enumerate(EXPECTED["detect_mode204"]["rows"]):
        rows = [job.rows[r] for job in jobs]
        n = 2 * sum(int(row["trials"]) for row in rows)
        k = sum(int(row["errors_static_as_moving"]) + int(row["errors_moving_as_static"])
                for row in rows)
        p = float(want["p_err_predicted"])
        # The prediction assumes the estimator variance equals the MCRB; accept
        # any variance inside the band criterion 06 allows, plus binomial noise.
        p_lo, p_hi = (_error_rate(p, ratio) for ratio in RATIO_BAND)
        lo = p_lo - Z_CHECK * math.sqrt(p_lo * (1.0 - p_lo) / n)
        hi = p_hi + Z_CHECK * math.sqrt(p_hi * (1.0 - p_hi) / n)
        rate = k / n
        z_pred = (rate - p) / math.sqrt(p * (1.0 - p) / n)
        checks.append(PooledCheck(
            f"detect_rate_v{want['v_m_per_s']}", lo <= rate <= hi,
            f"error rate {rate:.5f} over {n} decisions, accepted [{lo:.5f}, {hi:.5f}]; "
            f"{z_pred:+.2f} sd from p_err_predicted = {p}",
            CHECK_ALPHA / 2.0))
    return checks


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _mcrb_commands(seed: int) -> list:
    return [["simulate-mcrb", "--blf", "40e3", "--encoding", "miller-8", "--parts", "both",
             "--modulation", "ask", "--ps-n0", "52.8", "--trials", str(MCRB_TRIALS),
             "--seed", str(seed)]]


def _mcrb_check(texts: list) -> JobOutput:
    rows = check_table(texts[0], EXPECTED["mcrb_miller8_40k"])
    _check_trials(rows, MCRB_TRIALS)
    return JobOutput(rows=rows, trials=MCRB_TRIALS, csv_rows=len(rows))


def _detect_commands(seed: int) -> list:
    return [["simulate-detect", "--estimator", "baseband", "--mode", "Mode 204",
             "--modulation", "psk", "--p-err", "0.05", "--v-grid", "0.5,1,2",
             "--trials", str(DETECT_TRIALS), "--seed", str(seed)]]


def _detect_check(texts: list) -> JobOutput:
    rows = check_table(texts[0], EXPECTED["detect_mode204"])
    _check_trials(rows, DETECT_TRIALS)
    for row in rows:
        errors = int(row["errors_static_as_moving"]) + int(row["errors_moving_as_static"])
        if abs(float(row["error_rate"]) - errors / (2.0 * DETECT_TRIALS)) > 1e-12:
            raise CheckError(f"error_rate {row['error_rate']} disagrees with the error counts")
    trials = DETECT_TRIALS * len(rows)
    return JobOutput(rows=rows, trials=trials, csv_rows=len(rows))


def _figure_commands(seed: int) -> list:
    return [["figure", figure, "--seed", str(seed)] for figure in FIGURES]


def _figure_check(texts: list) -> JobOutput:
    total = 0
    for figure, text in zip(FIGURES, texts, strict=True):
        want = EXPECTED["analytic_figures"][figure]
        header, rows = parse_csv(text)
        if ",".join(header) != want["header"] or len(rows) != want["rows"]:
            raise CheckError(f"figure {figure}: header or row count differs from the recorded one")
        check_finite(rows)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != want["sha256"]:
            raise CheckError(f"figure {figure}: CSV SHA-256 {digest} differs from the recorded "
                             f"{want['sha256']}")
        total += len(rows)
    return JobOutput(rows=[], trials=0, csv_rows=total)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mcrb_miller8_40k",
        why="ASK two-part Miller-8 reply at 40 kHz (criterion 06): 46,336-sample frames, "
            "so sample synthesis and AWGN dominate",
        work_unit="trial",
        commands=_mcrb_commands, check_job=_mcrb_check, pooled_checks=_mcrb_pooled,
        variance_column="mcrb_var_hz2", reference=FRAME_RECIPE),
    Workload(
        name="detect_mode204",
        why="FM0 Mode 204 PSK detection: short 8,180-sample frames, so per-call costs "
            "(encoder loop, small periodograms, RNG setup) dominate",
        work_unit="trial",
        commands=_detect_commands, check_job=_detect_check, pooled_checks=_detect_pooled,
        variance_column="sigma_sq_hz2", reference=MIXED_RECIPE),
    Workload(
        name="analytic_figures",
        why="Closed-form figures 4, 8, 9, 10 and 11: bounds, CSV writing and argparse only; "
            "bypasses baseband and estimator",
        work_unit="row",
        commands=_figure_commands, check_job=_figure_check,
        pooled_checks=lambda jobs: [], variance_column=None, reference=MIXED_RECIPE),
)}
