"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with `pytest -s`)
and fails the suite if its tolerance is not met.  Monte Carlo criteria use
frozen seeds; all tolerances are stated inline.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import ct_dual_numeric_oracle
from test_protocol import TABLE1
from rfid_doppler import baseband as BB
from rfid_doppler import bounds as B
from rfid_doppler import estimator as E
from rfid_doppler import experiments as X
from rfid_doppler import protocol as P

SEED = 424242
F_C = 868e6
P_ERR = 1e-3
N0_DBM_HZ = -148.6


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def mcrb_config(**kw):
    base = dict(mode_label=None, blf_hz=40e3, encoding="Miller8", ps_n0_dbhz=52.8,
                waveform_model="gen2", trials=2000, seed=SEED)
    base.update(kw)
    return X.ExperimentConfig(**base)


def test_criterion_01_duration_table_reproduced_exactly():
    failures = []
    for (enc_name, blf, kind), (exact_ms, _) in TABLE1.items():
        mode = P.ReaderMode("t", blf, P.ENCODINGS[enc_name])
        if P.signal_duration(mode, kind) != exact_ms / 1000:
            failures.append((enc_name, blf, kind))
    report(1, "all 16 published signal durations match exactly (rational equality)",
           not failures, f"failures: {failures}" if failures else "16/16")


def test_criterion_02_noise_figure_back_solve():
    ratio = B.ps_n0_from_ber(160e3, 8, 1e-3)
    n0, nf = B.noise_density_from_sensitivity(-95.8, 1e-3, 160e3, 8)
    ok = abs(ratio - 52.8) <= 0.05 and abs(n0 - (-148.6)) <= 0.05 \
        and abs(nf - 25.4) <= 0.05
    report(2, "Mode 290 back-solve: 52.8 dB-Hz, -148.6 dBm-Hz, NF 25.4 (each +-0.05)",
           ok, f"ratio={ratio:.4f}, n0={n0:.4f}, nf={nf:.4f}")


def test_criterion_03_v_min_headline_numbers():
    mode290_ct = B.timing_factor(P.reply_timing(P.find_reader_mode("Mode 290")), "both")
    m8_40k_ct = B.timing_factor(P.reply_timing(P.ReaderMode("t", 40e3, P.MILLER8)), "both")

    def vmin(p_s_dbm, c_t):
        link = B.LinkBudget.from_power(p_s_dbm, n0_dbm_hz=N0_DBM_HZ)
        return B.v_min(c_t, link.ps_n0_linear, F_C, P_ERR)

    v1 = vmin(-95.8, mode290_ct)
    v2 = vmin(-60.0, mode290_ct)
    v3 = vmin(-95.8, m8_40k_ct)
    ok = abs(v1 - 1.10) <= 0.05 and 0.018 <= v2 <= 0.021 and abs(v3 - 0.14) <= 0.01
    report(3, "v_min: Mode 290 @-95.8 dBm = 1.10+-0.05; @-60 dBm in [0.018, 0.021]; "
              "Miller-8/40kHz @-95.8 dBm = 0.14+-0.01",
           ok, f"{v1:.4f}, {v2:.5f}, {v3:.4f} m/s")


def test_criterion_04_part_selection_gains():
    timing = P.reply_timing(P.ReaderMode("t", 40e3, P.MILLER8))
    ct_rn16 = B.timing_factor(timing, "rn16")
    ct_epc = B.timing_factor(timing, "epc")
    ct_both = B.timing_factor(timing, "both")
    ratio = B.linear_from_db(52.8)
    v_ratio = B.v_min(ct_rn16, ratio, F_C, P_ERR) / B.v_min(ct_epc, ratio, F_C, P_ERR)
    db_delta = B.required_ps_n0(1.0, ct_rn16, F_C, P_ERR) \
        - B.required_ps_n0(1.0, ct_epc, F_C, P_ERR)
    v_ratio_both = B.v_min(ct_epc, ratio, F_C, P_ERR) / B.v_min(ct_both, ratio, F_C, P_ERR)
    db_delta_both = B.required_ps_n0(1.0, ct_epc, F_C, P_ERR) \
        - B.required_ps_n0(1.0, ct_both, F_C, P_ERR)
    ok = abs(v_ratio - 6.4) <= 0.1 and abs(db_delta - 16.2) <= 0.2 \
        and abs(v_ratio_both - 1.5) <= 0.05 and abs(db_delta_both - 3.6) <= 0.1
    report(4, "EPC vs RN16 gains 6.4x / 16.2 dB; both vs EPC 1.5x / 3.6 dB",
           ok, f"{v_ratio:.3f}x, {db_delta:.3f} dB, {v_ratio_both:.3f}x, "
               f"{db_delta_both:.3f} dB")


def test_criterion_05_carrier_band_ratio():
    ct = B.timing_factor(P.reply_timing(P.find_reader_mode("Mode 290")), "both")
    ratio = B.linear_from_db(52.8)
    r = B.v_min(ct, ratio, 915e6, P_ERR) / B.v_min(ct, ratio, 868e6, P_ERR)
    ok = abs(r - 0.9486) <= 0.0005
    report(5, "v_min(915 MHz)/v_min(868 MHz) = 0.9486+-0.0005", ok, f"{r:.5f}")


def test_criterion_06_mcrb_tightness_gen2():
    # each case has its own seed: runs that differ only in modulation would
    # otherwise share their noise keys and make one experiment, not four
    results = {}
    ok = True
    cases = [("ask", "epc"), ("ask", "both"), ("psk", "epc"), ("psk", "both")]
    for offset, (modulation, parts) in enumerate(cases, start=1):
        cfg = mcrb_config(modulation=modulation, parts=parts, seed=SEED + offset)
        _, _, rows = X.run_mcrb_experiment(cfg)
        row = rows[0]
        ratio = row["emp_var_hz2"] / row["mcrb_var_hz2"]
        results[(modulation, parts)] = ratio
        ok &= 0.9 <= ratio <= 1.15
        sem = math.sqrt(row["emp_var_hz2"] / row["trials"])
        ok &= abs(row["emp_mean_err_hz"]) <= 3 * sem
    detail = ", ".join(f"{m}/{p}={r:.3f}" for (m, p), r in results.items())
    report(6, "empirical variance / MCRB in [0.9, 1.15] for ASK,PSK x "
              "single 27 ms, two-part (7.8, 1.4, 27) ms at 52.8 dB-Hz, 2000 trials",
           ok, detail)


def test_criterion_07_ask_without_zeroing_loses_3_db():
    # its own seed, apart from criterion 06's ASK/EPC case that it is compared with
    cfg = mcrb_config(modulation="ask", parts="epc", ask_zeroing=False, seed=SEED + 5)
    _, _, rows = X.run_mcrb_experiment(cfg)
    ratio = rows[0]["emp_var_hz2"] / rows[0]["mcrb_var_hz2"]
    ok = abs(ratio - 2.0) <= 0.2
    report(7, "ASK with absorb intervals kept in the mask: variance ratio 2.0+-0.2",
           ok, f"{ratio:.3f}")


def test_criterion_08_finite_l_correction():
    factor = B.mcrb_ask_finite_l(1.0, 23)
    limit = B.mcrb_ask_finite_l(1.0, 10 ** 6)
    ok = abs(factor - 1 / 0.9986) <= 1e-4 and abs(limit - 1.0) <= 1e-12
    report(8, "finite-L ASK factor: 1/0.9986+-1e-4 at L=23, -> 1 as L -> inf",
           ok, f"factor(23)={factor:.7f}, factor(1e6)-1={limit - 1:.2e}")


def test_criterion_09_property_suite():
    rng = np.random.default_rng(SEED)
    problems = []

    # theorem consistency: sigma_max(v_min) == sigma_mcrb to 1e-9 relative
    for _ in range(50):
        c_t = float(rng.uniform(1e-9, 1e-3))
        ratio = float(10 ** rng.uniform(2, 9))
        f_c = float(rng.uniform(4e8, 6e9))
        p = float(rng.uniform(1e-5, 0.45))
        vm = B.v_min(c_t, ratio, f_c, p)
        s_max = B.sigma_max_sq(B.MotionScenario(vm, f_c, p))
        s_mcrb = B.mcrb_sigma_sq(c_t, ratio)
        if abs(s_max - s_mcrb) > 1e-9 * s_mcrb:
            problems.append("theorem round-trip")
            break

    # zero-pause reduction
    if B.c_t_dual(7.8e-3, 27e-3, 0.0) != B.c_t_single(34.8e-3):
        problems.append("zero-pause reduction")

    # numeric minimization oracle over 100 random timing triples
    worst = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(1e-4, 5e-2, size=2)
        tp = rng.uniform(0.0, 8e-2)
        oracle = ct_dual_numeric_oracle(float(t1), float(t2), float(tp))
        worst = max(worst, abs(B.c_t_dual(t1, t2, tp) - oracle) / oracle)
    if worst > 1e-6:
        problems.append(f"dual timing-factor oracle (worst {worst:.2e})")

    # scaling laws
    for _ in range(25):
        v = float(rng.uniform(0.01, 10))
        f_c = float(rng.uniform(4e8, 6e9))
        p = float(rng.uniform(1e-4, 0.4))
        c_t = float(rng.uniform(1e-9, 1e-3))
        ratio = float(10 ** rng.uniform(2, 9))
        k = float(rng.uniform(1.1, 4.0))
        checks = [
            (B.sigma_max_sq(B.MotionScenario(k * v, f_c, p)),
             k ** 2 * B.sigma_max_sq(B.MotionScenario(v, f_c, p))),
            (B.sigma_max_sq(B.MotionScenario(v, k * f_c, p)),
             k ** 2 * B.sigma_max_sq(B.MotionScenario(v, f_c, p))),
            (B.mcrb_sigma_sq(c_t, k * ratio), B.mcrb_sigma_sq(c_t, ratio) / k),
        ]
        if any(abs(a - b) > 1e-9 * abs(b) for a, b in checks):
            problems.append("scaling laws")
            break

    # classifier consistency: 1e4 synthetic moving-tag estimates
    p = 1e-2
    v = 1.0
    sigma = math.sqrt(B.sigma_max_sq(B.MotionScenario(v, F_C, p)))
    f_d = B.doppler_shift(v, F_C)
    draws = f_d + sigma * np.random.Generator(np.random.Philox(key=SEED)).standard_normal(10 ** 4)
    errors = sum(E.classify_motion(float(f), v, F_C) == "static" for f in draws)
    rate = errors / 1e4
    halfwidth = 2.5758 * math.sqrt(p * (1 - p) / 1e4)
    if abs(rate - p) > halfwidth:
        problems.append(f"classifier error rate {rate:.4f} vs {p}")

    report(9, "property suite: theorem round-trip, zero-pause reduction, "
              "numeric timing oracle, scaling laws, classifier calibration",
           not problems, "; ".join(problems) if problems else "all held")


def test_criterion_10_byte_identical_reruns(tmp_path):
    commands = {
        "simulate-mcrb": ["simulate-mcrb", "--blf", "640e3", "--encoding", "FM0",
                          "--parts", "epc", "--waveform-model", "rect",
                          "--ps-n0", "52.8", "--trials", "5", "--seed", "11"],
        "simulate-detect": ["simulate-detect", "--estimator", "gaussian",
                            "--p-err", "0.01", "--v", "1.0",
                            "--trials", "300", "--seed", "4"],
    }
    ok = True
    details = []
    for name, argv in commands.items():
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.csv"
            proc = subprocess.run([sys.executable, "-m", "rfid_doppler.cli",
                                   *argv, "--out", str(out)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                ok = False
                details.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
                break
            outputs.append(out.read_bytes())
        else:
            identical = outputs[0] == outputs[1] and len(outputs[0]) > 0
            ok &= identical
            details.append(f"{name}: {'identical' if identical else 'DIFFERS'}")
    report(10, "simulation commands re-run with the same seed emit identical CSV",
           ok, "; ".join(details))
