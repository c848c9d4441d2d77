"""Closed-form bounds: tail numerics, theorems, link budget, scaling laws.

Frozen expected values were computed with mpmath at 40 decimal digits;
scipy.special.erfcinv serves as an independent oracle for the normal quantile.
"""

import math
import re

import numpy as np
import pytest
import scipy.special

from conftest import ct_dual_numeric_oracle
from rfid_doppler import bounds as B
from rfid_doppler import protocol as P

C = B.SPEED_OF_LIGHT
MODE290_CT = 7.31515841379e-7           # dual timing factor of Mode 290, s^3
MILLER8_40K_CT = 4.58246085517e-5       # dual timing factor at 40 kHz Miller-8


def scenario(v=1.0, f_c=868e6, p_err=1e-3):
    return B.MotionScenario(v, f_c, p_err)


# ---------------------------------------------------------------------------
# Tail numerics of the normal quantile behind every bound
# ---------------------------------------------------------------------------

TAIL_PS = [0.4, 0.05, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15]


@pytest.mark.parametrize("p", TAIL_PS)
def test_bounds_match_erfcinv_formulas_deep_in_the_tail(p):
    # erfcinv(2p) is erfinv(1 - 2p) without the cancellation in 1 - 2p
    e = float(scipy.special.erfcinv(2.0 * p))
    v, f_c, ps_n0 = 1.3, 868e6, B.linear_from_db(52.8)
    ratio = v * f_c / C
    assert B.sigma_max_sq(B.MotionScenario(v, f_c, p)) == pytest.approx(
        ratio * ratio / (2.0 * e * e), rel=1e-13, abs=0.0)
    assert B.v_min(MODE290_CT, ps_n0, f_c, p) == pytest.approx(
        C * e / (math.pi * f_c) * math.sqrt(3.0 / MODE290_CT / ps_n0), rel=1e-13, abs=0.0)
    assert B.ps_n0_from_ber(160e3, 8, p) == pytest.approx(
        10.0 * math.log10(2.0 * 160e3 * e * e / 8), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.25, 1.5, 0.5])
def test_error_rates_outside_the_open_interval_are_rejected(p):
    with pytest.raises(ValueError):
        B.v_min(MODE290_CT, 1e5, 868e6, p)
    with pytest.raises(ValueError):
        B.required_ps_n0(1.0, MODE290_CT, 868e6, p)
    with pytest.raises(ValueError):
        B.ps_n0_from_ber(160e3, 8, p)


@pytest.mark.parametrize("p", TAIL_PS)
def test_p_err_round_trips_through_sigma_max_sq(p):
    sigma_sq = B.sigma_max_sq(B.MotionScenario(1.3, 868e6, p))
    assert B.p_err_from_sigma(sigma_sq, 1.3, 868e6) == pytest.approx(p, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Doppler shift and tolerable variance
# ---------------------------------------------------------------------------

def test_doppler_shift_examples():
    assert B.doppler_shift(1.0, 900e6) == pytest.approx(6.0, rel=2e-3)
    assert B.doppler_shift(1.0, 900e6) == pytest.approx(6.00415371357, rel=1e-11)
    assert B.doppler_shift(0.0, 868e6) == 0.0
    assert B.doppler_shift(1.0, 868e6) == pytest.approx(5.79067269264, rel=1e-11)
    assert B.doppler_shift(-1.0, 868e6) == -B.doppler_shift(1.0, 868e6)


def test_sigma_max_sq_frozen_values():
    assert B.sigma_max_sq(scenario()) == pytest.approx(0.877840851779, rel=1e-10)
    assert B.sigma_max_sq(scenario(p_err=0.25)) == pytest.approx(18.4266902633, rel=1e-10)


def test_sigma_max_sq_quadratic_in_speed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = float(rng.uniform(0.01, 10))
        f_c = float(rng.uniform(400e6, 6e9))
        p = float(rng.uniform(1e-4, 0.4))
        one = B.sigma_max_sq(B.MotionScenario(v, f_c, p))
        two = B.sigma_max_sq(B.MotionScenario(2 * v, f_c, p))
        assert two == pytest.approx(4 * one, rel=1e-12)


def test_sigma_max_sq_rejects_zero_speed():
    with pytest.raises(ValueError):
        B.sigma_max_sq(B.MotionScenario(0.0, 868e6, 1e-3))


@pytest.mark.parametrize("v", [1e-300, 5e-324])
def test_sigma_max_sq_refuses_a_variance_that_underflows(v):
    with pytest.raises(ValueError, match="underflows to 0"):
        B.sigma_max_sq(B.MotionScenario(v, 868e6, 1e-3))


def test_motion_scenario_validation():
    with pytest.raises(ValueError):
        B.MotionScenario(1.0, 868e6, 0.5)
    with pytest.raises(ValueError):
        B.MotionScenario(1.0, 868e6, 0.0)
    with pytest.raises(ValueError):
        B.MotionScenario(1.0, -868e6, 1e-3)


# ---------------------------------------------------------------------------
# Timing factors
# ---------------------------------------------------------------------------

def test_c_t_single_cubes():
    assert B.c_t_single(27e-3) == pytest.approx(1.9683e-5, rel=1e-12)
    assert B.c_t_single(1.0) == 1.0
    with pytest.raises(ValueError):
        B.c_t_single(0.0)


@pytest.mark.parametrize("t0", [1e103, 1e308])
def test_c_t_single_refuses_a_duration_whose_cube_overflows(t0):
    with pytest.raises(ValueError, match=re.escape(f"duration {t0:.6g} s overflows")):
        B.c_t_single(t0)


def test_c_t_dual_reduces_to_single_without_pause():
    assert B.c_t_dual(7.8e-3, 27e-3, 0.0) == B.c_t_single(34.8e-3)


def test_c_t_dual_frozen_value_and_symmetry():
    assert B.c_t_dual(7.8e-3, 27e-3, 1.4e-3) == pytest.approx(4.58246085517e-5, rel=1e-10)
    assert B.c_t_dual(1e-3, 2e-3, 3e-3) == B.c_t_dual(2e-3, 1e-3, 3e-3)


def test_c_t_dual_against_numeric_minimization_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        t1, t2 = rng.uniform(1e-4, 5e-2, size=2)
        tp = rng.uniform(0.0, 5e-2)
        oracle = ct_dual_numeric_oracle(t1, t2, tp)
        assert B.c_t_dual(t1, t2, tp) == pytest.approx(oracle, rel=1e-7)


def test_c_t_dual_monotone_in_pause_and_dominates_single():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2 = rng.uniform(1e-4, 5e-2, size=2)
        pauses = np.sort(rng.uniform(0, 0.1, size=4))
        values = [B.c_t_dual(t1, t2, tp) for tp in pauses]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] >= B.c_t_single(t1 + t2)


def test_c_t_dual_domain_errors():
    with pytest.raises(ValueError):
        B.c_t_dual(0.0, 1e-3, 1e-3)
    with pytest.raises(ValueError):
        B.c_t_dual(1e-3, 1e-3, -1e-3)


def test_timing_factor_dispatch():
    timing = P.reply_timing(P.find_reader_mode("Mode 290"))
    assert B.timing_factor(timing, "rn16") == B.c_t_single(1.95e-3)
    assert B.timing_factor(timing, "epc") == B.c_t_single(6.75e-3)
    assert B.timing_factor(timing, "both") == pytest.approx(MODE290_CT, rel=1e-10)


# ---------------------------------------------------------------------------
# MCRB and the finite-L ASK correction
# ---------------------------------------------------------------------------

def test_mcrb_unit_case():
    assert B.mcrb_sigma_sq(1.0, 1.0) == pytest.approx(3 / (2 * math.pi ** 2), rel=1e-14)
    assert 3 / (2 * math.pi ** 2) == pytest.approx(0.151981775464, rel=1e-11)


def test_mcrb_linear_in_noise_over_signal():
    base = B.mcrb_sigma_sq(MODE290_CT, 10 ** 5.28)
    assert B.mcrb_sigma_sq(MODE290_CT, 10 ** 5.28 / 2) == pytest.approx(2 * base, rel=1e-12)
    assert base == pytest.approx(1.09035464543, rel=1e-10)


def test_mcrb_domain_errors():
    with pytest.raises(ValueError):
        B.mcrb_sigma_sq(0.0, 1.0)
    with pytest.raises(ValueError):
        B.mcrb_sigma_sq(1.0, 0.0)


def test_finite_l_ask_correction():
    factor = B.mcrb_ask_finite_l(1.0, 23)
    assert factor == pytest.approx(1 / 0.9986, abs=1e-4)
    assert abs(B.mcrb_ask_finite_l(1.0, 10 ** 6) - 1.0) <= 1e-12
    assert B.mcrb_ask_finite_l(1.0, 1) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError):
        B.mcrb_ask_finite_l(1.0, 0)


# ---------------------------------------------------------------------------
# v_min and its inversions
# ---------------------------------------------------------------------------

def test_v_min_headline_numbers():
    ratio = 10 ** 5.28                       # 52.8 dB-Hz
    assert B.v_min(MODE290_CT, ratio, 868e6, 1e-3) == \
        pytest.approx(1.11448953623, rel=1e-9)
    ratio_strong = 10 ** ((-60 + 148.6) / 10)
    assert B.v_min(MODE290_CT, ratio_strong, 868e6, 1e-3) == \
        pytest.approx(0.0180749038326, rel=1e-9)
    assert B.v_min(MILLER8_40K_CT, ratio, 868e6, 1e-3) == \
        pytest.approx(0.140811615523, rel=1e-9)


def test_theorem_consistency_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        c_t = float(rng.uniform(1e-9, 1e-3))
        ratio = float(10 ** rng.uniform(2, 9))
        f_c = float(rng.uniform(400e6, 6e9))
        p = float(rng.uniform(1e-5, 0.45))
        vm = B.v_min(c_t, ratio, f_c, p)
        s_max = B.sigma_max_sq(B.MotionScenario(vm, f_c, p))
        s_mcrb = B.mcrb_sigma_sq(c_t, ratio)
        assert s_max == pytest.approx(s_mcrb, rel=1e-9)


def test_required_ps_n0_round_trips_with_v_min():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c_t = float(rng.uniform(1e-9, 1e-3))
        f_c = float(rng.uniform(400e6, 6e9))
        p = float(rng.uniform(1e-5, 0.45))
        ratio_db = float(rng.uniform(20, 90))
        vm = B.v_min(c_t, B.linear_from_db(ratio_db), f_c, p)
        assert B.required_ps_n0(vm, c_t, f_c, p) == pytest.approx(ratio_db, rel=1e-9)


def test_part_selection_gain_ratios():
    # EPC vs RN16 and combined vs EPC at 40 kHz Miller-8
    assert (27 / 7.8) ** 1.5 == pytest.approx(6.44026506, rel=1e-8)
    delta_db = B.required_ps_n0(1.0, B.c_t_single(7.8e-3), 868e6, 1e-3) \
        - B.required_ps_n0(1.0, B.c_t_single(27e-3), 868e6, 1e-3)
    assert delta_db == pytest.approx(30 * math.log10(27 / 7.8), rel=1e-10)
    assert delta_db == pytest.approx(16.17807484, rel=1e-8)
    combined_db = B.required_ps_n0(1.0, B.c_t_single(27e-3), 868e6, 1e-3) \
        - B.required_ps_n0(1.0, MILLER8_40K_CT, 868e6, 1e-3)
    assert combined_db == pytest.approx(3.670074713, rel=1e-8)


def test_required_ps_dbm_is_ratio_plus_noise_floor():
    c_t = MILLER8_40K_CT
    base = B.required_ps_n0(1.0, c_t, 868e6, 1e-3)
    for nf in (0.0, 3.0, 25.4):
        assert B.required_ps_dbm(1.0, c_t, 868e6, 1e-3, nf) == \
            pytest.approx(base - 174.0 + nf, rel=1e-12)


def test_three_db_noise_figure_costs_sqrt_two_in_speed():
    ratio = 10 ** 5.28
    v1 = B.v_min(MODE290_CT, ratio, 868e6, 1e-3)
    v2 = B.v_min(MODE290_CT, ratio / 2.0, 868e6, 1e-3)
    assert v2 / v1 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    v3 = B.v_min(MODE290_CT, ratio / 10 ** 0.3, 868e6, 1e-3)
    assert v3 / v1 == pytest.approx(math.sqrt(2.0), rel=5e-3)


def test_carrier_band_ratio():
    ratio = 10 ** 5.28
    r = B.v_min(MODE290_CT, ratio, 915e6, 1e-3) / B.v_min(MODE290_CT, ratio, 868e6, 1e-3)
    assert r == pytest.approx(868 / 915, rel=1e-12)
    assert r == pytest.approx(0.9486338798, abs=5e-4)


def test_scaling_laws_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = float(rng.uniform(0.01, 10))
        f_c = float(rng.uniform(400e6, 6e9))
        p = float(rng.uniform(1e-4, 0.4))
        c_t = float(rng.uniform(1e-9, 1e-3))
        ratio = float(10 ** rng.uniform(2, 9))
        k = float(rng.uniform(1.1, 5.0))
        # sigma_max ~ v^2 and f_c^2
        assert B.sigma_max_sq(B.MotionScenario(k * v, f_c, p)) == \
            pytest.approx(k ** 2 * B.sigma_max_sq(B.MotionScenario(v, f_c, p)), rel=1e-11)
        assert B.sigma_max_sq(B.MotionScenario(v, k * f_c, p)) == \
            pytest.approx(k ** 2 * B.sigma_max_sq(B.MotionScenario(v, f_c, p)), rel=1e-11)
        # mcrb ~ 1/C_T and ~ N0/P_S
        assert B.mcrb_sigma_sq(k * c_t, ratio) == \
            pytest.approx(B.mcrb_sigma_sq(c_t, ratio) / k, rel=1e-11)
        assert B.mcrb_sigma_sq(c_t, k * ratio) == \
            pytest.approx(B.mcrb_sigma_sq(c_t, ratio) / k, rel=1e-11)
        # v_min ~ 1/f_c and ~ sqrt(N0/P_S)
        assert B.v_min(c_t, ratio, k * f_c, p) == \
            pytest.approx(B.v_min(c_t, ratio, f_c, p) / k, rel=1e-11)
        assert B.v_min(c_t, k * ratio, f_c, p) == \
            pytest.approx(B.v_min(c_t, ratio, f_c, p) / math.sqrt(k), rel=1e-11)


# ---------------------------------------------------------------------------
# Appendix-style link budget operations
# ---------------------------------------------------------------------------

def test_ps_n0_from_ber_reference_point():
    assert B.ps_n0_from_ber(160e3, 8, 1e-3) == pytest.approx(52.8101225257, rel=1e-10)


def test_ps_n0_from_ber_scalings_and_limits():
    base = B.ps_n0_from_ber(160e3, 8, 1e-3)
    assert B.ps_n0_from_ber(320e3, 8, 1e-3) - base == pytest.approx(10 * math.log10(2),
                                                                    rel=1e-10)
    assert B.ps_n0_from_ber(160e3, 8, 0.5 - 1e-12) < -80.0
    with pytest.raises(ValueError):
        B.ps_n0_from_ber(160e3, 8, 0.5)
    with pytest.raises(ValueError):
        B.ps_n0_from_ber(160e3, 8, 0.0)


def test_ps_n0_from_ber_takes_only_the_gen2_spread_factors():
    base = B.ps_n0_from_ber(160e3, 8, 1e-3)
    for m in (1, 2, 4):
        assert B.ps_n0_from_ber(160e3, m, 1e-3) - base == pytest.approx(
            10 * math.log10(8 / m), rel=1e-10)
    for m in (0, -8, 3, 6, 16):
        with pytest.raises(ValueError, match="spread factor M must be 1 .FM0., 2, 4 or 8"):
            B.ps_n0_from_ber(160e3, m, 1e-3)
        with pytest.raises(ValueError, match="spread factor M"):
            B.noise_density_from_sensitivity(-95.8, 1e-3, 160e3, m)


def test_ps_n0_from_ber_takes_only_gen2_blfs():
    base = B.ps_n0_from_ber(160e3, 8, 1e-3)
    for blf in (P.BLF_MIN_HZ, P.BLF_MAX_HZ):
        assert B.ps_n0_from_ber(blf, 8, 1e-3) - base == pytest.approx(
            10 * math.log10(blf / 160e3), rel=1e-10)
    for blf in (-1.0, 0.0, 39.9e3, 640.1e3, 1e9):
        with pytest.raises(ValueError, match="blf_hz: must lie in the Gen2 range"):
            B.ps_n0_from_ber(blf, 8, 1e-3)
        with pytest.raises(ValueError, match="blf_hz"):
            B.noise_density_from_sensitivity(-95.8, 1e-3, blf, 8)


def test_noise_density_from_sensitivity_reference():
    n0, nf = B.noise_density_from_sensitivity(-95.8, 1e-3, 160e3, 8)
    assert n0 == pytest.approx(-148.610122526, abs=1e-6)
    assert nf == pytest.approx(25.3898774743, abs=1e-6)


def test_noise_density_from_sensitivity_shifts_additively():
    n0, nf = B.noise_density_from_sensitivity(-90.0, 1e-3, 160e3, 8)
    assert n0 == pytest.approx(-142.810122526, abs=1e-6)
    assert nf == pytest.approx(31.1898774743, abs=1e-6)


def test_perfect_receiver_consistency():
    ratio = B.ps_n0_from_ber(160e3, 8, 1e-3)
    n0, nf = B.noise_density_from_sensitivity(ratio - 174.0, 1e-3, 160e3, 8)
    assert n0 == pytest.approx(-174.0, abs=1e-9)
    assert nf == pytest.approx(0.0, abs=1e-9)


def test_p_err_from_sigma_round_trip_and_limits():
    s = scenario(p_err=1e-3)
    sig = B.sigma_max_sq(s)
    assert B.p_err_from_sigma(sig, s.v, s.f_c_hz) == pytest.approx(1e-3, rel=1e-9)
    assert B.p_err_from_sigma(0.878, 0.0, 868e6) == 0.5
    assert B.p_err_from_sigma(0.877840851779, 1.0, 868e6) == pytest.approx(1e-3, rel=1e-6)


def test_link_budget_constructors_and_consistency():
    link = B.LinkBudget.from_power(-95.8, nf_db=25.4)
    assert link.n0_dbm_hz == pytest.approx(-148.6)
    assert link.ps_n0_dbhz == pytest.approx(52.8)
    assert B.db_from_linear(link.ps_n0_linear) == pytest.approx(link.ps_n0_dbhz, rel=1e-12)
    same = B.LinkBudget.from_power(-95.8, n0_dbm_hz=-148.6)
    assert same.nf_db == pytest.approx(25.4)
    with pytest.raises(ValueError):
        B.LinkBudget(ps_n0_dbhz=50.0, p_s_dbm=-95.8, n0_dbm_hz=-148.6)
    with pytest.raises(ValueError):
        B.LinkBudget(ps_n0_dbhz=52.8, n0_dbm_hz=-148.6, nf_db=10.0)
    with pytest.raises(ValueError):
        B.LinkBudget.from_power(-95.8)


def test_db_round_trips():
    rng = np.random.default_rng(9)
    for _ in range(50):
        db = float(rng.uniform(-200, 200))
        assert B.db_from_linear(B.linear_from_db(db)) == pytest.approx(db, abs=1e-12)
    with pytest.raises(ValueError):
        B.db_from_linear(0.0)


def test_evaluate_bounds_assembles_consistent_result():
    link = B.LinkBudget.from_power(-95.8, nf_db=25.4)
    s = scenario(v=1.2)
    result = B.evaluate_bounds(s, MODE290_CT, link)
    assert result.sigma_max_sq == B.sigma_max_sq(s)
    assert result.sigma_mcrb_sq == B.mcrb_sigma_sq(MODE290_CT, link.ps_n0_linear)
    assert result.v_min == pytest.approx(1.1145, abs=2e-3)
    assert result.detectable == (s.v >= result.v_min)
