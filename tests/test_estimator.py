"""Wipe-off, periodogram estimation, and the threshold classifier.

The Monte Carlo tightness checks here run the simplified rectangular signal
model; the acceptance suite runs the same checks on the full Gen2 waveforms.
"""

import dataclasses
import math

import numpy as np
import pytest

from rfid_doppler import baseband as B
from rfid_doppler import bounds as bd
from rfid_doppler import estimator as E
from rfid_doppler import experiments as X
from rfid_doppler import protocol as P

MILLER8_40K = P.ReaderMode("m8-40k", 40e3, P.MILLER8)
F_D_1MS = bd.doppler_shift(1.0, 868e6)          # 5.79 Hz


def make_frame(modulation="psk", waveform="gen2", f_d=F_D_1MS, ps_n0=None,
               parts="both", seed=0):
    rng = np.random.Generator(np.random.Philox(key=1234))
    bits16 = rng.integers(0, 2, 16)
    bits_epc = rng.integers(0, 2, 112)
    params = B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=ps_n0, seed=seed)
    return B.synthesize_reply(None, MILLER8_40K, modulation, waveform,
                              bits16, bits_epc, params, parts=parts)


# ---------------------------------------------------------------------------
# Modulation wipe-off
# ---------------------------------------------------------------------------

def test_psk_wipe_leaves_a_pure_tone():
    frame = make_frame("psk")
    wiped = E.wipe_modulation(frame)
    t = np.arange(frame.n_samples) / frame.sample_rate_hz
    tone = np.exp(-2j * math.pi * F_D_1MS * t)
    residual = np.abs(wiped.samples[wiped.support_mask] - tone[wiped.support_mask])
    assert float(residual.max()) <= 1e-12
    # full part spans stay in the mask
    for i0, i1 in frame.part_slices:
        assert wiped.support_mask[i0:i1].all()


def test_ask_wipe_zeroes_absorb_intervals():
    frame = make_frame("ask", "rect")
    wiped = E.wipe_modulation(frame)
    t = np.arange(frame.n_samples) / frame.sample_rate_hz
    tone = math.sqrt(2.0) * np.exp(-2j * math.pi * F_D_1MS * t)
    assert np.allclose(wiped.samples[wiped.support_mask], tone[wiped.support_mask],
                       atol=1e-12)
    assert np.all(wiped.samples[~wiped.support_mask] == 0)
    # the rect model reflects for exactly half of each part span
    in_part = frame.sample_state >= 0
    assert wiped.support_mask.sum() * 2 == in_part.sum()


def test_ask_wipe_without_zeroing_keeps_absorb_noise():
    frame = make_frame("ask", "rect", ps_n0=60.0, seed=9)
    wiped = E.wipe_modulation(frame, ask_zeroing=False)
    in_part = frame.sample_state >= 0
    assert np.array_equal(wiped.support_mask, in_part)
    absorb = in_part & (frame.sample_state == 0)
    assert np.array_equal(wiped.samples[absorb], frame.samples[absorb])
    assert np.any(wiped.samples[absorb] != 0)


def test_wipe_masks_out_the_pause_in_all_cases():
    for modulation in ("ask", "psk"):
        frame = make_frame(modulation, ps_n0=60.0, seed=2)
        wiped = E.wipe_modulation(frame)
        gap = slice(frame.part_slices[0][1], frame.part_slices[1][0])
        assert not wiped.support_mask[gap].any()
        assert np.all(wiped.samples[gap] == 0)


# ---------------------------------------------------------------------------
# Doppler estimation
# ---------------------------------------------------------------------------

def test_noiseless_single_part_estimate():
    frame = make_frame("ask", parts="epc")
    report = E.estimate_doppler(E.wipe_modulation(frame))
    assert abs(report.f_hat_hz - F_D_1MS) <= 1e-3
    assert report.peak_value > 0
    assert report.refinement_iterations > 0


@pytest.mark.parametrize("f_d", [F_D_1MS, -4.0, 0.0, 55.0])
def test_noiseless_two_part_estimate_signed(f_d):
    frame = make_frame("psk", f_d=f_d)
    report = E.estimate_doppler(E.wipe_modulation(frame))
    assert abs(report.f_hat_hz - f_d) <= 1e-3


def test_blockless_evaluation_agrees_with_blocked():
    frame = make_frame("psk", f_d=12.5, parts="epc")
    wiped = E.wipe_modulation(frame)
    blocked = E.estimate_doppler(wiped)
    exact = E.estimate_doppler(wiped, block_len_s=0)
    assert abs(blocked.f_hat_hz - exact.f_hat_hz) <= 1e-3


FM0_160K = P.ReaderMode("fm0-160k", 160e3, P.FM0)


def block_parts(mode, waveform, parts, seed=5):
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits16 = rng.integers(0, 2, 16)
    bits_epc = rng.integers(0, 2, mode.epc_bits + 16)
    return bits16, bits_epc, B.reply_parts(None, mode, waveform, bits16, bits_epc, parts)


# A 20 kHz window makes the FM0 blocks 15-16 samples long, so at the
# non-integer step they cut half-intervals apart.
@pytest.mark.parametrize("mode, halfwidth", [(MILLER8_40K, 200.0), (FM0_160K, 20e3)],
                         ids=["miller8", "fm0"])
@pytest.mark.parametrize("rate", [None, 30.3], ids=["default-rate", "non-integer-step"])
@pytest.mark.parametrize("modulation, zeroing", [("ask", True), ("psk", True), ("ask", False)])
@pytest.mark.parametrize("waveform", ["gen2", "rect"])
@pytest.mark.parametrize("parts", ["rn16", "epc", "both"])
def test_block_table_matches_wiped_sample_frame(mode, halfwidth, rate, modulation, zeroing,
                                                waveform, parts):
    fs = None if rate is None else rate * mode.blf_hz
    bits16, bits_epc, built = block_parts(mode, waveform, parts)
    params = B.ChannelParams(f_d_hz=37.0, ps_n0_dbhz=None, sample_rate_hz=fs)
    frame = B.synthesize_reply(None, mode, modulation, waveform, bits16, bits_epc, params,
                               parts=parts)
    wiped = E.wipe_modulation(frame, ask_zeroing=zeroing)
    want = E.integrate_blocks(wiped, halfwidth)
    table = E.BlockTable(B.frame_layout(built, mode.blf_hz, fs), 37.0, modulation, zeroing,
                         halfwidth)
    got = table.blocks(np.concatenate([states for _, _, states in built]))
    assert np.array_equal(got.count, want.count)
    # each sample has unit-order magnitude: compare per summed sample
    assert np.all(np.abs(got.z - want.z) <= 1e-12 * want.count)
    assert np.all(np.abs(got.tau - want.tau) <= 1e-12)
    assert got.span_s == want.span_s


@pytest.mark.parametrize("modulation, zeroing", [("ask", True), ("psk", True), ("ask", False)])
def test_block_sums_plus_sample_noise_reproduce_estimate_doppler(modulation, zeroing):
    bits16, bits_epc, built = block_parts(MILLER8_40K, "gen2", "both")
    table = E.BlockTable(B.frame_layout(built, 40e3), F_D_1MS, modulation, zeroing)
    signal = table.blocks(np.concatenate([states for _, _, states in built]))
    for seed in range(4):
        # the 36 ms span makes the peak sharp enough to pin it to 1e-9 Hz
        params = B.ChannelParams(f_d_hz=F_D_1MS, ps_n0_dbhz=45.0, seed=seed)
        noisy = B.synthesize_reply(None, MILLER8_40K, modulation, "gen2", bits16, bits_epc,
                                   params, parts="both")
        clean = B.synthesize_reply(None, MILLER8_40K, modulation, "gen2", bits16, bits_epc,
                                   dataclasses.replace(params, ps_n0_dbhz=None), parts="both")
        noise = dataclasses.replace(noisy, samples=noisy.samples - clean.samples)
        noise_blocks = E.integrate_blocks(E.wipe_modulation(noise, ask_zeroing=zeroing))
        blocks = dataclasses.replace(signal, z=signal.z + noise_blocks.z)
        want = E.estimate_doppler(E.wipe_modulation(noisy, ask_zeroing=zeroing)).f_hat_hz
        assert abs(E.search_peak(blocks).f_hat_hz - want) <= 1e-9


def test_block_table_rejects_states_of_another_layout():
    _, _, built = block_parts(MILLER8_40K, "gen2", "epc")
    table = E.BlockTable(B.frame_layout(built, 40e3), 0.0, "psk")
    with pytest.raises(ValueError, match="states"):
        table.blocks(built[0][2][:-1])


@pytest.mark.parametrize("f_d", [1e5, -1e5])
def test_wide_window_coarse_grid_spans_several_chunks(f_d):
    # 2,496 samples, one per block, and 9,356 coarse cells per side: the
    # coarse grid runs in six chunks of k, and the peak lies in the fourth
    params = B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=None, sample_rate_hz=320e3)
    frame = B.synthesize_reply(None, MILLER8_40K, "psk", "gen2", *block_parts(
        MILLER8_40K, "gen2", "rn16")[:2], params, parts="rn16")
    report = E.estimate_doppler(E.wipe_modulation(frame), search_halfwidth_hz=150e3,
                                block_len_s=0)
    assert abs(report.f_hat_hz - f_d) <= 1e-3


def test_estimator_contract_errors():
    frame = make_frame("psk")
    wiped = E.wipe_modulation(frame)
    with pytest.raises(ValueError):
        E.estimate_doppler(wiped, search_halfwidth_hz=frame.sample_rate_hz)
    with pytest.raises(ValueError):
        E.estimate_doppler(wiped, search_halfwidth_hz=0.0)
    empty = E.WipedSignal(samples=np.zeros(64, dtype=complex),
                          support_mask=np.zeros(64, dtype=bool),
                          sample_rate_hz=1.28e6)
    with pytest.raises(ValueError):
        E.estimate_doppler(empty)


def test_estimate_respects_search_halfwidth():
    frame = make_frame("psk", f_d=2.0)
    report = E.estimate_doppler(E.wipe_modulation(frame), search_halfwidth_hz=50.0)
    assert abs(report.f_hat_hz) <= 50.0


def test_rect_model_variance_reaches_the_bound():
    """Empirical variance within [0.9, 1.15] of the MCRB, mean within 3 SEM."""
    for modulation in ("ask", "psk"):
        for parts in ("epc", "both"):
            cfg = X.ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="Miller8",
                                     ps_n0_dbhz=52.8, modulation=modulation,
                                     parts=parts, waveform_model="rect",
                                     trials=1200, seed=99)
            _, _, rows = X.run_mcrb_experiment(cfg)
            row = rows[0]
            ratio = row["emp_var_hz2"] / row["mcrb_var_hz2"]
            assert 0.9 <= ratio <= 1.15, (modulation, parts, ratio)
            sem = math.sqrt(row["emp_var_hz2"] / row["trials"])
            assert abs(row["emp_mean_err_hz"]) <= 3 * sem, (modulation, parts)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_motion_examples():
    assert E.classify_motion(6.0, 1.0, 900e6) == "moving"     # threshold ~3 Hz
    assert E.classify_motion(0.0, 1.0, 900e6) == "static"
    assert E.classify_motion(-4.0, 1.0, 900e6) == "moving"    # magnitude rule
    threshold = bd.doppler_shift(1.0, 900e6) / 2
    assert E.classify_motion(threshold, 1.0, 900e6) == "moving"   # tie -> moving
    assert E.classify_motion(math.nextafter(threshold, 0.0), 1.0, 900e6) == "static"


def test_classify_motion_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        E.classify_motion(1.0, 0.0, 900e6)
