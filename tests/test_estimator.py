"""Wipe-off, periodogram estimation, and the threshold classifier.

The Monte Carlo tightness checks here run the simplified rectangular signal
model; the acceptance suite runs the same checks on the full Gen2 waveforms.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from conftest import part_slices, reply_frame, reply_layout, reply_words, sample_blocks
from rfid_doppler import baseband as B
from rfid_doppler import bounds as bd
from rfid_doppler import estimator as E
from rfid_doppler import experiments as X
from rfid_doppler import protocol as P

MILLER8_40K = P.ReaderMode("m8-40k", 40e3, P.MILLER8)
MILLER8_HALF = B.symbol_half(8, "gen2")
F_D_1MS = bd.doppler_shift(1.0, 868e6)          # 5.79 Hz


def make_frame(modulation="psk", waveform="gen2", f_d=F_D_1MS, ps_n0=None,
               parts="both", seed=0):
    rng = np.random.Generator(np.random.Philox(key=1234))
    bits16 = rng.integers(0, 2, 16)
    bits_epc = rng.integers(0, 2, 112)
    params = B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=ps_n0, seed=seed)
    return reply_frame(MILLER8_40K, modulation, waveform,
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
    for i0, i1 in part_slices(reply_layout(MILLER8_40K)):
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
        (_, pause_start), (pause_end, _) = part_slices(reply_layout(MILLER8_40K))
        gap = slice(pause_start, pause_end)
        assert not wiped.support_mask[gap].any()
        assert np.all(wiped.samples[gap] == 0)


# ---------------------------------------------------------------------------
# Doppler estimation
# ---------------------------------------------------------------------------

def test_noiseless_single_part_estimate():
    frame = make_frame("ask", parts="epc")
    report = E.estimate_doppler(E.wipe_modulation(frame))
    assert abs(report.f_hat_hz - F_D_1MS) <= 1e-3
    assert report.refinement_iterations > 0
    # one frame's estimate comes as numbers, not as one-entry arrays
    assert type(report.f_hat_hz) is float
    assert type(report.refinement_iterations) is int


@pytest.mark.parametrize("f_d", [F_D_1MS, -4.0, 0.0, 55.0])
def test_noiseless_two_part_estimate_signed(f_d):
    frame = make_frame("psk", f_d=f_d)
    report = E.estimate_doppler(E.wipe_modulation(frame))
    assert abs(report.f_hat_hz - f_d) <= 1e-3


def test_blockless_evaluation_agrees_with_blocked():
    frame = make_frame("psk", f_d=12.5, parts="epc")
    wiped = E.wipe_modulation(frame)
    blocked = E.estimate_doppler(wiped)
    exact = E.search_peak(sample_blocks(wiped)).f_hat_hz[0]
    assert abs(blocked.f_hat_hz - exact) <= 1e-3


def test_sample_by_sample_blocks_keep_every_sample():
    frame = make_frame("ask", parts="both", ps_n0=60.0, seed=3)
    wiped = E.wipe_modulation(frame)
    # a window of fs/16 makes a block 1/(16 W) = one sample long
    blocks = E.integrate_blocks(wiped, frame.sample_rate_hz / 16)
    t = np.arange(frame.n_samples) / frame.sample_rate_hz
    # one block per sample, the masked-out ones (pause, absorb states) as zeros
    assert np.array_equal(blocks.z, wiped.samples[None])
    assert np.array_equal(blocks.count, wiped.support_mask[None].astype(float))
    assert np.array_equal(blocks.tau, (t * wiped.support_mask)[None])
    masked = np.flatnonzero(wiped.support_mask)
    assert np.array_equal(blocks.span_s, [t[masked[-1]] - t[masked[0]]])
    # the sample-by-sample oracle of the other tests holds the same sums
    oracle = sample_blocks(wiped)
    for name in ("z", "count", "tau", "span_s"):
        assert np.array_equal(getattr(blocks, name), getattr(oracle, name))


def test_block_sums_take_only_the_batch_form():
    z = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="one row per frame"):
        E.BlockSums(z=z, count=np.ones(4), tau=np.arange(4.0), span_s=3.0)
    # a 2-D batch needs one span per row
    with pytest.raises(ValueError, match="one row per frame"):
        E.BlockSums(z=z[None], count=np.ones((1, 4)), tau=np.arange(4.0)[None], span_s=3.0)
    E.BlockSums(z=z[None], count=np.ones((1, 4)), tau=np.arange(4.0)[None],
                span_s=np.array([3.0]))


FM0_160K = P.ReaderMode("fm0-160k", 160e3, P.FM0)


def block_parts(mode, waveform, parts, seed=5):
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits16 = rng.integers(0, 2, 16)
    bits_epc = rng.integers(0, 2, mode.epc_bits + 16)
    return bits16, bits_epc, reply_words(mode, waveform, bits16, bits_epc, parts)


def scaled(mode, blf_scale):
    """``mode`` at ``blf_scale`` times its BLF."""
    return dataclasses.replace(mode, blf_hz=mode.blf_hz * blf_scale)


# At 1.0301 x BLF the EPC starts between samples, 0.29 to 0.62 past one, and
# the blocks cut half-intervals apart: 412 samples at 200 Hz for Miller-8, and
# 16 at 20 kHz for FM0, where the EPC's half-intervals start at 15 mod 16.  At
# the round BLFs a 20 kHz window makes the FM0 blocks one half-interval each.
BLF_SCALES = pytest.mark.parametrize("blf_scale", [1.0, 1.0301], ids=["round-blf", "odd-blf"])


@pytest.mark.parametrize("mode, halfwidth", [(MILLER8_40K, 200.0), (FM0_160K, 20e3)],
                         ids=["miller8", "fm0"])
@BLF_SCALES
@pytest.mark.parametrize("modulation, zeroing", [("ask", True), ("psk", True), ("ask", False)])
@pytest.mark.parametrize("waveform", ["gen2", "rect"])
@pytest.mark.parametrize("parts", ["rn16", "epc", "both"])
def test_block_table_matches_wiped_sample_frame(mode, halfwidth, blf_scale, modulation, zeroing,
                                                waveform, parts):
    mode = scaled(mode, blf_scale)
    bits16, bits_epc, words = block_parts(mode, waveform, parts)
    params = B.ChannelParams(f_d_hz=37.0, ps_n0_dbhz=None)
    frame = reply_frame(mode, modulation, waveform, bits16, bits_epc, params, parts=parts)
    wiped = E.wipe_modulation(frame, ask_zeroing=zeroing)
    want = E.integrate_blocks(wiped, halfwidth)
    table = E.BlockTable(reply_layout(mode, parts),
                         B.symbol_half(mode.encoding.spread_factor, waveform), 37.0, modulation,
                         zeroing, halfwidth)
    got = table.blocks(words[None])
    # every block of the frame, the pause's too, in both
    assert got.z.shape == want.z.shape == (1, math.ceil(frame.n_samples / E._block_samples(
        frame.sample_rate_hz, halfwidth, frame.n_samples)))
    if parts == "both":
        assert (want.count == 0).any()
    assert np.array_equal(got.count, want.count)
    # each sample has unit-order magnitude: compare per summed sample, and a
    # block without masked samples exactly
    assert np.all(np.abs(got.z - want.z) <= 1e-12 * want.count)
    assert np.all(np.abs(got.tau - want.tau) <= 1e-12)
    assert np.array_equal(got.span_s, want.span_s)


@pytest.mark.parametrize("halfwidth", [1e-300, 5e-324])
def test_a_block_is_never_longer_than_its_frame(halfwidth):
    # 1/(16 W) is 6e298 s at W = 1e-300 Hz, and times fs inf at 5e-324 Hz; at
    # 1 Hz, 80,000 samples, the block is already capped at 1/32 of the
    # 46,336-sample frame, 1,448 samples, so the frame has 32 blocks
    layout = reply_layout(MILLER8_40K)
    assert E._block_samples(layout.sample_rate_hz, halfwidth, layout.n_samples) == \
        layout.n_samples // 32 == 1448
    _, _, words = block_parts(MILLER8_40K, "gen2", "both")
    capped, narrow = (E.BlockTable(layout, MILLER8_HALF, 0.0, "ask", True, w).blocks(
        words[None]) for w in (1.0, halfwidth))
    wiped = E.wipe_modulation(make_frame("ask"))
    for got, want in ((narrow, capped),
                      (E.integrate_blocks(wiped, halfwidth), E.integrate_blocks(wiped, 1.0))):
        assert got.z.shape == (1, 32)
        for name in ("z", "count", "tau", "span_s"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("parts", ["rn16", "epc", "both"])
@pytest.mark.parametrize("mode", P._BUILTIN_MODES, ids=lambda mode: mode.label)
def test_block_centroids_keep_the_samples_time_spread(mode, parts):
    # The Fisher information for the frequency of a tone is proportional to
    # the spread of its sample times about their mean.  A block keeps only
    # its samples' centroid, and so loses their spread about it: N equal
    # blocks keep 1 - 1/N^2 of it.  Checked on the signal parts' samples, the
    # mask of a PSK frame, in blocks of the default 200 Hz window.
    layout = reply_layout(mode, parts)
    fs, n = layout.sample_rate_hz, layout.n_samples
    index = np.concatenate([np.arange(i0, i1) for i0, i1 in part_slices(layout)])
    t = index / fs
    block = index // E._block_samples(fs, 200.0, n)
    count = np.bincount(block)
    tau = np.bincount(block, t)[count > 0] / count[count > 0]
    samples = float(((t - t.mean()) ** 2).sum())
    centroids = float((count[count > 0] * (tau - t.mean()) ** 2).sum())
    assert centroids / samples >= 0.999


@pytest.mark.parametrize("parts", ["rn16", "epc", "both"])
@pytest.mark.parametrize("blf", [40e3, 160e3, 640e3])
@pytest.mark.parametrize("encoding", [P.FM0, P.MILLER2, P.MILLER4, P.MILLER8],
                         ids=lambda encoding: encoding.name)
def test_a_noiseless_frame_gives_its_shift(encoding, blf, parts):
    # an FM0 RN16 reply at 640 kHz is 0.05 ms long, shorter than one block of
    # 1/(16 x 200 Hz): as a single block its periodogram was flat, and it
    # estimated -44.6 Hz for 37 Hz
    mode = P.ReaderMode("sweep", blf, encoding)
    n16, n_epc = B.payload_bits(mode, "gen2", P.reply_signals(mode, "both"))
    rng = np.random.Generator(np.random.Philox(key=37))
    frame = reply_frame(mode, "psk", "gen2", rng.integers(0, 2, n16), rng.integers(0, 2, n_epc),
                        B.ChannelParams(f_d_hz=37.0, ps_n0_dbhz=None), parts=parts)
    assert abs(E.estimate_doppler(E.wipe_modulation(frame)).f_hat_hz - 37.0) <= 1e-3


@pytest.mark.parametrize("modulation, zeroing", [("ask", True), ("psk", True), ("ask", False)])
def test_block_sums_plus_sample_noise_reproduce_estimate_doppler(modulation, zeroing):
    bits16, bits_epc, words = block_parts(MILLER8_40K, "gen2", "both")
    table = E.BlockTable(reply_layout(MILLER8_40K), MILLER8_HALF, F_D_1MS, modulation, zeroing)
    signal = table.blocks(words[None])
    for seed in range(4):
        # the 36 ms span makes the peak sharp enough to pin it to 1e-9 Hz
        params = B.ChannelParams(f_d_hz=F_D_1MS, ps_n0_dbhz=45.0, seed=seed)
        noisy = reply_frame(MILLER8_40K, modulation, "gen2", bits16, bits_epc,
                            params, parts="both")
        clean = reply_frame(MILLER8_40K, modulation, "gen2", bits16, bits_epc,
                            dataclasses.replace(params, ps_n0_dbhz=None), parts="both")
        noise = dataclasses.replace(noisy, samples=noisy.samples - clean.samples)
        noise_blocks = E.integrate_blocks(E.wipe_modulation(noise, ask_zeroing=zeroing))
        blocks = dataclasses.replace(signal, z=signal.z + noise_blocks.z)
        want = E.estimate_doppler(E.wipe_modulation(noisy, ask_zeroing=zeroing)).f_hat_hz
        assert abs(E.search_peak(blocks).f_hat_hz[0] - want) <= 1e-9


def per_piece_blocks(layout, f_d_hz, modulation, zeroing, halfwidth, states):
    """The block sums of a batch of state rows, piece by piece: the oracle of
    BlockTable.

    Every half-interval is split at the block edges; each piece takes the
    Doppler rotation sum, sample count and time sum of its samples, weighted
    by the wiped amplitude and mask of its own state, and the pieces of each
    block are added in time order.
    """
    fs = layout.sample_rate_hz
    b = E._block_samples(fs, halfwidth, layout.n_samples)
    starts, ends, halves, n_half = [], [], [], 0
    for edges in layout.edges:
        part_starts = np.union1d(edges[:-1], np.arange((edges[0] // b + 1) * b, edges[-1], b))
        starts.append(part_starts)
        ends.append(np.append(part_starts[1:], edges[-1]))
        halves.append(n_half + np.searchsorted(edges, part_starts, side="right") - 1)
        n_half += edges.size - 1
    starts, ends, half = map(np.concatenate, (starts, ends, halves))
    lengths = ends - starts
    partial = np.cumsum(B.doppler_rotation(f_d_hz, np.arange(lengths.max()) / fs))
    rotation = B.doppler_rotation(f_d_hz, starts / fs) * partial[lengths - 1]
    signs, kept = E._wipe_rule(modulation, zeroing)
    amps = B.amplitudes(modulation)
    piece_state = states[:, half]
    amp = np.array([amps[s] * signs[s] if kept[s] else 0.0 for s in (0, 1)])[piece_state]
    mask = np.array(kept)[piece_state]
    block = starts // b
    block_starts = np.flatnonzero(np.diff(block, prepend=-1))

    def grid(values):
        out = np.zeros((states.shape[0], -(-layout.n_samples // b)), dtype=values.dtype)
        out[:, block[block_starts]] = np.add.reduceat(values, block_starts, axis=1)
        return out
    count = grid(mask * lengths.astype(float))
    tau = grid(mask * ((starts + ends - 1) * lengths / (2.0 * fs))) / np.maximum(count, 1.0)
    first, last = mask.argmax(axis=1), mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    span = E._span(starts[first] / fs, (ends[last] - 1) / fs, fs)
    return E.BlockSums(z=grid(amp * rotation), count=count, tau=tau, span_s=span)


MILLER2_160K = P.ReaderMode("m2-160k", 160e3, P.MILLER2)
MILLER4_160K = P.ReaderMode("m4-160k", 160e3, P.MILLER4)


@pytest.mark.parametrize("mode", [FM0_160K, MILLER2_160K, MILLER4_160K, MILLER8_40K],
                         ids=["fm0", "miller2", "miller4", "miller8"])
@pytest.mark.parametrize("halfwidth", [200.0, 20e3])
@BLF_SCALES
@pytest.mark.parametrize("parts", ["rn16", "epc", "both"])
def test_word_sums_match_per_piece_sums(mode, halfwidth, blf_scale, parts):
    mode = scaled(mode, blf_scale)
    for waveform in ("gen2", "rect"):
        words = np.stack([block_parts(mode, waveform, parts, seed)[2] for seed in range(4)])
        half = B.symbol_half(mode.encoding.spread_factor, waveform)
        states = B.symbol_states(words, half)
        layout = reply_layout(mode, parts)
        for modulation, zeroing in (("ask", True), ("ask", False), ("psk", True)):
            table = E.BlockTable(layout, half, 37.0, modulation, zeroing, halfwidth)
            got = table.blocks(words)
            want = per_piece_blocks(layout, 37.0, modulation, zeroing, halfwidth, states)
            assert np.array_equal(got.count, want.count)
            # relative to each block's own sums; a block without masked
            # samples holds exact zeros in both
            for name in ("z", "tau", "span_s"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (waveform, modulation, name)


@pytest.mark.parametrize("modulation", ["ask", "psk"])
@pytest.mark.parametrize("zeroing", [True, False])
def test_block_table_ignores_states_exactly_when_it_says_so(modulation, zeroing):
    # rows of the words of random bits
    table = E.BlockTable(reply_layout(MILLER8_40K), MILLER8_HALF, F_D_1MS, modulation, zeroing)
    words = np.stack([block_parts(MILLER8_40K, "gen2", "both", seed)[2]
                      for seed in range(9, 14)])
    assert len({row.tobytes() for row in words}) == 5
    blocks = table.blocks(words)
    same = all(np.array_equal(a, np.broadcast_to(a[:1], a.shape))
               for a in (blocks.z, blocks.count, blocks.tau, blocks.span_s))
    assert same == (not table.depends_on_words)
    # PSK wipes both states to +1 and keeps both; ASK never
    assert table.depends_on_words == (modulation == "ask")


def test_block_table_rejects_states_of_another_layout():
    _, _, words = block_parts(MILLER8_40K, "gen2", "epc")
    table = E.BlockTable(reply_layout(MILLER8_40K, "epc"), MILLER8_HALF, 0.0, "psk")
    for bad in (words[None, :-1], words[None].astype(np.int64),
                # one frame is a batch of one row
                words):
        with pytest.raises(ValueError, match="^words: "):
            table.blocks(bad)
    # an FM0 part of 35 two-half symbols is no run of 16-half Miller-8 symbols
    with pytest.raises(ValueError, match="symbol_half"):
        E.BlockTable(reply_layout(FM0_160K, "rn16"), MILLER8_HALF, 0.0, "psk")


def test_block_table_rejects_complex_amplitudes(monkeypatch):
    # the table sums the real and imaginary parts of z from real weights
    monkeypatch.setattr(E, "amplitudes", lambda modulation: (1.0 + 0.0j, -1.0 + 0.5j))
    with pytest.raises(ValueError, match="real"):
        E.BlockTable(reply_layout(MILLER8_40K, "epc"), MILLER8_HALF, 0.0, "psk")


@pytest.mark.parametrize("f_d", [1e5, -1e5])
def test_wide_window_coarse_grid_spans_several_chunks(f_d):
    # 9,984 samples, one per block, and 9,359 coarse cells per side: the
    # coarse grid runs in 1,560 chunks of six k, and the peak lies in chunk 1,040
    params = B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=None)
    frame = reply_frame(MILLER8_40K, "psk", "gen2", *block_parts(
        MILLER8_40K, "gen2", "rn16")[:2], params, parts="rn16")
    assert E._block_samples(frame.sample_rate_hz, 150e3, frame.n_samples) == 1
    report = E.estimate_doppler(E.wipe_modulation(frame), search_halfwidth_hz=150e3)
    assert abs(report.f_hat_hz - f_d) <= 1e-3


def _golden_peak(blocks, lo, hi, tol=1e-12):
    """Periodogram peak in [lo, hi] by golden-section search in 40-digit arithmetic.

    Float64 resolves the flat top of a 36 ms frame's periodogram only to
    about 1e-7 Hz, so the reference evaluates it with mpmath.
    """
    with mpmath.workdps(40):
        z = [mpmath.mpc(complex(v)) for v in blocks.z[0]]
        tau = [mpmath.mpf(float(t)) for t in blocks.tau[0]]

        def power(f):
            return abs(mpmath.fsum(zi * mpmath.expj(2 * mpmath.pi * f * ti)
                                   for zi, ti in zip(z, tau))) ** 2

        invphi = (mpmath.sqrt(5) - 1) / 2
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        p1, p2 = power(x1), power(x2)
        while hi - lo > tol:
            if p1 >= p2:
                hi, x2, p2 = x2, x1, p1
                x1 = hi - invphi * (hi - lo)
                p1 = power(x1)
            else:
                lo, x1, p1 = x1, x2, p2
                x2 = lo + invphi * (hi - lo)
                p2 = power(x2)
        return float((lo + hi) / 2)


def _coarse_cell(blocks, halfwidth=200.0):
    """Bracket of the highest cell of the coarse grid, by direct evaluation."""
    df = 1.0 / (E._COARSE_PADDING * blocks.span_s[0])
    k_max = int(halfwidth // df)
    grid = np.arange(-k_max, k_max + 1) * df
    power = np.abs(np.exp(2j * math.pi * np.outer(grid, blocks.tau[0])) @ blocks.z[0]) ** 2
    f0 = grid[int(np.argmax(power))]
    return max(f0 - df, -halfwidth), min(f0 + df, halfwidth)


@pytest.mark.parametrize("mode", [MILLER8_40K, FM0_160K], ids=["miller8-40k", "fm0-160k"])
@pytest.mark.parametrize("modulation", ["ask", "psk"])
@pytest.mark.parametrize("parts", ["epc", "both"])
def test_newton_refinement_finds_the_periodogram_peak(mode, modulation, parts):
    bits16, bits_epc, _ = block_parts(mode, "gen2", parts)
    for seed in range(2):
        params = B.ChannelParams(f_d_hz=F_D_1MS, ps_n0_dbhz=52.8, seed=seed)
        frame = reply_frame(mode, modulation, "gen2", bits16, bits_epc, params,
                            parts=parts)
        blocks = E.integrate_blocks(E.wipe_modulation(frame))
        report = E.search_peak(blocks)
        assert 1 <= report.refinement_iterations[0] <= 8
        assert abs(report.f_hat_hz[0] - _golden_peak(blocks, *_coarse_cell(blocks))) <= 1e-9


def test_batched_search_equals_row_by_row_search():
    # ASK rows of one table, with spans rescaled so that k_max runs from 0
    # to 115: the batch's coarse grid takes two chunks of k, a row alone one
    table = E.BlockTable(reply_layout(MILLER8_40K), MILLER8_HALF, F_D_1MS, "ask")
    rng = np.random.Generator(np.random.Philox(key=21))
    words = np.stack([reply_words(MILLER8_40K, "gen2", rng.integers(0, 2, 16),
                                  rng.integers(0, 2, 112)) for _ in range(8)])
    signal = table.blocks(words)
    noise = 300.0 * (rng.standard_normal(signal.z.shape) + 1j * rng.standard_normal(signal.z.shape))
    span = signal.span_s * np.array([1.0, 0.5, 2.0, 0.1, 1.0, 1e-4, 0.9, 2.0])
    batch = E.BlockSums(z=signal.z + noise * (signal.count > 0), count=signal.count,
                        tau=signal.tau, span_s=span)
    k_max = np.floor(200.0 * 8 * span).astype(int)
    assert k_max.min() == 0 and k_max.max() > 100 and len(set(k_max)) > 4
    together = E.search_peak(batch)
    for row in range(words.shape[0]):
        one = slice(row, row + 1)
        alone = E.search_peak(E.BlockSums(z=batch.z[one], count=batch.count[one],
                                          tau=batch.tau[one], span_s=span[one]))
        assert alone.f_hat_hz[0] == together.f_hat_hz[row]
        assert alone.refinement_iterations[0] == together.refinement_iterations[row]


def test_search_rows_regroups_batches_into_bounded_chunks(monkeypatch):
    # 8 noisy ASK rows in batches of 1, 6 and 1, searched in chunks of 3
    # rows: the batch of 6 fills the rest of one chunk and all of the next
    table = E.BlockTable(reply_layout(MILLER8_40K), MILLER8_HALF, F_D_1MS, "ask")
    rng = np.random.Generator(np.random.Philox(key=23))
    signal = table.blocks(np.stack([reply_words(MILLER8_40K, "gen2", rng.integers(0, 2, 16),
                                                rng.integers(0, 2, 112)) for _ in range(8)]))
    noise = 300.0 * (rng.standard_normal(signal.z.shape) + 1j * rng.standard_normal(signal.z.shape))
    rows = dataclasses.replace(signal, z=signal.z + noise * (signal.count > 0))
    whole = E.search_peak(rows).f_hat_hz
    batches = [E.BlockSums(*(a[lo:hi] for a in (rows.z, rows.count, rows.tau, rows.span_s)))
               for lo, hi in ((0, 1), (1, 7), (7, 8))]
    searched = []
    search = E.search_peak

    def recording_search(blocks, *args, **kwargs):
        searched.append(blocks.z.shape)
        return search(blocks, *args, **kwargs)

    monkeypatch.setattr(E, "search_peak", recording_search)
    monkeypatch.setattr(E, "_CHUNK_ELEMENTS", 3 * rows.z.shape[1] + 2)
    assert np.array_equal(E.search_rows(iter(batches)), whole)
    assert [shape[0] for shape in searched] == [3, 3, 2]
    assert all(a * b <= E._CHUNK_ELEMENTS for a, b in searched)
    assert E.search_rows(iter([])).size == 0


def test_a_block_table_rotated_to_a_shift_equals_one_built_there():
    # at() recomputes only the rotation sums; at the table's own shift it is the table
    _, _, words = block_parts(MILLER8_40K, "gen2", "both")
    layout = reply_layout(MILLER8_40K)
    table = E.BlockTable(layout, MILLER8_HALF, 0.0, "ask")
    assert table.at(0.0) is table
    words = words[None]
    for rotated, f_d in ((table.at(F_D_1MS), F_D_1MS), (table.at(-37.0), -37.0),
                         (table.at(F_D_1MS).at(0.0), 0.0)):
        direct = E.BlockTable(layout, MILLER8_HALF, f_d, "ask").blocks(words)
        for name in ("z", "count", "tau", "span_s"):
            assert np.array_equal(getattr(rotated.blocks(words), name), getattr(direct, name))


@pytest.mark.parametrize("modulation, zeroing", [("ask", True), ("psk", True), ("ask", False)])
def test_block_table_batch_rows_equal_single_frames(modulation, zeroing):
    # FM0 blocks of 15-16 samples: ASK zeroing leaves blocks without masked samples
    rng = np.random.Generator(np.random.Philox(key=22))
    bits = [(rng.integers(0, 2, 16), rng.integers(0, 2, 112)) for _ in range(5)]
    frames = [reply_words(FM0_160K, "gen2", *pair, "both") for pair in bits]
    table = E.BlockTable(reply_layout(FM0_160K), B.symbol_half(1, "gen2"), 37.0,
                         modulation, zeroing, 20e3)
    batch = table.blocks(np.stack(frames))
    if zeroing and modulation == "ask":
        assert (batch.count == 0).any()
    for row, words in enumerate(frames):
        alone = table.blocks(words[None])
        assert np.array_equal(batch.z[row], alone.z[0])
        assert np.array_equal(batch.count[row], alone.count[0])
        assert np.array_equal(batch.tau[row], alone.tau[0])
        assert batch.span_s[row] == alone.span_s[0]
        empty = batch.count[row] == 0
        assert not batch.z[row][empty].any() and not batch.tau[row][empty].any()


def test_degenerate_searches_end_inside_the_window():
    # one block: the periodogram is flat and the refinement bisects the window
    flat = E.BlockSums(z=np.array([[3.0 - 1.0j]]), count=np.ones((1, 1)),
                       tau=np.array([[2e-3]]), span_s=np.array([1e-6]))
    # a 55 us FM0 RN16 reply: the coarse grid has the one cell k_max = 0
    fm0 = P.ReaderMode("fm0-640k", 640e3, P.FM0)
    params = B.ChannelParams(f_d_hz=F_D_1MS, ps_n0_dbhz=90.0, seed=1)
    short = E.integrate_blocks(E.wipe_modulation(reply_frame(
        fm0, "psk", "gen2", block_parts(fm0, "gen2", "rn16")[0], None, params,
        parts="rn16")))
    assert math.floor(200.0 * 8 * short.span_s[0]) == 0
    # a tone just past the window edge: the refinement runs into the edge
    beyond = E.integrate_blocks(E.wipe_modulation(make_frame("psk", f_d=203.0)))
    for blocks in (flat, short, beyond):
        report = E.search_peak(blocks)
        assert math.isfinite(report.f_hat_hz[0]) and abs(report.f_hat_hz[0]) <= 200.0
        assert 1 <= report.refinement_iterations[0] <= E._MAX_REFINE
    assert 200.0 - E.search_peak(beyond).f_hat_hz[0] <= 1e-3


@pytest.mark.parametrize("name, value", [
    ("search_halfwidth_hz", 0.0), ("search_halfwidth_hz", -5.0),
    ("search_halfwidth_hz", math.nan),
])
def test_search_peak_rejects_bad_search_parameters(name, value):
    blocks = E.integrate_blocks(E.wipe_modulation(make_frame("psk")))
    with pytest.raises(ValueError, match=name):
        E.search_peak(blocks, **{name: value})


@pytest.mark.parametrize("name, value", [
    ("search_halfwidth_hz", 0.0), ("search_halfwidth_hz", -5.0),
    ("search_halfwidth_hz", math.nan), ("search_halfwidth_hz", math.inf),
])
def test_block_integration_rejects_bad_block_parameters(name, value):
    wiped = E.wipe_modulation(make_frame("psk"))
    with pytest.raises(ValueError, match=name):
        E.integrate_blocks(wiped, **{name: value})
    if name == "search_halfwidth_hz":
        with pytest.raises(ValueError, match=name):
            E.BlockTable(reply_layout(MILLER8_40K, "epc"), MILLER8_HALF, 0.0, "psk",
                         search_halfwidth_hz=value)


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
