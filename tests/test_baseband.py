"""Waveform synthesis: encoders, energy calibration, noise, frame layout."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import merged_runs, part_slices, reply_frame, reply_layout, reply_states
from rfid_doppler import baseband as B
from rfid_doppler import protocol as P

MILLER8_40K = P.ReaderMode("m8-40k", 40e3, P.MILLER8)
MILLER8_ODD = P.ReaderMode("m8-41.2k", 41204.0, P.MILLER8)


def noiseless(f_d=0.0, seed=0):
    return B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=None, seed=seed)


def two_part_frame(modulation="ask", waveform="gen2", mode=MILLER8_40K, f_d=0.0,
                   ps_n0=None, seed=0, parts="both"):
    rng = np.random.Generator(np.random.Philox(key=42))
    bits16 = rng.integers(0, 2, 16)
    bits_epc = rng.integers(0, 2, mode.epc_bits + 16)
    params = B.ChannelParams(f_d_hz=f_d, ps_n0_dbhz=ps_n0, seed=seed)
    return reply_frame(mode, modulation, waveform, bits16, bits_epc,
                       params, parts=parts)


# ---------------------------------------------------------------------------
# FM0 encoding
# ---------------------------------------------------------------------------

def test_fm0_data_one_has_boundary_inversions_only():
    states = B.encode_fm0([1, 1])
    assert list(states) == [0, 0, 1, 1]
    assert merged_runs(states) == [(0, 2), (1, 2)]


def test_fm0_data_zero_has_mid_bit_inversion():
    assert list(B.encode_fm0([0])) == [0, 1]


def test_fm0_full_signal_length_matches_symbol_counts():
    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 2
    for trext in (False, True):
        expected = P.reply_symbol_counts(P.FM0, len(bits), trext, with_crc=False)
        assert B.encode_fm0(bits, trext).size == 2 * expected


def test_fm0_balance_within_one_bit_exhaustively():
    """FM0 state balance: the imbalance is one full bit period or zero.

    Each data-1 (and the preamble violation) occupies a whole bit in one
    state, with signs alternating over successive full-bit symbols, so the
    net imbalance is exactly one bit when the payload weight is even (the
    end-of-signaling dummy-1 flips the parity) and zero when it is odd.
    """
    for value in range(256):
        bits = [(value >> k) & 1 for k in range(8)]
        ones = sum(bits)
        for trext in (False, True):
            states = B.encode_fm0(bits, trext)
            imbalance = abs(int(np.sum(states == 0)) - int(np.sum(states == 1)))
            assert imbalance in (0, 2)
            assert (imbalance == 0) == (ones % 2 == 1)
        data_only = B.encode_fm0(bits) if ones else B.encode_fm0([0] + bits)
        imbalance = abs(int(np.sum(data_only == 0)) - int(np.sum(data_only == 1)))
        assert imbalance <= 2


# ---------------------------------------------------------------------------
# Miller encoding
# ---------------------------------------------------------------------------

def test_miller_single_bit_is_four_half_cycles_at_m2():
    assert list(B.encode_miller([0], 2)) == [0, 1, 0, 1]
    assert list(B.encode_miller([1], 2)) == [0, 1, 1, 0]


def test_miller_spreads_duration_by_m():
    bits = [1, 0, 0, 1, 1, 0]
    for m in (2, 4, 8):
        assert B.encode_miller(bits, m).size == m * 2 * len(bits)


def test_miller_balance_is_exact():
    for value in range(0, 256, 7):
        bits = [(value >> k) & 1 for k in range(8)]
        for m in (2, 4, 8):
            for trext in (None, False, True):
                states = B.encode_miller(bits, m, trext)
                assert int(np.sum(states == 0)) == int(np.sum(states == 1))


def test_miller_rejects_bad_spread_factor():
    with pytest.raises(ValueError):
        B.encode_miller([1, 0], 3)
    with pytest.raises(ValueError):
        B.encode_miller([1, 0], 1)


def _fm0_loop_reference(bits, trext):
    """Symbol-by-symbol FM0 encoder: the reference for the vectorized one."""
    symbols = []
    if trext is not None:
        if trext:
            symbols += [(0, True)] * 12
        symbols += [(1, True), (0, True), (1, True), (0, True), (1, False), (1, True)]
    symbols += [(int(b), True) for b in bits]
    if trext is not None:
        symbols.append((1, True))
    halves = []
    sign, prev_end = 1, None
    for bit, invert in symbols:
        if prev_end is not None:
            sign = -prev_end if invert else prev_end
        prev_end = sign if bit else -sign
        halves += [sign, prev_end]
    return np.array([(1 - h) // 2 for h in halves], dtype=np.int8)


def _miller_loop_reference(bits, m, trext):
    """Symbol-by-symbol Miller encoder: the reference for the vectorized one."""
    symbols = []
    if trext is not None:
        symbols += [0] * (16 if trext else 4) + [0, 1, 0, 1, 1, 1]
    symbols += [int(b) for b in bits]
    if trext is not None:
        symbols.append(1)
    baseband = []
    sign = 1
    for i, bit in enumerate(symbols):
        if i > 0:
            prev_end = baseband[-1]
            sign = -prev_end if (symbols[i - 1] == 0 and bit == 0) else prev_end
        baseband += [sign, -sign if bit else sign]
    signs = []
    for value in baseband:
        for j in range(m):
            signs.append(value if j % 2 == 0 else -value)
    return np.array([(1 - v) // 2 for v in signs], dtype=np.int8)


def test_encoders_match_the_loop_reference_on_random_bits():
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(60):
        bits = rng.integers(0, 2, int(rng.integers(1, 140)))
        for trext in (None, False, True):
            got = B.encode_fm0(bits, trext)
            assert got.dtype == np.int8
            assert np.array_equal(got, _fm0_loop_reference(bits, trext))
            for m in (2, 4, 8):
                got = B.encode_miller(bits, m, trext)
                assert got.dtype == np.int8
                assert np.array_equal(got, _miller_loop_reference(bits, m, trext))


def test_encoders_reject_bad_bits():
    with pytest.raises(ValueError):
        B.encode_fm0([])
    with pytest.raises(ValueError):
        B.encode_fm0([0, 2])
    # 2-D bits are a batch of one sequence per row; more dimensions are not
    with pytest.raises(ValueError):
        B.encode_miller([[[0, 1]]], 2)
    with pytest.raises(ValueError):
        B.encode_fm0(np.zeros((3, 0), dtype=np.int8))


def test_batched_encoders_equal_the_row_by_row_encoders():
    rng = np.random.Generator(np.random.Philox(key=78))
    for n_bits in (1, 16, 112):
        bits = rng.integers(0, 2, (7, n_bits)).astype(np.int8)
        for trext in (None, False, True):
            got = B.encode_fm0(bits, trext)
            assert got.dtype == np.int8
            assert np.array_equal(got, np.stack([B.encode_fm0(row, trext) for row in bits]))
            for m in (2, 4, 8):
                got = B.encode_miller(bits, m, trext)
                assert got.dtype == np.int8
                assert np.array_equal(got, np.stack([B.encode_miller(row, m, trext)
                                                     for row in bits]))


def test_rect_states_reflect_first_half_of_every_symbol():
    states = B.rect_states(3, 4)
    assert states.size == 3 * 8
    assert list(states[:8]) == [1, 1, 1, 1, 0, 0, 0, 0]
    assert np.array_equal(states[:8], states[8:16])


# ---------------------------------------------------------------------------
# Frame synthesis
# ---------------------------------------------------------------------------

def test_rect_single_part_matches_direct_formula():
    mode = P.ReaderMode("t", 40e3, P.MILLER2, trext=False)
    f_d = 3.7
    frame = reply_frame(mode, "ask", "rect", None, None,
                        noiseless(f_d=f_d), parts="rn16")
    n_sym = P.reply_symbol_counts(P.MILLER2, 16, False, with_crc=False)
    fs = frame.sample_rate_hz
    per_symbol = int(round(fs * 2 / 40e3))        # samples per symbol period
    n = np.arange(frame.n_samples)
    reflect = (n % per_symbol) < per_symbol // 2
    reference = np.where(reflect, math.sqrt(2.0), 0.0) * \
        np.exp(-2j * math.pi * f_d * n / fs)
    assert frame.n_samples == n_sym * per_symbol
    assert np.allclose(frame.samples, reference, atol=1e-12)


@pytest.mark.parametrize("modulation,waveform", [("ask", "gen2"), ("psk", "gen2"),
                                                 ("ask", "rect"), ("psk", "rect")])
def test_noiseless_average_power_over_parts_is_unity(modulation, waveform):
    frame = two_part_frame(modulation, waveform)
    energy = 0.0
    duration = 0.0
    for i0, i1 in part_slices(reply_layout(MILLER8_40K)):
        energy += float(np.sum(np.abs(frame.samples[i0:i1]) ** 2)) / frame.sample_rate_hz
        duration += (i1 - i0) / frame.sample_rate_hz
    assert energy / duration == pytest.approx(1.0, rel=5e-3)


def test_fm0_ask_power_stays_within_the_parity_wobble():
    # FM0 + ASK carries up to one bit of state imbalance per part, so the
    # worst-case power error of an RN16+EPC frame is 2 bits of 166 symbols.
    mode = P.ReaderMode("fm0-40k", 40e3, P.FM0)
    bound = 2.0 / (35 + 131)
    worst = 0.0
    for seed in range(6):
        rng = np.random.Generator(np.random.Philox(key=seed))
        bits16 = rng.integers(0, 2, 16)
        bits_epc = rng.integers(0, 2, 112)
        frame = reply_frame(mode, "ask", "gen2", bits16, bits_epc,
                            noiseless(), parts="both")
        slices = part_slices(reply_layout(mode))
        energy = sum(float(np.sum(np.abs(frame.samples[i0:i1]) ** 2))
                     for i0, i1 in slices) / frame.sample_rate_hz
        duration = sum((i1 - i0) for i0, i1 in slices) / frame.sample_rate_hz
        worst = max(worst, abs(energy / duration - 1.0))
    assert worst <= bound * (1 + 1e-9)


def test_two_part_layout_and_sample_count():
    frame = two_part_frame()
    timing = P.reply_timing(MILLER8_40K)
    fs = Fraction(frame.sample_rate_hz)
    slices = part_slices(reply_layout(MILLER8_40K))
    assert len(slices) == 2
    assert slices[0][0] == 0
    assert slices[1][0] == round((timing.t_rn16 + timing.t_pause) * fs)
    assert frame.n_samples == math.ceil((timing.t_rn16 + timing.t_pause + timing.t_epc) * fs)
    # pause samples carry no signal state
    gap = slice(slices[0][1], slices[1][0])
    assert np.all(frame.sample_state[gap] == -1)
    assert np.all(frame.samples[gap] == 0)


def test_single_part_selection():
    frame = two_part_frame(parts="epc")
    timing = P.reply_timing(MILLER8_40K)
    assert len(reply_layout(MILLER8_40K, "epc").edges) == 1
    assert frame.n_samples == math.ceil(timing.t_epc * Fraction(frame.sample_rate_hz))


def test_doppler_rotation_preserves_magnitude():
    still = two_part_frame(modulation="psk", f_d=0.0)
    rotated = two_part_frame(modulation="psk", f_d=17.3)
    assert np.allclose(np.abs(still.samples), np.abs(rotated.samples), atol=1e-12)


def test_gen2_miller_and_rect_share_the_reflect_budget():
    for waveform in ("gen2", "rect"):
        frame = two_part_frame("ask", waveform)
        for i0, i1 in part_slices(reply_layout(MILLER8_40K)):
            states = frame.sample_state[i0:i1]
            assert int(np.sum(states == 1)) == (i1 - i0) // 2


def test_default_sample_rate_is_16_per_transition_interval():
    assert P.default_sample_rate(40e3) == 32 * 40e3
    assert P.default_sample_rate(640e3) == 32 * 640e3


def test_every_part_steps_16_samples_from_its_nearest_start_sample():
    # 32 x BLF is exact in floating point, so a half-interval is 16 samples
    # at every BLF, and the edges are those of the rule for any sample rate:
    # each boundary snapped to its nearest sample on its own.  The catalog
    # modes, both ends of the BLF range in every encoding, and 1,000 BLFs
    # drawn over it, each in one encoding in turn
    encodings = list(P.ENCODINGS.values())
    drawn = np.random.Generator(np.random.Philox(key=24)).uniform(P.BLF_MIN_HZ, P.BLF_MAX_HZ,
                                                                   1000)
    modes = [P.find_reader_mode("Mode 290"), P.find_reader_mode("Mode 204")]
    modes += [P.ReaderMode("end", blf, encoding) for blf in (P.BLF_MIN_HZ, P.BLF_MAX_HZ)
              for encoding in encodings]
    modes += [P.ReaderMode("drawn", float(blf), encodings[i % len(encodings)])
              for i, blf in enumerate(drawn)]
    for mode in modes:
        fs = Fraction(P.default_sample_rate(mode.blf_hz))
        m = mode.encoding.spread_factor
        for parts in ("rn16", "epc", "both"):
            signals = P.reply_signals(mode, parts)
            layout = B.frame_layout([(kind, start, 2 * m * n) for kind, start, n in signals],
                                    mode.blf_hz)
            for (_, start, n), edges in zip(signals, layout.edges, strict=True):
                assert edges.size == 2 * m * n + 1
                assert np.all(np.diff(edges) == 16), (mode, parts)
                oracle = np.rint(float(start * fs) + 16.0 * np.arange(edges.size))
                assert np.array_equal(edges, oracle), (mode, parts)


def test_bits_length_contract():
    with pytest.raises(ValueError):
        reply_frame(MILLER8_40K, "ask", "gen2", [0, 1], None,
                    noiseless(), parts="rn16")
    with pytest.raises(ValueError):
        reply_frame(MILLER8_40K, "ask", "gen2", None,
                    [0] * 96, noiseless(), parts="epc")  # missing CRC bits
    # the encoders take a batch of bit rows, a sampled frame only one row
    for rows in (1, 2):
        with pytest.raises(ValueError, match="^states: a sampled frame takes one row"):
            reply_frame(MILLER8_40K, "ask", "gen2", [[0, 1] * 8] * rows,
                        [[0, 1] * 56] * rows, noiseless())


def test_modulation_and_model_validation():
    with pytest.raises(ValueError):
        two_part_frame(modulation="fsk")
    with pytest.raises(ValueError):
        two_part_frame(waveform="sawtooth")
    with pytest.raises(ValueError):
        reply_frame(MILLER8_40K, "ask", "rect", None, None,
                    noiseless(), parts="everything")


def _rotation_frame(kind, modulation, f_d, ps_n0=None, seed=9):
    if kind.startswith("reply"):
        # 41,204 Hz: 1,318,528 samples a second, and the EPC starts 0.62 past a sample
        mode = MILLER8_40K if kind == "reply-32xBLF" else MILLER8_ODD
        return two_part_frame(modulation, mode=mode, f_d=f_d, ps_n0=ps_n0, seed=seed)
    states = B.rect_states(4, 8) if kind == "burst-1024" else np.arange(37) % 2
    return B.synthesize_burst(states, 40e3, modulation, B.ChannelParams(f_d, ps_n0, seed=seed))


# sample count of each frame: 32^2 has no partial last block, the others do
ROTATION_FRAMES = {"reply-32xBLF": 46336, "reply-odd-blf": 46341, "burst-1024": 1024,
                   "burst-592": 592}


@pytest.mark.parametrize("kind", sorted(ROTATION_FRAMES))
@pytest.mark.parametrize("modulation", ["ask", "psk"])
@pytest.mark.parametrize("f_d", [0.0, 17.3, -150.0])
def test_noiseless_frame_equals_the_closed_form_rotation(kind, modulation, f_d):
    frame = _rotation_frame(kind, modulation, f_d)
    assert frame.n_samples == ROTATION_FRAMES[kind]
    amp0, amp1 = B.amplitudes(modulation)
    state = frame.sample_state
    n = np.arange(frame.n_samples)
    expected = (np.where(state == 0, amp0, 0) + np.where(state == 1, amp1, 0)) \
        * np.exp(-2j * np.pi * f_d * n / frame.sample_rate_hz)
    assert np.all(frame.samples[state == -1] == 0)
    assert np.max(np.abs(frame.samples - expected)) <= 1e-13
    # the noise of a noisy twin is add_awgn's noise of the same seed
    noisy = _rotation_frame(kind, modulation, f_d, ps_n0=52.8, seed=9)
    noise = B.add_awgn(np.zeros(frame.n_samples, dtype=complex), 52.8,
                       frame.sample_rate_hz, seed=9)
    assert np.max(np.abs(noisy.samples - frame.samples - noise)) <= 1e-12


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_add_awgn_vanishes_at_very_high_ratio():
    frame = two_part_frame("psk")
    noisy = B.add_awgn(frame.samples, 300.0, frame.sample_rate_hz, seed=5)
    assert np.max(np.abs(noisy - frame.samples)) <= 1e-10


def test_add_awgn_variance_calibration():
    fs = 1.0e6
    ratio_db = 30.0
    expected = fs / B.linear_from_db(ratio_db)
    noise = B.add_awgn(np.zeros(10 ** 6, dtype=complex), ratio_db, fs, seed=11)
    measured = float(np.mean(np.abs(noise) ** 2))
    assert measured == pytest.approx(expected, rel=1e-2)
    # independent I/Q, zero mean
    assert float(np.mean(noise.real)) == pytest.approx(0.0, abs=3 * math.sqrt(expected / 2e6))
    assert float(np.mean(noise.real * noise.imag)) == pytest.approx(
        0.0, abs=3 * expected / 2 / math.sqrt(1e6))


def test_add_block_awgn_variance_calibration():
    # one draw per block stands for the sum of ``count`` add_awgn samples
    fs = 1.0e6
    ratio_db = 30.0
    per_sample = fs / B.linear_from_db(ratio_db)
    counts = np.random.Generator(np.random.Philox(key=3)).integers(1, 500, 10 ** 6)
    noise = B.add_block_awgn(np.zeros((1, counts.size), dtype=complex), counts[None],
                             ratio_db, fs, np.random.Generator(np.random.Philox(key=11)))[0]
    normalized = noise / np.sqrt(counts * per_sample)
    assert float(np.mean(np.abs(normalized) ** 2)) == pytest.approx(1.0, rel=1e-2)
    assert float(np.mean(normalized.real)) == pytest.approx(0.0, abs=3 * math.sqrt(0.5 / 1e6))
    assert float(np.mean(normalized.real * normalized.imag)) == pytest.approx(
        0.0, abs=3 * 0.5 / math.sqrt(1e6))
    # a generator with key K draws the noise of add_awgn with seed K, scaled per block
    zeros = np.zeros(4096, dtype=complex)
    assert np.array_equal(B.add_block_awgn(zeros[None], np.ones((1, zeros.size)), ratio_db, fs,
                                           np.random.Generator(np.random.Philox(key=5)))[0],
                          B.add_awgn(zeros, ratio_db, fs, seed=5))


def test_batched_block_noise_equals_row_by_row_draws():
    # the rows take one complex value per block, zero-count blocks included,
    # one after another from the generator
    rng = np.random.Generator(np.random.Philox(key=4))
    counts = rng.integers(0, 3, (5, 40)).astype(np.float64)
    sums = np.where(counts > 0, rng.standard_normal(counts.shape) + 0j, 0.0)

    def generator():
        return np.random.Generator(np.random.Philox(key=101))

    noisy = B.add_block_awgn(sums, counts, 40.0, 1e6, generator())
    rows = generator()
    sigma = math.sqrt(1e6 / B.linear_from_db(40.0) / 2.0)
    values = generator().standard_normal(2 * counts.size).view(complex).reshape(counts.shape)
    for row in range(counts.shape[0]):
        keep = counts[row] > 0
        # the row alone, as the next call on one generator
        assert np.array_equal(noisy[row], B.add_block_awgn(sums[row:row + 1],
                                                           counts[row:row + 1], 40.0, 1e6,
                                                           rows)[0])
        # the row's stride of the stream, scaled by its blocks' counts
        assert np.array_equal(noisy[row][keep],
                              sums[row][keep] + np.sqrt(counts[row][keep])
                              * (sigma * values[row][keep]))
        assert np.all(noisy[row][keep] != sums[row][keep])
        # a zero-count block stays exactly its input
        assert np.array_equal(noisy[row][~keep], sums[row][~keep])
    # block sums that would broadcast against the counts
    with pytest.raises(ValueError, match="one shape"):
        B.add_block_awgn(sums[:, :1], counts, 40.0, 1e6, generator())
    with pytest.raises(ValueError, match="row"):
        B.add_block_awgn(sums[0], counts[0], 40.0, 1e6, generator())


def test_add_awgn_is_deterministic_per_seed():
    base = np.ones(4096, dtype=complex)
    first = B.add_awgn(base, 40.0, 1.28e6, seed=123)
    second = B.add_awgn(base, 40.0, 1.28e6, seed=123)
    other = B.add_awgn(base, 40.0, 1.28e6, seed=124)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)


# ---------------------------------------------------------------------------
# Frame layout
# ---------------------------------------------------------------------------

def test_part_slices_and_sample_state_follow_the_half_interval_grid():
    frame = two_part_frame("psk", "gen2")
    rng = np.random.Generator(np.random.Philox(key=42))   # the bits of two_part_frame
    bits16, bits_epc = rng.integers(0, 2, 16), rng.integers(0, 2, MILLER8_40K.epc_bits + 16)
    encoded = [B.encode_miller(bits, 8, MILLER8_40K.trext) for bits in (bits16, bits_epc)]
    timing = P.reply_timing(MILLER8_40K)
    fs = Fraction(frame.sample_rate_hz)
    half = Fraction(1, 2) / Fraction(40e3)
    starts = [Fraction(0), timing.t_rn16 + timing.t_pause]
    slices = part_slices(reply_layout(MILLER8_40K))
    for (i0, i1), start, states in zip(slices, starts, encoded, strict=True):
        edges = [round((start + j * half) * fs) for j in range(states.size + 1)]
        assert (i0, i1) == (edges[0], edges[-1])
        for state, a, b in zip(states, edges, edges[1:]):
            assert b > a and np.all(frame.sample_state[a:b] == state)
    (_, pause_start), (pause_end, end) = slices
    assert pause_end - pause_start == round(timing.t_pause * fs)
    assert np.all(frame.sample_state[pause_start:pause_end] == -1)
    assert np.all(frame.sample_state[end:] == -1)


def test_synthesize_burst_single_part():
    states = B.rect_states(40, 8)
    frame = B.synthesize_burst(states, 40e3, "ask", noiseless())
    assert np.all(frame.sample_state >= 0)
    assert frame.n_samples == 40 * round(frame.sample_rate_hz * 8 / 40e3)
    assert float(np.mean(np.abs(frame.samples) ** 2)) == pytest.approx(1.0, rel=1e-12)
    for states in (np.zeros(0, dtype=np.int8), np.zeros((2, 8), dtype=np.int8)):
        with pytest.raises(ValueError, match="^states: a sampled frame takes one row"):
            B.synthesize_burst(states, 40e3, "ask", noiseless())


@pytest.mark.parametrize("mode, waveform", [(MILLER8_40K, "gen2"), (MILLER8_40K, "rect"),
                                            (P.ReaderMode("fm0", 640e3, P.FM0), "gen2"),
                                            (P.ReaderMode("fm0", 640e3, P.FM0), "rect")])
def test_one_signal_burst_spec_gives_the_burst_frame(mode, waveform):
    # a burst of 40 symbols: 40 less the preamble and end symbol payload bits
    enc = mode.encoding
    n_bits = 40 - P.preamble_symbols(enc, mode.trext) - 1
    bits = np.random.Generator(np.random.Philox(key=8)).integers(0, 2, n_bits)
    if waveform == "rect":
        states = B.rect_states(40, enc.spread_factor)
    elif enc.is_miller:
        states = B.encode_miller(bits, enc.spread_factor, mode.trext)
    else:
        states = B.encode_fm0(bits, mode.trext)
    params = B.ChannelParams(f_d_hz=37.0, ps_n0_dbhz=50.0, seed=4)
    signals = [("burst", Fraction(0), 40)]
    assert B.payload_bits(mode, waveform, signals) == [n_bits if waveform == "gen2" else 0]
    spec_states = B.frame_states(mode, waveform, signals, bits)
    assert np.array_equal(spec_states, states)
    layout = B.frame_layout([("burst", Fraction(0), spec_states.size)], mode.blf_hz)
    spec = B.synthesize_reply(spec_states, layout, "ask", params)
    burst = B.synthesize_burst(states, mode.blf_hz, "ask", params)
    assert spec.n_samples == burst.n_samples == layout.n_samples
    assert np.array_equal(spec.sample_state, burst.sample_state)
    assert np.array_equal(spec.samples, burst.samples)


def test_synthesize_reply_takes_one_row_of_its_layouts_states():
    layout = reply_layout(MILLER8_40K)
    states = reply_states(MILLER8_40K, "rect", None, None)
    assert B.synthesize_reply(states, layout, "ask", noiseless()).n_samples == layout.n_samples
    for bad in (states[:-1], np.append(states, 0), np.stack([states, states]), states[None]):
        with pytest.raises(ValueError, match="^states: a sampled frame takes one row of the "
                                             f"{states.size} states of its layout"):
            B.synthesize_reply(bad, layout, "ask", noiseless())


def test_frame_states_rejects_a_wrong_bit_count():
    signals = P.reply_signals(MILLER8_40K, "both")
    assert B.payload_bits(MILLER8_40K, "gen2", signals) == [16, 112]
    for bits in ([0] * 127, [[0] * 129] * 2, None):
        with pytest.raises(ValueError, match="^bits: "):
            B.frame_states(MILLER8_40K, "gen2", signals, bits)
    with pytest.raises(ValueError, match="^bits: bits must be 0 or 1"):
        B.frame_states(MILLER8_40K, "gen2", signals, [2] * 128)
    rows = B.frame_states(MILLER8_40K, "gen2", signals, np.zeros((3, 128), dtype=np.int8))
    assert rows.shape == (3, 2 * 8 * sum(n for _, _, n in signals))
