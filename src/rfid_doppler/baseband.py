"""Complex-baseband synthesis of Gen2 backscatter replies.

A tag reply is modeled as piecewise-constant backscatter states (0 = "zero
mode"/absorb, 1 = "one mode"/reflect) on a half-interval grid of 1/(2 BLF)
seconds, the shortest interval between state transitions for both FM0 (half
a bit) and Miller (half a subcarrier cycle).  States are mapped to complex
amplitudes (ASK: 0 / sqrt(2 P_S); PSK: +sqrt(P_S) / -sqrt(P_S), P_S = 1),
rotated by the Doppler term exp(-j 2 pi f_d t) with t = 0 at the start of
the first part, and optionally buried in calibrated complex white noise.

Sampling: every frame is sampled at 32 x BLF, 16 samples per half-interval,
on the grid t_n = n/fs.  A part's start is snapped to the nearest sample and
its half-interval boundaries follow 16 samples apart, so no sample straddles
two states and only the start of the second part can be off the time grid,
by less than one sample.  No result depends on the rate: the noise per
sample is N0 * fs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import protocol
from .bounds import linear_from_db

# Samples of the longest frame synthesized or laid out: 128 MiB as complex128,
# 4x the 0.1 s FM0 bursts of figure 5 at 32 x 640 kHz.
_MAX_FRAME_SAMPLES = 1 << 23


def _as_bits(bits: Sequence[int], what: str) -> np.ndarray:
    """Bits as int8: a 1-D sequence, or a 2-D array of one sequence per row."""
    arr = np.asarray(bits, dtype=np.int8)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError(f"{what}: expected a non-empty 1-D bit sequence or a 2-D array "
                         f"of one per row")
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError(f"{what}: bits must be 0 or 1")
    return arr


def encode_fm0(bits: Sequence[int], trext: Optional[bool] = None) -> np.ndarray:
    """FM0 backscatter states per half-bit interval.

    Bi-phase-space rules: the state inverts at every symbol boundary and a
    data-0 adds a mid-bit inversion.  With ``trext`` given, the full reply
    signal is produced (pilot + preamble + bits + end-of-signaling dummy 1);
    with ``trext=None`` only the data symbols are encoded.  A 2-D ``bits``
    array holds one sequence per row and gives one row of states each.  The
    pilot and preamble are protocol.FM0_PILOT and protocol.FM0_PREAMBLE.
    """
    data = _as_bits(bits, "fm0 bits")
    head: list[tuple[int, bool]] = []     # (bit, inverts at its leading boundary)
    if trext is not None:
        head = [(0, True)] * protocol.FM0_PILOT[bool(trext)] + list(protocol.FM0_PREAMBLE)
    tail = [1] if trext is not None else []
    symbols = _framed([bit for bit, _ in head], data, tail)
    inverts = np.ones(symbols.shape[-1], dtype=np.int8)
    inverts[:len(head)] = [invert for _, invert in head]
    # state inversions before each symbol's first half: one at an inverting
    # boundary, one more after a data-0 (its mid-bit inversion)
    flips = np.zeros(symbols.shape, dtype=np.int64)
    flips[..., 1:] = inverts[1:] + 1 - symbols[..., :-1]
    first = (np.cumsum(flips, axis=-1) & 1).astype(np.int8)
    halves = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.int8)
    halves[..., 0::2] = first
    halves[..., 1::2] = first ^ (1 - symbols)
    return halves


def _framed(head: list, data: np.ndarray, tail: list) -> np.ndarray:
    """head + data + tail symbols along the last axis, on every row of ``data``."""
    rows = data.shape[:-1]
    return np.concatenate([np.broadcast_to(np.array(head, dtype=np.int8), rows + (len(head),)),
                           data,
                           np.broadcast_to(np.array(tail, dtype=np.int8), rows + (len(tail),))],
                          axis=-1)


def encode_miller(bits: Sequence[int], m: int, trext: Optional[bool] = None) -> np.ndarray:
    """Miller-M backscatter states per half-subcarrier-cycle interval.

    Baseband Miller (phase inversion at the boundary between consecutive
    data-0s, mid-bit inversion inside every data-1) multiplied by a square
    subcarrier of M cycles per bit.  ``trext`` and 2-D ``bits`` as in
    :func:`encode_fm0`; the pilot and preamble are protocol.MILLER_PILOT and
    protocol.MILLER_PREAMBLE.
    """
    if m not in (2, 4, 8):
        raise ValueError(f"Miller spread factor must be 2, 4 or 8, got {m}")
    data = _as_bits(bits, "miller bits")
    head: list[int] = []
    if trext is not None:
        head = [0] * protocol.MILLER_PILOT[bool(trext)] + list(protocol.MILLER_PREAMBLE)
    tail = [1] if trext is not None else []
    symbols = _framed(head, data, tail)
    # baseband inversions before each bit's first half: one after a data-1
    # (its mid-bit inversion), one between consecutive data-0s
    flips = np.zeros(symbols.shape, dtype=np.int64)
    flips[..., 1:] = symbols[..., :-1] + (1 - symbols[..., :-1]) * (1 - symbols[..., 1:])
    first = (np.cumsum(flips, axis=-1) & 1).astype(np.int8)
    baseband_states = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.int8)
    baseband_states[..., 0::2] = first
    baseband_states[..., 1::2] = first ^ symbols
    # each half-bit holds m half-cycles of the subcarrier; the product of
    # two +1/-1 signs is the XOR of their states
    subcarrier = np.tile(symbol_half(m, "gen2"), baseband_states.shape[-1])
    return np.repeat(baseband_states, m, axis=-1) ^ subcarrier


def symbol_half(m: int, waveform_model: str) -> np.ndarray:
    """The M states of a half-symbol in state 0: each half of a symbol of 2M
    half-intervals holds its state XOR these, the subcarrier 0, 1, 0, ...
    under 'gen2' (FM0: M = 1), none under 'rect'."""
    if waveform_model == "rect":
        return np.zeros(m, dtype=np.int8)
    return np.arange(m, dtype=np.int8) & 1


def rect_states(n_symbols: int, m: int) -> np.ndarray:
    """Simplified rectangular model: each symbol reflects for its first half.

    One symbol spans 2M half-intervals: M in state 1 (reflect), then M in
    state 0 (absorb), independent of the data.
    """
    if n_symbols < 1:
        raise ValueError(f"symbol count must be >= 1, got {n_symbols}")
    one_symbol = np.concatenate([np.ones(m, dtype=np.int8), np.zeros(m, dtype=np.int8)])
    return np.tile(one_symbol, n_symbols)


@dataclass(frozen=True)
class ChannelParams:
    """Doppler shift, link quality and randomness of one frame."""

    f_d_hz: float
    ps_n0_dbhz: Optional[float]       # None synthesizes a noiseless frame
    seed: int = 0


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth carried by a frame for known-symbol processing."""

    f_d_hz: float
    modulation: str


@dataclass
class BasebandFrame:
    """Sampled complex baseband reply plus the state of every sample.

    ``sample_state`` holds the backscatter state per sample (-1 during the
    pause and any trailing fill); where each part lies is in the
    :class:`FrameLayout` the frame was sampled on.
    """

    sample_rate_hz: float
    samples: np.ndarray
    sample_state: np.ndarray
    truth: FrameTruth

    @property
    def n_samples(self) -> int:
        return self.samples.size


def amplitudes(modulation: str) -> tuple[complex, complex]:
    """(state-0, state-1) complex amplitudes for unit average signal power."""
    if modulation == "ask":
        return 0.0 + 0.0j, math.sqrt(2.0) + 0.0j
    if modulation == "psk":
        return 1.0 + 0.0j, -1.0 + 0.0j
    raise ValueError(f"unknown modulation {modulation!r} (expected 'ask' or 'psk')")


def _complex_noise(rng: np.random.Generator, size: int, ps_n0_dbhz: float,
                   sample_rate_hz: float) -> np.ndarray:
    """``size`` complex white Gaussian samples of variance N0 * fs, N0 = 1/ratio."""
    ratio = linear_from_db(ps_n0_dbhz)
    n0 = 1.0 / ratio
    sigma = math.sqrt(n0 * sample_rate_hz / 2.0)
    # consecutive draws are the real and imaginary part of one sample; scaled
    # in place, so a frame's noise takes one frame-sized array
    noise = rng.standard_normal(2 * size)
    noise *= sigma
    return noise.view(np.complex128)


def add_awgn(samples: np.ndarray, ps_n0_dbhz: float, sample_rate_hz: float,
             seed: int) -> np.ndarray:
    """Add complex white Gaussian noise calibrated to P_S/N0 (P_S = 1).

    Per-sample variance is N0 * fs with N0 = 1/ratio (one-sided density
    convention).  Deterministic for a given seed (counter-based Philox).
    """
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    noisy = _complex_noise(rng, samples.size, ps_n0_dbhz, sample_rate_hz)
    noisy += samples
    return noisy


def add_block_awgn(block_sums: np.ndarray, counts: np.ndarray, ps_n0_dbhz: float,
                   sample_rate_hz: float, rng: np.random.Generator) -> np.ndarray:
    """Add to each block sum the noise of its ``counts`` summed samples.

    ``block_sums`` and ``counts`` hold one frame per row.  The sum of
    ``count`` independent samples of :func:`add_awgn` noise is exactly complex
    Gaussian with variance count * N0 * fs, so one draw per block replaces the
    per-sample draws: the rows take one complex value for every block, row
    after row, from ``rng`` in one call, and a block with count 0 gets its
    value times 0.  A batch therefore draws what consecutive calls with its
    rows would, and with all counts 1 the noise is that of :func:`add_awgn`
    with the generator's key as seed.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or np.shape(block_sums) != counts.shape:
        raise ValueError(f"expected block sums and counts of one shape, one frame per row, "
                         f"got {np.shape(block_sums)} and {counts.shape}")
    noise = _complex_noise(rng, counts.size, ps_n0_dbhz, sample_rate_hz)
    noise *= np.sqrt(counts).ravel()
    return block_sums + noise.reshape(counts.shape)


def doppler_rotation(f_d_hz: float, t_s: np.ndarray) -> np.ndarray:
    """Doppler term exp(-j 2 pi f_d t) at the times ``t_s``."""
    rotation = np.multiply(t_s, -2j * math.pi * f_d_hz)
    return np.exp(rotation, out=rotation)   # in place: no second frame-sized array


def _rotate_uniform(samples: np.ndarray, f_d_hz: float, fs: float) -> None:
    """Multiply sample n by exp(-j 2 pi f_d n/fs), in place and in two levels.

    With n = i L + k and L = isqrt(size), the term is the rotation at the
    block start i L/fs times the rotation at k/fs: about 2 sqrt(size) exp
    calls instead of one per sample, each product within a few ulp of the
    direct exp.
    """
    block = math.isqrt(samples.size)
    starts = doppler_rotation(f_d_hz, np.arange(0, samples.size, block) / fs)
    steps = doppler_rotation(f_d_hz, np.arange(block) / fs)
    full = samples.size // block
    rows = samples[:full * block].reshape(full, block)   # views: no frame-sized temporary
    rows *= starts[:full, None]
    rows *= steps
    tail = samples[full * block:]
    tail *= starts[full:] * steps[:tail.size]   # starts[full:] holds the tail's start, if any


@dataclass(frozen=True)
class FrameLayout:
    """Sample grid of a frame: where each half-interval of each part lies.

    ``edges[p]`` holds the sample index of every half-interval boundary of
    part p (one more than its state count), snapped to the nearest sample;
    samples outside every part belong to the pause or the trailing fill.
    """

    sample_rate_hz: float
    n_samples: int
    edges: tuple


def frame_layout(parts: Sequence[tuple], blf_hz: float) -> FrameLayout:
    """Snap the (kind, exact start time, state count) parts of a frame to its sample grid.

    The grid is :func:`protocol.default_sample_rate`'s: each part's start
    goes to the nearest sample and its boundaries follow 16 samples apart.
    A count may be any int: one whose frame exceeds the frame-size limit is
    refused before any array is made.
    """
    fs = protocol.default_sample_rate(blf_hz)
    fs_frac = Fraction(fs)
    half = Fraction(1, 2) / Fraction(blf_hz)
    n_samples = math.ceil(max(start + count * half for _, start, count in parts) * fs_frac)
    if n_samples > _MAX_FRAME_SAMPLES:
        raise ValueError(f"a frame of {Decimal(n_samples):.6g} samples at {fs:.12g} Hz "
                         f"exceeds the limit of {_MAX_FRAME_SAMPLES} samples per frame")
    return FrameLayout(sample_rate_hz=fs, n_samples=n_samples, edges=tuple(
        round(start * fs_frac) + protocol.SAMPLES_PER_HALF * np.arange(count + 1, dtype=np.int64)
        for _, start, count in parts))


def payload_bits(mode: protocol.ReaderMode, waveform_model: str, signals: Sequence[tuple]) -> list:
    """Payload bits of each (kind, start, symbol count) signal of a frame.

    Under 'gen2' a signal carries its symbol count less the preamble and the
    end symbol; a 'rect' signal carries none.
    """
    if waveform_model not in protocol.WAVEFORM_MODELS:
        raise ValueError(f"unknown waveform model {waveform_model!r}")
    if waveform_model == "rect":
        return [0] * len(signals)
    framing = protocol.preamble_symbols(mode.encoding, mode.trext) + \
        protocol.END_OF_SIGNALING_SYMBOLS
    return [n_symbols - framing for _, _, n_symbols in signals]


def frame_states(mode: protocol.ReaderMode, waveform_model: str, signals: Sequence[tuple],
                 bits: Optional[Sequence[int]]) -> np.ndarray:
    """The states of every signal of a frame, concatenated in signal order.

    ``signals`` are (kind, exact start time, symbol count) triples, such as
    :func:`protocol.reply_signals` gives.  Under 'gen2' a row of ``bits``
    holds the payload bits of every signal in order (:func:`payload_bits`),
    which the mode's FM0/Miller scheme encodes with preamble and end symbol;
    a 2-D array holds one frame per row and gives one row of states each.
    'rect' ignores ``bits`` and gives the data-independent reflect/absorb
    symbol pattern of the simplified model, one 1-D row for every frame.
    """
    sizes = payload_bits(mode, waveform_model, signals)
    enc = mode.encoding
    if waveform_model == "rect":
        return rect_states(sum(n_symbols for _, _, n_symbols in signals), enc.spread_factor)
    bits = _as_bits([] if bits is None else bits, "bits")
    if bits.shape[-1] != sum(sizes):
        raise ValueError(f"bits: expected rows of {sum(sizes)} payload bits, got {bits.shape[-1]}")

    def encode(row):
        return encode_miller(row, enc.spread_factor, mode.trext) if enc.is_miller \
            else encode_fm0(row, mode.trext)
    return np.concatenate([encode(row) for row in np.split(bits, np.cumsum(sizes)[:-1], axis=-1)],
                          axis=-1)


def synthesize_reply(states: np.ndarray, layout: FrameLayout, modulation: str,
                     params: ChannelParams) -> BasebandFrame:
    """Sample, modulate, Doppler-rotate and (optionally) add noise to one frame.

    ``states`` is one row of states per half-interval, every part's in
    order, such as :func:`frame_states` gives; ``layout`` places each part's
    share of them on the sample grid.
    """
    n_states = [edges.size - 1 for edges in layout.edges]
    states = np.asarray(states)
    if states.shape != (sum(n_states),) or not states.size:
        raise ValueError(f"states: a sampled frame takes one row of the {sum(n_states)} states "
                         f"of its layout, got shape {states.shape}")
    sample_state = np.full(layout.n_samples, -1, dtype=np.int8)
    for part, edges in zip(np.split(states, np.cumsum(n_states)[:-1]), layout.edges):
        sample_state[edges[0]:edges[-1]] = np.repeat(part, np.diff(edges))

    # state -1 (pause and fill) indexes the trailing 0
    samples = np.array([*amplitudes(modulation), 0.0])[sample_state]
    fs = layout.sample_rate_hz
    _rotate_uniform(samples, params.f_d_hz, fs)

    if params.ps_n0_dbhz is not None:
        samples = add_awgn(samples, params.ps_n0_dbhz, fs, params.seed)

    return BasebandFrame(sample_rate_hz=fs, samples=samples, sample_state=sample_state,
                         truth=FrameTruth(f_d_hz=params.f_d_hz, modulation=modulation))


def synthesize_burst(states: np.ndarray, blf_hz: float, modulation: str,
                     params: ChannelParams) -> BasebandFrame:
    """Synthesize one part of prebuilt 0/1 ``states`` starting at t = 0."""
    return synthesize_reply(states, frame_layout([("burst", Fraction(0), len(states))], blf_hz),
                            modulation, params)
