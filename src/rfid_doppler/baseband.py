"""Complex-baseband synthesis of Gen2 backscatter replies.

A tag reply is modeled as piecewise-constant backscatter states (0 = "zero
mode"/absorb, 1 = "one mode"/reflect) on a half-interval grid of 1/(2 BLF)
seconds, the shortest interval between state transitions for both FM0 (half
a bit) and Miller (half a subcarrier cycle).  States are mapped to complex
amplitudes (ASK: 0 / sqrt(2 P_S); PSK: +sqrt(P_S) / -sqrt(P_S), P_S = 1),
rotated by the Doppler term exp(-j 2 pi f_d t) with t = 0 at the start of
the first part, and optionally buried in calibrated complex white noise.

Sampling: the sample grid is t_n = n/fs.  Segment boundaries are snapped to
the nearest sample, so no sample straddles two states; with the default
sample rate (an integer number of samples per half-interval) every in-part
boundary lands exactly on the grid and only the start of the second part can
be off-grid by less than one sample.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import protocol
from .bounds import linear_from_db

MODULATIONS = ("ask", "psk")
WAVEFORM_MODELS = ("gen2", "rect")

_FRAME_DUMP_MAGIC = b"RFIDBB01"
_FRAME_DUMP_HEADER = 64

# FM0 preamble: 1010v1 after an optional 12-symbol pilot of data-0s; the v
# symbol is shaped like a data-1 but skips the inversion at its boundary.
_FM0_PREAMBLE = ((1, True), (0, True), (1, True), (0, True), (1, False), (1, True))
_FM0_PILOT_SYMBOLS = 12
# Miller preamble: 010111 after a pilot of 4 (TRext=0) or 16 (TRext=1) data-0s.
_MILLER_PREAMBLE = (0, 1, 0, 1, 1, 1)
_MILLER_PILOT = {False: 4, True: 16}


def _as_bits(bits: Sequence[int], what: str) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what}: expected a non-empty 1-D bit sequence")
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError(f"{what}: bits must be 0 or 1")
    return arr


def _signs_to_states(signs: np.ndarray) -> np.ndarray:
    # baseband sign +1 -> state 0 ("zero mode"), -1 -> state 1 ("one mode")
    return ((1 - signs) // 2).astype(np.int8)


def encode_fm0(bits: Sequence[int], trext: Optional[bool] = None) -> np.ndarray:
    """FM0 backscatter states per half-bit interval.

    Bi-phase-space rules: the state inverts at every symbol boundary and a
    data-0 adds a mid-bit inversion.  With ``trext`` given, the full reply
    signal is produced (pilot + preamble + bits + end-of-signaling dummy 1);
    with ``trext=None`` only the data symbols are encoded.
    """
    data = _as_bits(bits, "fm0 bits")
    symbols: list[tuple[int, bool]] = []
    if trext is not None:
        if trext:
            symbols += [(0, True)] * _FM0_PILOT_SYMBOLS
        symbols += list(_FM0_PREAMBLE)
    symbols += [(int(b), True) for b in data]
    if trext is not None:
        symbols.append((1, True))

    halves = np.empty(2 * len(symbols), dtype=np.int8)
    sign = 1
    prev_end = None
    for i, (bit, invert) in enumerate(symbols):
        if prev_end is not None:
            sign = -prev_end if invert else prev_end
        halves[2 * i] = sign
        halves[2 * i + 1] = sign if bit else -sign
        prev_end = halves[2 * i + 1]
    return _signs_to_states(halves)


def encode_miller(bits: Sequence[int], m: int, trext: Optional[bool] = None) -> np.ndarray:
    """Miller-M backscatter states per half-subcarrier-cycle interval.

    Baseband Miller (phase inversion at the boundary between consecutive
    data-0s, mid-bit inversion inside every data-1) multiplied by a square
    subcarrier of M cycles per bit.  ``trext`` as in :func:`encode_fm0`.
    """
    if m not in (2, 4, 8):
        raise ValueError(f"Miller spread factor must be 2, 4 or 8, got {m}")
    data = _as_bits(bits, "miller bits")
    symbols: list[int] = []
    if trext is not None:
        symbols += [0] * _MILLER_PILOT[bool(trext)]
        symbols += list(_MILLER_PREAMBLE)
    symbols += [int(b) for b in data]
    if trext is not None:
        symbols.append(1)

    # baseband sign per half-bit
    bb = np.empty(2 * len(symbols), dtype=np.int8)
    sign = 1
    for i, bit in enumerate(symbols):
        if i > 0:
            prev_end = bb[2 * i - 1]
            sign = -prev_end if (symbols[i - 1] == 0 and bit == 0) else prev_end
        bb[2 * i] = sign
        bb[2 * i + 1] = -sign if bit else sign
    # each half-bit holds m half-cycles of the subcarrier (m is even, so a
    # global +1/-1 tiling stays aligned to half-bit starts)
    product = np.repeat(bb, m) * np.tile(np.array([1, -1], dtype=np.int8),
                                         bb.size * m // 2)
    return _signs_to_states(product)


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
    """Doppler shift, link quality, sampling and randomness of one frame."""

    f_d_hz: float
    ps_n0_dbhz: Optional[float]       # None synthesizes a noiseless frame
    sample_rate_hz: Optional[float] = None   # None -> default_sample_rate(blf)
    seed: int = 0


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth carried by a frame for known-symbol processing."""

    f_d_hz: float
    ps_n0_dbhz: Optional[float]
    modulation: str
    waveform_model: str
    bits_rn16: Optional[np.ndarray]
    bits_epc: Optional[np.ndarray]
    seed: int


@dataclass
class BasebandFrame:
    """Sampled complex baseband reply plus its exact state layout.

    ``sample_state`` holds the backscatter state per sample (-1 during the
    pause and any trailing fill).  ``part_slices`` are [start, end) sample
    index pairs per signal part; ``part_spans`` the same in snapped seconds.
    """

    sample_rate_hz: float
    samples: np.ndarray
    sample_state: np.ndarray
    part_slices: list[tuple[int, int]]
    part_spans: list[tuple[float, float]]
    part_kinds: list[str]
    truth: FrameTruth

    @property
    def n_samples(self) -> int:
        return self.samples.size


def default_sample_rate(blf_hz: float) -> float:
    """16 samples per minimal transition interval of 1/(2 BLF)."""
    return 32.0 * float(blf_hz)


def amplitudes(modulation: str) -> tuple[complex, complex]:
    """(state-0, state-1) complex amplitudes for unit average signal power."""
    if modulation == "ask":
        return 0.0 + 0.0j, math.sqrt(2.0) + 0.0j
    if modulation == "psk":
        return 1.0 + 0.0j, -1.0 + 0.0j
    raise ValueError(f"unknown modulation {modulation!r} (expected 'ask' or 'psk')")


def add_awgn(samples: np.ndarray, ps_n0_dbhz: float, sample_rate_hz: float,
             seed: int) -> np.ndarray:
    """Add complex white Gaussian noise calibrated to P_S/N0 (P_S = 1).

    Per-sample variance is N0 * fs with N0 = 1/ratio (one-sided density
    convention).  Deterministic for a given seed (counter-based Philox).
    """
    ratio = linear_from_db(ps_n0_dbhz)
    n0 = 1.0 / ratio
    sigma = math.sqrt(n0 * sample_rate_hz / 2.0)
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    gauss = rng.standard_normal(2 * samples.size)
    return samples + sigma * (gauss[0::2] + 1j * gauss[1::2])


# Monte Carlo loops rotate thousands of frames by the same Doppler frequency
# on the same grid; memoize the rotation vector (a few entries suffice).
_ROTATION_CACHE: dict[tuple, np.ndarray] = {}


def _doppler_rotation(f_d_hz: float, sample_rate_hz: float, n: int) -> np.ndarray:
    key = (f_d_hz, sample_rate_hz, n)
    cached = _ROTATION_CACHE.get(key)
    if cached is None:
        t = np.arange(n) / sample_rate_hz
        cached = np.exp(-2j * math.pi * f_d_hz * t)
        if len(_ROTATION_CACHE) >= 8:
            _ROTATION_CACHE.pop(next(iter(_ROTATION_CACHE)))
        _ROTATION_CACHE[key] = cached
    return cached


def _part_states(kind: str, mode: protocol.ReaderMode, waveform_model: str,
                 bits: Optional[np.ndarray]) -> np.ndarray:
    enc = mode.encoding
    if kind == "rn16":
        n_sym = protocol.reply_symbol_counts(enc, protocol.RN16_BITS, mode.trext, with_crc=False)
        want = protocol.RN16_BITS
    else:
        n_sym = protocol.reply_symbol_counts(enc, mode.epc_bits, mode.trext, with_crc=True)
        want = mode.epc_bits + protocol.CRC16_BITS
    if waveform_model == "rect":
        return rect_states(n_sym, enc.spread_factor)
    if bits is None or bits.size != want:
        got = None if bits is None else bits.size
        raise ValueError(f"{kind} bits must have length {want}, got {got}")
    if enc.is_miller:
        return encode_miller(bits, enc.spread_factor, mode.trext)
    return encode_fm0(bits, mode.trext)


def _assemble_frame(built: list, blf_hz: float, modulation: str, waveform_model: str,
                    params: ChannelParams, bits_rn16, bits_epc) -> BasebandFrame:
    """Sample, modulate, Doppler-rotate and (optionally) add noise.

    ``built`` is a list of (kind, exact start time, state-per-half-interval
    array) triples on the 1/(2 BLF) grid.
    """
    fs = params.sample_rate_hz if params.sample_rate_hz is not None \
        else default_sample_rate(blf_hz)
    half = Fraction(1, 2) / Fraction(blf_hz)
    if fs < 4.0 / float(half):
        raise ValueError(f"sample rate {fs} Hz below 4 samples per transition interval")
    fs_frac = Fraction(fs)

    total_end = Fraction(0)
    for _, start, states in built:
        total_end = max(total_end, start + states.size * half)

    n_samples = math.ceil(total_end * fs_frac)
    sample_state = np.full(n_samples, -1, dtype=np.int8)
    part_slices: list[tuple[int, int]] = []
    part_spans: list[tuple[float, float]] = []
    part_kinds: list[str] = []
    step = fs_frac * half   # samples per half-interval
    for kind, start, states in built:
        i0 = round(start * fs_frac)
        if step.denominator == 1:
            counts = np.full(states.size, int(step), dtype=np.int64)
        else:
            # general sample rate: snap each boundary to the nearest sample
            edges = np.rint(float(start * fs_frac)
                            + float(step) * np.arange(states.size + 1)).astype(np.int64)
            counts = np.diff(edges)
            i0 = int(edges[0])
        i1 = i0 + int(counts.sum())
        sample_state[i0:i1] = np.repeat(states, counts)
        part_slices.append((i0, i1))
        part_spans.append((i0 / fs, i1 / fs))
        part_kinds.append(kind)

    amp0, amp1 = amplitudes(modulation)
    samples = np.zeros(n_samples, dtype=np.complex128)
    samples[sample_state == 0] = amp0
    samples[sample_state == 1] = amp1

    samples *= _doppler_rotation(params.f_d_hz, fs, n_samples)

    if params.ps_n0_dbhz is not None:
        samples = add_awgn(samples, params.ps_n0_dbhz, fs, params.seed)

    truth = FrameTruth(f_d_hz=params.f_d_hz, ps_n0_dbhz=params.ps_n0_dbhz,
                       modulation=modulation, waveform_model=waveform_model,
                       bits_rn16=bits_rn16, bits_epc=bits_epc, seed=params.seed)
    return BasebandFrame(sample_rate_hz=fs, samples=samples, sample_state=sample_state,
                         part_slices=part_slices, part_spans=part_spans,
                         part_kinds=part_kinds, truth=truth)


def synthesize_reply(timing: Optional[protocol.ReplyTiming], mode: protocol.ReaderMode,
                     modulation: str, waveform_model: str,
                     bits_rn16: Optional[Sequence[int]], bits_epc: Optional[Sequence[int]],
                     params: ChannelParams, parts: str = "both") -> BasebandFrame:
    """Synthesize a sampled tag reply frame.

    parts selects 'rn16', 'epc' (single part starting at t = 0) or 'both'
    (first part, silent pause, second part).  waveform_model 'gen2' encodes
    the given bits with the mode's FM0/Miller scheme; 'rect' emits the
    data-independent reflect/absorb symbol pattern of the simplified model.
    """
    if modulation not in MODULATIONS:
        raise ValueError(f"unknown modulation {modulation!r}")
    if waveform_model not in WAVEFORM_MODELS:
        raise ValueError(f"unknown waveform model {waveform_model!r}")
    if parts not in ("rn16", "epc", "both"):
        raise ValueError(f"unknown parts selection {parts!r}")
    if timing is None:
        timing = protocol.reply_timing(mode)

    b_rn16 = _as_bits(bits_rn16, "rn16") if bits_rn16 is not None else None
    b_epc = _as_bits(bits_epc, "epc") if bits_epc is not None else None

    layout: list[tuple[str, Fraction]] = []   # (kind, exact start time)
    if parts in ("rn16", "both"):
        layout.append(("rn16", Fraction(0)))
    if parts == "epc":
        layout.append(("epc", Fraction(0)))
    elif parts == "both":
        layout.append(("epc", timing.t_rn16 + timing.t_pause))

    built = []
    for kind, start in layout:
        states = _part_states(kind, mode, waveform_model,
                              b_rn16 if kind == "rn16" else b_epc)
        built.append((kind, start, states))
    return _assemble_frame(built, mode.blf_hz, modulation, waveform_model,
                           params, b_rn16, b_epc)


def synthesize_burst(states: np.ndarray, blf_hz: float, modulation: str,
                     params: ChannelParams, waveform_model: str = "custom") -> BasebandFrame:
    """Synthesize a single signal part from a prebuilt state sequence.

    ``states`` is a 0/1 array on the 1/(2 BLF) half-interval grid (e.g. from
    rect_states or the encoders); the part starts at t = 0.  Used for sweeps
    over arbitrary signal durations that no protocol reply produces.
    """
    states = np.asarray(states, dtype=np.int8)
    if states.ndim != 1 or states.size == 0:
        raise ValueError("states must be a non-empty 1-D array")
    built = [("burst", Fraction(0), states)]
    return _assemble_frame(built, blf_hz, modulation, waveform_model, params,
                           None, None)


def dump_frame(frame: BasebandFrame, path) -> None:
    """Write a frame as interleaved little-endian float64 I/Q.

    64-byte header: magic 'RFIDBB01', sample rate (float64), sample count
    (uint64), zero padding.
    """
    header = struct.pack("<8sdQ", _FRAME_DUMP_MAGIC, float(frame.sample_rate_hz),
                         frame.n_samples)
    header += b"\x00" * (_FRAME_DUMP_HEADER - len(header))
    iq = np.empty(2 * frame.n_samples, dtype="<f8")
    iq[0::2] = frame.samples.real
    iq[1::2] = frame.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(iq.tobytes())


def load_frame_dump(path) -> tuple[float, np.ndarray]:
    """Read a frame dump back as (sample_rate_hz, complex samples)."""
    with open(path, "rb") as fh:
        header = fh.read(_FRAME_DUMP_HEADER)
        if len(header) < _FRAME_DUMP_HEADER:
            raise ValueError(f"{path}: truncated header")
        magic, fs, count = struct.unpack_from("<8sdQ", header)
        if magic != _FRAME_DUMP_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        iq = np.frombuffer(fh.read(16 * count), dtype="<f8")
    if iq.size != 2 * count:
        raise ValueError(f"{path}: truncated sample data")
    return fs, iq[0::2] + 1j * iq[1::2]
