"""Gen2 uplink timing model: BLF, FM0/Miller encodings, and reply durations.

Durations are kept as exact rationals (symbol counts over an integer-valued
BLF grid) and only converted to float seconds on demand, so the standard's
duration table is reproduced without accumulated rounding.

Model of a tag reply signal, in uplink symbols:

    symbols = preamble + payload + (16 CRC bits, EPC reply only) + 1 end symbol

with preamble lengths (pilot pattern + sync, counted from the patterns below,
which the encoders of baseband read) of

    FM0:    18 symbols with pilot (TRext=1), 6 without
    Miller: 22 symbols with pilot (TRext=1), 10 without

and a symbol period of M/BLF.  The EPC reply is modeled as preamble + EPC +
CRC16 + end symbol; a separate protocol-control word is deliberately not
included (the duration table is only consistent without it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

BLF_MIN_HZ = 40_000.0
BLF_MAX_HZ = 640_000.0

CRC16_BITS = 16
RN16_BITS = 16
END_OF_SIGNALING_SYMBOLS = 1

# FM0 preamble: 1010v1 after a pilot of 12 data-0s (TRext=1) or none; the v
# symbol is shaped like a data-1 but skips the inversion at its boundary.
# Each symbol is (bit, whether the state inverts at its leading boundary).
FM0_PREAMBLE = ((1, True), (0, True), (1, True), (0, True), (1, False), (1, True))
FM0_PILOT = {False: 0, True: 12}
# Miller preamble: 010111 after a pilot of 4 (TRext=0) or 16 (TRext=1) data-0s.
MILLER_PREAMBLE = (0, 1, 0, 1, 1, 1)
MILLER_PILOT = {False: 4, True: 16}

# The simulator's backscatter modulations and waveform models, which the
# config rules of experiments and the frames of baseband share.
MODULATIONS = ("ask", "psk")
WAVEFORM_MODELS = ("gen2", "rect")
# Samples per half-interval of 1/(2 BLF), the shortest interval between
# state transitions, on the simulator's sample grid
SAMPLES_PER_HALF = 16


@dataclass(frozen=True)
class EncodingScheme:
    """Uplink data encoding: FM0 or one of the Miller modes."""

    name: str
    spread_factor: int

    def __post_init__(self):
        if self.spread_factor not in (1, 2, 4, 8):
            raise ValueError(f"spread factor must be 1, 2, 4 or 8, got {self.spread_factor}")

    @property
    def is_miller(self) -> bool:
        return self.spread_factor > 1


FM0 = EncodingScheme("FM0", 1)
MILLER2 = EncodingScheme("Miller2", 2)
MILLER4 = EncodingScheme("Miller4", 4)
MILLER8 = EncodingScheme("Miller8", 8)

ENCODINGS = {e.name: e for e in (FM0, MILLER2, MILLER4, MILLER8)}


def encoding_from_name(name: str) -> EncodingScheme:
    """Look up an encoding by a forgiving name ('FM0', 'miller-8', 'M4', ...)."""
    key = name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
    aliases = {
        "fm0": FM0, "m1": FM0,
        "miller2": MILLER2, "m2": MILLER2,
        "miller4": MILLER4, "m4": MILLER4,
        "miller8": MILLER8, "m8": MILLER8,
    }
    try:
        return aliases[key]
    except KeyError:
        raise ValueError(f"unknown encoding {name!r} (expected FM0 or Miller-2/4/8)") from None


def _check_blf(blf_hz) -> None:
    if not (BLF_MIN_HZ <= blf_hz <= BLF_MAX_HZ):
        raise ValueError(f"BLF {blf_hz} Hz outside the standard 40-640 kHz range")


@dataclass(frozen=True)
class ReaderMode:
    """One reader uplink configuration (what a Query command pins down)."""

    label: str
    blf_hz: float
    encoding: EncodingScheme
    trext: bool = True
    epc_bits: int = 96

    def __post_init__(self):
        _check_blf(self.blf_hz)
        if self.epc_bits not in (96, 128, 256):
            raise ValueError(f"EPC length must be 96, 128 or 256 bits, got {self.epc_bits}")


@dataclass(frozen=True)
class ReplyTiming:
    """Durations of a successful tag reply: first packet, pause, second packet.

    Values are exact rational seconds; use float() for arithmetic.
    """

    t_rn16: Fraction
    t_pause: Fraction
    t_epc: Fraction

    def __post_init__(self):
        for name in ("t_rn16", "t_pause", "t_epc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def single(self, part: str) -> Fraction:
        """Duration of one signal part ('rn16' or 'epc') viewed in isolation."""
        if part == "rn16":
            return self.t_rn16
        if part == "epc":
            return self.t_epc
        raise ValueError(f"unknown signal part {part!r}")


def default_sample_rate(blf_hz: float) -> float:
    """The sample rate of every simulated frame, 32 x BLF: 16 samples per
    minimal transition interval of 1/(2 BLF)."""
    return 2.0 * SAMPLES_PER_HALF * float(blf_hz)


def symbol_period(blf_hz, scheme: EncodingScheme) -> Fraction:
    """Uplink symbol period M/BLF as an exact rational in seconds."""
    _check_blf(blf_hz)
    return Fraction(scheme.spread_factor) / Fraction(blf_hz)


def preamble_symbols(scheme: EncodingScheme, trext: bool) -> int:
    """Preamble length in symbols (pilot pattern plus sync sequence)."""
    if scheme.is_miller:
        return MILLER_PILOT[bool(trext)] + len(MILLER_PREAMBLE)
    return FM0_PILOT[bool(trext)] + len(FM0_PREAMBLE)


def reply_symbol_counts(scheme: EncodingScheme, payload_bits: int, trext: bool,
                        with_crc: bool) -> int:
    """Total uplink symbols of a reply: preamble + payload (+CRC16) + end symbol."""
    if payload_bits <= 0:
        raise ValueError(f"payload_bits must be positive, got {payload_bits}")
    count = preamble_symbols(scheme, trext) + payload_bits
    if with_crc:
        count += CRC16_BITS
    return count + END_OF_SIGNALING_SYMBOLS


def signal_symbols(mode: ReaderMode, kind: str) -> int:
    """Uplink symbol count of one reply signal ('rn16' or 'epc')."""
    kind = kind.lower()
    if kind == "rn16":
        return reply_symbol_counts(mode.encoding, RN16_BITS, mode.trext, with_crc=False)
    if kind == "epc":
        return reply_symbol_counts(mode.encoding, mode.epc_bits, mode.trext, with_crc=True)
    raise ValueError(f"unknown signal kind {kind!r} (expected 'rn16' or 'epc')")


def signal_duration(mode: ReaderMode, kind: str) -> Fraction:
    """Exact duration in seconds of one reply signal ('rn16' or 'epc')."""
    return signal_symbols(mode, kind) * symbol_period(mode.blf_hz, mode.encoding)


def pause_duration(blf_hz) -> Fraction:
    """Pause between the two reply parts, affine in 1/BLF.

    T_pause = 0.12 ms + 51.2/BLF, which passes through 1.4 ms at 40 kHz and
    0.2 ms at 640 kHz.
    """
    _check_blf(blf_hz)
    return Fraction(3, 25000) + Fraction(256, 5) / Fraction(blf_hz)


def reply_timing(mode: ReaderMode) -> ReplyTiming:
    """Assemble the (T1, T_pause, T2) triple for a full two-part reply."""
    return ReplyTiming(
        t_rn16=signal_duration(mode, "rn16"),
        t_pause=pause_duration(mode.blf_hz),
        t_epc=signal_duration(mode, "epc"),
    )


def reply_signals(mode: ReaderMode, parts: str = "both") -> list[tuple[str, Fraction, int]]:
    """(kind, exact start time, symbol count) of each selected signal of a reply.

    ``parts`` selects 'rn16' or 'epc', alone and starting at t = 0, or
    'both': the RN16 at t = 0, then the EPC after the pause, at
    T_rn16 + T_pause.
    """
    kinds = {"rn16": ("rn16",), "epc": ("epc",), "both": ("rn16", "epc")}.get(parts)
    if kinds is None:
        raise ValueError(f"unknown parts selection {parts!r} (expected rn16, epc or both)")
    signals, start = [], Fraction(0)
    for kind in kinds:
        signals.append((kind, start, signal_symbols(mode, kind)))
        start += signal_duration(mode, kind) + pause_duration(mode.blf_hz)
    return signals


# Built-in catalog: the two named modes of the reader analyzed in this work.
_BUILTIN_MODES = (
    ReaderMode("Mode 290", 160_000.0, MILLER8, trext=True, epc_bits=96),
    ReaderMode("Mode 204", 320_000.0, FM0, trext=True, epc_bits=96),
)


def find_reader_mode(label: str) -> ReaderMode:
    """Catalog lookup by label; raises KeyError if absent."""
    for mode in _BUILTIN_MODES:
        if mode.label == label:
            return mode
    raise KeyError(f"no reader mode labeled {label!r} in the catalog")
