"""Gen2 timing model: symbol counts, durations, pause model, mode catalog."""

import dataclasses
from fractions import Fraction

import pytest

from rfid_doppler import protocol as P

# Published duration table: (encoding, blf, kind) -> (exact ms, printed ms text).
# The 40 kHz column is printed exactly; the 640 kHz entries are the same
# rationals scaled by 1/16 and printed rounded or truncated.
TABLE1 = {
    ("FM0", 40e3, "rn16"): (Fraction("0.875"), "0.875"),
    ("FM0", 640e3, "rn16"): (Fraction("0.0546875"), "0.0547"),
    ("FM0", 40e3, "epc"): (Fraction("3.275"), "3.275"),
    ("FM0", 640e3, "epc"): (Fraction("0.2046875"), "0.2047"),
    ("Miller2", 40e3, "rn16"): (Fraction("1.95"), "1.95"),
    ("Miller2", 640e3, "rn16"): (Fraction("0.121875"), "0.122"),
    ("Miller2", 40e3, "epc"): (Fraction("6.75"), "6.75"),
    ("Miller2", 640e3, "epc"): (Fraction("0.421875"), "0.422"),
    ("Miller4", 40e3, "rn16"): (Fraction("3.90"), "3.90"),
    ("Miller4", 640e3, "rn16"): (Fraction("0.24375"), "0.244"),
    ("Miller4", 40e3, "epc"): (Fraction("13.50"), "13.50"),
    ("Miller4", 640e3, "epc"): (Fraction("0.84375"), "0.843"),
    ("Miller8", 40e3, "rn16"): (Fraction("7.80"), "7.80"),
    ("Miller8", 640e3, "rn16"): (Fraction("0.4875"), "0.488"),
    ("Miller8", 40e3, "epc"): (Fraction("27.00"), "27.00"),
    ("Miller8", 640e3, "epc"): (Fraction("1.6875"), "1.688"),
}


def test_symbol_period_examples():
    assert P.symbol_period(40e3, P.MILLER8) == Fraction(1, 5000)       # 200 us
    assert P.symbol_period(640e3, P.FM0) == Fraction(1, 640000)        # 1.5625 us
    assert P.symbol_period(160e3, P.MILLER8) == Fraction(1, 20000)     # 50 us


@pytest.mark.parametrize("blf", [39_999.0, 640_001.0, 0.0, -40e3])
def test_symbol_period_rejects_out_of_range_blf(blf):
    with pytest.raises(ValueError):
        P.symbol_period(blf, P.FM0)


def test_reply_symbol_counts_examples():
    assert P.reply_symbol_counts(P.FM0, 16, trext=True, with_crc=False) == 35
    assert P.reply_symbol_counts(P.MILLER8, 96, trext=True, with_crc=True) == 135
    assert P.reply_symbol_counts(P.FM0, 16, trext=False, with_crc=False) == 23
    assert P.reply_symbol_counts(P.FM0, 96, trext=True, with_crc=True) == 131
    assert P.reply_symbol_counts(P.MILLER2, 16, trext=True, with_crc=False) == 39
    assert P.reply_symbol_counts(P.MILLER8, 16, trext=False, with_crc=False) == 27


def test_reply_symbol_counts_rejects_empty_payload():
    with pytest.raises(ValueError):
        P.reply_symbol_counts(P.FM0, 0, trext=True, with_crc=False)


def test_epc_minus_rn16_symbol_delta_is_96():
    for scheme in (P.FM0, P.MILLER2, P.MILLER4, P.MILLER8):
        epc = P.reply_symbol_counts(scheme, 96, trext=True, with_crc=True)
        rn16 = P.reply_symbol_counts(scheme, 16, trext=True, with_crc=False)
        assert epc - rn16 == 96


def test_signal_duration_reproduces_duration_table_exactly():
    for (enc_name, blf, kind), (exact_ms, printed) in TABLE1.items():
        mode = P.ReaderMode("t", blf, P.ENCODINGS[enc_name])
        duration = P.signal_duration(mode, kind)
        assert duration == exact_ms / 1000, (enc_name, blf, kind)
        # printed value agrees to one unit in its last decimal place
        decimals = len(printed.split(".")[1])
        assert abs(float(exact_ms) - float(printed)) < 10.0 ** (-decimals)


def test_durations_are_rational_multiples_of_symbol_period():
    for (enc_name, blf, kind), _ in TABLE1.items():
        scheme = P.ENCODINGS[enc_name]
        mode = P.ReaderMode("t", blf, scheme)
        ratio = P.signal_duration(mode, kind) / P.symbol_period(blf, scheme)
        assert ratio.denominator == 1 and ratio.numerator > 0


def test_duration_scales_linearly_in_spread_factor_and_inverse_blf():
    for blf in (40e3, 57e3, 160e3, 640e3):
        for kind in ("rn16", "epc"):
            base = None
            for scheme in (P.MILLER2, P.MILLER4, P.MILLER8):
                d = P.signal_duration(P.ReaderMode("t", blf, scheme), kind)
                if base is not None:
                    assert d / base == Fraction(2)  # same symbol count, doubled M
                base = d
    d40 = P.signal_duration(P.ReaderMode("t", 40e3, P.FM0), "epc")
    d640 = P.signal_duration(P.ReaderMode("t", 640e3, P.FM0), "epc")
    assert d40 / d640 == Fraction(16)


def test_pause_duration_hits_both_anchors_and_interpolates():
    assert P.pause_duration(40e3) == Fraction("0.0014")
    assert P.pause_duration(640e3) == Fraction("0.0002")
    assert P.pause_duration(160e3) == Fraction("0.00044")


def test_pause_duration_monotone_decreasing_in_blf():
    grid = [40e3, 64e3, 100e3, 160e3, 256e3, 320e3, 640e3]
    pauses = [P.pause_duration(b) for b in grid]
    assert all(a > b for a, b in zip(pauses, pauses[1:]))


def test_pause_duration_range_check():
    with pytest.raises(ValueError):
        P.pause_duration(20e3)


def test_reply_timing_mode_290():
    timing = P.reply_timing(P.find_reader_mode("Mode 290"))
    assert float(timing.t_rn16) == pytest.approx(1.95e-3)
    assert float(timing.t_pause) == pytest.approx(0.44e-3)
    assert float(timing.t_epc) == pytest.approx(6.75e-3)


def test_reply_timing_miller8_40khz():
    timing = P.reply_timing(P.ReaderMode("t", 40e3, P.MILLER8))
    assert (float(timing.t_rn16), float(timing.t_pause), float(timing.t_epc)) == \
        (7.8e-3, 1.4e-3, 27e-3)


def test_reply_timing_256_bit_epc():
    timing = P.reply_timing(P.ReaderMode("t", 160e3, P.MILLER8, epc_bits=256))
    assert timing.t_epc == Fraction(22 + 256 + 16 + 1) * Fraction(1, 20000)
    assert float(timing.t_epc) == pytest.approx(14.75e-3)


def test_reply_timing_views_and_invariants():
    timing = P.reply_timing(P.find_reader_mode("Mode 290"))
    assert timing.single("rn16") == timing.t_rn16
    assert timing.single("epc") == timing.t_epc
    assert timing.t_rn16 < timing.t_epc
    with pytest.raises(ValueError):
        timing.single("preamble")
    with pytest.raises(ValueError):
        P.ReplyTiming(Fraction(0), Fraction(1, 1000), Fraction(1, 100))


def test_catalog_contains_the_published_modes():
    m290 = P.find_reader_mode("Mode 290")
    assert m290.blf_hz == 160e3
    assert m290.encoding is P.MILLER8
    m204 = P.find_reader_mode("Mode 204")
    assert m204.blf_hz == 320e3
    assert m204.encoding is P.FM0


def test_catalog_unknown_label_raises():
    with pytest.raises(KeyError):
        P.find_reader_mode("Mode 999")


def test_encoding_parsing_and_validation():
    assert P.encoding_from_name("miller-8") is P.MILLER8
    assert P.encoding_from_name("FM0") is P.FM0
    assert P.encoding_from_name("m2") is P.MILLER2
    with pytest.raises(ValueError):
        P.encoding_from_name("miller-16")
    with pytest.raises(ValueError):
        P.ReaderMode("t", 160e3, P.MILLER8, epc_bits=64)
    with pytest.raises(ValueError):
        P.EncodingScheme("bogus", 3)


@pytest.mark.parametrize("label", ["Mode 290", "Mode 204"])
@pytest.mark.parametrize("epc_bits, trext", [(96, True), (128, True), (256, True), (96, False)])
def test_reply_signals_agree_with_reply_timing(label, epc_bits, trext):
    mode = dataclasses.replace(P.find_reader_mode(label), epc_bits=epc_bits, trext=trext)
    timing = P.reply_timing(mode)
    period = P.symbol_period(mode.blf_hz, mode.encoding)
    starts = {"rn16": [0], "epc": [0], "both": [0, timing.t_rn16 + timing.t_pause]}
    for parts, want_starts in starts.items():
        signals = P.reply_signals(mode, parts)
        kinds = ["rn16", "epc"] if parts == "both" else [parts]
        assert [kind for kind, _, _ in signals] == kinds
        assert [start for _, start, _ in signals] == want_starts
        for kind, start, n_symbols in signals:
            assert isinstance(start, Fraction)
            assert n_symbols * period == P.signal_duration(mode, kind) == timing.single(kind)
    with pytest.raises(ValueError, match="parts"):
        P.reply_signals(mode, "everything")
