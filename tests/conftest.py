"""Shared oracle helpers for the test suite.

The dual-signal timing-factor oracle deliberately avoids the closed form: it
evaluates the underlying observation integral by numeric quadrature and
minimizes over the time offset numerically, so it checks the implementation
through an independent route.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from rfid_doppler import baseband as B
from rfid_doppler import estimator as E
from rfid_doppler import protocol as P


def ct_dual_numeric_oracle(t1: float, t2: float, t_pause: float) -> float:
    """Timing factor of a two-part signal via numeric integration.

    12 * min_t0 [ int_0^T1 (t-t0)^2 dt + int_{T1+Tp}^{T1+Tp+T2} (t-t0)^2 dt ].
    """
    delta = t1 + t_pause

    def objective(t0):
        first, _ = quad(lambda t: (t - t0) ** 2, 0.0, t1)
        second, _ = quad(lambda t: (t - t0) ** 2, delta, delta + t2)
        return first + second

    result = minimize_scalar(objective, bounds=(0.0, t1 + t_pause + t2),
                             method="bounded", options={"xatol": 1e-15})
    return 12.0 * result.fun


def merged_runs(states) -> list[tuple[int, int]]:
    """Collapse a per-interval state array into (state, run length) pairs."""
    states = np.asarray(states)
    runs = []
    current = int(states[0])
    length = 0
    for s in states:
        if int(s) == current:
            length += 1
        else:
            runs.append((current, length))
            current, length = int(s), 1
    runs.append((current, length))
    return runs


def reply_states(mode, waveform, bits16, bits_epc, parts="both"):
    """One row of the states of the selected parts of a reply, from the RN16
    bits and the EPC bits (CRC included); rect replies take no bits."""
    signals = P.reply_signals(mode, parts)
    bits = {"rn16": bits16, "epc": bits_epc}
    row = None if waveform == "rect" else np.concatenate(
        [np.asarray(bits[kind]) for kind, _, _ in signals], axis=-1)
    return B.frame_states(mode, waveform, signals, row)


def reply_layout(mode, parts="both"):
    """The sample layout of the selected parts of a reply, from their state
    counts, 2M half-intervals a symbol."""
    m = mode.encoding.spread_factor
    return B.frame_layout([(kind, start, 2 * m * n_symbols)
                           for kind, start, n_symbols in P.reply_signals(mode, parts)],
                          mode.blf_hz)


def part_slices(layout):
    """[start, end) sample indices of each part of a layout."""
    return [(int(edges[0]), int(edges[-1])) for edges in layout.edges]


def reply_frame(mode, modulation, waveform, bits16, bits_epc, params, parts="both"):
    """The reply of :func:`reply_states` sampled on :func:`reply_layout`."""
    return B.synthesize_reply(reply_states(mode, waveform, bits16, bits_epc, parts),
                              reply_layout(mode, parts), modulation, params)


def sample_blocks(w):
    """The block sums of a wiped frame with one block per sample: the
    sample-by-sample oracle of the estimator's blocks.  A block holds its
    sample (z), whether the sample is masked (count) and, if so, its time
    (tau); the span runs from the first to the last masked sample."""
    mask = np.asarray(w.support_mask, dtype=bool)
    t = np.arange(mask.size) / w.sample_rate_hz
    masked = np.flatnonzero(mask)
    return E.BlockSums(z=w.samples[None], count=mask[None].astype(float), tau=(t * mask)[None],
                       span_s=E._span(t[masked[0]], t[masked[-1]], w.sample_rate_hz).reshape(1))
