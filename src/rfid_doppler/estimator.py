"""Doppler extraction from a reply frame: wipe-off, periodogram peak, classify.

The estimation pipeline assumes the data symbols are known (the frame carries
its ground truth), removes the backscatter modulation, and maximizes the
masked periodogram

    P(f) = | sum_masked s[n] exp(+j 2 pi f t_n) |^2

over the full observation span, pause included.  A coarse grid with spacing
1/(padding * span) isolates the global peak; golden-section refinement then
localizes it on the continuous periodogram.

For speed the periodogram is evaluated on coherently pre-integrated blocks:
samples are summed in blocks much shorter than 1/search_halfwidth and each
block keeps the exact time centroid of its masked samples.  This regroups the
sum without changing the peak location of a noiseless tone and costs a
negligible fraction of the post-integration SNR at the searched offsets; set
block_len_s = 0 to evaluate sample-by-sample instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseband import BasebandFrame
from .bounds import doppler_shift

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class WipedSignal:
    """Modulation-free samples plus the mask of signal-bearing positions."""

    samples: np.ndarray
    support_mask: np.ndarray
    sample_rate_hz: float


@dataclass(frozen=True)
class EstimateReport:
    f_hat_hz: float
    peak_value: float
    refinement_iterations: int


def wipe_modulation(frame: BasebandFrame, ask_zeroing: bool = True) -> WipedSignal:
    """Remove the known tag modulation from a frame.

    PSK: samples in the "one mode" are multiplied by -1, both parts stay in
    the mask.  ASK: absorb-state samples carry no signal, so they are zeroed
    and masked out (dropping their noise); with ``ask_zeroing=False`` they
    stay in the mask, which costs the well-known 3 dB.  The pause is masked
    out in every case; masked-out samples are exactly zero.
    """
    state = frame.sample_state
    samples = frame.samples.copy()
    in_part = state >= 0
    if frame.truth.modulation == "psk":
        mask = in_part
        flip = state == 1
        samples[flip] = -samples[flip]
    elif frame.truth.modulation == "ask":
        mask = (state == 1) if ask_zeroing else in_part
    else:
        raise ValueError(f"unknown modulation {frame.truth.modulation!r}")
    samples[~mask] = 0.0
    return WipedSignal(samples=samples, support_mask=mask,
                       sample_rate_hz=frame.sample_rate_hz)


def _periodogram_eval(z: np.ndarray, tau: np.ndarray):
    """Return P(f) evaluator for pre-integrated blocks z at times tau."""
    two_pi = 2.0 * math.pi

    def power(freqs):
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        out = np.empty(f.size)
        # chunk to bound the phase-matrix size for the unblocked case
        chunk = max(1, int(4e6 // max(tau.size, 1)))
        for i in range(0, f.size, chunk):
            phase = np.exp(2j * math.pi * np.outer(f[i:i + chunk], tau))
            out[i:i + chunk] = np.abs(phase @ z) ** 2
        return out

    return power


def estimate_doppler(w: WipedSignal, search_halfwidth_hz: float = 200.0,
                     coarse_padding: int = 8, fine_tol_hz: float = 1e-4,
                     block_len_s: float | None = None) -> EstimateReport:
    """Maximum-likelihood Doppler estimate over the masked support.

    The sign convention matches the synthesized rotation, so the returned
    frequency estimates the frame's true Doppler shift directly.
    """
    fs = w.sample_rate_hz
    if not 0.0 < search_halfwidth_hz <= fs / 2.0:
        raise ValueError(f"search halfwidth must lie in (0, fs/2], got {search_halfwidth_hz}")
    if coarse_padding < 1:
        raise ValueError(f"coarse padding factor must be >= 1, got {coarse_padding}")
    mask = np.asarray(w.support_mask, dtype=bool)
    if not mask.any():
        raise ValueError("support mask is empty, nothing to estimate from")

    n = w.samples.size
    t = np.arange(n) / fs

    if block_len_s is None:
        block_len_s = 1.0 / (16.0 * search_halfwidth_hz)
    b = max(1, int(round(block_len_s * fs)))
    if b > 1:
        edges = np.arange(0, n, b)
        z = np.add.reduceat(w.samples, edges)
        cnt = np.add.reduceat(mask.astype(np.float64), edges)
        tsum = np.add.reduceat(t * mask, edges)
        keep = cnt > 0
        z = z[keep]
        tau = tsum[keep] / cnt[keep]
    else:
        z = w.samples[mask]
        tau = t[mask]

    first = int(mask.argmax())
    last = n - 1 - int(mask[::-1].argmax())
    span = t[last] - t[first]
    if span <= 0:
        span = 1.0 / fs

    power = _periodogram_eval(z, tau)
    df = 1.0 / (coarse_padding * span)
    k_max = int(math.floor(search_halfwidth_hz / df))
    freqs = np.arange(-k_max, k_max + 1) * df
    coarse = power(freqs)
    f0 = float(freqs[int(np.argmax(coarse))])

    lo = max(f0 - df, -search_halfwidth_hz)
    hi = min(f0 + df, search_halfwidth_hz)
    iterations = 0
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    p1 = power(x1)[0]
    p2 = power(x2)[0]
    while hi - lo > fine_tol_hz:
        iterations += 1
        if p1 >= p2:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - _INVPHI * (hi - lo)
            p1 = power(x1)[0]
        else:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + _INVPHI * (hi - lo)
            p2 = power(x2)[0]
    f_hat = 0.5 * (lo + hi)
    return EstimateReport(f_hat_hz=float(f_hat), peak_value=float(power(f_hat)[0]),
                          refinement_iterations=iterations)


def classify_motion(f_hat_hz: float, v_ref: float, f_c_hz: float) -> str:
    """Threshold test at half the reference speed's Doppler shift.

    Direction-agnostic: the magnitude of the estimate is compared against
    the threshold; a tie counts as moving.
    """
    if v_ref <= 0:
        raise ValueError(f"reference speed must be positive, got {v_ref}")
    threshold = doppler_shift(v_ref, f_c_hz) / 2.0
    return "moving" if abs(f_hat_hz) >= threshold else "static"
