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
block_len_s = 0 to evaluate sample-by-sample instead.  Integration
(integrate_blocks) and the peak search (search_peak) are separate steps, and
BlockTable builds the integrated blocks of a noiseless frame straight from its
states, so Monte Carlo trials can skip the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseband import BasebandFrame, FrameLayout, amplitudes, doppler_rotation
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


def _wipe_rule(modulation: str, ask_zeroing: bool) -> tuple[tuple, tuple]:
    """Per backscatter state (0, 1): the sign that removes the modulation, and
    whether the state's samples stay in the mask."""
    if modulation == "psk":
        return (1.0, -1.0), (True, True)
    if modulation == "ask":
        return (1.0, 1.0), (not ask_zeroing, True)
    raise ValueError(f"unknown modulation {modulation!r}")


def wipe_modulation(frame: BasebandFrame, ask_zeroing: bool = True) -> WipedSignal:
    """Remove the known tag modulation from a frame.

    PSK: samples in the "one mode" are multiplied by -1, both parts stay in
    the mask.  ASK: absorb-state samples carry no signal, so they are zeroed
    and masked out (dropping their noise); with ``ask_zeroing=False`` they
    stay in the mask, which costs the well-known 3 dB.  The pause is masked
    out in every case; masked-out samples are exactly zero.
    """
    signs, kept = _wipe_rule(frame.truth.modulation, ask_zeroing)
    state = frame.sample_state
    samples = frame.samples.copy()
    mask = np.zeros(state.size, dtype=bool)
    for s in (0, 1):
        in_state = state == s
        if kept[s]:
            mask |= in_state
        if signs[s] < 0:
            samples[in_state] = -samples[in_state]
    samples[~mask] = 0.0
    return WipedSignal(samples=samples, support_mask=mask,
                       sample_rate_hz=frame.sample_rate_hz)


@dataclass(frozen=True)
class BlockSums:
    """Masked signal pre-integrated in blocks: what the periodogram search reads.

    ``z`` is the sum of the masked samples of each block that holds any,
    ``count`` their number and ``tau`` their time centroid in seconds;
    ``span_s`` is the time from the first to the last masked sample.
    """

    z: np.ndarray
    count: np.ndarray
    tau: np.ndarray
    span_s: float


def _block_samples(sample_rate_hz: float, search_halfwidth_hz: float,
                   block_len_s: float | None) -> int:
    if block_len_s is None:
        block_len_s = 1.0 / (16.0 * search_halfwidth_hz)
    return max(1, int(round(block_len_s * sample_rate_hz)))


def _span(first_s: float, last_s: float, sample_rate_hz: float) -> float:
    span = last_s - first_s
    return span if span > 0 else 1.0 / sample_rate_hz


def integrate_blocks(w: WipedSignal, search_halfwidth_hz: float = 200.0,
                     block_len_s: float | None = None) -> BlockSums:
    """Sum the masked samples in blocks of ``block_len_s`` from the first sample.

    The default block is 1/(16 search_halfwidth) long; ``block_len_s = 0``
    keeps every masked sample as its own block.
    """
    fs = w.sample_rate_hz
    mask = np.asarray(w.support_mask, dtype=bool)
    n = w.samples.size
    t = np.arange(n) / fs
    b = _block_samples(fs, search_halfwidth_hz, block_len_s)
    if b > 1:
        edges = np.arange(0, n, b)
        z = np.add.reduceat(w.samples, edges)
        cnt = np.add.reduceat(mask.astype(np.float64), edges)
        tsum = np.add.reduceat(t * mask, edges)
        keep = cnt > 0
        z, cnt = z[keep], cnt[keep]
        tau = tsum[keep] / cnt
    else:
        z = w.samples[mask]
        tau = t[mask]
        cnt = np.ones(z.size)
    first = int(mask.argmax())
    last = n - 1 - int(mask[::-1].argmax())
    return BlockSums(z=z, count=cnt, tau=tau, span_s=_span(t[first], t[last], fs))


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.union1d and np.unique would import numpy.ma, a megabyte of modules
    both = np.sort(np.concatenate([a, b]))
    return both[np.diff(both, prepend=-1) != 0]


class BlockTable:
    """Block sums of a noiseless wiped frame, computed from its states.

    Built once per frame layout and Doppler shift, without per-sample arrays.
    The table splits every half-interval at the default block boundaries of
    :func:`integrate_blocks` and keeps, per piece, the sum of the Doppler
    rotation over its samples, their number and the sum of their times.
    :meth:`blocks` then weights each piece by the wiped amplitude and mask
    of its state and adds the pieces of each block: the same sums
    :func:`integrate_blocks` takes from the wiped sampled frame, without
    synthesizing samples.
    """

    def __init__(self, layout: FrameLayout, f_d_hz: float, modulation: str,
                 ask_zeroing: bool = True, search_halfwidth_hz: float = 200.0):
        fs = layout.sample_rate_hz
        b = _block_samples(fs, search_halfwidth_hz, None)
        starts, ends, halves = [], [], []
        n_half = 0
        for edges in layout.edges:
            # a piece starts at every half-interval edge and block edge of the part
            block_edges = np.arange((edges[0] // b + 1) * b, edges[-1], b)
            part_starts = _sorted_union(edges[:-1], block_edges)
            starts.append(part_starts)
            ends.append(np.append(part_starts[1:], edges[-1]))
            halves.append(n_half + np.searchsorted(edges, part_starts, side="right") - 1)
            n_half += edges.size - 1
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        lengths = ends - starts
        # a piece's rotation sum is the rotation at its first sample times
        # the sum of the first ``length`` rotations from t = 0
        partial = np.cumsum(doppler_rotation(f_d_hz, np.arange(lengths.max()) / fs))
        self.sample_rate_hz = fs
        self.n_half = n_half
        self._half = np.concatenate(halves)
        self._rotation = doppler_rotation(f_d_hz, starts / fs) * partial[lengths - 1]
        self._count = lengths.astype(np.float64)
        self._tsum = (starts + ends - 1) * lengths / (2.0 * fs)
        self._first_s, self._last_s = starts / fs, (ends - 1) / fs
        self._block_starts = np.flatnonzero(np.diff(starts // b, prepend=-1))
        signs, kept = _wipe_rule(modulation, ask_zeroing)
        amps = amplitudes(modulation)
        self._kept = np.array(kept)
        self._amp = np.array([amps[s] * signs[s] if kept[s] else 0.0 for s in (0, 1)])

    def blocks(self, states: np.ndarray) -> BlockSums:
        """Noiseless block sums for the states of all parts, concatenated in order."""
        states = np.asarray(states)
        if states.size != self.n_half:
            raise ValueError(f"expected {self.n_half} states, got {states.size}")
        piece_state = states[self._half]
        kept = self._kept[piece_state]
        masked = np.flatnonzero(kept)
        if masked.size == 0:
            raise ValueError("support mask is empty, nothing to estimate from")
        starts = self._block_starts
        z = np.add.reduceat(self._amp[piece_state] * self._rotation, starts)
        cnt = np.add.reduceat(kept * self._count, starts)
        tsum = np.add.reduceat(kept * self._tsum, starts)
        keep = cnt > 0
        cnt = cnt[keep]
        return BlockSums(z=z[keep], count=cnt, tau=tsum[keep] / cnt,
                         span_s=_span(self._first_s[masked[0]], self._last_s[masked[-1]],
                                      self.sample_rate_hz))


def search_peak(blocks: BlockSums, search_halfwidth_hz: float = 200.0,
                coarse_padding: int = 8, fine_tol_hz: float = 1e-4) -> EstimateReport:
    """Peak of the periodogram of pre-integrated blocks inside the search window.

    A coarse grid with spacing 1/(padding * span) picks the highest cell;
    golden-section search refines the peak within one cell on either side.
    """
    z, tau = blocks.z, blocks.tau
    two_pi = 2.0 * math.pi

    def power(f: float) -> float:
        return float(np.abs(np.exp(two_pi * 1j * (f * tau)) @ z) ** 2)

    df = 1.0 / (coarse_padding * blocks.span_s)
    k_max = int(math.floor(search_halfwidth_hz / df))
    # exp(j 2 pi k df tau) for k = 1..k_max as powers of one rotation per
    # block, in chunks of k that bound the matrix size; f = -k df is the
    # conjugate, whose sum is that of conj(z)
    step = np.exp(two_pi * 1j * (df * tau))
    reached = np.ones(tau.size, dtype=complex)   # step ** k at the end of the last chunk
    chunk = max(1, int(4e6 // tau.size))
    above, below = [], []
    for k0 in range(0, k_max, chunk):
        rotations = np.cumprod(np.broadcast_to(step, (min(chunk, k_max - k0), tau.size)), axis=0)
        rotations *= reached
        reached = rotations[-1]
        above.append(np.abs(rotations @ z) ** 2)
        below.append(np.abs(rotations @ z.conj()) ** 2)
    coarse = np.concatenate([*(part[::-1] for part in reversed(below)), [abs(z.sum()) ** 2],
                             *above])
    f0 = (int(np.argmax(coarse)) - k_max) * df

    lo = max(f0 - df, -search_halfwidth_hz)
    hi = min(f0 + df, search_halfwidth_hz)
    iterations = 0
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    p1 = power(x1)
    p2 = power(x2)
    while hi - lo > fine_tol_hz:
        iterations += 1
        if p1 >= p2:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - _INVPHI * (hi - lo)
            p1 = power(x1)
        else:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + _INVPHI * (hi - lo)
            p2 = power(x2)
    f_hat = 0.5 * (lo + hi)
    return EstimateReport(f_hat_hz=float(f_hat), peak_value=power(f_hat),
                          refinement_iterations=iterations)


def estimate_doppler(w: WipedSignal, search_halfwidth_hz: float = 200.0,
                     coarse_padding: int = 8, fine_tol_hz: float = 1e-4,
                     block_len_s: float | None = None) -> EstimateReport:
    """Maximum-likelihood Doppler estimate over the masked support.

    :func:`integrate_blocks` followed by :func:`search_peak`.  The sign
    convention matches the synthesized rotation, so the returned frequency
    estimates the frame's true Doppler shift directly.
    """
    fs = w.sample_rate_hz
    if not 0.0 < search_halfwidth_hz <= fs / 2.0:
        raise ValueError(f"search halfwidth must lie in (0, fs/2], got {search_halfwidth_hz}")
    if coarse_padding < 1:
        raise ValueError(f"coarse padding factor must be >= 1, got {coarse_padding}")
    if not np.asarray(w.support_mask, dtype=bool).any():
        raise ValueError("support mask is empty, nothing to estimate from")
    return search_peak(integrate_blocks(w, search_halfwidth_hz, block_len_s),
                       search_halfwidth_hz, coarse_padding, fine_tol_hz)


def classify_motion(f_hat_hz: float, v_ref: float, f_c_hz: float) -> str:
    """Threshold test at half the reference speed's Doppler shift.

    Direction-agnostic: the magnitude of the estimate is compared against
    the threshold; a tie counts as moving.
    """
    if v_ref <= 0:
        raise ValueError(f"reference speed must be positive, got {v_ref}")
    threshold = doppler_shift(v_ref, f_c_hz) / 2.0
    return "moving" if abs(f_hat_hz) >= threshold else "static"
