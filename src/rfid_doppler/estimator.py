"""Doppler extraction from a reply frame: wipe-off, periodogram peak, classify.

The estimation pipeline assumes the data symbols are known (the frame carries
its ground truth), removes the backscatter modulation, and maximizes the
masked periodogram

    P(f) = | sum_masked s[n] exp(+j 2 pi f t_n) |^2

over the full observation span, pause included.  A coarse grid with spacing
1/(padding * span) isolates the global peak; a safeguarded Newton iteration
on the analytic derivative of the periodogram then localizes it on the
continuous periodogram, inside the coarse cell on either side (the
coarse-then-fine search of Rife & Boorstyn, IEEE Trans. IT 1974).

For speed the periodogram is evaluated on coherently pre-integrated blocks:
samples are summed in blocks much shorter than 1/search_halfwidth and each
block keeps the exact time centroid of its masked samples.  This regroups the
sum without changing the peak location of a noiseless tone and costs a
negligible fraction of the post-integration SNR at the searched offsets; set
block_len_s = 0 to evaluate sample-by-sample instead.  Block sums come in one
form, a batch with one row per frame (:class:`BlockSums`): integrate_blocks
gives the one row of a sampled frame, and BlockTable the rows of noiseless
frames straight from their states, so Monte Carlo trials can skip the
samples.  search_peak searches every row on its own, and a row gives exactly
what it gives when searched alone; search_rows searches the rows of any
number of batches in chunks of bounded size.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .baseband import BasebandFrame, FrameLayout, amplitudes, doppler_rotation
from .bounds import doppler_shift

# Refinement steps every row takes before the stop test applies.  On Mode 204
# and Miller-8 frames the second Newton step from the coarse peak is up to
# 5e-2 Hz long, on Mode 204 often near the default 1e-4 Hz tolerance, and the
# third at most a few 1e-7 Hz: with a minimum of three, every such frame
# takes exactly three steps, whatever its noise.
_MIN_REFINE = 3
# Length of a Newton step, or of the bracket, at which the refinement stops.
_FINE_TOL_HZ = 1e-4
# The coarse grid's spacing is 1/(_COARSE_PADDING * span).
_COARSE_PADDING = 8
# Newton or bisection steps per row before the refinement gives up; bisecting
# a 2 x 1e7 Hz cell down to 1e-4 Hz takes 38.
_MAX_REFINE = 64
# Elements of one chunk of the coarse grid's (k x rows x blocks) rotations, of
# each per-piece array of one BlockTable.blocks batch and of each block-sum
# array of one search_rows chunk: at most 1 MB per array, whatever the trial
# count or search window.
_CHUNK_ELEMENTS = 1 << 16


@dataclass
class WipedSignal:
    """Modulation-free samples plus the mask of signal-bearing positions."""

    samples: np.ndarray
    support_mask: np.ndarray
    sample_rate_hz: float


@dataclass(frozen=True)
class EstimateReport:
    """Result of a peak search.

    :func:`search_peak` gives arrays with one entry per row of its block
    sums; :func:`estimate_doppler`, which searches one frame, gives that
    frame's entries as numbers.
    """

    f_hat_hz: float | np.ndarray
    refinement_iterations: int | np.ndarray


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
    """Masked signals pre-integrated in blocks: what the periodogram search reads.

    One row per frame, one column per block of the frame's block grid, every
    block kept.  ``z`` is the sum of a block's masked samples, ``count``
    their number and ``tau`` their time centroid in seconds; a block without
    masked samples has z = 0, count = 0 and tau = 0, which adds nothing to
    the periodogram.  ``span_s`` holds, per row, the time from the first to
    the last masked sample.
    """

    z: np.ndarray
    count: np.ndarray
    tau: np.ndarray
    span_s: np.ndarray

    def __post_init__(self):
        if np.ndim(self.z) != 2 or np.shape(self.span_s) != np.shape(self.z)[:1]:
            raise ValueError(f"expected one row per frame, got z of shape {np.shape(self.z)} "
                             f"and span_s of shape {np.shape(self.span_s)}")


def _check_halfwidth(search_halfwidth_hz: float) -> None:
    if not (math.isfinite(search_halfwidth_hz) and search_halfwidth_hz > 0):
        raise ValueError(f"search_halfwidth_hz: must be finite and positive, "
                         f"got {search_halfwidth_hz}")


def _block_samples(sample_rate_hz: float, search_halfwidth_hz: float,
                   block_len_s: float | None) -> int:
    _check_halfwidth(search_halfwidth_hz)
    if block_len_s is None:
        block_len_s = 1.0 / (16.0 * search_halfwidth_hz)
    elif not (math.isfinite(block_len_s) and block_len_s >= 0):
        raise ValueError(f"block_len_s: must be finite and >= 0, got {block_len_s}")
    return max(1, int(round(block_len_s * sample_rate_hz)))


def _span(first_s, last_s, sample_rate_hz: float):
    span = np.subtract(last_s, first_s)
    return np.where(span > 0, span, 1.0 / sample_rate_hz)


def integrate_blocks(w: WipedSignal, search_halfwidth_hz: float = 200.0,
                     block_len_s: float | None = None) -> BlockSums:
    """The block sums of one frame, as a batch of one row.

    Blocks are ``block_len_s`` long from the first sample; the default is
    1/(16 search_halfwidth), and ``block_len_s = 0`` makes every sample a
    block of its own.
    """
    fs = w.sample_rate_hz
    mask = np.asarray(w.support_mask, dtype=bool)
    if not mask.any():
        raise ValueError("support mask is empty, nothing to estimate from")
    n = mask.size
    t = np.arange(n) / fs
    edges = np.arange(0, n, _block_samples(fs, search_halfwidth_hz, block_len_s))
    cnt = np.add.reduceat(mask.astype(np.float64), edges)
    tau = np.add.reduceat(t * mask, edges) / np.maximum(cnt, 1.0)
    first = int(mask.argmax())
    last = n - 1 - int(mask[::-1].argmax())
    return BlockSums(z=np.add.reduceat(w.samples, edges)[None], count=cnt[None],
                     tau=tau[None], span_s=_span(t[first], t[last], fs).reshape(1))


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.union1d and np.unique would import numpy.ma, a megabyte of modules
    both = np.sort(np.concatenate([a, b]))
    return both[np.diff(both, prepend=-1) != 0]


class BlockTable:
    """Block sums of noiseless wiped frames, computed from their states.

    Built once per frame layout, at one Doppler shift, without per-sample
    arrays; :meth:`at` gives the same layout at another shift.
    The table splits every half-interval at the default block boundaries of
    :func:`integrate_blocks` and keeps, per piece, the sum of the Doppler
    rotation over its samples, their number and the sum of their times.
    :meth:`blocks` then weights each piece by the wiped amplitude and mask of
    its state, adds the pieces of each block and writes the sums into a zero
    grid of every block, so a block wholly inside the pause or the trailing
    fill keeps zero sums: the same sums :func:`integrate_blocks` takes from
    the wiped sampled frame, without synthesizing samples.  Where both states
    have the same wiped amplitude and mask (PSK), every row of states gives
    the same block sums (:attr:`depends_on_states`).
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
        # the parts follow each other, so the pieces are in time order
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        lengths = ends - starts
        self.sample_rate_hz = fs
        self.n_half = n_half
        self._half = np.concatenate(halves)
        self._lengths = lengths
        self._first_s, self._last_s = starts / fs, (ends - 1) / fs
        self._rotate(f_d_hz)
        self._count = lengths.astype(np.float64)
        self._tsum = (starts + ends - 1) * lengths / (2.0 * fs)
        block = starts // b
        self._block_starts = np.flatnonzero(np.diff(block, prepend=-1))
        self._occupied = block[self._block_starts]      # the blocks that hold pieces
        self._n_blocks = -(-layout.n_samples // b)
        signs, kept = _wipe_rule(modulation, ask_zeroing)
        amps = amplitudes(modulation)
        # the real and imaginary parts of z are summed from real weights
        if any(a.imag for a in amps):
            raise ValueError(f"{modulation} amplitudes must be real, got {amps}")
        # per state 0 and 1
        self._kept = np.array(kept)
        self._amp = np.array([amps[s].real * signs[s] if kept[s] else 0.0 for s in (0, 1)])

    def _rotate(self, f_d_hz: float) -> None:
        # a piece's rotation sum is the rotation at its first sample times
        # the sum of the first ``length`` rotations from t = 0
        fs = self.sample_rate_hz
        partial = np.cumsum(doppler_rotation(f_d_hz, np.arange(self._lengths.max()) / fs))
        rotation = doppler_rotation(f_d_hz, self._first_s) * partial[self._lengths - 1]
        self.f_d_hz = f_d_hz
        self._rotation_re, self._rotation_im = rotation.real.copy(), rotation.imag.copy()

    def at(self, f_d_hz: float) -> "BlockTable":
        """The table of the same frames at Doppler shift ``f_d_hz``.

        It shares every layout array with this one and computes only the
        rotation sums of the pieces; at this table's own shift it is this table.
        """
        if f_d_hz == self.f_d_hz:
            return self
        shifted = copy.copy(self)
        shifted._rotate(f_d_hz)
        return shifted

    @property
    def depends_on_states(self) -> bool:
        """Whether :meth:`blocks` can give different rows for different states.

        False when states 0 and 1 have the same wiped amplitude and mask: the
        lookups in :meth:`blocks` then give the same weights whatever the
        states, so every row of block sums is the same, bit for bit.
        """
        return bool(self._kept[0] != self._kept[1] or self._amp[0] != self._amp[1])

    @property
    def batch_rows(self) -> int:
        """Frames per :meth:`blocks` call whose per-piece arrays stay within one chunk."""
        return max(1, _CHUNK_ELEMENTS // self._half.size)

    def blocks(self, states: np.ndarray) -> BlockSums:
        """Noiseless block sums of a batch of frames, one row each.

        A row of ``states`` holds the states of all parts of one frame,
        concatenated in order; its row of block sums is the one
        :func:`integrate_blocks` gives for that frame.
        """
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != self.n_half:
            raise ValueError(f"expected (frames, {self.n_half}) states, got shape {states.shape}")
        # each piece's state as an intp index, which the lookups take without a cast
        piece_state = states[:, self._half].astype(np.intp)
        kept, amp = self._kept[piece_state], self._amp[piece_state]
        del piece_state
        if not kept.any(axis=1).all():
            raise ValueError("support mask is empty, nothing to estimate from")
        weighted = np.empty(amp.shape)   # one buffer for every weighted sum

        def block_sums(weight, values):
            return np.add.reduceat(np.multiply(weight, values, out=weighted),
                                   self._block_starts, axis=1)

        def grid(sums):
            out = np.zeros((states.shape[0], self._n_blocks), dtype=sums.dtype)
            out[:, self._occupied] = sums
            return out
        z = block_sums(amp, self._rotation_re) + 1j * block_sums(amp, self._rotation_im)
        cnt = block_sums(kept, self._count)
        tau = block_sums(kept, self._tsum) / np.maximum(cnt, 1.0)
        first = kept.argmax(axis=1)
        last = kept.shape[1] - 1 - kept[:, ::-1].argmax(axis=1)
        span = _span(self._first_s[first], self._last_s[last], self.sample_rate_hz)
        return BlockSums(z=grid(z), count=grid(cnt), tau=grid(tau), span_s=span)


def _coarse_peaks(z: np.ndarray, tau: np.ndarray, df: np.ndarray,
                  k_max: np.ndarray) -> np.ndarray:
    """Highest cell of each row's grid f = k df, |k| <= k_max, as a frequency.

    exp(j 2 pi k df tau) for k = 1..max(k_max) comes as a cumulative product
    of one rotation per block, built in chunks of k that bound its size; the
    sums at f = -k df are those of conj(z).  Ties go to the lowest frequency.
    """
    rows, n_blocks = z.shape
    k_top = int(k_max.max())
    step = np.exp(2j * math.pi * (df[:, None] * tau))
    weights = np.stack([z, z.conj()], axis=-1)
    chunk = np.empty((max(1, min(k_top, _CHUNK_ELEMENTS // z.size)), rows, n_blocks),
                     dtype=complex)
    above, below = np.empty((rows, k_top)), np.empty((rows, k_top))
    reached = np.ones_like(step)     # step ** k at the last k done
    for k0 in range(0, k_top, chunk.shape[0]):
        n = min(chunk.shape[0], k_top - k0)
        for j in range(n):
            reached = np.multiply(reached, step, out=chunk[j])
        sums = np.abs(np.matmul(chunk[:n].transpose(1, 0, 2), weights)) ** 2
        above[:, k0:k0 + n], below[:, k0:k0 + n] = sums[..., 0], sums[..., 1]
    coarse = np.concatenate([below[:, ::-1], np.abs(z.sum(axis=1, keepdims=True)) ** 2, above],
                            axis=1)
    # columns beyond a row's own k_max belong to rows with a longer span
    coarse[np.abs(np.arange(-k_top, k_top + 1)) > k_max[:, None]] = -np.inf
    return (coarse.argmax(axis=1) - k_top) * df


def _derivatives(z: np.ndarray, tau: np.ndarray, f: np.ndarray):
    """First and second derivative of each row's P(f) = |S(f)|^2.

    S = sum z exp(j 2 pi f tau), S' = j 2 pi sum tau z exp(...),
    S'' = -(2 pi)^2 sum tau^2 z exp(...); P' = 2 Re(conj(S) S') and
    P'' = 2 (|S'|^2 + Re(conj(S) S'')).
    """
    terms = z * np.exp(2j * math.pi * (f[:, None] * tau))
    s0 = terms.sum(axis=1)
    terms *= tau
    s1 = 2j * math.pi * terms.sum(axis=1)
    terms *= tau
    s2 = -(2.0 * math.pi) ** 2 * terms.sum(axis=1)
    return 2.0 * (s0.conj() * s1).real, 2.0 * (np.abs(s1) ** 2 + (s0.conj() * s2).real)


def search_peak(blocks: BlockSums, search_halfwidth_hz: float = 200.0) -> EstimateReport:
    """Peak of each row's periodogram of pre-integrated blocks inside the search window.

    A coarse grid with spacing df = 1/(8 span) picks the highest cell f0.  A
    safeguarded Newton iteration on P'(f) then refines the peak inside
    [f0 - df, f0 + df] and the window: each step shrinks that bracket to the
    side where P' points uphill, and bisects it when P'' >= 0 or the Newton
    step would leave it.  After three steps, it stops after a Newton step of
    at most 1e-4 Hz, when the bracket is that narrow, or after a fixed
    number of iterations.  Every row is searched on its own grid and gives
    exactly what it gives when searched alone.
    """
    _check_halfwidth(search_halfwidth_hz)
    z, tau = blocks.z, blocks.tau
    df = 1.0 / (_COARSE_PADDING * blocks.span_s)
    k_max = np.floor(search_halfwidth_hz / df).astype(np.int64)
    f_hat = _coarse_peaks(z, tau, df, k_max)

    lo = np.maximum(f_hat - df, -search_halfwidth_hz)
    hi = np.minimum(f_hat + df, search_halfwidth_hz)
    iterations = np.zeros(f_hat.size, dtype=np.int64)
    active = np.arange(f_hat.size)
    for iteration in range(1, _MAX_REFINE + 1):
        f, lo_a, hi_a = f_hat[active], lo[active], hi[active]
        slope, curvature = _derivatives(z[active], tau[active], f)
        lo_a = np.where(slope > 0, f, lo_a)
        hi_a = np.where(slope < 0, f, hi_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -slope / curvature
        newton = (curvature < 0) & (f + step >= lo_a) & (f + step <= hi_a)
        f_hat[active] = np.where(newton, f + step, 0.5 * (lo_a + hi_a))
        lo[active], hi[active] = lo_a, hi_a
        iterations[active] = iteration
        if iteration < _MIN_REFINE:
            continue
        done = (newton & (np.abs(step) <= _FINE_TOL_HZ)) | (hi_a - lo_a <= _FINE_TOL_HZ)
        active = active[~done]
        if active.size == 0:
            break
    return EstimateReport(f_hat_hz=f_hat, refinement_iterations=iterations)


def _joined(batches: list) -> BlockSums:
    if len(batches) == 1:
        return batches[0]
    return BlockSums(*(np.concatenate([getattr(b, name) for b in batches])
                       for name in ("z", "count", "tau", "span_s")))


def _rows(blocks: BlockSums, start: int, stop: int) -> BlockSums:
    return BlockSums(blocks.z[start:stop], blocks.count[start:stop],
                     blocks.tau[start:stop], blocks.span_s[start:stop])


def search_rows(batches: Iterable[BlockSums], search_halfwidth_hz: float = 200.0) -> np.ndarray:
    """Peak of every row of a sequence of block-sum batches, in order.

    The batches must share their number of blocks.  Their rows are regrouped
    into chunks of _CHUNK_ELEMENTS // blocks rows, which :func:`search_peak`
    searches one at a time, so a search holds at most 1 MB per array however
    many batches come and however long each is.  A row gives the estimate it
    gives when searched alone.
    """
    found, held, n_held = [], [], 0
    for batch in batches:
        rows = max(1, _CHUNK_ELEMENTS // batch.z.shape[1])
        held.append(batch)
        n_held += batch.z.shape[0]
        if n_held < rows:
            continue
        joined, full = _joined(held), n_held - n_held % rows
        for start in range(0, full, rows):
            found.append(search_peak(_rows(joined, start, start + rows),
                                     search_halfwidth_hz).f_hat_hz)
        held, n_held = [_rows(joined, full, n_held)], n_held - full
    if n_held:
        found.append(search_peak(_joined(held), search_halfwidth_hz).f_hat_hz)
    return np.concatenate(found) if found else np.empty(0)


def estimate_doppler(w: WipedSignal, search_halfwidth_hz: float = 200.0,
                     block_len_s: float | None = None) -> EstimateReport:
    """Maximum-likelihood Doppler estimate over the masked support.

    :func:`integrate_blocks` followed by :func:`search_peak`.  The sign
    convention matches the synthesized rotation, so the returned frequency
    estimates the frame's true Doppler shift directly.
    """
    if not 0.0 < search_halfwidth_hz <= w.sample_rate_hz / 2.0:
        raise ValueError(f"search_halfwidth_hz: must lie in (0, fs/2] = "
                         f"(0, {w.sample_rate_hz / 2.0:.12g}] Hz, got {search_halfwidth_hz}")
    found = search_peak(integrate_blocks(w, search_halfwidth_hz, block_len_s),
                        search_halfwidth_hz)
    return EstimateReport(f_hat_hz=float(found.f_hat_hz[0]),
                          refinement_iterations=int(found.refinement_iterations[0]))


def classify_motion(f_hat_hz: float, v_ref: float, f_c_hz: float) -> str:
    """Threshold test at half the reference speed's Doppler shift.

    Direction-agnostic: the magnitude of the estimate is compared against
    the threshold; a tie counts as moving.
    """
    if v_ref <= 0:
        raise ValueError(f"reference speed must be positive, got {v_ref}")
    threshold = doppler_shift(v_ref, f_c_hz) / 2.0
    return "moving" if abs(f_hat_hz) >= threshold else "static"
