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
samples are summed in blocks much shorter than 1/search_halfwidth, and never
longer than 1/32 of the frame, and each block keeps the exact time centroid
of its masked samples.  This regroups the sum without moving the peak of a
noiseless tone, and costs a negligible fraction both of the
post-integration SNR at the searched offsets and of the frame's information
for frequency: the block centroids keep at least 0.999 of the samples' time
spread, as N equal blocks keep 1 - 1/N^2 of it, however short the reply.
Block sums come in one form, a batch with one row
per frame (:class:`BlockSums`): integrate_blocks gives the one row of a
sampled frame, and BlockTable the rows of noiseless frames straight from
rows of their symbol words (baseband.frame_words), one table entry per
symbol and block, so Monte Carlo trials never expand a frame into states
or samples.  search_peak searches every row on its own, and a row gives
exactly what it gives when searched alone; search_rows searches the rows
of any number of batches in chunks of bounded size.
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
# the table entries one BlockTable.blocks batch takes and of each block-sum
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


def _block_samples(sample_rate_hz: float, search_halfwidth_hz: float, n_samples: int) -> int:
    """Samples of a block 1/(16 search_halfwidth) long, at least one and at
    most 1/32 of the frame's ``n_samples``.  N equal blocks keep 1 - 1/N^2 of
    the samples' time spread, the Fisher information for frequency, so a
    frame of 32 or more blocks keeps 0.999 of it however short it is; the
    cap also keeps a window of a few 1e-300 Hz from making a block too long
    for an int."""
    _check_halfwidth(search_halfwidth_hz)
    block_s = 1.0 / (16.0 * search_halfwidth_hz)
    return max(1, int(round(min(n_samples // 32, block_s * sample_rate_hz))))


def _span(first_s, last_s, sample_rate_hz: float):
    span = np.subtract(last_s, first_s)
    return np.where(span > 0, span, 1.0 / sample_rate_hz)


def integrate_blocks(w: WipedSignal, search_halfwidth_hz: float = 200.0) -> BlockSums:
    """The block sums of one frame, as a batch of one row, in blocks of
    :func:`_block_samples` from the first sample."""
    fs = w.sample_rate_hz
    mask = np.asarray(w.support_mask, dtype=bool)
    if not mask.any():
        raise ValueError("support mask is empty, nothing to estimate from")
    n = mask.size
    t = np.arange(n) / fs
    edges = np.arange(0, n, _block_samples(fs, search_halfwidth_hz, n))
    cnt = np.add.reduceat(mask.astype(np.float64), edges)
    tau = np.add.reduceat(t * mask, edges) / np.maximum(cnt, 1.0)
    first = int(mask.argmax())
    last = n - 1 - int(mask[::-1].argmax())
    return BlockSums(z=np.add.reduceat(w.samples, edges)[None], count=cnt[None],
                     tau=tau[None], span_s=_span(t[first], t[last], fs).reshape(1))


def _run_heads(key: np.ndarray) -> np.ndarray:
    """Whether each element of ``key`` starts a run of equal elements."""
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    return head


# Row w = 2 a + b, column g = 2 h + p: the state that symbol word (a, b) gives
# the samples of symbol half h (in state a, then b) where symbol_half holds p.
_WORD_STATES = ((np.arange(4)[:, None] >> (1 - np.arange(4) // 2)) & 1) ^ (np.arange(4) & 1)


class BlockTable:
    """Block sums of noiseless wiped frames, computed from their symbol words.

    Built once per frame layout, at one Doppler shift, without per-sample
    arrays; :meth:`at` gives the same layout at another shift.  A part of a
    frame is a run of symbols of 2M half-intervals, each half holding one
    state XOR ``symbol_half`` (:func:`baseband.symbol_half`), so a symbol
    takes one of four words, 2a + b for the states a and b of its halves
    (:func:`baseband.frame_words`).  The table splits each symbol into
    slots at the block edges of :func:`integrate_blocks` and
    keeps, per slot and word, the sums over its masked samples of the wiped
    amplitude times the Doppler rotation, of one and of the time, and the
    first and last masked time.  :meth:`blocks` takes each slot's entry for
    its symbol's word and adds the entries of each block into a zero grid of
    every block: the sums :func:`integrate_blocks` takes from the wiped
    sampled frame.  Where the four words give the same entries (PSK), every
    row of words gives the same block sums (:attr:`depends_on_words`).
    """

    def __init__(self, layout: FrameLayout, symbol_half: np.ndarray, f_d_hz: float,
                 modulation: str, ask_zeroing: bool = True, search_halfwidth_hz: float = 200.0):
        fs, m, edges = layout.sample_rate_hz, symbol_half.size, layout.edges
        b = _block_samples(fs, search_halfwidth_hz, layout.n_samples)
        if any((e.size - 1) % (2 * m) for e in edges):
            raise ValueError(f"symbol_half: a part is not a run of symbols of {2 * m} "
                             f"half-intervals")
        # a piece of a half-interval starts at its start or a block edge (a
        # stable sort puts a half-interval first; np.unique and np.union1d
        # would import numpy.ma, a megabyte of modules) and ends at the next
        # piece's start or the half-interval's end
        half_starts = np.concatenate([e[:-1] for e in edges])
        both = np.concatenate([half_starts, *(np.arange((e[0] // b + 1) * b, e[-1], b)
                                              for e in edges)])
        order = both.argsort(kind="stable")
        order = order[_run_heads(both[order])]
        starts, half = both[order], (order < half_starts.size).cumsum() - 1
        ends = np.minimum(np.concatenate([starts[1:], [layout.n_samples]]),
                          np.concatenate([e[1:] for e in edges])[half])
        self.sample_rate_hz, self.n_symbols = fs, half_starts.size // (2 * m)
        self._n_blocks = -(-layout.n_samples // b)
        # a slot is the pieces of one symbol in one block, in time order
        symbol, block = half // (2 * m), starts // b
        new_slot = _run_heads(symbol * self._n_blocks + block)
        slot_starts = new_slot.nonzero()[0]
        self._slot_symbol = symbol[slot_starts]
        self._block_starts = _run_heads(block[slot_starts]).nonzero()[0]
        self._occupied = block[slot_starts[self._block_starts]]    # the blocks that hold slots
        self._slots = np.arange(slot_starts.size)
        # a piece adds the real part of a value to its group, symbol half h
        # and state p in symbol_half, at (2 h + p) slots + slot, the imaginary
        # part 4 slots on; a table row holds word w of a slot at w slots + slot
        n = 4 * slot_starts.size
        self._word_entries = slot_starts.size * np.arange(4)
        group = new_slot.cumsum() - 1 + slot_starts.size * (
            2 * np.arange(2)[:, None] + symbol_half).ravel()[half % (2 * m)]
        self._groups = (group[:, None] + [0, n]).ravel()
        lengths = ends - starts
        self._first_s, self._last_sample = starts / fs, lengths - 1
        self._sample_s = np.arange(lengths.max()) / fs
        signs, kept = _wipe_rule(modulation, ask_zeroing)
        amps = amplitudes(modulation)
        # the real and imaginary parts of z are summed from real weights
        if any(a.imag for a in amps):
            raise ValueError(f"{modulation} amplitudes must be real, got {amps}")
        self._amp = np.array([amps[s].real * signs[s] if kept[s] else 0.0
                              for s in (0, 1)])[_WORD_STATES]
        # rows: z's real and imaginary part, sample count, time sum, first
        # masked time and minus the last
        self._table = np.empty((6, n))
        self._rotate(f_d_hz)
        self._table[2:4] = self._by_word(lengths + 1j * ((starts + ends - 1) * lengths / (2 * fs)),
                                         np.array(kept, dtype=float)[_WORD_STATES])
        # a word's first and minus last masked time: the least of its groups'
        # in a state kept in the mask
        bounds = np.full(2 * n, np.inf)
        np.minimum.at(bounds, self._groups, (self._first_s + 1j * ((1 - ends) / fs)).view(float))
        dropped = np.where(kept, 0.0, np.inf)[_WORD_STATES][:, :, None]
        self._table[4:] = (bounds.reshape(2, 1, 4, -1) + dropped).min(axis=2).reshape(2, n)
        # whether blocks can give different rows for different words: whether
        # the words' entries differ anywhere; the words of PSK have the same
        # weights, so their entries agree bit for bit at every shift
        words = self._table.reshape(6, 4, -1)
        self.depends_on_words = bool((words != words[:, :1]).any())

    def _by_word(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per word and slot, the sums over the slot's groups of the weight of
        the state the word gives the group (``weights``, a row per word) times
        the group's sum of the real parts of ``values``, and of the imaginary
        parts: two rows of entries."""
        groups = np.bincount(self._groups, values.view(float), 8 * self._slots.size)
        return np.einsum("wg,cgs->cws", weights, groups.reshape(2, 4, -1)).reshape(2, -1)

    def _rotate(self, f_d_hz: float) -> None:
        # a piece's rotation sum is the rotation at its first sample times
        # the sum of the first ``length`` rotations from t = 0
        partial = doppler_rotation(f_d_hz, self._sample_s).cumsum()
        rotation = doppler_rotation(f_d_hz, self._first_s) * partial[self._last_sample]
        self.f_d_hz = f_d_hz
        self._table[:2] = self._by_word(rotation, self._amp)

    def at(self, f_d_hz: float) -> "BlockTable":
        """The table of the same frames at Doppler shift ``f_d_hz``.

        It shares every layout array with this one and recomputes only the
        rotation sums; at this table's own shift it is this table.
        """
        if f_d_hz == self.f_d_hz:
            return self
        shifted = copy.copy(self)
        shifted._table = self._table.copy()
        shifted._rotate(f_d_hz)
        return shifted

    @property
    def batch_rows(self) -> int:
        """Frames per :meth:`blocks` call whose slots' entries stay within one chunk."""
        return max(1, _CHUNK_ELEMENTS // (6 * self._slots.size))

    def blocks(self, words: np.ndarray) -> BlockSums:
        """Noiseless block sums of a batch of frames, one row each.

        A row of ``words`` holds the int8 symbol words of all parts of one
        frame, concatenated in order (:func:`baseband.frame_words`); its row
        of block sums is the one :func:`integrate_blocks` gives for that
        frame.
        """
        if words.dtype != np.int8 or words.ndim != 2 or words.shape[1] != self.n_symbols:
            raise ValueError(f"words: expected int8 words of shape (frames, {self.n_symbols}), "
                             f"got {words.dtype} of shape {words.shape}")
        entries = self._word_entries.take(words.take(self._slot_symbol, axis=1)) + self._slots
        values = self._table.take(entries, axis=1)
        first, minus_last = values[4:].min(axis=2)
        if first.max() == np.inf:
            raise ValueError("support mask is empty, nothing to estimate from")
        # each block adds its slots' entries into a zero grid of every block
        grid = np.zeros((4, words.shape[0], self._n_blocks))
        grid[:, :, self._occupied] = np.add.reduceat(values[:4], self._block_starts, axis=2)
        re, im, cnt, tsum = grid
        return BlockSums(z=re + 1j * im, count=cnt, tau=tsum / np.maximum(cnt, 1.0),
                         span_s=_span(first, -minus_last, self.sample_rate_hz))


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


def estimate_doppler(w: WipedSignal, search_halfwidth_hz: float = 200.0) -> EstimateReport:
    """Maximum-likelihood Doppler estimate over the masked support.

    :func:`integrate_blocks` followed by :func:`search_peak`.  The sign
    convention matches the synthesized rotation, so the returned frequency
    estimates the frame's true Doppler shift directly.
    """
    if not 0.0 < search_halfwidth_hz <= w.sample_rate_hz / 2.0:
        raise ValueError(f"search_halfwidth_hz: must lie in (0, fs/2] = "
                         f"(0, {w.sample_rate_hz / 2.0:.12g}] Hz, got {search_halfwidth_hz}")
    found = search_peak(integrate_blocks(w, search_halfwidth_hz), search_halfwidth_hz)
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
