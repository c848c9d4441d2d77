"""The Monte Carlo engine: seeded frames, block-sum trials and their estimates.

The runners of experiments (run_mcrb_experiment, run_detection_experiment)
import this module as they start, so that bounds, vmin, noise-figure and the
closed-form figures run without numpy, baseband or estimator.  It calls
baseband and estimator through their modules, so that a wrapper set on one
of their functions sees every call.

A run's frames are described once, as a frame source of one list of signals:
the reply's parts (protocol.reply_signals) or a single burst at t = 0 in a t0
sweep.  A frame is one row of symbol words, every signal's in order
(baseband.frame_words), and the source lays the signals out on the sample
grid once, for all its frames.  Only trial 0 expands its row into states
(baseband.symbol_states), to sample it.

Everything here is deterministic for a given (config, seed).  Frame kind k of
a grid point (k = 0: MCRB trials and the static frame of a detection trial,
k = 1: the moving frame) has two counter-based Philox streams and a key for
trial 0's sample noise, each derived where it is read, with an iterated
SplitMix64 mix,

    derive_seed(master_seed, grid_index, 3 k + j), j = 0 bits, 1 block noise, 2 trial 0

and every trial takes a fixed stride of each stream.  Trial i's bits are the
i-th run of ceil(bits per frame / 64) raw words of the bits stream.  Before
any trial runs, a run draws trial 0's bits at every grid point and frame kind,
and where each trial's words give its block sums (gen2 ASK) also those of
its first batch, and encodes all of them in one baseband.frame_words call;
the frame source itself encodes nothing.  Trial 0 samples the states of its
row on the source's layout with per-sample noise (synthesize_reply,
add_awgn), after the other trials, so that a run never holds their rows and
its frame at once.  The others run on the block sums the estimator reads,
taken straight from the frames' words through the block table of their
frame source: a run builds one table per source and rotates it to each
other Doppler shift.  Trial i adds
the (i - 1)-th run of one complex value per block of the frame's block
grid from the block noise stream (add_block_awgn), scaled to the noise of
the block's summed samples (0 for a block without any).  Each
grid point and frame kind makes its trials' noisy block sums in batches that
bound memory, a batch drawing its trials' strides in one call per stream,
the same numbers as one trial after another.  One peak search then covers
the rows of every grid point and frame kind of a source, in chunks that
bound memory, and a row's estimate does not depend on the rows searched
with it.  So an estimate does not depend on batching, on run length or on
the other grid points, and re-runs give identical CSV.

Where the noiseless block sums cannot differ between trials, the batches
share one row of them and their trials draw no bits: rect frames carry no
bits, and under PSK the wipe-off maps both states to amplitude +1 and keeps
both in the mask, so every frame gives the same sums whatever its bits, and
the shared row comes from any trial 0's frame.  No trial after trial 0 reads
the bits stream then, so trial i's strides, and with them every estimate,
stay as they are; only gen2 ASK batches after the first draw and encode
their trials' bits.

The keys depend on the master seed and the indices only.  Runs that differ
only in modulation or ask_zeroing also take the same strides: they use common
random numbers, so their results are correlated; runs that differ in parts
take other strides of the same streams.  The gaussian detection model draws
each grid point's estimates from its own stream, derive_seed(master_seed,
grid_index).  Comparisons meant to be independent need distinct seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import baseband, estimator
from .experiments import ConfigError, ExperimentConfig, RunSetup, derive_seed


def _rng(seed: int) -> np.random.Generator:
    """A generator on the counter-based Philox stream of a 64-bit key (derive_seed)."""
    return np.random.Generator(np.random.Philox(key=seed))


def _random_bits(bit_generator: np.random.BitGenerator, rows: int, count: int) -> np.ndarray:
    """``rows`` rows of ``count`` bits, each row from its own ceil(count / 64) raw words."""
    words = bit_generator.random_raw(rows * -(-count // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8).reshape(rows, -1), axis=1, count=count,
                         bitorder="little").view(np.int8)


@dataclass(frozen=True)
class FrameSource:
    """One kind of simulated frame, in the sample and in the block domain.

    A frame takes one row of ``n_bits`` random bits, the payload bits of its
    signals in order; rect frames take none (``n_bits`` = 0), so all their
    frames are the same.  ``words`` turns an array of such rows, one frame
    per row, into one row of symbol words per frame, every signal's in order
    (:func:`baseband.frame_words`; rect: one 1-D row for every frame).  A
    symbol spans 2M half-intervals whatever its word, so all frames of a
    source share one sample ``layout``, from which the block table takes
    its sums and on which :func:`baseband.synthesize_reply` samples a row's
    states, and every symbol half the pattern ``symbol_half``
    (:func:`baseband.symbol_half`) that expands a row into them
    (:func:`baseband.symbol_states`); the source encodes no frame itself.
    """

    n_bits: int
    words: Callable
    layout: baseband.FrameLayout
    symbol_half: np.ndarray


def frame_source(setup: RunSetup, signals: list) -> FrameSource:
    """Frames of ``signals``, (kind, exact start time, symbol count) triples
    such as :func:`protocol.reply_signals` gives, of the setup's reader mode
    in its waveform model; the layout comes from the signals' state counts.
    A frame beyond baseband's frame-size limit is refused here, before any
    trial runs."""
    mode, model = setup.mode, setup.config.waveform_model
    m = mode.encoding.spread_factor
    counts = [(kind, start, 2 * m * n_symbols) for kind, start, n_symbols in signals]
    return FrameSource(sum(baseband.payload_bits(mode, model, signals)),
                       functools.partial(baseband.frame_words, mode, model, signals),
                       baseband.frame_layout(counts, mode.blf_hz),
                       baseband.symbol_half(m, model))


def _block_tables(config: ExperimentConfig, source: FrameSource, shifts: list) -> dict:
    """The block tables of a source's frames at each Doppler shift, every one
    inside the window: one table built at the first shift, rotated to the others."""
    for f_d in shifts:
        if not abs(f_d) < config.search_halfwidth_hz:
            raise ConfigError(f"v/v_grid: Doppler shift {f_d:.6g} Hz is not inside the "
                              f"search window, search_halfwidth_hz = "
                              f"{config.search_halfwidth_hz:.6g} Hz")
    table = estimator.BlockTable(source.layout, source.symbol_half, shifts[0], config.modulation,
                                 config.ask_zeroing, config.search_halfwidth_hz)
    return {f_d: table.at(f_d) for f_d in shifts}


# the three keys of a frame kind: j in derive_seed(seed, grid_index, 3 k + j)
_BITS, _BLOCK_NOISE, _TRIAL0_NOISE = range(3)


def _stream_key(seed: int, grid_index: int, k: int, j: int) -> int:
    """Key j (_BITS, _BLOCK_NOISE or _TRIAL0_NOISE) of frame kind k at a grid point."""
    return derive_seed(seed, grid_index, 3 * k + j)


def _repeated(row: estimator.BlockSums, rows: int) -> estimator.BlockSums:
    """``rows`` copies of one row of block sums, as read-only broadcast views."""
    return estimator.BlockSums(*(np.broadcast_to(a, (rows,) + a.shape[1:])
                                 for a in (row.z, row.count, row.tau, row.span_s)))


def _trial0(config: ExperimentConfig, source: FrameSource, table: estimator.BlockTable,
            states: np.ndarray, ratio_dbhz: float, grid_index: int, k: int) -> float:
    """Trial 0's estimate at a grid point: its frame, the ``states`` of one
    row of words of ``source`` at the Doppler shift of ``table``, runs the
    sample-level pipeline (sample on the source's layout with per-sample
    noise, wipe off, estimate)."""
    params = baseband.ChannelParams(f_d_hz=table.f_d_hz, ps_n0_dbhz=ratio_dbhz,
                                    seed=_stream_key(config.seed, grid_index, k, _TRIAL0_NOISE))
    # the frame is a temporary: held in a local until the return, it raised
    # the page faults of an mcrb job from about 500 to 840
    return estimator.estimate_doppler(
        estimator.wipe_modulation(baseband.synthesize_reply(states, source.layout,
                                                            config.modulation, params),
                                  ask_zeroing=config.ask_zeroing),
        search_halfwidth_hz=config.search_halfwidth_hz).f_hat_hz


def _batches(config: ExperimentConfig, source: FrameSource, table: estimator.BlockTable,
             shared: Optional[estimator.BlockSums], bit_generator: np.random.BitGenerator,
             words: np.ndarray, ratio_dbhz: float, grid_index: int, k: int):
    """The noisy block sums of trials 1 and up of frame kind k at a grid
    point, in batches of at most ``table.batch_rows``.

    The frames come from ``source`` at the Doppler shift of ``table``, the
    source's block table at that shift.  Each trial adds its stride of the
    block noise stream to the block sums of its noiseless wiped frame.
    Those block sums are the one row ``shared`` by every trial when it is
    given; then these trials draw no bits and encode nothing, which changes
    no estimate, as no other trial reads the bits stream.  Otherwise the
    first batch takes ``words``, which :func:`estimates` encodes, and each
    later batch draws its trials' bits from ``bit_generator`` and encodes
    them together.
    """
    noise_rng = _rng(_stream_key(config.seed, grid_index, k, _BLOCK_NOISE))
    for first in range(1, config.trials, table.batch_rows):
        rows = min(table.batch_rows, config.trials - first)
        if shared is None:
            if words is None:
                words = source.words(_random_bits(bit_generator, rows, source.n_bits))
            blocks, words = table.blocks(words), None
        else:
            blocks = _repeated(shared, rows)
        yield dataclasses.replace(blocks, z=baseband.add_block_awgn(
            blocks.z, blocks.count, ratio_dbhz, table.sample_rate_hz, noise_rng))


def estimates(config: ExperimentConfig, source: FrameSource, points: list) -> list:
    """Doppler estimates of every trial at each point, on frames of ``source``.

    A point is (Doppler shift, link ratio in dB-Hz, grid index, frame kind);
    every shift is checked against the search window before any trial runs.
    Before any trial, each point draws trial 0's row of its bits stream and,
    where its table depends on the words (gen2 ASK), the rows of its first
    batch; one :func:`baseband.frame_words` call encodes them all.  Where the
    noiseless block sums cannot differ between frames (the source takes no
    bits, rect, or the table does not depend on the words, PSK), each
    table's one row of them is computed once, for every point at its shift,
    from any of these frames.  One run-level search
    (:func:`estimator.search_rows`) covers trials 1 and up of every point
    (:func:`_batches`), and each point's trial 0 then samples the states of
    its row on the source's layout (:func:`_trial0`).
    """
    tables = _block_tables(config, source, list(dict.fromkeys(f_d for f_d, _, _, _ in points)))
    own_rows = {f_d for f_d, table in tables.items()
                if source.n_bits > 0 and table.depends_on_words}
    streams = [(np.random.Philox(key=_stream_key(config.seed, grid_index, k, _BITS)),
                min(tables[f_d].batch_rows, config.trials - 1) if f_d in own_rows else 0)
               for f_d, _, grid_index, k in points]
    # trial 0's row and the first batch's rows of each point, in stream order
    bits = np.concatenate([_random_bits(bit_generator, rows, source.n_bits)
                           for bit_generator, first in streams for rows in (1, first) if rows])
    words = source.words(bits)
    words = np.broadcast_to(words, (len(bits), words.shape[-1]))   # rect: one row for all
    shared = {f_d: None if f_d in own_rows else table.blocks(words[:1])
              for f_d, table in tables.items()}
    rows = list(itertools.accumulate((1 + first for _, first in streams), initial=0))
    # trial 0 runs last, on the states of its rows, so that a job never holds
    # a batch and trial 0's frame-sized arrays at once: held together, they
    # made glibc trim the heap after each mcrb job and fault it back in the
    # next (about 440 minor page faults a job against 15)
    trial0 = [baseband.symbol_states(words[row], source.symbol_half) for row in rows[:-1]]
    batches = [_batches(config, source, tables[f_d], shared[f_d], bit_generator,
                        words[row + 1:row + 1 + first], *rest)
               for (f_d, *rest), (bit_generator, first), row in zip(points, streams, rows)]
    del bits, words
    later = estimator.search_rows(itertools.chain.from_iterable(batches),
                                  search_halfwidth_hz=config.search_halfwidth_hz)
    return [np.append(_trial0(config, source, tables[f_d], frame, *rest), found)
            for (f_d, *rest), frame, found in zip(points, trial0,
                                                  later.reshape(len(points), config.trials - 1))]


def gaussian_estimates(config: ExperimentConfig, speeds: list) -> list:
    """(static, moving) estimates of each (v, f_d, sigma_sq) speed under the
    gaussian estimator model: ``trials`` draws each, of variance sigma_sq,
    around 0 Hz and f_d, from the grid point's own stream."""
    found = []
    for gi, (_, f_d, sigma_sq) in enumerate(speeds):
        rng = _rng(derive_seed(config.seed, gi))
        sd = math.sqrt(sigma_sq)
        found.append((sd * rng.standard_normal(config.trials),
                      f_d + sd * rng.standard_normal(config.trials)))
    return found


def error_stats(errors: np.ndarray) -> dict:
    """Statistics of the estimation errors of one grid point's trials."""
    n = errors.size
    return {
        "trials": int(n),
        "emp_var_hz2": float(errors.var(ddof=1)) if n > 1 else 0.0,
        "emp_mse_hz2": float(np.mean(errors ** 2)),
        "emp_mean_err_hz": float(errors.mean()),
    }
