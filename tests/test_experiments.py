"""Config handling, seeded runners, figure datasets, and CSV output."""

import dataclasses
import io
import math

import numpy as np
import pytest

from rfid_doppler import baseband as B
from rfid_doppler import bounds as bd
from rfid_doppler import estimator as E
from rfid_doppler import experiments as X
from rfid_doppler import montecarlo as MC
from rfid_doppler import protocol as P
from rfid_doppler.experiments import ConfigError, ExperimentConfig

MODE290_CT = 7.31515841379e-7


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_from_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sim setup\n"
        "mode_label = Mode 290\n"
        "p_err = 0.01\n"
        "trials = 25\n"
        "v_grid = 0.5, 1.0, 2.0\n"
        "modulation = psk\n"
        "ask_zeroing = false\n",
        encoding="utf-8")
    config = ExperimentConfig.from_file(path)
    assert config.mode_label == "Mode 290"
    assert config.p_err == 0.01
    assert config.trials == 25
    assert config.v_grid == [0.5, 1.0, 2.0]
    assert config.modulation == "psk"
    assert config.ask_zeroing is False
    config.validate()


@pytest.mark.parametrize("line", ["modulation psk", "= psk"])
def test_config_file_lines_must_be_key_value(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment\n\ntrials = 5\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":4: expected 'key = value'"):
        ExperimentConfig.from_file(path)


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="no_such_key"):
        ExperimentConfig().set_field("no_such_key", "1")
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig().set_field("trials", "many")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)
                                  if "float" in str(f.type)])
def test_every_float_setting_rejects_non_finite_text(name):
    # each field declares its own parser; a number or a list of numbers must be finite
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"^{name}: must be a finite number"):
            ExperimentConfig().set_field(name, text)


def test_trials_have_a_ceiling():
    # 2^24 trials take 128 MiB per array of estimates; the check allocates nothing
    ExperimentConfig(trials=1 << 24).validate()
    for trials in ((1 << 24) + 1, 2_000_000_000):
        with pytest.raises(ConfigError, match=f"^trials: must lie in \\[1, 16777216\\], "
                                              f"got {trials}$"):
            ExperimentConfig(trials=trials).validate()


@pytest.mark.parametrize("field,value,needle", [
    ("trials", 0, "trials"),
    ("p_err", 0.5, "p_err"),
    ("parts", "preamble", "parts"),
    ("modulation", "fm", "modulation"),
    ("waveform_model", "square", "waveform_model"),
    ("epc_bits", 200, "epc_bits"),
    ("v", -1.0, "v"),
    ("v_grid", [2.0, 1.0], "v_grid"),
    ("sweep_param", "bandwidth", "sweep_param"),
    ("estimator_model", "oracle", "estimator_model"),
])
def test_validate_names_the_offending_field(field, value, needle):
    config = ExperimentConfig()
    setattr(config, field, value)
    if field == "sweep_param":
        config.sweep_values = [1.0]
    with pytest.raises(ConfigError, match=needle):
        config.validate()


@pytest.mark.parametrize("name, text, value", [
    ("blf_hz", "1e9", 1e9),
    ("epc_bits", "200", 200),
    ("f_c_hz", "1e5", 1e5),
    ("p_err", "0.7", 0.7),
    ("ps_n0_dbhz", "1e4", 1e4),
    ("p_s_dbm", "-400", -400.0),
    ("n0_dbm_hz", "-180", -180.0),
    ("nf_db", "-5", -5.0),
    ("v", "3e8", 3e8),
    ("v_grid", "0.5,0", [0.5, 0.0]),
    ("trials", "0", 0),
    ("waveform_model", "square", "square"),
    ("modulation", "qam", "qam"),
    ("parts", "preamble", "preamble"),
    ("search_halfwidth_hz", "0", 0.0),
    ("estimator_model", "oracle", "oracle"),
    ("sigma_sq_hz2", "-1", -1.0),
    ("sweep_param", "bandwidth", "bandwidth"),
    ("sweep_values", "2,1", [2.0, 1.0]),
    ("encoding", "bogus", "bogus"),
    ("mode_label", "Mode 999", "Mode 999"),
])
def test_one_rule_per_setting(name, text, value):
    # a setting's text form and a value set in code meet the same rule
    with pytest.raises(ConfigError) as from_text:
        ExperimentConfig().set_field(name, text)
    config = ExperimentConfig()
    setattr(config, name, value)
    with pytest.raises(ConfigError) as from_value:
        config.validate()
    assert str(from_text.value).startswith(f"{name}: ")
    assert str(from_value.value) == str(from_text.value)


@pytest.mark.parametrize("name, value", [
    ("trials", 2.5), ("trials", 3.0), ("seed", 1.7), ("seed", np.float64(2.0)),
    ("epc_bits", 96.5), ("epc_bits", 96.0),
])
def test_integer_settings_refuse_every_other_number(name, value):
    # int() would truncate a float and leave the run to fail on it
    with pytest.raises(ConfigError, match=f"^{name}: must be an integer, got "):
        ExperimentConfig(**{name: value}).validate()
    with pytest.raises(ConfigError, match=f"^{name}: must be an integer, got '{value}'$"):
        ExperimentConfig().set_field(name, str(value))
    ExperimentConfig(**{name: np.int64(96)}).validate()


def test_a_fractional_trial_count_fails_as_a_config_error():
    config = ExperimentConfig(mode_label="Mode 204", p_err=0.05, trials=2.5,
                              estimator_model="baseband", modulation="psk")
    with pytest.raises(ConfigError, match="^trials: must be an integer, got 2.5$"):
        X.run_detection_experiment(config)


@pytest.mark.parametrize("config, name", [
    (ExperimentConfig(blf_hz=40e3, encoding="bogus", mode_label=None), "encoding"),
    (ExperimentConfig(mode_label="Mode 999"), "mode_label"),
])
def test_names_are_checked_by_their_own_fields(config, name):
    with pytest.raises(ConfigError, match=f"^{name}: "):
        config.validate()


def test_name_settings_keep_their_text():
    # the config echo of every CSV header prints the text as given
    config = ExperimentConfig()
    config.set_field("encoding", "miller-8")
    config.set_field("mode_label", "Mode 204")
    assert (config.encoding, config.mode_label) == ("miller-8", "Mode 204")
    config.set_field("blf_hz", "40e3")
    config.validate()
    assert "encoding = miller-8" in config.comment_lines(X.MCRB_SETTINGS)


def test_speeds_lie_below_light():
    c = bd.SPEED_OF_LIGHT
    ExperimentConfig(v=0.0, v_grid=[1e-9, math.nextafter(c, 0.0)]).validate()
    for config in (ExperimentConfig(v=c), ExperimentConfig(v_grid=[1.0, 1e300]),
                   ExperimentConfig(v_grid=[0.0, 1.0])):
        with pytest.raises(ConfigError, match="^v(_grid)?: must lie in "):
            config.validate()


def test_validate_sweep_pairing_and_link_conflicts():
    with pytest.raises(ConfigError, match="sweep_param"):
        ExperimentConfig(sweep_values=[1.0, 2.0]).validate()
    with pytest.raises(ConfigError, match="ps_n0_dbhz"):
        ExperimentConfig(ps_n0_dbhz=52.8, p_s_dbm=-95.8).validate()
    with pytest.raises(ConfigError, match="blf_hz"):
        ExperimentConfig(blf_hz=40e3).validate()
    # a noise term goes with the tag power only
    with pytest.raises(ConfigError, match="^nf_db: a noise term is read only with p_s_dbm"):
        ExperimentConfig(nf_db=3.0).validate()
    with pytest.raises(ConfigError, match="^n0_dbm_hz: a noise term is read only with p_s_dbm"):
        ExperimentConfig(ps_n0_dbhz=50.0, n0_dbm_hz=-150.0, nf_db=3.0).validate()


def test_resolve_builds_the_reader_mode():
    explicit = X.resolve(ExperimentConfig(mode_label=None, blf_hz=40e3,
                                          encoding="miller-8")).mode
    assert explicit.encoding is P.MILLER8 and explicit.blf_hz == 40e3
    catalog = X.resolve(ExperimentConfig(epc_bits=256)).mode
    assert catalog.label == "Mode 290" and catalog.epc_bits == 256
    with pytest.raises(ConfigError, match="mode_label"):
        X.resolve(ExperimentConfig(mode_label="Mode 0"))
    with pytest.raises(ConfigError, match="blf_hz"):
        X.resolve(ExperimentConfig(mode_label=None, blf_hz=30e3, encoding="fm0"))


def test_resolve_builds_the_link_budget():
    assert X.resolve(ExperimentConfig()).link.ps_n0_dbhz == 52.8
    assert X.resolve(ExperimentConfig(ps_n0_dbhz=60.0)).link.ps_n0_dbhz == 60.0
    link = X.resolve(ExperimentConfig(p_s_dbm=-95.8, nf_db=25.4)).link
    assert link.ps_n0_dbhz == pytest.approx(52.8)
    with pytest.raises(ConfigError, match="p_s_dbm"):
        X.resolve(ExperimentConfig(p_s_dbm=-95.8))


def test_resolve_gives_the_timing_factor_of_the_configured_parts():
    setup = X.resolve(ExperimentConfig(parts="epc"))
    assert setup.timing == P.reply_timing(P.find_reader_mode("Mode 290"))
    assert setup.c_t == bd.timing_factor(setup.timing, "epc")


def test_resolve_reads_the_parsed_settings():
    # the mode is built from each setting's parsed value, not the one given:
    # the text "false" is no pilot tone, so the Miller preamble has 10 symbols
    setup = X.resolve(ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="miller-8",
                                       trext="false"))
    assert setup.mode.trext is False and setup.config.trext is False
    assert P.preamble_symbols(setup.mode.encoding, setup.mode.trext) == 10
    # a catalog label is looked up stripped
    assert X.resolve(ExperimentConfig(mode_label=" Mode 290 ")).mode == \
        P.find_reader_mode("Mode 290")
    config = ExperimentConfig(trials="25", v_grid="0.5, 1")
    parsed = config.validate()
    assert (parsed.trials, parsed.v_grid) == (25, [0.5, 1.0])
    assert (config.trials, config.v_grid) == ("25", "0.5, 1")


def test_derive_seed_is_deterministic_and_spreads():
    a = X.derive_seed(1, 0, 0)
    assert a == X.derive_seed(1, 0, 0)
    seen = {X.derive_seed(1, g, i) for g in range(4) for i in range(64)}
    assert len(seen) == 4 * 64
    assert all(0 <= s < 2 ** 64 for s in seen)
    assert X.derive_seed(2, 0, 0) != a


def test_philox_streams_split_into_uneven_pieces_as_one_draw():
    # one stream per grid point rests on this: a batch's one draw equals its
    # trials' draws one after another, whatever the batch size
    pieces = (1, 6, 333, 660)
    whole = np.random.Generator(np.random.Philox(key=9)).standard_normal(1000)
    rng = np.random.Generator(np.random.Philox(key=9))
    assert np.array_equal(np.concatenate([rng.standard_normal(n) for n in pieces]), whole)
    whole = np.random.Philox(key=9).random_raw(1000)
    bit_generator = np.random.Philox(key=9)
    assert np.array_equal(np.concatenate([bit_generator.random_raw(n) for n in pieces]), whole)
    # integers() with a small dtype drops the unused bits of its last word at
    # the end of a call, so split draws differ: bits come from random_raw
    whole = np.random.Generator(np.random.Philox(key=9)).integers(0, 2, 1000, dtype=np.int8)
    rng = np.random.Generator(np.random.Philox(key=9))
    split = np.concatenate([rng.integers(0, 2, n, dtype=np.int8) for n in pieces])
    assert not np.array_equal(split, whole)


def test_stream_keys_are_distinct_across_kinds_and_grid_points():
    # trial 0's sample noise never reuses the block noise of trial 1, nor the
    # static frame the moving frame's numbers
    point = [MC._stream_key(7, 2, k, j) for k in (0, 1) for j in range(3)]
    assert len(set(point)) == 6
    keys = {MC._stream_key(7, g, k, j) for g in range(4) for k in (0, 1) for j in range(3)}
    assert len(keys) == 4 * 6
    # nor the gaussian detection model's per-grid-point key
    assert keys.isdisjoint({X.derive_seed(7, g) for g in range(4)})


def test_random_bits_take_a_fixed_stride_of_raw_words():
    rows = MC._random_bits(np.random.Philox(key=5), 3, 70)
    assert rows.shape == (3, 70) and rows.dtype == np.int8
    words = np.random.Philox(key=5).random_raw(6)
    # row r holds the low 70 bits of words 2r and 2r + 1, least significant first
    for r in range(3):
        expected = [(int(words[2 * r + i // 64]) >> (i % 64)) & 1 for i in range(70)]
        assert rows[r].tolist() == expected
    bit_generator = np.random.Philox(key=5)
    assert np.array_equal(np.concatenate([MC._random_bits(bit_generator, n, 70)
                                          for n in (1, 2)]), rows)


# ---------------------------------------------------------------------------
# MCRB runner
# ---------------------------------------------------------------------------

def fast_mcrb_config(**kw):
    base = dict(mode_label=None, blf_hz=640e3, encoding="FM0", ps_n0_dbhz=52.8,
                modulation="ask", parts="epc", waveform_model="rect",
                trials=8, seed=31)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_mcrb_rows_are_deterministic_and_complete():
    config = fast_mcrb_config()
    comments, fieldnames, rows = X.run_mcrb_experiment(config)
    again = X.run_mcrb_experiment(config)
    assert rows == again[2] and comments == again[0]
    assert fieldnames == X.MCRB_REPLY_FIELDS
    row = rows[0]
    assert row["trials"] == 8
    assert set(fieldnames) <= set(row)


@pytest.mark.parametrize("k", [0, 1])
def test_trial_estimates_do_not_depend_on_the_run_length(monkeypatch, k):
    # trial 0 runs on samples, the others on block sums; trial i takes the
    # same strides of its grid point's streams either way
    config = ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="Miller8",
                              ps_n0_dbhz=52.8, modulation="ask", parts="both", seed=3)
    f_d = bd.doppler_shift(config.v, config.f_c_hz)

    def estimates(trials):
        run = dataclasses.replace(config, trials=trials)
        setup = X.resolve(run)
        source = MC.frame_source(setup, P.reply_signals(setup.mode, run.parts))
        found, = MC.estimates(run, source, [(f_d, 52.8, 0, k)])
        return found

    six = estimates(6)
    assert np.array_equal(estimates(1), six[:1])
    assert np.array_equal(estimates(3), six[:3])
    assert np.all(np.abs(six - f_d) < 1.0)
    # two frames per block-sum batch (4 table rows of 277 symbol slots per
    # frame): runs of 4 and 6 trials end inside a batch and cross batch
    # boundaries, and one search before trial 0's covers all their batches
    # (28 rows of 116 blocks per chunk)
    batches, searches = [], []
    blocks, search = E.BlockTable.blocks, E.search_peak

    def recording_blocks(table, words):
        batches.append(words.shape[0])
        return blocks(table, words)

    def recording_search(found, *args, **kwargs):
        searches.append(found.z.shape)
        return search(found, *args, **kwargs)

    monkeypatch.setattr(E.BlockTable, "blocks", recording_blocks)
    monkeypatch.setattr(E, "search_peak", recording_search)
    monkeypatch.setattr(E, "_CHUNK_ELEMENTS", 3 * 4 * 277 - 1)
    assert np.array_equal(estimates(4), six[:4])
    assert batches == [2, 1]
    assert searches == [(3, 116), (1, 116)]
    assert np.array_equal(estimates(6), six)
    assert batches == [2, 1, 2, 2, 1]
    assert searches == [(3, 116), (1, 116), (5, 116), (1, 116)]


def per_trial_estimates(config, source, table, ratio_dbhz, k):
    """Trials 1 and up one by one, each drawing and encoding its bits and
    taking its block sums from its own words."""
    bit_generator = np.random.Philox(key=MC._stream_key(config.seed, 0, k, MC._BITS))
    MC._random_bits(bit_generator, 1, source.n_bits)   # trial 0's stride
    noise_rng = MC._rng(MC._stream_key(config.seed, 0, k, MC._BLOCK_NOISE))
    out = []
    for _ in range(1, config.trials):
        bits = MC._random_bits(bit_generator, 1, source.n_bits)
        words = source.words(bits)
        blocks = table.blocks(np.broadcast_to(words, (1, words.shape[-1])))
        z = B.add_block_awgn(blocks.z, blocks.count, ratio_dbhz, table.sample_rate_hz,
                             noise_rng)
        out.append(E.search_peak(dataclasses.replace(blocks, z=z)).f_hat_hz[0])
    return np.array(out)


@pytest.mark.parametrize("modulation, waveform",
                         [("ask", "gen2"), ("psk", "gen2"), ("psk", "rect"), ("ask", "rect")])
def test_trial_estimates_do_not_depend_on_batching(monkeypatch, modulation, waveform):
    # ASK gen2 blocks come from each trial's words, the others from one shared row
    config = ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="Miller8",
                              ps_n0_dbhz=52.8, modulation=modulation, parts="both",
                              waveform_model=waveform, trials=7, seed=5)
    setup = X.resolve(config)
    source = MC.frame_source(setup, P.reply_signals(setup.mode, config.parts))
    f_d = bd.doppler_shift(config.v, config.f_c_hz)
    table, = MC._block_tables(config, source, [f_d]).values()
    assert (source.n_bits > 0 and table.depends_on_words) == (
        (modulation, waveform) == ("ask", "gen2"))
    one_batch, = MC.estimates(config, source, [(f_d, 52.8, 0, 0)])
    assert np.array_equal(one_batch[1:], per_trial_estimates(config, source, table, 52.8, 0))
    # 3,000-element chunks: one trial per batch and per search, 26 coarse
    # cells per chunk of k
    monkeypatch.setattr(E, "_CHUNK_ELEMENTS", 3000)
    assert np.array_equal(MC.estimates(config, source, [(f_d, 52.8, 0, 0)])[0], one_batch)


def test_searching_grid_points_together_changes_no_estimate(monkeypatch):
    # the Mode 204 detection of the benchmark: static and moving frames of
    # three speeds, 33 blocks of 255 samples per 8,180-sample frame
    config = ExperimentConfig(mode_label="Mode 204", p_err=0.05, trials=10, seed=6,
                              estimator_model="baseband", modulation="psk")
    setup = X.resolve(config)
    source = MC.frame_source(setup, P.reply_signals(setup.mode, config.parts))
    points = [(f, 62.0 - gi, gi, k) for gi, v in enumerate((0.5, 1.0, 2.0))
              for k, f in enumerate((0.0, bd.doppler_shift(v, config.f_c_hz)))]
    together = MC.estimates(config, source, points)
    for point, found in zip(points, together):
        alone, = MC.estimates(config, source, [point])
        assert np.array_equal(found, alone)
    searches = []
    search = E.search_peak

    def recording_search(found, *args, **kwargs):
        searches.append(found.z.shape)
        return search(found, *args, **kwargs)

    monkeypatch.setattr(E, "search_peak", recording_search)
    MC.estimates(config, source, points)
    assert searches == [(54, 33)] + [(1, 33)] * 6
    # chunks of 7 rows: the 54 rows of trials 1-9 at 6 points take 8 searches,
    # and 6 of the 7 chunk boundaries fall inside a point's 9 rows
    monkeypatch.setattr(E, "_CHUNK_ELEMENTS", 7 * 33)
    searches.clear()
    chunked = MC.estimates(config, source, points)
    assert all(np.array_equal(a, b) for a, b in zip(chunked, together))
    assert searches == [(7, 33)] * 7 + [(5, 33)] + [(1, 33)] * 6
    assert all(rows * blocks <= E._CHUNK_ELEMENTS for rows, blocks in searches)


class CountingBlockTable(E.BlockTable):
    built = 0
    shifts = []

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)

    def at(self, f_d_hz):
        shifted = super().at(f_d_hz)
        if shifted is not self:
            type(self).shifts.append(f_d_hz)
        return shifted


@pytest.mark.parametrize("config, tables, shifts", [
    (ExperimentConfig(mode_label="Mode 204", p_err=0.05, v_grid=[0.5, 1.0, 2.0], trials=3,
                      estimator_model="baseband", modulation="psk"),
     1, [bd.doppler_shift(v, 868e6) for v in (0.5, 1.0, 2.0)]),
    (ExperimentConfig(mode_label="Mode 204", trials=3, sweep_param="ps_n0_dbhz",
                      sweep_values=[60.0, 70.0, 80.0]), 1, []),
    (ExperimentConfig(blf_hz=640e3, encoding="FM0", ps_n0_dbhz=52.8, trials=3,
                      sweep_param="t0_s", sweep_values=[2e-4, 1e-3]), 2, []),
], ids=["detect-3-speeds", "ratio-sweep-3", "t0-sweep-2"])
def test_a_run_builds_one_block_table_per_source_and_rotates_it_to_other_shifts(
        monkeypatch, config, tables, shifts):
    # a table is built at a run's first shift (detection: 0, that of every
    # static frame) and rotated to each other one
    monkeypatch.setattr(CountingBlockTable, "built", 0)
    monkeypatch.setattr(CountingBlockTable, "shifts", [])
    monkeypatch.setattr(E, "BlockTable", CountingBlockTable)
    if config.estimator_model == "baseband":
        X.run_detection_experiment(config)
    else:
        X.run_mcrb_experiment(config)
    assert CountingBlockTable.built == tables
    assert CountingBlockTable.shifts == shifts


def test_each_table_computes_its_shared_row_once(monkeypatch):
    # PSK static frames of three speeds share the table at 0 Hz: four tables,
    # one noiseless row each, whatever the number of grid points at a shift
    config = ExperimentConfig(mode_label="Mode 204", p_err=0.05, v_grid=[0.5, 1.0, 2.0],
                              trials=3, estimator_model="baseband", modulation="psk")
    calls = []
    blocks = E.BlockTable.blocks

    def counting_blocks(table, words):
        calls.append((table.f_d_hz, words.shape[0]))
        return blocks(table, words)

    monkeypatch.setattr(E.BlockTable, "blocks", counting_blocks)
    X.run_detection_experiment(config)
    assert calls == [(0.0, 1)] + [(bd.doppler_shift(v, 868e6), 1) for v in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("modulation, waveform, calls", [
    ("psk", "gen2", 1), ("psk", "rect", 0), ("ask", "rect", 0), ("ask", "gen2", 1 + 3)])
def test_only_gen2_ask_trials_after_trial_0_draw_bits(monkeypatch, modulation, waveform, calls):
    # 40 trials in batches of 13 (4 table rows of 277 symbol slots per Miller-8
    # frame) after trial 0
    monkeypatch.setattr(E, "_CHUNK_ELEMENTS", 13 * 4 * 277)
    drawn = []
    random_bits = MC._random_bits

    def counting_bits(bit_generator, rows, count):
        drawn.append((rows, count))
        return random_bits(bit_generator, rows, count)

    monkeypatch.setattr(MC, "_random_bits", counting_bits)
    X.run_mcrb_experiment(ExperimentConfig(
        mode_label=None, blf_hz=40e3, encoding="Miller8", ps_n0_dbhz=52.8,
        modulation=modulation, waveform_model=waveform, trials=40, seed=2))
    # trial 0 takes one row of RN16 + EPC + CRC bits, an empty row for rect frames
    assert drawn[0] == (1, 0 if waveform == "rect" else 16 + 96 + 16)
    assert [rows for rows, count in drawn if count] == [1, 13, 13, 13][:calls]


def counting_frame_words(monkeypatch):
    """The number of rows of every baseband.frame_words call from now on."""
    rows = []
    frame_words = B.frame_words

    def counting(mode, waveform_model, signals, bits):
        rows.append(np.shape(bits)[0])
        return frame_words(mode, waveform_model, signals, bits)

    monkeypatch.setattr(B, "frame_words", counting)
    return rows


@pytest.mark.parametrize("model", ["gen2", "rect"])
@pytest.mark.parametrize("mode, signals", [
    (P.find_reader_mode("Mode 204"), P.reply_signals(P.find_reader_mode("Mode 204"), "both")),
    (P.ReaderMode("m8", 40e3, P.MILLER8), P.reply_signals(P.ReaderMode("m8", 40e3, P.MILLER8),
                                                          "epc")),
    (P.ReaderMode("m4", 160e3, P.MILLER4), [("burst", 0, 40)]),
], ids=["mode204-both", "miller8-epc", "miller4-burst"])
def test_a_frame_source_encodes_nothing(monkeypatch, model, mode, signals):
    # its layout comes from the signals' state counts, the layout of every frame
    encoded = counting_frame_words(monkeypatch)
    config = ExperimentConfig(mode_label=None, blf_hz=mode.blf_hz, encoding=mode.encoding.name,
                              waveform_model=model)
    source = MC.frame_source(X.resolve(config), signals)
    assert encoded == []
    # each signal encoded on its own, laid out from the count of its words' states
    half = B.symbol_half(mode.encoding.spread_factor, model)
    frame = [(kind, start, B.symbol_states(B.frame_words(mode, model, [(kind, start, n_symbols)],
                                                         np.ones(n_bits, dtype=np.int8)),
                                           half).size)
             for (kind, start, n_symbols), n_bits
             in zip(signals, B.payload_bits(mode, model, signals))]
    layout = B.frame_layout(frame, mode.blf_hz)
    assert source.layout.n_samples == layout.n_samples
    assert [e.tolist() for e in source.layout.edges] == [e.tolist() for e in layout.edges]


# the configurations of the benchmark's Mode 204 PSK detection and Miller-8 ASK jobs
DETECT_MODE204 = ExperimentConfig(mode_label="Mode 204", p_err=0.05, v_grid=[0.5, 1.0, 2.0],
                                  trials=10, estimator_model="baseband", modulation="psk",
                                  seed=4)
MCRB_MILLER8_ASK = ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="miller-8",
                                    parts="both", modulation="ask", ps_n0_dbhz=52.8, trials=20,
                                    seed=4)


@pytest.mark.parametrize("run, config, encoded", [
    # the benchmark's Mode 204 PSK detection: trial 0 of 3 speeds x 2 frame kinds
    (X.run_detection_experiment, DETECT_MODE204, [6]),
    # the benchmark's Miller-8 ASK job: trial 0 and its first batch of 19,
    # all its trials (59 frames per batch)
    (X.run_mcrb_experiment, MCRB_MILLER8_ASK, [20]),
    # 3 ratios of 100 trials in batches of 59: trial 0 and the first batch of
    # each ratio up front, then each later batch on its own
    (X.run_mcrb_experiment,
     ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="miller-8", parts="both",
                      modulation="ask", trials=100, seed=4, sweep_param="ps_n0_dbhz",
                      sweep_values=[50.0, 52.8, 60.0]), [3 * 60] + [40] * 3),
    (X.run_mcrb_experiment,
     ExperimentConfig(mode_label=None, blf_hz=40e3, encoding="miller-8", parts="both",
                      modulation="psk", trials=100, seed=4, sweep_param="ps_n0_dbhz",
                      sweep_values=[50.0, 52.8, 60.0]), [3]),
], ids=["detect-mode204-psk", "mcrb-miller8-ask", "mcrb-sweep-ask-batches", "mcrb-sweep-psk"])
def test_a_run_encodes_trial_0_of_every_point_in_one_call(monkeypatch, run, config, encoded):
    found = counting_frame_words(monkeypatch)
    run(config)
    assert found == encoded


@pytest.mark.parametrize("run, config, layouts", [
    (X.run_detection_experiment, DETECT_MODE204, 1),
    (X.run_mcrb_experiment, MCRB_MILLER8_ASK, 1),
    # one burst source per duration
    (X.run_mcrb_experiment,
     ExperimentConfig(blf_hz=640e3, encoding="FM0", ps_n0_dbhz=52.8, trials=3,
                      sweep_param="t0_s", sweep_values=[2e-4, 1e-3]), 2),
], ids=["detect-mode204-psk", "mcrb-miller8-ask", "t0-sweep-2"])
def test_a_run_lays_out_each_frame_source_once(monkeypatch, run, config, layouts):
    # trial 0 samples its row on its source's layout
    calls = []
    frame_layout = B.frame_layout

    def counting(*args, **kwargs):
        calls.append(args)
        return frame_layout(*args, **kwargs)

    monkeypatch.setattr(B, "frame_layout", counting)
    run(config)
    assert len(calls) == layouts


@pytest.mark.parametrize("kind", ["mcrb", "detect"])
def test_every_frame_takes_the_same_number_of_refinement_steps(monkeypatch, kind):
    # the configurations of the benchmark's Miller-8 MCRB and Mode 204
    # detection jobs; on Mode 204 the second Newton step is often within the
    # tolerance, on Miller-8 never
    counts = []
    search = E.search_peak

    def counting_search(*args, **kwargs):
        report = search(*args, **kwargs)
        counts.extend(report.refinement_iterations.tolist())
        return report

    monkeypatch.setattr(E, "search_peak", counting_search)
    for seed in range(3):
        if kind == "mcrb":
            X.run_mcrb_experiment(ExperimentConfig(
                mode_label=None, blf_hz=40e3, encoding="Miller8", ps_n0_dbhz=52.8,
                modulation="ask", parts="both", trials=20, seed=seed))
        else:
            X.run_detection_experiment(ExperimentConfig(
                mode_label="Mode 204", p_err=0.05, v_grid=[0.5, 1.0, 2.0], trials=10,
                estimator_model="baseband", modulation="psk", seed=seed))
    assert len(counts) == (60 if kind == "mcrb" else 180)
    assert set(counts) == {E._MIN_REFINE}


def test_run_mcrb_analytic_column_matches_bounds_module():
    config = fast_mcrb_config(parts="both", trials=2)
    _, _, rows = X.run_mcrb_experiment(config)
    timing = P.reply_timing(P.ReaderMode("t", 640e3, P.FM0))
    expected = bd.mcrb_sigma_sq(bd.timing_factor(timing, "both"),
                                bd.linear_from_db(52.8))
    assert rows[0]["mcrb_var_hz2"] == pytest.approx(expected, rel=1e-12)
    assert rows[0]["c_t_s3"] == pytest.approx(bd.timing_factor(timing, "both"), rel=1e-12)


def test_run_mcrb_ratio_sweep_orders_rows():
    config = fast_mcrb_config(ps_n0_dbhz=None, sweep_param="ps_n0_dbhz",
                              sweep_values=[40.0, 52.8], trials=3)
    _, _, rows = X.run_mcrb_experiment(config)
    assert [r["ps_n0_dbhz"] for r in rows] == [40.0, 52.8]
    assert rows[0]["mcrb_var_hz2"] > rows[1]["mcrb_var_hz2"]


def test_run_mcrb_t0_sweep_snaps_to_symbol_grid():
    config = fast_mcrb_config(sweep_param="t0_s", sweep_values=[1.03e-3], trials=3)
    _, fieldnames, rows = X.run_mcrb_experiment(config)
    assert fieldnames == X.MCRB_BURST_FIELDS
    row = rows[0]
    tb = 1.0 / 640e3
    assert row["n_symbols"] == round(1.03e-3 / tb)
    assert row["t0_s"] == pytest.approx(row["n_symbols"] * tb, rel=1e-12)
    assert row["mcrb_var_hz2"] == pytest.approx(
        bd.mcrb_sigma_sq(bd.c_t_single(row["t0_s"]), bd.linear_from_db(52.8)), rel=1e-12)


def test_run_mcrb_t0_sweep_gen2_draws_payload_bits():
    config = fast_mcrb_config(waveform_model="gen2", sweep_param="t0_s",
                              sweep_values=[0.5e-3], trials=3)
    _, _, rows = X.run_mcrb_experiment(config)
    assert rows[0]["n_symbols"] >= P.preamble_symbols(P.FM0, True) + 2


# ---------------------------------------------------------------------------
# Detection runner
# ---------------------------------------------------------------------------

def test_detection_gaussian_matches_prediction():
    config = ExperimentConfig(p_err=0.01, v=1.0, trials=5000, seed=5,
                              estimator_model="gaussian")
    _, fieldnames, rows = X.run_detection_experiment(config)
    assert fieldnames == X.DETECT_FIELDS
    row = rows[0]
    assert row["p_err_predicted"] == pytest.approx(0.01, rel=1e-9)
    n = 2 * row["trials"]
    halfwidth = 2.5758 * math.sqrt(0.01 * 0.99 / n)
    assert abs(row["error_rate"] - 0.01) <= halfwidth
    # the threshold is symmetric, so both error kinds match the prediction
    for errors in (row["errors_static_as_moving"], row["errors_moving_as_static"]):
        assert abs(errors / row["trials"] - 0.01) <= 2.5758 * math.sqrt(0.01 * 0.99 / row["trials"]) * 1.5


def test_detection_error_rate_collapses_at_higher_speed():
    sigma = bd.sigma_max_sq(bd.MotionScenario(1.0, 868e6, 0.01))
    config = ExperimentConfig(p_err=0.01, v_grid=[1.0, 2.0], sigma_sq_hz2=sigma,
                              trials=4000, seed=8)
    _, _, rows = X.run_detection_experiment(config)
    assert rows[0]["error_rate"] == pytest.approx(0.01, abs=5e-3)
    assert rows[1]["error_rate"] < 1e-3
    assert rows[1]["p_err_predicted"] < 1e-5


def test_detection_baseband_pipeline_calibrates():
    config = ExperimentConfig(p_err=0.1, v=1.0, trials=50, seed=17,
                              estimator_model="baseband", modulation="psk")
    _, _, rows = X.run_detection_experiment(config)
    row = rows[0]
    assert row["trials"] == 50
    assert abs(row["error_rate"] - 0.1) <= 0.09


def test_detection_rejects_nonpositive_speeds():
    with pytest.raises(ConfigError):
        X.run_detection_experiment(ExperimentConfig(v=0.0, trials=2))


def test_simulated_doppler_must_lie_inside_the_search_window():
    # 35 m/s at 868 MHz shifts by 202.7 Hz, just past the default 200 Hz window
    with pytest.raises(ConfigError, match="v/v_grid.*search_halfwidth_hz"):
        X.run_mcrb_experiment(ExperimentConfig(v=35.0, trials=2))
    with pytest.raises(ConfigError, match="v/v_grid.*search_halfwidth_hz"):
        X.run_detection_experiment(ExperimentConfig(
            estimator_model="baseband", v_grid=[0.5, 35.0], trials=1))
    widened = ExperimentConfig(v=35.0, trials=2, search_halfwidth_hz=210.0,
                               parts="epc", waveform_model="rect", ps_n0_dbhz=90.0)
    _, _, rows = X.run_mcrb_experiment(widened)
    assert abs(rows[0]["emp_mean_err_hz"]) < 0.1
    # the gaussian estimator model has no search window
    _, _, rows = X.run_detection_experiment(ExperimentConfig(v=35.0, trials=10))
    assert rows[0]["error_rate"] == 0.0


# ---------------------------------------------------------------------------
# Figure datasets
# ---------------------------------------------------------------------------

# the default grids of the figures, then other (lo, hi, n): a wide span, a
# narrow one, two points, and grids whose ends are powers of 10 or of 2
DEFAULT_GRIDS = [(figure, "v_grid") for figure in (4, 8, 9, 10, 11)] + \
    [(5, "t0_grid_s"), (7, "t_pause_grid_s")]
GRIDS = [X._FIGURES[figure][1][key][1] for figure, key in DEFAULT_GRIDS]
GRIDS += [X._geomspace(lo, hi, n) for lo, hi, n in [
    (0.3, 7e5, 1000), (1e-300, 1e300, 7), (5.0, 5.5, 3), (1.0, 2.0, 2), (2.0, 1024.0, 11),
    (1e-3, 1e3, 25)]]


@pytest.mark.parametrize("grid", GRIDS, ids=[f"figure{f}-{k}" for f, k in DEFAULT_GRIDS] + [
    "0.3-7e5-1000", "1e-300-1e300-7", "5-5.5-3", "1-2-2", "2-1024-11", "1e-3-1e3-25"])
def test_a_geometric_grid_keeps_its_endpoints_and_numpy_s_values_within_1_ulp(grid):
    lo, hi, n = grid[0], grid[-1], len(grid)
    assert X._geomspace(lo, hi, n) == grid
    assert all(type(x) is float for x in grid)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # numpy's power may round 10 ** x to the other neighbour of the exact
    # value than libm's pow; the exponents are the same, and so are the ends
    reference = np.geomspace(lo, hi, n)
    assert reference[0] == lo and reference[-1] == hi
    assert np.all(np.nextafter(reference, 0.0) <= grid)
    assert np.all(grid <= np.nextafter(reference, np.inf))


def test_figure4_matches_direct_evaluation():
    _, fieldnames, rows = X.figure_dataset(4, {"v_grid": [0.5, 1.0],
                                               "p_err_list": [1e-3]})
    assert fieldnames == ["v_m_per_s", "p_err", "sigma_max_sq_hz2"]
    for row in rows:
        expected = bd.sigma_max_sq(bd.MotionScenario(row["v_m_per_s"], 868e6, 1e-3))
        assert row["sigma_max_sq_hz2"] == pytest.approx(expected, rel=1e-12)


def test_figure5_bound_column_is_the_mcrb():
    _, _, rows = X.figure_dataset(5, {"t0_grid_s": [1e-3, 1e-2],
                                      "ps_n0_dbhz_list": [52.8]})
    for row in rows:
        expected = bd.mcrb_sigma_sq(bd.c_t_single(row["t0_s"]),
                                    bd.linear_from_db(52.8))
        assert row["mcrb_var_hz2"] == pytest.approx(expected, rel=1e-12)


def test_figure5_optional_empirical_columns():
    _, fieldnames, rows = X.figure_dataset(
        5, {"t0_grid_s": [2e-3], "ps_n0_dbhz_list": [52.8]}, trials=20, seed=3)
    assert "emp_var_hz2" in fieldnames
    row = rows[0]
    assert row["trials"] == 20
    assert 0.3 <= row["emp_var_hz2"] / row["mcrb_var_hz2"] <= 3.0


def test_figure7_marks_the_operating_point():
    _, _, rows = X.figure_dataset(7, {"t_pause_grid_s": [1e-3, 1e-2]})
    marked = [r for r in rows if r["is_operating_point"]]
    assert len(marked) == 1
    row = marked[0]
    assert row["config"] == "rn16_epc"
    assert row["t_pause_s"] == pytest.approx(1.4e-3, rel=1e-12)
    assert row["c_t_s3"] == pytest.approx(bd.c_t_dual(7.8e-3, 27e-3, 1.4e-3), rel=1e-12)
    assert {r["config"] for r in rows} == {"rn16_epc", "epc_epc"}


def test_figure8_passes_through_the_headline_point():
    _, _, rows = X.figure_dataset(8, {"v_grid": [0.14], "p_err_list": [1e-3],
                                      "parts_list": ["both"]})
    assert abs(rows[0]["ps_n0_dbhz"] - 52.8) <= 0.1


def test_figure9_covers_the_encoding_sweep():
    _, fieldnames, rows = X.figure_dataset(9, {"v_grid": [1.0]})
    assert fieldnames == ["v_m_per_s", "encoding", "blf_hz", "ps_n0_dbhz"]
    combos = {(r["encoding"], r["blf_hz"]) for r in rows}
    assert ("Miller8", 40e3) in combos and ("FM0", 640e3) in combos
    by_combo = {(r["encoding"], r["blf_hz"]): r["ps_n0_dbhz"] for r in rows}
    assert by_combo[("Miller8", 640e3)] < by_combo[("FM0", 640e3)]
    assert by_combo[("Miller8", 40e3)] < by_combo[("Miller8", 640e3)]


def test_figure10_passes_through_the_sensitivity_point():
    _, _, rows = X.figure_dataset(10, {"v_grid": [1.1], "nf_db_list": [25.4]})
    assert abs(rows[0]["p_s_dbm"] - (-95.8)) <= 0.2


def test_figure10_noise_figure_is_an_additive_offset():
    _, _, rows = X.figure_dataset(10, {"v_grid": [0.5, 2.0], "nf_db_list": [0.0, 25.4]})
    by_nf = {}
    for row in rows:
        by_nf.setdefault(row["nf_db"], []).append(row["p_s_dbm"])
    deltas = np.array(by_nf[25.4]) - np.array(by_nf[0.0])
    assert np.allclose(deltas, 25.4, atol=1e-9)


def test_figure11_longer_epc_needs_less_power():
    _, _, rows = X.figure_dataset(11, {"v_grid": [0.3, 1.0, 3.0]})
    by_bits = {}
    for row in rows:
        by_bits.setdefault(row["epc_bits"], []).append(row["p_s_dbm"])
    for a, b in zip(by_bits[96], by_bits[256]):
        assert b < a


def test_figure_overrides_set_in_code_meet_the_text_rules():
    as_text = X.figure_dataset(9, {"p_err": "0.01", "v_grid": "0.5,1"})
    assert X.figure_dataset(9, {"p_err": 0.01, "v_grid": [0.5, 1.0]}) == as_text
    for key, value in [("v_grid", [1.0, 0.5]), ("p_err", 0.7), ("v_grid", [0.0, 1.0]),
                       ("f_c_hz", 1e300)]:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            X.figure_dataset(9, {key: value})


def test_figure_dataset_rejects_unknown_ids_and_keys():
    with pytest.raises(ConfigError, match="figure_id"):
        X.figure_dataset(6)
    with pytest.raises(ConfigError, match="unused"):
        X.figure_dataset(4, {"bogus": 1})


# ---------------------------------------------------------------------------
# Noise-figure report and CSV writer
# ---------------------------------------------------------------------------

def test_noise_figure_report_defaults_to_the_reference_reader():
    report = X.noise_figure_report()
    assert report["ps_n0_dbhz"] == pytest.approx(52.81, abs=5e-3)
    assert report["n0_dbm_hz"] == pytest.approx(-148.61, abs=5e-3)
    assert report["nf_db"] == pytest.approx(25.39, abs=5e-3)


def test_write_csv_formatting_and_determinism():
    rows = [{"a": 1.0 / 3.0, "b": 7, "c": "x"}, {"a": 2.5e-13, "b": 0, "c": ""}]
    buffers = []
    for _ in range(2):
        buf = io.StringIO()
        X.write_csv(buf, ["note"], ["a", "b", "c"], rows)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]
    lines = buffers[0].splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "a,b,c"
    assert lines[2] == "0.333333333333,7,x"
    assert lines[3] == "2.5e-13,0,"


def test_write_csv_to_path(tmp_path):
    path = tmp_path / "rows.csv"
    X.write_csv(path, [], ["x"], [{"x": 1.5}])
    assert path.read_text(encoding="utf-8") == "x\n1.5\n"


def per_cell_csv(comments, fieldnames, rows) -> str:
    """The CSV text write_csv writes, made one cell at a time."""
    lines = [f"# {line}" for line in comments] + [",".join(fieldnames)]
    lines += [",".join(X._format_value(name, row.get(name)) for name in fieldnames)
              for row in rows]
    return "".join(line + "\n" for line in lines)


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 100.0, 1.0 / 3.0, 1.7e308, 2.5e-13]
NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("comments, fieldnames, rows", [
    (["edge floats"], ["x"], [{"x": x} for x in EDGE_FLOATS]),
    (["numpy and integer types"], ["f", "n", "i", "b", "none"],
     [{"f": np.float64(x), "n": np.int64(i), "i": i, "b": i % 2 == 0, "none": None}
      for i, x in enumerate(EDGE_FLOATS)]),
    (["missing keys", "strings and mixed columns"], ["x", "s", "mixed", "absent"],
     [{"x": 1.5, "s": "psk", "mixed": 2.0},
      {"x": 0.1, "s": "", "mixed": "", "unused": 1},
      {"s": "epc", "mixed": None},
      {"x": -0.0, "s": "rn16", "mixed": np.float64(0.1)},
      {"x": 7, "s": "both", "mixed": True}]),
    (["no rows"], ["a", "b"], []),
    ([], ["a"], [{"a": 2.0}, {"a": "x"}]),
])
def test_write_csv_matches_the_per_cell_rule(comments, fieldnames, rows, tmp_path):
    want = per_cell_csv(comments, fieldnames, rows)
    writes = []

    class Stream:
        write = writes.append

    X.write_csv(Stream(), comments, fieldnames, rows)
    assert writes == [want]
    path = tmp_path / "rows.csv"
    X.write_csv(path, comments, fieldnames, rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_write_csv_prints_edge_floats_at_12_digits():
    buf = io.StringIO()
    X.write_csv(buf, [], ["x"], [{"x": x} for x in EDGE_FLOATS])
    assert buf.getvalue().splitlines()[1:] == [
        "0", "-0", "4.94065645841e-324", "1e+16", "100", "0.333333333333", "1.7e+308",
        "2.5e-13"]


def test_write_csv_leaves_an_existing_file_on_a_formatting_error(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("no text form")

    path = tmp_path / "rows.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="no text form"):
        X.write_csv(path, ["note"], ["x"], [{"x": 1.0}, {"x": Unprintable()}])
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("bad", [float, np.float64])
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("column", [
    [1.0, 2.0],             # a float column
    [1.0, "", None, 3],     # a mixed column
])
def test_writers_refuse_non_finite_numbers(bad, value, column, tmp_path):
    rows = [{"x": x, "y": "kept"} for x in column + [bad(value)]]
    writes = []

    class Stream:
        write = writes.append

    with pytest.raises(ValueError, match=r"^x: must be a finite number, got (-?inf|nan)$"):
        X.write_csv(Stream(), ["note"], ["y", "x"], rows)
    with pytest.raises(ValueError, match=r"^x: must be a finite number"):
        X.write_key_values(Stream(), [("y", 1.0), ("x", bad(value))])
    assert writes == []
    path = tmp_path / "rows.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^x: "):
        X.write_csv(path, [], ["x"], rows)
    with pytest.raises(ValueError, match="^x: "):
        X.write_key_values(path, [("x", bad(value))])
    assert path.read_text(encoding="utf-8") == "kept\n"


def test_write_key_values_prints_cells_as_write_csv_does():
    buf = io.StringIO()
    X.write_key_values(buf, [("a", 1.0 / 3.0), ("b", np.float64(2.5e-13)), ("m", 8),
                             ("s", "true"), ("none", None)])
    assert buf.getvalue() == "a = 0.333333333333\nb = 2.5e-13\nm = 8\ns = true\nnone = \n"
