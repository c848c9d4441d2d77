"""Monte Carlo harness, figure datasets, and CSV emission.

A run's settings are declared once, as the fields of :class:`ExperimentConfig`;
the figure datasets declare their own parameters in ``_FIGURES``.  Each
setting has one rule, the parser its field declares: it reads the setting's
text, from a flag, a config file or a figure ``--set``, and checks a value set
in code, so ``validate`` adds only the rules between settings and hands back
a copy that holds each setting's parsed value.  A run's settings are checked
in one place, :func:`resolve`, which validates a config and resolves the copy
into the run's setup (:class:`RunSetup`): the parsed settings, the reader
mode, the link budget, the reply's timing and its timing factor C_T.  bounds,
vmin and every Monte Carlo run read their settings from the setup.  The figure
parameters and the noise-figure report's p_s_dbm and blf_hz take the same
parsers.  Every number written, to a CSV or as a
``key = value`` line, goes through one cell rule, which refuses a number that
is not finite and names its column or key.

This module holds the runners' settings and rows, the figure datasets and
the writers, and loads neither numpy nor baseband nor estimator: bounds,
vmin, noise-figure and the closed-form figures run on the standard library.
The two Monte Carlo runners, run_mcrb_experiment and
run_detection_experiment, import the engine that draws and estimates their
trials (montecarlo) as they start; its docstring describes a run's frames,
its random streams and trial 0.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds, protocol


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class CheckFailure(Exception):
    """An acceptance-style --check comparison failed."""


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """64-bit seed derivation: SplitMix64 folded over the index path."""
    h = _splitmix64(master & _MASK64)
    for ix in indices:
        h = _splitmix64(h ^ (ix & _MASK64))
    return h


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_bool(value) -> bool:
    lowered = str(value).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parsed(key: str, parse, value):
    """parse(value), reporting a failure as a ConfigError that names the key."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _integer(value) -> int:
    """An integer from its text or an integer value; a float, even 2.0, is refused."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError(f"must be an integer, got {value!r}") from None


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {number}")
    return number


def _items(value) -> list:
    """The items of a comma-separated text, or of a list set in code."""
    if isinstance(value, str):
        value = [x.strip() for x in value.split(",") if x.strip()]
    items = list(value)
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _each(parse):
    """Parser of a list whose items ``parse`` reads."""
    return lambda value: [parse(x) for x in _items(value)]


def _checked(parse, ok, rule: str):
    """Parser that reads a value with ``parse`` and requires ``ok(value)``;
    ``rule`` completes the message 'must ...'."""
    def parse_checked(value):
        parsed = parse(value)
        if not ok(parsed):
            raise ValueError(f"must {rule}, got {parsed!r}")
        return parsed
    return parse_checked


def _one_of(*choices: str):
    """Parser of one of the strings ``choices``."""
    return _checked(lambda value: str(value).strip(), choices.__contains__,
                    f"be one of {', '.join(choices)}")


_positive = _checked(_finite, lambda x: x > 0, "be positive")
_non_negative = _checked(_finite, lambda x: x >= 0, "be >= 0")
# Real links lie within about 0-150 dB-Hz of P_S/N0.  Within +-300 dB a dB
# value's linear form, and the bounds of any Gen2 reply timing taken from it,
# stay finite.
_MAX_DB = 300.0
_db = _checked(_finite, lambda x: abs(x) <= _MAX_DB, "lie in [-300, 300] dB")
# a receiver adds noise, so its noise figure is >= 0 dB and its noise density
# no lower than the thermal floor
_noise_figure = _checked(_finite, lambda x: 0 <= x <= _MAX_DB, "lie in [0, 300] dB")
_noise_density = _checked(_finite, lambda x: bounds.THERMAL_NOISE_DBM_HZ <= x <= _MAX_DB,
                          "lie in [-174, 300] dBm/Hz")
# radio carriers from 1 MHz to 100 GHz, both UHF RFID bands (860-960 MHz)
# and every figure default among them
_carrier = _checked(_finite, lambda f: 1e6 <= f <= 1e11, "be a carrier in [1e6, 1e11] Hz")
# tag speeds below light, which keeps every Doppler shift below 2 f_c
_speed = _checked(_finite, lambda v: 0 <= v < bounds.SPEED_OF_LIGHT,
                  "lie in [0, 299792458) m/s")
_moving_speed = _checked(_finite, lambda v: 0 < v < bounds.SPEED_OF_LIGHT,
                         "lie in (0, 299792458) m/s")
_p_err = _checked(_finite, lambda p: 0 < p < 0.5, "lie in (0, 0.5)")
_blf = _checked(_finite, lambda f: protocol.BLF_MIN_HZ <= f <= protocol.BLF_MAX_HZ,
                "lie in the Gen2 range [40e3, 640e3] Hz")
_epc_bits = _checked(_integer, lambda bits: bits in (96, 128, 256), "be 96, 128 or 256")
_part = _one_of("rn16", "epc", "both")
_modulation = _one_of(*protocol.MODULATIONS)
_waveform_model = _one_of(*protocol.WAVEFORM_MODELS)


def _increasing(grid: list) -> list:
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("values must be strictly increasing")
    return grid


def _grid(value) -> list[float]:
    return _increasing(_each(_finite)(value))


def _speed_grid(value) -> list[float]:
    return _increasing(_each(_moving_speed)(value))


def _encoding(name):
    """An encoding name that protocol.encoding_from_name knows, as it is given."""
    protocol.encoding_from_name(str(name))
    return name


def _mode_label(text) -> str:
    """A label of the reader-mode catalog (protocol.find_reader_mode), stripped."""
    label = str(text).strip()
    try:
        protocol.find_reader_mode(label)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return label


def _opt_mode_label(text) -> Optional[str]:
    """A catalog label, or None for an empty text or 'none'."""
    return None if str(text).strip().lower() in ("", "none") else _mode_label(text)


# The paper-style defaults: European band, 0.1% error target, Mode 290, and
# the weakest reliably received tag signal (52.8 dB-Hz) unless a link is given.
REFERENCE_PS_N0_DBHZ = 52.8
# Trials of a run: 128 MiB per float64 array of their estimates, the budget of
# the frame-size limit of baseband.
_MAX_TRIALS = 1 << 24
_trials = _checked(_integer, lambda n: 1 <= n <= _MAX_TRIALS, f"lie in [1, {_MAX_TRIALS}]")


def _setting(default, parse):
    """A config field whose one rule is ``parse``: it reads the field's text
    form, in a config file or a flag, and checks a value set in code."""
    return dataclasses.field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """The settings of a bounds or Monte Carlo run.  Each field declares its
    name, default and its one rule, the parser that config files, the CLI
    flags (whose dest is the field name) and :meth:`validate` share."""

    mode_label: Optional[str] = _setting("Mode 290", _opt_mode_label)
    blf_hz: Optional[float] = _setting(None, _blf)
    encoding: Optional[str] = _setting(None, _encoding)
    trext: bool = _setting(True, _parse_bool)
    epc_bits: int = _setting(96, _epc_bits)
    f_c_hz: float = _setting(868e6, _carrier)
    p_err: float = _setting(1e-3, _p_err)
    ps_n0_dbhz: Optional[float] = _setting(None, _db)
    p_s_dbm: Optional[float] = _setting(None, _db)
    n0_dbm_hz: Optional[float] = _setting(None, _noise_density)
    nf_db: Optional[float] = _setting(None, _noise_figure)
    v: float = _setting(1.0, _speed)
    v_grid: Optional[list[float]] = _setting(None, _speed_grid)
    trials: int = _setting(1000, _trials)
    seed: int = _setting(0, _integer)
    waveform_model: str = _setting("gen2", _waveform_model)
    modulation: str = _setting("ask", _modulation)
    parts: str = _setting("both", _part)
    ask_zeroing: bool = _setting(True, _parse_bool)
    search_halfwidth_hz: float = _setting(200.0, _positive)
    estimator_model: str = _setting("gaussian", _one_of("gaussian", "baseband"))
    sigma_sq_hz2: Optional[float] = _setting(None, _positive)
    sweep_param: Optional[str] = _setting(None, _one_of("ps_n0_dbhz", "t0_s"))
    sweep_values: Optional[list[float]] = _setting(None, _grid)

    def validate(self) -> "ExperimentConfig":
        """A copy that holds each set field's value as its rule parses it,
        after the rules between fields have been checked on those values."""
        config = dataclasses.replace(self, **{
            f.name: _parsed(f.name, f.metadata["parse"], value)
            for f in dataclasses.fields(self) if (value := getattr(self, f.name)) is not None})
        if config.mode_label is None and config.blf_hz is None:
            raise ConfigError("mode_label: give a catalog label or explicit blf_hz/encoding")
        if (config.blf_hz is None) != (config.encoding is None):
            raise ConfigError("blf_hz: blf_hz and encoding must be given together")
        if (config.sweep_param is None) != (config.sweep_values is None):
            raise ConfigError("sweep_param: sweep_param and sweep_values go together")
        if config.sweep_param == "ps_n0_dbhz" and max(map(abs, config.sweep_values)) > _MAX_DB:
            raise ConfigError("sweep_values: must be in [-300, 300] dB in a ps_n0_dbhz sweep")
        link = [key for key in ("ps_n0_dbhz", "p_s_dbm") if getattr(config, key) is not None]
        if config.sweep_param == "ps_n0_dbhz" and link:
            raise ConfigError(f"{link[0]}: a ps_n0_dbhz sweep sets the link ratio; "
                              f"give no {link[0]} beside it")
        if config.ps_n0_dbhz is not None and config.p_s_dbm is not None:
            raise ConfigError("ps_n0_dbhz: give either the ratio or p_s_dbm with a noise term")
        noise = [key for key in ("n0_dbm_hz", "nf_db") if getattr(config, key) is not None]
        if config.p_s_dbm is not None and not noise:
            raise ConfigError("p_s_dbm: needs n0_dbm_hz or nf_db alongside")
        if config.p_s_dbm is None and noise:
            raise ConfigError(f"{noise[0]}: a noise term is read only with p_s_dbm alongside")
        return config

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_file(cls, path, settings: Optional[Sequence[str]] = None) -> "ExperimentConfig":
        """The config read from a flat config file.  ``settings``, when
        given, are the fields that the reading command reads, and a key
        outside them is refused."""
        config = cls()
        for key, value in _read_key_values(path):
            config.set_field(key, value)
            if settings is not None and key not in settings:
                raise ConfigError(f"{key}: not a setting this command reads")
        return config

    def set_field(self, key: str, value) -> None:
        """Set one field from its text form or a value, through its rule."""
        for f in dataclasses.fields(self):
            if f.name == key:
                setattr(self, key, _parsed(key, f.metadata["parse"], value))
                return
        raise ConfigError(f"{key}: unknown config key")

    def comment_lines(self) -> list[str]:
        """Config echo for CSV headers, in field order, skipping unset values."""
        out = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, list):
                value = ",".join(format(x, ".12g") for x in value)
            out.append(f"{f.name} = {value}")
        return out


def _read_key_values(path) -> list[tuple[str, str]]:
    """The (key, value) pairs of a flat config file, in file order.

    One ``key = value`` per line; ``#`` starts a comment and blank lines are
    ignored.  Any other line raises ValueError with the file and line number.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not (sep and key.strip()):
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            pairs.append((key.strip(), value.strip()))
    return pairs


@dataclass(frozen=True)
class RunSetup:
    """What a bounds or Monte Carlo run starts from: its ``config``, holding
    each setting's parsed value, its reader ``mode``, its ``link`` budget,
    the reply's ``timing`` and the timing factor ``c_t`` of the configured
    parts."""

    config: ExperimentConfig
    mode: protocol.ReaderMode
    link: bounds.LinkBudget
    timing: protocol.ReplyTiming
    c_t: float


def resolve(config: ExperimentConfig) -> RunSetup:
    """Check a run's settings and resolve them into its setup.

    The one place where a run's settings are checked: each set field by its
    rule, then the rules between fields (:meth:`ExperimentConfig.validate`),
    before any is read; every later step reads the parsed copy.  The rules
    of ``blf_hz``, ``encoding``, ``mode_label`` and ``epc_bits`` admit only
    values that the mode takes, so building it cannot fail.  The search
    window must fit below half the mode's sample rate, 32 x BLF, so a bad
    value fails before any trial runs, and in figures 5 and 7 also when no
    trial is asked for.  The link budget comes from the ratio, from the
    tag power and a noise term, or is the reference ratio.
    """
    config = config.validate()
    if config.blf_hz is not None:
        mode = protocol.ReaderMode("custom", config.blf_hz,
                                   protocol.encoding_from_name(config.encoding),
                                   trext=config.trext, epc_bits=config.epc_bits)
    else:
        mode = dataclasses.replace(protocol.find_reader_mode(config.mode_label),
                                   epc_bits=config.epc_bits, trext=config.trext)
    fs = protocol.default_sample_rate(mode.blf_hz)
    if not config.search_halfwidth_hz <= fs / 2.0:
        raise ConfigError(f"search_halfwidth_hz: must not exceed fs/2 = {fs / 2.0:.12g} Hz, "
                          f"got {config.search_halfwidth_hz:.12g}")
    if config.p_s_dbm is None:
        link = bounds.LinkBudget(ps_n0_dbhz=REFERENCE_PS_N0_DBHZ if config.ps_n0_dbhz is None
                                 else config.ps_n0_dbhz)
    else:
        try:
            link = bounds.LinkBudget.from_power(config.p_s_dbm, config.n0_dbm_hz, config.nf_db)
        except ValueError as exc:
            # given both, the noise figure must match the noise density
            raise ConfigError(f"nf_db: {exc}") from None
    timing = protocol.reply_timing(mode)
    return RunSetup(config, mode, link, timing, bounds.timing_factor(timing, config.parts))


# ---------------------------------------------------------------------------
# Monte Carlo runners
# ---------------------------------------------------------------------------

def _burst_symbols(t0_s: float, mode: protocol.ReaderMode, waveform_model: str) -> int:
    """Symbol count whose duration best matches the requested t0."""
    symbols = t0_s / float(protocol.symbol_period(mode.blf_hz, mode.encoding))
    if symbols == math.inf:
        raise ValueError(f"a burst of {t0_s:.6g} s holds more symbols than a float counts")
    n = max(1, round(symbols))
    if waveform_model == "gen2":
        # need at least one payload bit next to preamble and end symbol
        n = max(n, protocol.preamble_symbols(mode.encoding, mode.trext) + 2)
    return n


MCRB_REPLY_FIELDS = ["ps_n0_dbhz", "parts", "modulation", "waveform_model",
                     "t_rn16_s", "t_pause_s", "t_epc_s", "c_t_s3", "f_d_true_hz",
                     "mcrb_var_hz2", "trials", "emp_var_hz2", "emp_mse_hz2",
                     "emp_mean_err_hz"]
MCRB_BURST_FIELDS = ["t0_requested_s", "t0_s", "n_symbols", "ps_n0_dbhz", "modulation",
                     "waveform_model", "c_t_s3", "f_d_true_hz", "mcrb_var_hz2",
                     "trials", "emp_var_hz2", "emp_mse_hz2", "emp_mean_err_hz"]


def run_mcrb_experiment(config: ExperimentConfig):
    """Monte Carlo verification of the estimation-variance bound.

    Returns (comments, fieldnames, rows).  Without a sweep, a single grid
    point at the configured link budget is run; sweep_param selects a sweep
    over the link ratio or (for single bursts) over the signal duration.
    """
    from . import montecarlo

    setup = resolve(config)
    config, mode, link = setup.config, setup.mode, setup.link
    f_d_true = bounds.doppler_shift(config.v, config.f_c_hz)
    comments = ["mcrb monte carlo"] + config.comment_lines()
    # groups of grid points: (frame source, link ratios, C_T, the rows' own
    # fields), one per burst of a t0 sweep, else one of the reply
    if config.sweep_param == "t0_s":
        fieldnames = MCRB_BURST_FIELDS
        tb = float(protocol.symbol_period(mode.blf_hz, mode.encoding))
        # every burst's frame size is checked before any trial
        try:
            symbols = [_burst_symbols(t0, mode, config.waveform_model)
                       for t0 in config.sweep_values]
            groups = [(montecarlo.frame_source(setup, [("burst", Fraction(0), n)]),
                       [link.ps_n0_dbhz], bounds.c_t_single(n * tb),
                       {"t0_requested_s": t0, "t0_s": n * tb, "n_symbols": n})
                      for t0, n in zip(config.sweep_values, symbols)]
        except ValueError as exc:
            # a plain ValueError, which figure 5 reports under its t0_grid_s
            raise ValueError(f"sweep_values: {exc}") from None
    else:
        fieldnames, timing = MCRB_REPLY_FIELDS, setup.timing
        groups = [(montecarlo.frame_source(setup, protocol.reply_signals(mode, config.parts)),
                   config.sweep_values if config.sweep_param == "ps_n0_dbhz"
                   else [link.ps_n0_dbhz], setup.c_t,
                   {"parts": config.parts, "t_rn16_s": float(timing.t_rn16),
                    "t_pause_s": float(timing.t_pause), "t_epc_s": float(timing.t_epc)})]
    rows = []
    for source, ratios, c_t, own in groups:
        found = montecarlo.estimates(config, source, [(f_d_true, ratio, len(rows) + i, 0)
                                                      for i, ratio in enumerate(ratios)])
        rows += [{**own, "ps_n0_dbhz": ratio, "modulation": config.modulation,
                  "waveform_model": config.waveform_model, "c_t_s3": c_t,
                  "f_d_true_hz": f_d_true,
                  "mcrb_var_hz2": bounds.mcrb_sigma_sq(c_t, bounds.linear_from_db(ratio)),
                  **montecarlo.error_stats(estimates - f_d_true)}
                 for ratio, estimates in zip(ratios, found)]
    return comments, fieldnames, rows


DETECT_FIELDS = ["v_m_per_s", "f_d_hz", "threshold_hz", "sigma_sq_hz2",
                 "p_err_predicted", "trials", "errors_static_as_moving",
                 "errors_moving_as_static", "error_rate"]


def run_detection_experiment(config: ExperimentConfig):
    """Static-vs-moving classification error rates against the prediction.

    For every speed grid point, ``trials`` pairs of one static and one moving
    estimate are put through the binary hypothesis test between 0 Hz and the
    (positive) moving-tag Doppler shift: decide moving iff the estimate is at
    or above half that shift.  With the direction under test known, both error
    kinds are single-tail events and share the predicted probability; the
    direction-agnostic magnitude classifier used for lone estimates doubles
    the static false rate instead.  The gaussian estimator model draws
    estimates from the analytic error distribution with variance sigma_sq_hz2
    (default: the largest tolerable variance for the configured p_err); the
    baseband model runs the full frame pipeline at the P_S/N0 whose
    estimation bound equals that variance.
    """
    from . import montecarlo

    setup = resolve(config)
    config = setup.config
    # v_grid's rule takes moving tags only; v's also takes a tag at rest
    if config.v_grid is None and config.v <= 0:
        raise ConfigError(f"v: a detection run needs a moving tag, got {config.v}")
    f_c = config.f_c_hz
    comments = ["motion detection monte carlo"] + config.comment_lines()
    rows = []
    # the setting that gives the variance: sigma_sq_hz2, or else the speed
    key = "sigma_sq_hz2" if config.sigma_sq_hz2 is not None \
        else "v" if config.v_grid is None else "v_grid"
    speeds = []     # (v, f_d, sigma_sq) per grid point
    for v in config.v_grid if config.v_grid is not None else [config.v]:
        try:
            sigma_sq = config.sigma_sq_hz2 if config.sigma_sq_hz2 is not None \
                else bounds.sigma_max_sq(bounds.MotionScenario(v, f_c, config.p_err))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        speeds.append((v, bounds.doppler_shift(v, f_c), sigma_sq))
    if config.estimator_model == "gaussian":
        estimates = montecarlo.gaussian_estimates(config, speeds)
    else:
        # every speed shares the timing and the frames; the static (k = 0) and
        # moving (k = 1) frames of every speed are searched together
        points = []
        for gi, (_, f_d, sigma_sq) in enumerate(speeds):
            # link ratio at which the estimation bound equals sigma_sq (inf
            # where 2 pi^2 C_T sigma_sq underflows to 0), held to the range of
            # ps_n0_dbhz: beyond it a frame carries no noise
            three_over_ratio = 2.0 * math.pi ** 2 * setup.c_t * sigma_sq
            try:
                ratio_dbhz = _db(bounds.db_from_linear(3.0 / three_over_ratio
                                                       if three_over_ratio else math.inf))
            except ValueError as exc:
                raise ConfigError(f"{key}: the link ratio for a variance of {sigma_sq:.6g} "
                                  f"Hz^2 {exc}") from None
            points += [(0.0, ratio_dbhz, gi, 0), (f_d, ratio_dbhz, gi, 1)]
        found = montecarlo.estimates(config, montecarlo.frame_source(
            setup, protocol.reply_signals(setup.mode, config.parts)), points)
        estimates = list(zip(found[::2], found[1::2]))

    for (v, f_d, sigma_sq), (est_static, est_moving) in zip(speeds, estimates):
        p_pred = bounds.p_err_from_sigma(sigma_sq, v, f_c)
        threshold = f_d / 2.0
        err_static = int((est_static >= threshold).sum())
        err_moving = int((est_moving < threshold).sum())
        rows.append({"v_m_per_s": v, "f_d_hz": f_d, "threshold_hz": threshold,
                     "sigma_sq_hz2": sigma_sq, "p_err_predicted": p_pred,
                     "trials": config.trials,
                     "errors_static_as_moving": err_static,
                     "errors_moving_as_static": err_moving,
                     "error_rate": (err_static + err_moving) / (2.0 * config.trials)})
    return comments, DETECT_FIELDS, rows


# ---------------------------------------------------------------------------
# Figure datasets
# ---------------------------------------------------------------------------

def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` >= 2 values from ``lo`` to ``hi``, both exact, evenly spaced in
    log10: 10 ** (log10(lo) + i * step), the exponents of numpy's geomspace."""
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (n - 1)
    return [lo] + [10.0 ** (i * step + start) for i in range(1, n - 1)] + [hi]


_MILLER8_40K = protocol.ReaderMode("Miller-8/40kHz", 40_000.0, protocol.MILLER8)


def _figure4(params, trials, seed):
    f_c, v_grid, p_errs = params["f_c_hz"], params["v_grid"], params["p_err_list"]
    rows = [{"v_m_per_s": v, "p_err": p,
             "sigma_max_sq_hz2": bounds.sigma_max_sq(bounds.MotionScenario(v, f_c, p))}
            for p in p_errs for v in v_grid]
    comments = [f"tolerable estimation variance over tag speed, f_c = {f_c:.12g} Hz"]
    return comments, ["v_m_per_s", "p_err", "sigma_max_sq_hz2"], rows


def _figure5(params, trials, seed):
    t0_grid, ratios = params["t0_grid_s"], params["ps_n0_dbhz_list"]
    fieldnames = ["t0_s", "ps_n0_dbhz", "mcrb_var_hz2"]
    rows = []
    sim_config = resolve(ExperimentConfig(
        mode_label=None, blf_hz=params["blf_hz"], encoding=params["encoding"],
        modulation=params["modulation"], waveform_model=params["waveform_model"])).config
    if trials > 0:
        fieldnames += ["t0_simulated_s", "trials", "emp_var_hz2"]
    for ratio in ratios:
        for t0 in t0_grid:
            row = {"t0_s": t0, "ps_n0_dbhz": ratio,
                   "mcrb_var_hz2": bounds.mcrb_sigma_sq(bounds.c_t_single(t0),
                                                        bounds.linear_from_db(ratio))}
            if trials > 0:
                # fresh seed stream per grid point
                cfg = dataclasses.replace(sim_config, trials=trials, ps_n0_dbhz=ratio,
                                          sweep_param="t0_s", sweep_values=[t0],
                                          seed=derive_seed(seed, len(rows)))
                _, _, sim_rows = run_mcrb_experiment(cfg)
                row.update({"t0_simulated_s": sim_rows[0]["t0_s"],
                            "trials": sim_rows[0]["trials"],
                            "emp_var_hz2": sim_rows[0]["emp_var_hz2"]})
            rows.append(row)
    comments = ["estimation variance bound over single-signal duration"]
    return comments, fieldnames, rows


def _figure7(params, trials, seed):
    ratio, pause_grid = params["ps_n0_dbhz"], params["t_pause_grid_s"]
    setup = resolve(ExperimentConfig(mode_label=None, blf_hz=_MILLER8_40K.blf_hz,
                                     encoding="Miller8", ps_n0_dbhz=ratio,
                                     modulation=params["modulation"], waveform_model="gen2",
                                     parts="both", seed=seed))
    sim_config, timing = setup.config, setup.timing
    t_rn16, t_epc = float(timing.t_rn16), float(timing.t_epc)
    operating_pause = float(timing.t_pause)
    configs = [("rn16_epc", t_rn16, t_epc), ("epc_epc", t_epc, t_epc)]
    fieldnames = ["config", "t_pause_s", "t1_s", "t2_s", "c_t_s3", "mcrb_var_hz2",
                  "is_operating_point"]
    if trials > 0:
        fieldnames += ["trials", "emp_var_hz2"]
    linear = bounds.linear_from_db(ratio)
    rows = []
    for name, t1, t2 in configs:
        grid = sorted(set(pause_grid) | ({operating_pause} if name == "rn16_epc" else set()))
        for tp in grid:
            marked = name == "rn16_epc" and tp == operating_pause
            c_t = bounds.c_t_dual(t1, t2, tp)
            row = {"config": name, "t_pause_s": tp, "t1_s": t1, "t2_s": t2,
                   "c_t_s3": c_t,
                   "mcrb_var_hz2": bounds.mcrb_sigma_sq(c_t, linear),
                   "is_operating_point": int(marked)}
            if trials > 0 and marked:
                # the writer leaves the other rows' cells empty
                _, _, sim_rows = run_mcrb_experiment(dataclasses.replace(sim_config, trials=trials))
                row.update({"trials": sim_rows[0]["trials"],
                            "emp_var_hz2": sim_rows[0]["emp_var_hz2"]})
            rows.append(row)
    comments = [f"two-part estimation variance bound over pause length at "
                f"{ratio:.12g} dB-Hz (Miller-8, 40 kHz reply timings)"]
    return comments, fieldnames, rows


def _figure8(params, trials, seed):
    f_c, v_grid = params["f_c_hz"], params["v_grid"]
    timing = protocol.reply_timing(_MILLER8_40K)
    rows = []
    for p_err in params["p_err_list"]:
        for parts in params["parts_list"]:
            c_t = bounds.timing_factor(timing, parts)
            for v in v_grid:
                rows.append({"v_m_per_s": v, "p_err": p_err, "parts": parts,
                             "ps_n0_dbhz": bounds.required_ps_n0(v, c_t, f_c, p_err)})
    comments = ["required P_S/N0 over tag speed (Miller-8, 40 kHz)"]
    return comments, ["v_m_per_s", "p_err", "parts", "ps_n0_dbhz"], rows


def _figure9(params, trials, seed):
    f_c, p_err, v_grid = params["f_c_hz"], params["p_err"], params["v_grid"]
    rows = []
    for enc_name, blf in params["combos"]:
        mode = protocol.ReaderMode("sweep", blf, protocol.encoding_from_name(enc_name))
        c_t = bounds.timing_factor(protocol.reply_timing(mode), "both")
        for v in v_grid:
            rows.append({"v_m_per_s": v, "encoding": mode.encoding.name, "blf_hz": blf,
                         "ps_n0_dbhz": bounds.required_ps_n0(v, c_t, f_c, p_err)})
    comments = [f"required P_S/N0 over tag speed per encoding and BLF, p_err = {p_err:.12g}"]
    return comments, ["v_m_per_s", "encoding", "blf_hz", "ps_n0_dbhz"], rows


def _figure10(params, trials, seed):
    f_c, p_err, v_grid = params["f_c_hz"], params["p_err"], params["v_grid"]
    mode = protocol.find_reader_mode(params["mode_label"])
    c_t = bounds.timing_factor(protocol.reply_timing(mode), "both")
    rows = [{"v_m_per_s": v, "nf_db": nf,
             "p_s_dbm": bounds.required_ps_dbm(v, c_t, f_c, p_err, nf)}
            for nf in params["nf_db_list"] for v in v_grid]
    comments = [f"required tag power over speed per noise figure "
                f"({mode.label}, p_err = {p_err:.12g})"]
    return comments, ["v_m_per_s", "nf_db", "p_s_dbm"], rows


def _figure11(params, trials, seed):
    f_c, p_err, v_grid = params["f_c_hz"], params["p_err"], params["v_grid"]
    nf_db = params["nf_db"]
    base = protocol.find_reader_mode("Mode 290")
    rows = []
    for epc_bits in params["epc_bits_list"]:
        mode = dataclasses.replace(base, epc_bits=epc_bits)
        c_t = bounds.timing_factor(protocol.reply_timing(mode), "both")
        for v in v_grid:
            rows.append({"v_m_per_s": v, "epc_bits": epc_bits,
                         "p_s_dbm": bounds.required_ps_dbm(v, c_t, f_c, p_err, nf_db)})
    comments = [f"required tag power over speed per EPC length (Mode 290, "
                f"NF = {nf_db:.12g} dB)"]
    return comments, ["v_m_per_s", "epc_bits", "p_s_dbm"], rows


def _combos(text: str) -> list[tuple[str, float]]:
    """'FM0:640e3,Miller8:40e3' -> [(encoding name, BLF in Hz), ...]."""
    combos = []
    for item in _items(text):
        name, sep, blf = item.partition(":")
        if not sep:
            raise ValueError(f"expected ENCODING:BLF_HZ items, got {item!r}")
        protocol.encoding_from_name(name)
        combos.append((name.strip(), _blf(blf)))
    return combos


_SPEED_AXIS = {"f_c_hz": (_carrier, 868e6),
               "v_grid": (_speed_grid, _geomspace(0.01, 10.0, 61))}
_P_ERR = {"p_err": (_p_err, 0.001)}

# Builder and parameters of each figure; a parameter is (parser of its text
# form, default value).
_FIGURES = {
    4: (_figure4, {**_SPEED_AXIS, "p_err_list": (_each(_p_err), [0.05, 0.01, 0.001])}),
    5: (_figure5, {"t0_grid_s": (_each(_positive), _geomspace(1e-4, 1e-1, 61)),
                   "ps_n0_dbhz_list": (_each(_db), [30.0, REFERENCE_PS_N0_DBHZ, 80.0]),
                   "blf_hz": (_blf, 640_000.0), "encoding": (_encoding, "FM0"),
                   "modulation": (_modulation, "ask"),
                   "waveform_model": (_waveform_model, "gen2")}),
    7: (_figure7, {"ps_n0_dbhz": (_db, REFERENCE_PS_N0_DBHZ), "modulation": (_modulation, "ask"),
                   "t_pause_grid_s": (_each(_non_negative), _geomspace(1e-4, 1.0, 61))}),
    8: (_figure8, {**_SPEED_AXIS, "p_err_list": (_each(_p_err), [0.05, 0.01, 0.001]),
                   "parts_list": (_each(_part), ["rn16", "epc", "both"])}),
    9: (_figure9, {**_SPEED_AXIS, **_P_ERR,
                   "combos": (_combos, [("FM0", 640e3), ("Miller2", 640e3), ("Miller4", 640e3),
                                        ("Miller8", 640e3), ("Miller8", 40e3)])}),
    10: (_figure10, {**_SPEED_AXIS, **_P_ERR,
                     "nf_db_list": (_each(_noise_figure), [0.0, 5.0, 10.0, 15.0, 20.0, 25.4]),
                     "mode_label": (_mode_label, "Mode 290")}),
    11: (_figure11, {**_SPEED_AXIS, **_P_ERR, "nf_db": (_noise_figure, 25.4),
                     "epc_bits_list": (_each(_epc_bits), [96, 128, 256])}),
}


def figure_dataset(figure_id: int, overrides: Optional[dict] = None,
                   trials: int = 0, seed: int = 0):
    """Analytic dataset behind one of the paper-style figures.

    Returns (comments, fieldnames, rows).  Figures 4, 8, 9, 10 and 11 are
    purely closed-form and reject ``trials`` > 0; figures 5 and 7 optionally
    add Monte Carlo columns when ``trials`` > 0 (figure 7 simulates its marked
    operating point only) and check their simulation parameters either way.
    ``overrides`` replaces parameter defaults; each value, the text form of
    ``--set KEY=VALUE`` or a value set in code, goes through the parameter's
    parser.  The rows may still leave floating-point range (an overflow, a
    division by zero, an ``inf`` cell) where the overrides take them there:
    the builders raise ArithmeticError or ValueError, or leave a non-finite
    number that the writer refuses.
    """
    try:
        builder, params = _FIGURES[int(figure_id)]
    except (KeyError, ValueError):
        raise ConfigError(f"figure_id: unknown figure {figure_id!r}, "
                          f"expected one of {sorted(_FIGURES)}") from None
    if trials < 0:
        raise ConfigError(f"trials: must be >= 0, got {trials}")
    if trials > 0 and int(figure_id) not in (5, 7):
        raise ConfigError(f"trials: figure {figure_id} is closed-form, only figures "
                          f"5 and 7 simulate; got {trials}")
    values = {key: default for key, (_, default) in params.items()}
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ConfigError(f"{key}: unused key, figure {figure_id} takes "
                              f"{', '.join(params)}")
        values[key] = _parsed(key, params[key][0], value)
    return builder(values, trials, seed)


# ---------------------------------------------------------------------------
# Noise-figure report and CSV output
# ---------------------------------------------------------------------------

def noise_figure_report(p_s_dbm: float = -95.8, ber: float = 1e-3,
                        blf_hz: float = 160e3, m: int = 8) -> dict:
    """Back-solve the receiver noise density from a sensitivity point.

    ``p_s_dbm``, ``ber`` and ``blf_hz`` may be given as text.  ``p_s_dbm`` and
    ``blf_hz`` go through the rules of the config fields of those names;
    ``ber`` must be finite, and bounds.ps_n0_from_ber checks its range.  The
    noise figure that the point gives must take the rule of ``nf_db``, or
    the point is refused naming ``p_s_dbm``.
    """
    p_s_dbm = _parsed("p_s_dbm", _db, p_s_dbm)
    ber = _parsed("ber", _finite, ber)
    blf_hz = _parsed("blf_hz", _blf, blf_hz)
    ratio = bounds.ps_n0_from_ber(blf_hz, m, ber)
    n0, nf = bounds.noise_density_from_sensitivity(p_s_dbm, ber, blf_hz, m)
    try:
        _noise_figure(nf)
    except ValueError as exc:
        raise ConfigError(f"p_s_dbm: the noise figure of this sensitivity {exc}") from None
    return {"p_s_dbm": p_s_dbm, "ber": ber, "blf_hz": blf_hz, "m": m,
            "ps_n0_dbhz": ratio, "n0_dbm_hz": n0, "nf_db": nf}


def _format_value(name: str, value) -> str:
    """The text of ``value`` in column or key ``name``: empty for None, 12
    significant digits for a float, str() for anything else.  A float that
    is not finite (also a numpy float64) raises a ValueError naming ``name``."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be a finite number, got {value}")
        return format(value, ".12g")
    return str(value)


def _column_text(name: str, values: list) -> list:
    """The cells of column ``name``, each as _format_value writes it.

    A column of finite plain floats maps one format over its values
    ("%.12g" % x and format(x, ".12g") print the same digits), a column of
    strings is used as it is, and any other column is formatted cell by cell.
    """
    types = set(map(type, values))
    if types == {float} and all(map(math.isfinite, values)):
        return list(map("%.12g".__mod__, values))
    if types == {str}:
        return values
    return [_format_value(name, value) for value in values]


def _write_lines(out, lines) -> None:
    """Write ``lines``, each ended by a newline, to a path or a stream.

    The text is finished before a path is opened, so an error in formatting
    leaves an existing file as it was; a stream gets one write.
    """
    text = "\n".join(lines) + "\n"
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)


def write_csv(out, comments: Sequence[str], fieldnames: Sequence[str],
              rows: Sequence[dict]) -> None:
    """Write rows as CSV with '#' comment lines to a path or a stream.

    A missing key or None is an empty cell, and floats have 12 significant
    digits.  Each column is gathered once and formatted by one rule chosen
    from its value types; the whole table then goes out in one write, so a
    formatting error, such as a number that is not finite, writes nothing.
    """
    columns = [_column_text(name, [row.get(name) for row in rows]) for name in fieldnames]
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(fieldnames))
    lines += map(",".join, zip(*columns))
    _write_lines(out, lines)


def write_key_values(out, pairs) -> None:
    """Write one ``key = value`` line per (key, value) pair to a path or a
    stream, each value as write_csv writes a cell, in one write."""
    _write_lines(out, [f"{key} = {_format_value(key, value)}" for key, value in pairs])
