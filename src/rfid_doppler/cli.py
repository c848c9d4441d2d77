"""Command-line interface: ``rfid-doppler SUBCOMMAND [options]``.

bounds, vmin, simulate-mcrb and simulate-detect accept --config (flat
key = value file) with individual flags overriding file values.  Each
setting is declared once, as a field of experiments.ExperimentConfig that
holds its parser, its flag and the flag's help.  Each of these commands
reads the settings of one tuple of experiments (BOUNDS_SETTINGS,
VMIN_SETTINGS, MCRB_SETTINGS, DETECT_SETTINGS), and _setting_arguments
builds a flag for each setting of the tuple from its field, with no
argparse type or choices.  A flag's text is read as a config-file value is:
stripped, then by the field's parser, so both give the same value or the
same error.  A config file may set only the settings of the command's tuple
(simulate-mcrb: also sweep_param and sweep_values, which --sweep sets); any
other key exits 2 naming it.  experiments.resolve checks a run's settings,
in one place, and resolves them into the setup that bounds, vmin and every
Monte Carlo run read: the parsed settings, the reader mode, the link budget
and the reply's timing factor.  noise-figure's --p-s-dbm and --blf follow
the rules of the config fields p_s_dbm and blf_hz; its --m, and figure's id,
--trials and --seed, are read by named rules of experiments, which name
them when they refuse.  No flag sets a sample rate: every frame is sampled
at 32 x BLF (protocol.default_sample_rate), and no result depends on it.
bounds, vmin, noise-figure and a figure without --trials load no numpy: only
the Monte Carlo runners of experiments import its engine (montecarlo), as
they start.
bounds, vmin and noise-figure print ``key = value`` lines
(experiments.write_key_values), the other subcommands CSV
(experiments.write_csv); a simulation CSV's ``#`` header echoes the set
settings of its command's tuple, and no other.  Both writers refuse a
number that is not finite, naming its key or column.  A figure whose
``--set`` overrides take its dataset out of floating-point range exits 2
naming those keys.
Exit codes: 0 success, 2 configuration error, 3 failed --check comparison.

Each subcommand is declared once, in ``_SUBCOMMANDS``: its help line, its
argument adder and its handler.  One handler serves bounds and vmin, which
prints the lines of bounds that need no speed, and one serves simulate-mcrb
and simulate-detect.  ``main`` parses the argv after the name with that
subcommand's own parser; only a command that cannot run builds the parser
that lists every subcommand, for the top-level help or a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import shutil
import sys

from . import bounds, experiments
from .experiments import CheckFailure, ConfigError, ExperimentConfig


def _add_output(sp):
    sp.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _metavar(choices) -> str:
    return "{" + ",".join(map(str, choices)) + "}"


def _setting_arguments(settings, check: str = ""):
    """Argument adder of a command that reads ``settings``: --out, --config,
    a flag for each setting that has one, built from its config field, then
    --sweep if the command reads sweep_param, and --check if ``check`` says
    what it checks.  A flag's text goes through the field's rule; a boolean
    takes --NAME and --no-NAME, and a rule of fixed choices shows them as
    the flag's metavar."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

    def add(sp):
        _add_output(sp)
        sp.add_argument("--config", metavar="FILE",
                        help="flat key = value config file; flags override its values")
        for field in (fields[name] for name in settings if fields[name].metadata["flag"]):
            choices = getattr(field.metadata["parse"], "choices", None)
            kind = {"action": argparse.BooleanOptionalAction} if isinstance(field.default, bool) \
                else {"metavar": choices and _metavar(choices)}
            sp.add_argument(field.metadata["flag"], dest=field.name, help=field.metadata["help"],
                            **kind)
        if "sweep_param" in settings:
            sp.add_argument("--sweep", metavar="PARAM=V1,V2,...",
                            help="sweep ps_n0_dbhz or t0_s over the given values")
        if check:
            sp.add_argument("--check", action="store_true", help=f"exit 3 unless {check}")
        sp.set_defaults(settings=settings)
    return add


def _build_config(args) -> ExperimentConfig:
    """A command's config: the values of its config file, then of its flags.

    Its settings are the command's tuple (args.settings); a file key outside
    them is refused, as a flag the command lacks is.  simulate-mcrb's
    --sweep PARAM=V1,V2,... sets sweep_param and sweep_values.
    """
    config = ExperimentConfig.from_file(args.config, args.settings) if args.config \
        else ExperimentConfig()
    for name in args.settings:
        if getattr(args, name, None) is not None:
            config.set_field(name, getattr(args, name))
    if getattr(args, "sweep", None):
        param, sep, values = args.sweep.partition("=")
        if not sep:
            raise ConfigError("sweep: expected PARAM=V1,V2,... (param ps_n0_dbhz or t0_s)")
        config.set_field("sweep_param", param)
        config.set_field("sweep_values", values)
    return config


# the lines of bounds that need no speed and no reply timing: vmin's lines
_VMIN_KEYS = ("mode", "parts", "c_t_s3", "ps_n0_dbhz", "p_err", "f_c_hz", "v_min_m_per_s")


def _cmd_bounds(args) -> int:
    """bounds prints every bound; vmin, which has no --v, the lines of _VMIN_KEYS."""
    setup = experiments.resolve(_build_config(args))
    config, mode, link, timing = setup.config, setup.mode, setup.link, setup.timing
    scenario = bounds.MotionScenario(config.v, config.f_c_hz, config.p_err)
    try:
        result = bounds.evaluate_bounds(scenario, setup.c_t, link)
    except ValueError as exc:
        # the tolerable variance, of a tag at rest or one whose variance underflows
        raise ConfigError(f"v: {exc}") from None
    if not result.v_min < bounds.SPEED_OF_LIGHT:
        raise ConfigError(f"{'ps_n0_dbhz' if config.p_s_dbm is None else 'p_s_dbm'}: the "
                          f"minimum detectable speed {result.v_min:.6g} m/s is not below "
                          f"light, c = {bounds.SPEED_OF_LIGHT:.0f} m/s")
    pairs = [
        ("mode", mode.label),
        ("blf_hz", mode.blf_hz),
        ("encoding", mode.encoding.name),
        ("parts", config.parts),
        ("t_rn16_s", float(timing.t_rn16)),
        ("t_pause_s", float(timing.t_pause)),
        ("t_epc_s", float(timing.t_epc)),
        ("c_t_s3", setup.c_t),
        ("ps_n0_dbhz", link.ps_n0_dbhz),
        ("v_m_per_s", scenario.v),
        ("p_err", scenario.p_err),
        ("f_c_hz", scenario.f_c_hz),
        ("sigma_max_sq_hz2", result.sigma_max_sq),
        ("mcrb_var_hz2", result.sigma_mcrb_sq),
        ("v_min_m_per_s", result.v_min),
        ("detectable", str(result.detectable).lower()),
    ]
    if "v" not in args.settings:
        pairs = [pair for pair in pairs if pair[0] in _VMIN_KEYS]
    experiments.write_key_values(args.out or sys.stdout, pairs)
    return 0


def _cmd_figure(args) -> int:
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    try:
        comments, fieldnames, rows = experiments.figure_dataset(args.id, overrides,
                                                                args.trials, args.seed)
        experiments.write_csv(args.out or sys.stdout, comments, fieldnames, rows)
    except ConfigError:
        raise
    except (ArithmeticError, ValueError) as exc:
        if not overrides:
            raise
        # the defaults stay in range, so the overrides took the values out of it
        raise ConfigError(f"{', '.join(overrides)}: out of the range this figure can "
                          f"compute ({exc})") from None
    return 0


def _check_mcrb_rows(rows, config: ExperimentConfig) -> None:
    # ASK without zeroing keeps the absorb samples' noise: twice the bound
    ask_penalty = config.modulation == "ask" and not config.ask_zeroing
    lo, hi = (1.8, 2.2) if ask_penalty else (0.9, 1.15)
    for row in rows:
        ratio = row["emp_var_hz2"] / row["mcrb_var_hz2"]
        if not lo <= ratio <= hi:
            raise CheckFailure(
                f"empirical/bound variance ratio {ratio:.4f} outside [{lo}, {hi}] "
                f"at row {row}")
        sem = math.sqrt(row["emp_var_hz2"] / row["trials"])
        if not abs(row["emp_mean_err_hz"]) <= 3.0 * sem:
            raise CheckFailure(
                f"mean error {row['emp_mean_err_hz']:.6g} Hz exceeds 3 standard errors "
                f"({3.0 * sem:.6g} Hz) at row {row}")


def _check_detect_rows(rows, config: ExperimentConfig) -> None:
    for row in rows:
        p = row["p_err_predicted"]
        n = 2 * row["trials"]
        halfwidth = 2.5758 * math.sqrt(p * (1.0 - p) / n)
        if not abs(row["error_rate"] - p) <= halfwidth:
            raise CheckFailure(
                f"error rate {row['error_rate']:.6g} outside the 99% interval "
                f"around {p:.6g} (halfwidth {halfwidth:.6g}) at v = {row['v_m_per_s']}")


def _cmd_simulate(args) -> int:
    """simulate-mcrb (the command with --sweep) and simulate-detect."""
    mcrb = args.settings == experiments.MCRB_SETTINGS
    config = _build_config(args)
    # looked up as the command runs, so that a wrapper set on the module is called
    run = experiments.run_mcrb_experiment if mcrb else experiments.run_detection_experiment
    comments, fieldnames, rows = run(config)
    experiments.write_csv(args.out or sys.stdout, comments, fieldnames, rows)
    if args.check:
        (_check_mcrb_rows if mcrb else _check_detect_rows)(rows, config)
    return 0


def _cmd_noise_figure(args) -> int:
    # only the flags given, as text: noise_figure_report's signature holds the
    # defaults, and it reads each value by its rule
    values = {key: getattr(args, key) for key in ("p_s_dbm", "ber", "blf_hz", "m")
              if getattr(args, key) is not None}
    report = experiments.noise_figure_report(**values)
    experiments.write_key_values(args.out or sys.stdout, report.items())
    return 0


def _figure_arguments(sp):
    sp.add_argument("id", metavar=_metavar(experiments.FIGURE_IDS))
    _add_output(sp)
    sp.add_argument("--trials", default=0, help="add Monte Carlo columns (figures 5 and 7)")
    sp.add_argument("--seed", default=0,
                    help="Monte Carlo seed, read only by figures 5 and 7 with --trials; "
                         "the closed-form figures draw no random numbers")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a dataset parameter (repeatable)")


def _noise_figure_arguments(sp):
    sp.add_argument("--p-s-dbm", dest="p_s_dbm")
    sp.add_argument("--ber")
    sp.add_argument("--blf", dest="blf_hz")
    sp.add_argument("--m", help="spread factor: 1 (FM0), 2, 4 or 8")
    _add_output(sp)


# name -> (help, argument adder, handler), in the order --help lists them
_SUBCOMMANDS = {
    "bounds": ("print every bound for one configuration",
               _setting_arguments(experiments.BOUNDS_SETTINGS), _cmd_bounds),
    "vmin": ("print the minimum detectable tag speed",
             _setting_arguments(experiments.VMIN_SETTINGS), _cmd_bounds),
    "figure": ("emit the dataset behind one figure", _figure_arguments, _cmd_figure),
    "simulate-mcrb": ("Monte Carlo check of the estimation variance bound",
                      _setting_arguments(experiments.MCRB_SETTINGS,
                                         "the empirical variance matches the bound"),
                      _cmd_simulate),
    "simulate-detect": ("Monte Carlo check of classification error rates",
                        _setting_arguments(experiments.DETECT_SETTINGS,
                                         "error rates match the prediction"),
                        _cmd_simulate),
    "noise-figure": ("back-solve N0 and NF from a sensitivity point",
                     _noise_figure_arguments, _cmd_noise_figure),
}


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    # argparse makes a formatter for every argument it adds, and the stock
    # one asks the terminal for its width each time: ask once, for the
    # width the stock one takes
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog=f"rfid-doppler {name}", formatter_class=formatter)
    _SUBCOMMANDS[name][1](parser)
    return parser


def _listing_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfid-doppler",
        description="Bounds and Monte Carlo verification for Doppler-based "
                    "motion detection in UHF-RFID readers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, add_help=False)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    args, extra = (_subcommand_parser(name).parse_known_args(argv[1:])
                   if name in _SUBCOMMANDS else (None, argv))
    if args is None or extra:
        # only a command that cannot run builds the parser listing every subcommand
        listing = _listing_parser()
        if args is None:
            listing.parse_args(argv)  # the top-level help or a usage error, unless '--' leads
        listing.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _SUBCOMMANDS[name][2](args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
