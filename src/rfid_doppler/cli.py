"""Command-line interface.

Subcommands: bounds, vmin, figure, simulate-mcrb, simulate-detect,
noise-figure.  bounds, vmin, simulate-mcrb and simulate-detect accept
--config (flat key = value file) with individual flags overriding file
values.  Each setting is declared once, as a field of
experiments.ExperimentConfig: a flag's dest is the field name, and its text
goes through the field's parser, as a config-file value does.  A subcommand
takes only the flags it reads.  Exit codes: 0 success, 2 configuration
error, 3 failed --check comparison.

Each subcommand is declared once, in ``_SUBCOMMANDS``: its help line, the
function that adds its arguments, and its handler.  ``main`` registers every
name and help line, so the top-level help and usage errors list them all, but
adds arguments only to the subcommand that argv names.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import bounds, experiments, protocol
from .experiments import CheckFailure, ConfigError, ExperimentConfig


def _add_output(sp):
    sp.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _add_scenario(sp):
    sp.add_argument("--config", metavar="FILE",
                    help="flat key = value config file; flags override its values")
    sp.add_argument("--mode", dest="mode_label", help="reader mode label, e.g. 'Mode 290'")
    sp.add_argument("--blf", dest="blf_hz", help="explicit BLF in Hz")
    sp.add_argument("--encoding", help="FM0 or Miller-2/4/8 (with --blf)")
    sp.add_argument("--trext", dest="trext", action=argparse.BooleanOptionalAction,
                    default=None, help="pilot tone on/off")
    sp.add_argument("--epc-bits", dest="epc_bits", choices=("96", "128", "256"))
    sp.add_argument("--f-c", dest="f_c_hz", help="carrier frequency in Hz")
    sp.add_argument("--parts", choices=("rn16", "epc", "both"))


def _add_p_err(sp):
    sp.add_argument("--p-err", dest="p_err", help="target error probability")


def _add_link(sp):
    sp.add_argument("--ps-n0", dest="ps_n0_dbhz", help="P_S/N0 in dB-Hz")
    sp.add_argument("--p-s-dbm", dest="p_s_dbm", help="received tag power")
    sp.add_argument("--n0", dest="n0_dbm_hz", help="noise density in dBm-Hz")
    sp.add_argument("--nf", dest="nf_db", help="receiver noise figure in dB")


def _add_simulation(sp):
    sp.add_argument("--trials")
    sp.add_argument("--seed")
    sp.add_argument("--modulation", choices=("ask", "psk"))
    sp.add_argument("--waveform-model", dest="waveform_model", choices=("gen2", "rect"))
    sp.add_argument("--sample-rate", dest="sample_rate_hz")
    sp.add_argument("--ask-zeroing", dest="ask_zeroing",
                    action=argparse.BooleanOptionalAction, default=None,
                    help="zero absorb intervals before ASK estimation")
    sp.add_argument("--search-halfwidth", dest="search_halfwidth_hz")
    sp.add_argument("--v", help="tag speed in m/s")


def _build_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for f in dataclasses.fields(config):
        value = getattr(args, f.name, None)
        if value is not None:
            # flags hold text, except the on/off switches, which parse as 'True'/'False'
            config.set_field(f.name, str(value))
    return config


def _resolved(config):
    config.validate()
    mode = experiments.resolve_reader_mode(config)
    link = experiments.resolve_link_budget(config)
    timing = protocol.reply_timing(mode)
    c_t = bounds.timing_factor(timing, config.parts)
    return mode, link, timing, c_t


def _cmd_bounds(args) -> int:
    config = _build_config(args)
    mode, link, timing, c_t = _resolved(config)
    scenario = bounds.MotionScenario(config.v, config.f_c_hz, config.p_err)
    result = bounds.evaluate_bounds(scenario, c_t, link)
    lines = [
        f"mode = {mode.label}",
        f"blf_hz = {mode.blf_hz:.12g}",
        f"encoding = {mode.encoding.name}",
        f"parts = {config.parts}",
        f"t_rn16_s = {float(timing.t_rn16):.12g}",
        f"t_pause_s = {float(timing.t_pause):.12g}",
        f"t_epc_s = {float(timing.t_epc):.12g}",
        f"c_t_s3 = {c_t:.12g}",
        f"ps_n0_dbhz = {link.ps_n0_dbhz:.12g}",
        f"v_m_per_s = {scenario.v:.12g}",
        f"p_err = {scenario.p_err:.12g}",
        f"f_c_hz = {scenario.f_c_hz:.12g}",
        f"sigma_max_sq_hz2 = {result.sigma_max_sq:.12g}",
        f"mcrb_var_hz2 = {result.sigma_mcrb_sq:.12g}",
        f"v_min_m_per_s = {result.v_min:.12g}",
        f"detectable = {str(result.detectable).lower()}",
    ]
    experiments._write_lines(args.out or sys.stdout, lines)
    return 0


def _cmd_vmin(args) -> int:
    config = _build_config(args)
    mode, link, timing, c_t = _resolved(config)
    value = bounds.v_min(c_t, link.ps_n0_linear, config.f_c_hz, config.p_err)
    lines = [
        f"mode = {mode.label}",
        f"parts = {config.parts}",
        f"c_t_s3 = {c_t:.12g}",
        f"ps_n0_dbhz = {link.ps_n0_dbhz:.12g}",
        f"p_err = {config.p_err:.12g}",
        f"f_c_hz = {config.f_c_hz:.12g}",
        f"v_min_m_per_s = {value:.12g}",
    ]
    experiments._write_lines(args.out or sys.stdout, lines)
    return 0


def _cmd_figure(args) -> int:
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    comments, fieldnames, rows = experiments.figure_dataset(
        args.id, overrides, trials=args.trials or 0, seed=args.seed or 0)
    experiments.write_csv(args.out or sys.stdout, comments, fieldnames, rows)
    return 0


def _check_mcrb_rows(rows, ask_penalty: bool) -> None:
    # ASK without zeroing keeps the absorb samples' noise: twice the bound
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


def _cmd_simulate_mcrb(args) -> int:
    config = _build_config(args)
    if args.sweep:
        if "=" not in args.sweep:
            raise ConfigError("sweep: expected PARAM=V1,V2,... "
                              "(param ps_n0_dbhz or t0_s)")
        param, values = args.sweep.split("=", 1)
        config.set_field("sweep_param", param)
        config.set_field("sweep_values", values)
    comments, fieldnames, rows = experiments.run_mcrb_experiment(config)
    experiments.write_csv(args.out or sys.stdout, comments, fieldnames, rows)
    if args.check:
        _check_mcrb_rows(rows, config.modulation == "ask" and not config.ask_zeroing)
    return 0


def _check_detect_rows(rows) -> None:
    for row in rows:
        p = row["p_err_predicted"]
        n = 2 * row["trials"]
        halfwidth = 2.5758 * math.sqrt(p * (1.0 - p) / n)
        if not abs(row["error_rate"] - p) <= halfwidth:
            raise CheckFailure(
                f"error rate {row['error_rate']:.6g} outside the 99% interval "
                f"around {p:.6g} (halfwidth {halfwidth:.6g}) at v = {row['v_m_per_s']}")


def _cmd_simulate_detect(args) -> int:
    config = _build_config(args)
    comments, fieldnames, rows = experiments.run_detection_experiment(config)
    experiments.write_csv(args.out or sys.stdout, comments, fieldnames, rows)
    if args.check:
        _check_detect_rows(rows)
    return 0


def _cmd_noise_figure(args) -> int:
    values = {key: experiments._parsed(key, experiments._finite, getattr(args, key))
              for key in ("p_s_dbm", "ber", "blf_hz")}
    report = experiments.noise_figure_report(**values, m=args.m)
    lines = [f"{key} = {experiments._format_value(value)}"
             for key, value in report.items()]
    experiments._write_lines(args.out or sys.stdout, lines)
    return 0


def _vmin_arguments(sp):
    _add_output(sp); _add_scenario(sp); _add_p_err(sp); _add_link(sp)


def _bounds_arguments(sp):
    _vmin_arguments(sp)
    sp.add_argument("--v", help="tag speed in m/s")


def _figure_arguments(sp):
    sp.add_argument("id", type=int, choices=(4, 5, 7, 8, 9, 10, 11))
    _add_output(sp)
    sp.add_argument("--trials", type=int, help="add Monte Carlo columns (figures 5 and 7)")
    sp.add_argument("--seed", type=int,
                    help="Monte Carlo seed, read only by figures 5 and 7 with --trials; "
                         "the closed-form figures draw no random numbers")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a dataset parameter (repeatable)")


def _simulate_mcrb_arguments(sp):
    _add_output(sp); _add_scenario(sp); _add_link(sp); _add_simulation(sp)
    sp.add_argument("--sweep", metavar="PARAM=V1,V2,...",
                    help="sweep ps_n0_dbhz or t0_s over the given values")
    sp.add_argument("--check", action="store_true",
                    help="exit 3 unless the empirical variance matches the bound")


def _simulate_detect_arguments(sp):
    _add_output(sp); _add_scenario(sp); _add_p_err(sp); _add_simulation(sp)
    sp.add_argument("--v-grid", dest="v_grid", metavar="V1,V2,...",
                    help="tag speeds to sweep")
    sp.add_argument("--estimator", dest="estimator_model",
                    choices=("gaussian", "baseband"))
    sp.add_argument("--sigma-sq", dest="sigma_sq_hz2",
                    help="pin the estimator variance in Hz^2")
    sp.add_argument("--check", action="store_true",
                    help="exit 3 unless error rates match the prediction")


def _noise_figure_arguments(sp):
    sp.add_argument("--p-s-dbm", dest="p_s_dbm", default="-95.8")
    sp.add_argument("--ber", default="1e-3")
    sp.add_argument("--blf", dest="blf_hz", default="160e3")
    sp.add_argument("--m", type=int, choices=(1, 2, 4, 8), default=8,
                    help="spread factor: 1 (FM0), 2, 4 or 8")
    _add_output(sp)


# name -> (help, argument adder, handler), in the order --help lists them
_SUBCOMMANDS = {
    "bounds": ("print every bound for one configuration", _bounds_arguments, _cmd_bounds),
    "vmin": ("print the minimum detectable tag speed", _vmin_arguments, _cmd_vmin),
    "figure": ("emit the dataset behind one figure", _figure_arguments, _cmd_figure),
    "simulate-mcrb": ("Monte Carlo check of the estimation variance bound",
                      _simulate_mcrb_arguments, _cmd_simulate_mcrb),
    "simulate-detect": ("Monte Carlo check of classification error rates",
                        _simulate_detect_arguments, _cmd_simulate_detect),
    "noise-figure": ("back-solve N0 and NF from a sensitivity point",
                     _noise_figure_arguments, _cmd_noise_figure),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser that lists every subcommand and knows the arguments, -h
    included, of ``command`` alone (of none if it names no subcommand)."""
    parser = argparse.ArgumentParser(
        prog="rfid-doppler",
        description="Bounds and Monte Carlo verification for Doppler-based "
                    "motion detection in UHF-RFID readers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            add_arguments(sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option but -h, so the first token that is
    # not an option names the subcommand
    command = next((token for token in argv if not token.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
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
