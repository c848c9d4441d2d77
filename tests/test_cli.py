"""CLI surface: subcommands, config files, exit codes, output determinism."""

import argparse
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rfid_doppler import baseband, cli
from rfid_doppler.cli import main
from rfid_doppler.experiments import CheckFailure, ExperimentConfig


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


FAST_SIM = ["--blf", "640e3", "--encoding", "FM0", "--parts", "epc",
            "--waveform-model", "rect", "--ps-n0", "52.8"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "simulate-mcrb" in capsys.readouterr().out


def test_noise_figure_defaults(capsys):
    assert main(["noise-figure"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert float(values["nf_db"]) == pytest.approx(25.39, abs=0.01)
    assert float(values["n0_dbm_hz"]) == pytest.approx(-148.61, abs=0.01)
    assert float(values["ps_n0_dbhz"]) == pytest.approx(52.81, abs=0.01)


def test_noise_figure_without_flags_prints_what_the_readme_flags_print(capsys):
    # the defaults live in noise_figure_report's signature only
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    command, = [line.split() for line in readme.splitlines()
                if line.startswith("rfid-doppler noise-figure ")]
    assert len(command) > 2
    assert main(command[1:]) == 0
    flagged = capsys.readouterr().out
    assert main(["noise-figure"]) == 0
    assert capsys.readouterr().out == flagged


def test_vmin_headline_number(capsys):
    assert main(["vmin", "--mode", "Mode 290", "--p-s-dbm", "-95.8",
                 "--n0", "-148.6", "--p-err", "1e-3", "--f-c", "868e6"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert float(values["v_min_m_per_s"]) == pytest.approx(1.1145, abs=5e-3)


@pytest.mark.parametrize("argv", [
    # README's vmin command
    ["--mode", "Mode 290", "--p-s-dbm", "-95.8", "--n0", "-148.6", "--p-err", "1e-3"],
    ["--mode", "Mode 204", "--parts", "epc", "--f-c", "915e6"],
    ["--blf", "40e3", "--encoding", "miller-8"],
    ["--p-s-dbm", "-95.8", "--nf", "25.4"],
])
def test_vmin_prints_the_lines_of_bounds_that_need_no_speed(argv, capsys):
    assert main(["vmin", *argv]) == 0
    printed = capsys.readouterr().out
    assert main(["bounds", *argv]) == 0
    keys = [line.split(" = ")[0] for line in printed.splitlines()]
    assert keys == ["mode", "parts", "c_t_s3", "ps_n0_dbhz", "p_err", "f_c_hz",
                    "v_min_m_per_s"]
    assert printed == "".join(line for line in capsys.readouterr().out.splitlines(True)
                              if line.split(" = ")[0] in keys)


def test_bounds_reports_consistent_quantities(capsys):
    assert main(["bounds", "--mode", "Mode 290", "--ps-n0", "52.8", "--v", "1.2"]) == 0
    values = parse_kv(capsys.readouterr().out)
    assert values["detectable"] == "true"
    assert float(values["mcrb_var_hz2"]) == pytest.approx(1.0904, abs=2e-3)
    assert float(values["c_t_s3"]) == pytest.approx(7.315e-7, rel=1e-3)


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode_label = Mode 290\nps_n0_dbhz = 52.8\np_err = 0.01\n",
                   encoding="utf-8")
    assert main(["vmin", "--config", str(cfg)]) == 0
    relaxed = float(parse_kv(capsys.readouterr().out)["v_min_m_per_s"])
    assert main(["vmin", "--config", str(cfg), "--p-err", "1e-3"]) == 0
    strict = float(parse_kv(capsys.readouterr().out)["v_min_m_per_s"])
    assert strict > relaxed
    # --sweep sets sweep_param and sweep_values, so simulate-mcrb reads them from a file
    sweep = tmp_path / "sweep"
    sweep.write_text("sweep_param = ps_n0_dbhz\nsweep_values = 50,60\n", encoding="utf-8")
    # (a ratio sweep sets the link ratio, so FAST_SIM's --ps-n0 stays off)
    assert main(["simulate-mcrb", "--config", str(sweep), *FAST_SIM[:-2], "--trials", "3"]) == 0
    assert capsys.readouterr().out.count(",epc,") == 2


@pytest.mark.parametrize("argv, setting", [
    (["simulate-detect", "--trials", "2"], "nf_db = 3"),
    (["simulate-detect", "--trials", "2"], "p_s_dbm = -90"),
    (["simulate-detect", "--trials", "2"], "sweep_values = 1,2"),
    (["simulate-mcrb", "--trials", "2"], "p_err = 0.01"),
    (["vmin"], "v = 2"),
    (["bounds"], "trials = 5"),
])
def test_a_config_file_key_the_command_does_not_read_exits_2(argv, setting, tmp_path, capsys):
    # a file key outside the command's settings fails as the flag for it does
    cfg = tmp_path / "cfg"
    cfg.write_text(f"mode_label = Mode 290\n{setting}\n", encoding="utf-8")
    assert main([*argv, "--config", str(cfg)]) == 2
    key = setting.split(" = ")[0]
    assert capsys.readouterr().err == f"config error: {key}: not a setting this command reads\n"


@pytest.mark.parametrize("command", ["simulate-mcrb", "simulate-detect"])
def test_a_config_file_cannot_set_the_sample_rate(command, tmp_path, capsys):
    # every frame is sampled at 32 x BLF
    cfg = tmp_path / "cfg"
    cfg.write_text("sample_rate_hz = 1e6\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--trials", "2"]) == 2
    assert capsys.readouterr().err == "config error: sample_rate_hz: unknown config key\n"


def test_figure_writes_csv(tmp_path):
    out = tmp_path / "fig8.csv"
    assert main(["figure", "8", "--out", str(out),
                 "--set", "v_grid=0.1,1", "--set", "p_err_list=0.001"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "v_m_per_s,p_err,parts,ps_n0_dbhz"
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 2 * 3


def test_figure_set_accepts_string_lists(capsys):
    assert main(["figure", "8", "--set", "v_grid=0.14",
                 "--set", "p_err_list=0.001", "--set", "parts_list=both"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    assert rows[0] == "v_m_per_s,p_err,parts,ps_n0_dbhz"
    assert len(rows) == 2 and ",both," in rows[1]
    value = float(rows[1].rsplit(",", 1)[1])
    assert abs(value - 52.8) <= 0.1


def test_simulate_mcrb_csv_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["simulate-mcrb", *FAST_SIM, "--trials", "5", "--seed", "11"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != b""


def test_simulate_mcrb_seed_changes_output(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate-mcrb", *FAST_SIM, "--trials", "5", "--seed", "11",
                 "--out", str(first)]) == 0
    assert main(["simulate-mcrb", *FAST_SIM, "--trials", "5", "--seed", "12",
                 "--out", str(second)]) == 0
    assert first.read_bytes() != second.read_bytes()


def test_simulate_mcrb_check_failure_exits_3(tmp_path, capsys):
    # two trials cannot estimate a variance; the check must trip
    code = main(["simulate-mcrb", *FAST_SIM, "--trials", "2", "--seed", "0",
                 "--check", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "check failed" in capsys.readouterr().err


def test_simulate_mcrb_check_takes_the_psk_band_without_ask_zeroing(tmp_path):
    # PSK keeps every sample whatever --ask-zeroing says, so its ratio is near 1
    argv = ["simulate-mcrb", "--modulation", "psk", "--trials", "2000", "--seed", "5",
            "--check"]
    assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*argv, "--no-ask-zeroing", "--out", str(tmp_path / "b.csv")]) == 0
    rows = [[line for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")] for name in ("a.csv", "b.csv")]
    assert rows[0] == rows[1]


def test_simulate_detect_check_passes(tmp_path):
    code = main(["simulate-detect", "--trials", "4000", "--seed", "5",
                 "--p-err", "0.01", "--v", "1.0", "--estimator", "gaussian",
                 "--check", "--out", str(tmp_path / "d.csv")])
    assert code == 0


def test_simulate_detect_sweeps_v_grid(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["simulate-detect", "--trials", "50", "--seed", "1",
                 "--v-grid", "0.5,1.0", "--estimator", "gaussian",
                 "--out", str(out)]) == 0
    rows = [line for line in out.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    assert len(rows) == 3  # header + 2 speeds


def test_config_errors_exit_2(capsys, tmp_path):
    assert main(["vmin", "--p-err", "0.7"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["simulate-mcrb", "--sweep", "bandwidth=1,2"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", encoding="utf-8")
    assert main(["vmin", "--config", str(bad)]) == 2
    assert main(["vmin", "--mode", "Mode 777"]) == 2
    missing = tmp_path / "does-not-exist.cfg"
    assert main(["vmin", "--config", str(missing)]) == 2


@pytest.mark.parametrize("argv, field", [
    (["bounds", "--v", "nan"], "v"),
    (["bounds", "--f-c", "inf"], "f_c_hz"),
    (["simulate-detect", "--sigma-sq", "nan", "--check"], "sigma_sq_hz2"),
    (["simulate-detect", "--v-grid", "0.5,-inf"], "v_grid"),
    (["simulate-mcrb", "--sweep", "ps_n0_dbhz=40,nan"], "sweep_values"),
    (["noise-figure", "--p-s-dbm", "nan"], "p_s_dbm"),
    (["noise-figure", "--ber", "nan"], "ber"),
    (["noise-figure", "--blf", "inf"], "blf_hz"),
])
def test_non_finite_flags_exit_2_naming_the_field(argv, field, capsys):
    assert main(argv) == 2
    assert f"config error: {field}: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["3", "0", "16", "-8", "8.0", "eight"])
def test_noise_figure_rejects_a_spread_factor_gen2_lacks(m, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noise-figure", "--m", m])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --m: invalid" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["--blf", "1e9"], "blf_hz"),
    (["--blf", "-1"], "blf_hz"),
    (["--ber", "0.7"], "ber"),
    # the flags take the rules of the config fields of the same name
    (["--p-s-dbm", "400"], "p_s_dbm"),
    (["--p-s-dbm", "-400"], "p_s_dbm"),
])
def test_noise_figure_range_errors_exit_2_naming_the_field(argv, field, capsys):
    assert main(["noise-figure", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {field}: must lie in" in captured.err


def test_noise_figure_takes_every_gen2_spread_factor(capsys):
    for m in ("1", "2", "4", "8"):
        assert main(["noise-figure", "--m", m]) == 0
        assert parse_kv(capsys.readouterr().out)["m"] == m


def test_non_finite_config_file_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode_label = Mode 290\nps_n0_dbhz = inf\n", encoding="utf-8")
    assert main(["vmin", "--config", str(cfg)]) == 2
    assert "config error: ps_n0_dbhz: must be a finite number" in capsys.readouterr().err


def test_detect_check_fails_on_a_nan_error_rate():
    row = {"v_m_per_s": 1.0, "p_err_predicted": 0.05, "trials": 100,
           "error_rate": math.nan}
    with pytest.raises(CheckFailure):
        cli._check_detect_rows([row], ExperimentConfig())


def test_mcrb_check_fails_on_a_biased_mean_error():
    row = {"ps_n0_dbhz": 52.8, "mcrb_var_hz2": 0.0174, "trials": 2000,
           "emp_var_hz2": 0.0174, "emp_mean_err_hz": 0.0}
    # PSK carries no ASK penalty
    config = ExperimentConfig(modulation="psk")
    cli._check_mcrb_rows([row], config)
    # 3 standard errors of the mean are 3 * sqrt(0.0174 / 2000) = 0.0088 Hz
    cli._check_mcrb_rows([dict(row, emp_mean_err_hz=-0.0087)], config)
    for mean in (0.0089, -0.0089, math.nan):
        with pytest.raises(CheckFailure, match="mean error .* at row .*'ps_n0_dbhz': 52.8"):
            cli._check_mcrb_rows([row, dict(row, emp_mean_err_hz=mean)], config)


@pytest.mark.parametrize("figure, setting, key", [
    ("4", "f_c_hz=9e8,1e9", "f_c_hz"),
    ("9", "combos=FM0", "combos"),
    ("9", "combos=FM7:640e3", "combos"),
    ("4", "v_grid=1,0.5", "v_grid"),
    ("8", "p_err_list=", "p_err_list"),
    ("4", "parts_list=both", "parts_list"),
    # out-of-range values of keys whose parser reads them
    ("4", "v_grid=0,1", "v_grid"),
    ("4", "f_c_hz=-1", "f_c_hz"),
    ("8", "p_err_list=0.6", "p_err_list"),
    ("8", "parts_list=foo", "parts_list"),
    ("9", "combos=FM0:1e9", "combos"),
    ("10", "p_err=0", "p_err"),
    ("11", "epc_bits_list=97", "epc_bits_list"),
    ("5", "t0_grid_s=0", "t0_grid_s"),
    ("5", "sample_rate_hz=1e6", "sample_rate_hz"),
    ("7", "t_pause_grid_s=-1", "t_pause_grid_s"),
    # a receiver's noise figure is >= 0 dB
    ("11", "nf_db=-300", "nf_db"),
    ("10", "nf_db_list=-5", "nf_db_list"),
    # values that would overflow, divide by zero, leave inf cells or make the
    # tolerable variance underflow to 0
    ("4", "v_grid=1e-300", "v_grid"),
    ("8", "v_grid=1e-300", "v_grid"),
    ("9", "v_grid=1e-300", "v_grid"),
    ("8", "v_grid=1e200", "v_grid"),
    ("4", "f_c_hz=1e300", "f_c_hz"),
    ("11", "f_c_hz=1e-300", "f_c_hz"),
    ("5", "ps_n0_dbhz_list=1e4", "ps_n0_dbhz_list"),
    ("7", "t_pause_grid_s=1e300", "t_pause_grid_s"),
])
def test_bad_figure_overrides_exit_2_naming_the_key(figure, setting, key, capsys):
    assert main(["figure", figure, "--set", setting]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    # figures 5 and 7 check their simulation keys also without --trials
    (["figure", "5", "--set", "encoding=bogus"], "encoding"),
    (["figure", "5", "--set", "modulation=qam"], "modulation"),
    (["figure", "5", "--set", "waveform_model=foo"], "waveform_model"),
    (["figure", "7", "--set", "modulation=qam"], "modulation"),
    (["figure", "5", "--trials", "-2"], "trials"),
    (["figure", "4", "--trials", "5"], "trials"),
    (["figure", "10", "--set", "mode_label=Nope"], "mode_label"),
    (["simulate-mcrb", "--search-halfwidth", "1e9", "--trials", "3"], "search_halfwidth_hz"),
    # 1e7 Hz lies above fs/2 = 5.12 MHz of Mode 204's rate, 32 x 320 kHz
    (["simulate-mcrb", "--mode", "Mode 204", "--trials", "3", "--search-halfwidth", "1e7"],
     "search_halfwidth_hz"),
    (["simulate-detect", "--estimator", "baseband", "--mode", "Mode 204", "--trials", "3",
      "--search-halfwidth", "1e7"], "search_halfwidth_hz"),
    # a 1 s burst of 2e7 samples after a short one
    (["simulate-mcrb", "--blf", "640e3", "--encoding", "FM0", "--trials", "3",
      "--sweep", "t0_s=2e-4,1"], "sweep_values"),
    # dB values whose linear form would overflow, and a negative noise figure
    (["vmin", "--ps-n0", "1e4"], "ps_n0_dbhz"),
    (["bounds", "--ps-n0", "1e4"], "ps_n0_dbhz"),
    (["simulate-mcrb", "--ps-n0", "1e4", "--trials", "3"], "ps_n0_dbhz"),
    (["simulate-mcrb", "--trials", "3", "--sweep", "ps_n0_dbhz=40,1e4"], "sweep_values"),
    # a ratio sweep beside the link it would override, which it ran over
    (["simulate-mcrb", "--mode", "Mode 290", "--trials", "5", "--ps-n0", "30",
      "--sweep", "ps_n0_dbhz=40"], "ps_n0_dbhz"),
    (["simulate-mcrb", "--mode", "Mode 290", "--trials", "5", "--p-s-dbm", "-90", "--nf", "10",
      "--sweep", "ps_n0_dbhz=40"], "p_s_dbm"),
    (["bounds", "--p-s-dbm", "1e4", "--nf", "3"], "p_s_dbm"),
    (["bounds", "--p-s-dbm", "-95", "--nf", "-5"], "nf_db"),
    # a noise figure that disagrees with the noise density given beside it
    (["bounds", "--p-s-dbm", "-95.8", "--n0", "-150", "--nf", "3"], "nf_db"),
    # a carrier outside [1 MHz, 100 GHz], which made v_min inf and tripped the
    # bounds' consistency assertion, and a noise density below the thermal
    # floor, the negative noise figure by another key
    (["vmin", "--f-c", "1e-300", "--ps-n0", "50"], "f_c_hz"),
    (["bounds", "--f-c", "1e-300", "--ps-n0", "50"], "f_c_hz"),
    (["bounds", "--f-c", "2e11"], "f_c_hz"),
    (["simulate-mcrb", "--f-c", "1e5", "--trials", "3"], "f_c_hz"),
    (["bounds", "--p-s-dbm", "-95", "--n0", "-180"], "n0_dbm_hz"),
    (["vmin", "--p-s-dbm", "-95", "--n0", "-174.01"], "n0_dbm_hz"),
    # speeds at or above light, whose bounds and Doppler shifts left
    # floating-point range
    (["bounds", "--v", "1e300"], "v"),
    (["simulate-detect", "--v-grid", "1e300", "--trials", "5"], "v_grid"),
    (["simulate-mcrb", "--v", "299792458", "--trials", "3"], "v"),
    # a noise term without the tag power it goes with, which the link budget
    # used to ignore
    (["vmin", "--ps-n0", "50", "--n0", "-150", "--nf", "3"], "n0_dbm_hz"),
    (["bounds", "--ps-n0", "50", "--n0", "-150", "--nf", "3"], "n0_dbm_hz"),
    (["bounds", "--nf", "3"], "nf_db"),
    # a tolerable variance that underflows to 0, or whose link ratio would be
    # 3/0, which raised ZeroDivisionError in the frame pipeline
    (["simulate-detect", "--estimator", "baseband", "--v", "1e-300", "--trials", "2"], "v"),
    (["simulate-detect", "--v", "1e-300", "--trials", "2"], "v"),
    (["simulate-detect", "--estimator", "baseband", "--v-grid", "1e-300,1", "--trials", "2"],
     "v_grid"),
    (["simulate-detect", "--estimator", "baseband", "--sigma-sq", "5e-324", "--trials", "2"],
     "sigma_sq_hz2"),
    # a link ratio outside the [-300, 300] dB of ps_n0_dbhz, at which the
    # frames carried no noise (or all noise)
    (["simulate-detect", "--estimator", "baseband", "--v", "1e-150", "--trials", "2"], "v"),
    (["simulate-detect", "--estimator", "baseband", "--v", "1e-155", "--trials", "2"], "v"),
    (["simulate-detect", "--estimator", "baseband", "--v-grid", "1e-150,1", "--trials", "2"],
     "v_grid"),
    (["simulate-detect", "--estimator", "baseband", "--sigma-sq", "1e-300", "--trials", "2"],
     "sigma_sq_hz2"),
    (["simulate-detect", "--estimator", "baseband", "--sigma-sq", "1e300", "--trials", "2"],
     "sigma_sq_hz2"),
    # a tag at rest has no threshold, which bounds.sigma_max_sq refused naming no setting
    (["bounds", "--v", "0"], "v"),
    (["bounds", "--v", "-0"], "v"),
    # a burst whose state count no C integer holds, and one whose symbol
    # count overflows a float
    (["simulate-mcrb", "--trials", "2", "--sweep", "t0_s=1e300"], "sweep_values"),
    (["simulate-mcrb", "--trials", "2", "--sweep", "t0_s=1e308"], "sweep_values"),
    # a speed whose tolerable variance underflows to 0
    (["bounds", "--v", "1e-300"], "v"),
    # a minimum detectable speed at or above light: v_min is 2.97e8 m/s at
    # -115.7 dB-Hz and 3.07e8 m/s at -116 dB-Hz
    (["vmin", "--ps-n0", "-116"], "ps_n0_dbhz"),
    (["vmin", "--p-s-dbm", "-290", "--nf", "0"], "p_s_dbm"),
    # a sensitivity that gives a noise figure no receiver has: -28.8 dB and 300.19 dB
    (["noise-figure", "--p-s-dbm", "-150"], "p_s_dbm"),
    (["noise-figure", "--p-s-dbm", "179"], "p_s_dbm"),
])
@pytest.mark.filterwarnings("error")
def test_bad_simulation_inputs_exit_2_naming_the_key(argv, key, capsys, monkeypatch):
    # every input is checked before any frame is synthesized
    def no_frame(*args, **kwargs):
        raise AssertionError("a frame was synthesized")

    monkeypatch.setattr(baseband, "synthesize_reply", no_frame)
    monkeypatch.setattr(baseband, "synthesize_burst", no_frame)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {key}: " in captured.err


def test_a_detection_at_rest_names_the_speed_given(capsys):
    assert main(["simulate-detect", "--v", "0", "--trials", "5"]) == 2
    assert capsys.readouterr().err == ("config error: v: a detection run needs a moving "
                                       "tag, got 0.0\n")
    assert main(["simulate-detect", "--v-grid", "0,1", "--trials", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error: v_grid: must lie in (0, ")


@pytest.mark.parametrize("halfwidth", ["1e-300", "5e-324"])
def test_a_window_of_a_few_1e_300_hz_takes_one_block_per_frame(halfwidth, capsys):
    # 1/(16 W) overflowed the block length; a block as long as the frame gives
    # the one block that any longer one gives
    assert main(["simulate-mcrb", "--search-halfwidth", halfwidth, "--v", "0",
                 "--trials", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    values = dict(zip(header.split(","), row.split(",")))
    assert values["trials"] == "2" and math.isfinite(float(values["emp_mse_hz2"]))


def test_an_overflowing_figure_column_names_the_keys_and_the_column(capsys, tmp_path):
    # a pause of 1e300 s takes C_T beyond the float range; the writer refuses it
    out = tmp_path / "fig7.csv"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["figure", "7", "--set", "t_pause_grid_s=1e300", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: t_pause_grid_s: out of the range")
    assert "c_t_s3: must be a finite number, got inf" in captured.err
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("trials", [[], ["--trials", "1"]])
@pytest.mark.parametrize("t0", ["1e103", "1e308"])
def test_a_burst_whose_cube_overflows_names_its_duration(t0, trials, capsys):
    # the closed-form column cubes every duration before any trial runs
    assert main(["figure", "5", *trials, "--set", f"t0_grid_s={t0}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t0_grid_s: out of the range")
    assert f"signal duration {float(t0):.6g} s overflows" in err


def test_a_figure_key_and_a_config_key_share_their_rule(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modulation = qam\n", encoding="utf-8")
    assert main(["simulate-mcrb", "--config", str(cfg)]) == 2
    from_file = capsys.readouterr().err
    assert main(["figure", "5", "--set", "modulation=qam"]) == 2
    assert capsys.readouterr().err == from_file
    assert from_file == "config error: modulation: must be one of ask, psk, got 'qam'\n"


def test_trials_above_the_ceiling_exit_2_naming_trials(capsys):
    # 2e9 trials would need 16 GB per array of estimates
    for argv in (["simulate-detect", "--trials", "2000000000"],
                 ["simulate-mcrb", "--trials", "16777217"],
                 ["figure", "5", "--trials", "16777217"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: trials: must lie in [1, 16777216]" in captured.err


def test_figure_takes_no_config_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "4", "--config", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


def test_figure9_combos_text_form(capsys):
    assert main(["figure", "9", "--set", "combos=FM0:640e3,Miller8:40e3",
                 "--set", "v_grid=1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    assert [row.split(",")[1:3] for row in rows[1:]] == [["FM0", "640000"],
                                                         ["Miller8", "40000"]]


def test_simulate_mcrb_rejects_doppler_outside_the_search_window(capsys):
    # 100 m/s at 868 MHz is a 579 Hz shift against the default 200 Hz window
    assert main(["simulate-mcrb", "--v", "100", "--trials", "5", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "v/v_grid" in err and "search_halfwidth_hz" in err


def test_vmin_tail_p_err_uses_the_exact_quantile(capsys):
    # mpmath at 40 digits for the same C_T and P_S/N0 gives 2.536980343006...
    assert main(["vmin", "--p-err", "1e-12"]) == 0
    assert parse_kv(capsys.readouterr().out)["v_min_m_per_s"] == "2.53698034301"


# SHA-256 of each default analytic figure CSV, as the package first wrote them.
FIGURE_SHA256 = {
    "4": "ae9208dab1090c3a59cff0fc8884b092e9cab7c0da8c432c587fd674358e776a",
    "8": "d370a78dc6cc6f68f017a7c00e87ec26a6d3c8c9995b2af8d25623113142d507",
    "9": "d2540c7f68765501399bfdef446adde35f68bdd4e7b0a9d76f731026137400e3",
    "10": "21ae9a20dddd43594c025682cb39083598748f234de01cb32e44fcc8cb8683c0",
    "11": "008b1187eda7e901a2f6bdbabfe28bf4c6c1eb252bbbe1eac749058169961f0f",
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256, key=int))
def test_default_analytic_figures_are_pinned(figure, capsys):
    assert main(["figure", figure]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == FIGURE_SHA256[figure]


_M290 = ["--mode", "Mode 290", "--ps-n0", "52.8", "--trials", "400", "--seed", "11"]
_FM0_640K = ["--blf", "640e3", "--encoding", "FM0", "--ps-n0", "52.8"]
_MILLER_160K = ["--blf", "160e3", "--ps-n0", "52.8", "--trials", "400", "--seed", "19",
                "--encoding"]

# SHA-256 of simulation CSVs, covering every way a trial gets its block sums:
# ASK with and without zeroing, PSK, rect frames, each sweep kind, and every
# Gen2 encoding (FM0, Miller-2, -4 and -8).  The rect run's EPC and the 0.2 ms
# bursts of the t0 sweep and figure 5 are shorter than one 312.5 us block:
# their periodogram is flat, so their estimates, and these three digests,
# follow the rounding of the block sums and move with their summation order.
SIMULATION_SHA256 = {
    "mcrb_ask_both": (
        ["simulate-mcrb", *_M290, "--modulation", "ask", "--parts", "both"],
        "ae53697ed055a39d959026b5bf245452f98c6e627bcefa6cee92e56f65bbe8b6"),
    "mcrb_ask_epc": (
        ["simulate-mcrb", *_M290, "--modulation", "ask", "--parts", "epc"],
        "02d44711b3c7c75724a9f06e466f426996f11ccc62c94e01ecf089c907e545fd"),
    "mcrb_psk_both": (
        ["simulate-mcrb", *_M290, "--modulation", "psk", "--parts", "both"],
        "5980b381d04ae49547fb0d00ed29845c5f6070b153ee7e296618a10ac982bef3"),
    "mcrb_psk_epc": (
        ["simulate-mcrb", *_M290, "--modulation", "psk", "--parts", "epc"],
        "0cff5e8430db3f8e013486ed1bda37f0ccb3fdd148caa873fabc8376b0fe004c"),
    "mcrb_ask_both_no_zeroing": (
        ["simulate-mcrb", *_M290, "--modulation", "ask", "--parts", "both",
         "--no-ask-zeroing"],
        "4f576369ca6457c83fe084bd8ae42c8169b33013dfda33379bea76fad8c698c4"),
    "mcrb_ask_both_miller2": (
        ["simulate-mcrb", *_MILLER_160K, "Miller2", "--modulation", "ask", "--parts", "both"],
        "47519b04830f22baf1a5c8951ad7e166688101d3e9c1c8914cac00a341ff96ca"),
    "mcrb_ask_both_miller4": (
        ["simulate-mcrb", *_MILLER_160K, "Miller4", "--modulation", "ask", "--parts", "both"],
        "bac1f79073f8745be62bd6faa0f3a17b5425b8b239d36581145acd40b05f17b2"),
    "mcrb_rect": (
        ["simulate-mcrb", *_FM0_640K, "--parts", "epc", "--waveform-model", "rect",
         "--trials", "400", "--seed", "12"],
        "502dbac358c09de5aa979f3452f1ad5bdc42fd7a14314d402b26b328e7dc8862"),
    "mcrb_t0_sweep": (
        ["simulate-mcrb", *_FM0_640K, "--modulation", "psk", "--trials", "300",
         "--seed", "13", "--sweep", "t0_s=2e-4,1e-3"],
        "f7b6c0d2c4e9e2e5389099184c06945aee4b92374f0c84e02ab91aabf06a76e3"),
    "mcrb_ratio_sweep": (
        ["simulate-mcrb", "--mode", "Mode 204", "--modulation", "psk", "--trials", "300",
         "--seed", "14", "--sweep", "ps_n0_dbhz=60,70,80"],
        "26a3997da16c9427894c174fbcf632055fae97cf1f8c8d99e1a62ef10503497b"),
    "detect_baseband": (
        ["simulate-detect", "--estimator", "baseband", "--mode", "Mode 204",
         "--modulation", "psk", "--p-err", "0.05", "--v-grid", "0.5,1,2",
         "--trials", "300", "--seed", "15"],
        "2a0da8cc6f79ef009d76ac9ec0ab905efc2d46011f95a15d6e3cf793a68d65c0"),
    # one run-level search covers trials 1-999 of both frame kinds of all three speeds
    "detect_baseband_1000": (
        ["simulate-detect", "--estimator", "baseband", "--mode", "Mode 204",
         "--modulation", "psk", "--p-err", "0.05", "--v-grid", "0.5,1,2",
         "--trials", "1000", "--seed", "18"],
        "0a551546114d8822944354e7d8fcdbf5610d58d6ffa189843376bb420a6555f8"),
    "figure5_trials": (
        ["figure", "5", "--trials", "30", "--seed", "16", "--set", "t0_grid_s=2e-4,1e-3,5e-3"],
        "42275f58ffce2078042003b08a940cc08981674a03b26352b37f2ec48f33875d"),
    "figure7_trials": (
        ["figure", "7", "--trials", "200", "--seed", "17"],
        "2a26d3bcf17e6e0f50a86358fde9c61138176427ba95f0a63fa7a28c9296d9bf"),
}


@pytest.mark.parametrize("name", sorted(SIMULATION_SHA256))
def test_simulation_csvs_are_pinned(name, capsys):
    argv, want = SIMULATION_SHA256[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == want


def test_a_miller8_ask_job_leaves_numpy_ma_unimported():
    # np.unique and np.union1d import numpy.ma, a megabyte of modules that
    # would add to every job's setup time and peak memory (numpy 2 imports it
    # only on use, numpy 1 with numpy itself)
    job = ["simulate-mcrb", "--blf", "40e3", "--encoding", "miller-8", "--parts", "both",
           "--modulation", "ask", "--ps-n0", "52.8", "--trials", "20", "--seed", "1"]
    code = ("import contextlib, io, sys\n"
            "from rfid_doppler.cli import main\n"
            "before = 'numpy.ma' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({job!r})\n"
            "print(status, before, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    status, before, after = done.stdout.split()
    assert status == "0" and after == before


def test_the_closed_form_commands_load_no_numpy():
    # bounds, vmin, noise-figure and the figures without --trials run on the
    # standard library: only the Monte Carlo runners import the engine, which
    # loads numpy, baseband and estimator
    runs = [["bounds"], ["vmin"], ["noise-figure"], ["bounds", "--v", "0"]]
    runs += [["figure", figure] for figure in ("4", "5", "7", "8", "9", "10", "11")]
    code = ("import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from rfid_doppler.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {runs!r}]\n"
            "print(*codes)\n"
            "print(*sorted(name for name in ('numpy', 'rfid_doppler.baseband', "
            "'rfid_doppler.estimator', 'rfid_doppler.montecarlo') if name in sys.modules))\n")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(Path(cli.__file__).parents[1])],
                          capture_output=True, text=True, check=True)
    codes, loaded = done.stdout.split("\n")[:2]
    assert codes.split() == ["0"] * 3 + ["2"] + ["0"] * 7
    assert loaded == ""


@pytest.mark.parametrize("argv", [
    ["simulate-detect", "--ps-n0", "52.8"],
    ["simulate-detect", "--p-s-dbm", "-95.8"],
    ["simulate-detect", "--n0", "-148.6"],
    ["simulate-detect", "--nf", "25.4"],
    ["simulate-mcrb", "--p-err", "0.05"],
    # every frame is sampled at 32 x BLF
    ["simulate-mcrb", "--sample-rate", "1e6"],
    ["simulate-detect", "--sample-rate", "1e6"],
])
def test_a_subcommand_rejects_the_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--trials", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def subcommand_parser(name):
    return cli._subcommand_parser(name)


# Option strings and dest of each subcommand's arguments, in the order added,
# recorded when one parser held the arguments of every subcommand.
SUBCOMMAND_ARGUMENTS = {
    "bounds": ["-h/--help:help", "--out:out", "--config:config", "--mode:mode_label",
        "--blf:blf_hz", "--encoding:encoding", "--trext/--no-trext:trext",
        "--epc-bits:epc_bits", "--f-c:f_c_hz", "--parts:parts", "--p-err:p_err",
        "--ps-n0:ps_n0_dbhz", "--p-s-dbm:p_s_dbm", "--n0:n0_dbm_hz", "--nf:nf_db",
        "--v:v"],
    "vmin": ["-h/--help:help", "--out:out", "--config:config", "--mode:mode_label",
        "--blf:blf_hz", "--encoding:encoding", "--trext/--no-trext:trext",
        "--epc-bits:epc_bits", "--f-c:f_c_hz", "--parts:parts", "--p-err:p_err",
        "--ps-n0:ps_n0_dbhz", "--p-s-dbm:p_s_dbm", "--n0:n0_dbm_hz", "--nf:nf_db"],
    "figure": ["-h/--help:help", "id", "--out:out", "--trials:trials", "--seed:seed",
        "--set:set"],
    "simulate-mcrb": ["-h/--help:help", "--out:out", "--config:config",
        "--mode:mode_label", "--blf:blf_hz", "--encoding:encoding",
        "--trext/--no-trext:trext", "--epc-bits:epc_bits", "--f-c:f_c_hz",
        "--parts:parts", "--ps-n0:ps_n0_dbhz", "--p-s-dbm:p_s_dbm", "--n0:n0_dbm_hz",
        "--nf:nf_db", "--trials:trials", "--seed:seed", "--modulation:modulation",
        "--waveform-model:waveform_model", "--ask-zeroing/--no-ask-zeroing:ask_zeroing",
        "--search-halfwidth:search_halfwidth_hz", "--v:v", "--sweep:sweep",
        "--check:check"],
    "simulate-detect": ["-h/--help:help", "--out:out", "--config:config",
        "--mode:mode_label", "--blf:blf_hz", "--encoding:encoding",
        "--trext/--no-trext:trext", "--epc-bits:epc_bits", "--f-c:f_c_hz",
        "--parts:parts", "--p-err:p_err", "--trials:trials", "--seed:seed",
        "--modulation:modulation", "--waveform-model:waveform_model",
        "--ask-zeroing/--no-ask-zeroing:ask_zeroing",
        "--search-halfwidth:search_halfwidth_hz", "--v:v", "--v-grid:v_grid",
        "--estimator:estimator_model", "--sigma-sq:sigma_sq_hz2", "--check:check"],
    "noise-figure": ["-h/--help:help", "--p-s-dbm:p_s_dbm", "--ber:ber", "--blf:blf_hz",
        "--m:m", "--out:out"],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGUMENTS))
def test_each_subcommand_keeps_its_arguments(name):
    actions = subcommand_parser(name)._actions
    assert [f"{'/'.join(a.option_strings)}:{a.dest}" if a.option_strings else a.dest
            for a in actions] == SUBCOMMAND_ARGUMENTS[name]


def test_main_adds_arguments_to_the_invoked_subcommand_alone(monkeypatch):
    assert list(cli._SUBCOMMANDS) == list(SUBCOMMAND_ARGUMENTS)

    def refuse(sp):
        raise AssertionError(f"added arguments to {sp.prog}")

    for argv in (["figure", "4"], ["simulate-mcrb", "--trials", "2"]):
        with monkeypatch.context() as patch:
            for name, (help_text, _, handler) in cli._SUBCOMMANDS.items():
                if name != argv[0]:
                    patch.setitem(cli._SUBCOMMANDS, name, (help_text, refuse, handler))
            assert main(argv) == 0


@pytest.mark.parametrize("name", ["bounds", "vmin", "simulate-mcrb", "simulate-detect"])
def test_every_setting_flag_names_a_config_field(name):
    # _build_config reads the flags by field name, so a flag whose dest names
    # no field would be silently ignored
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    dests = {action.dest for action in subcommand_parser(name)._actions}
    assert dests - {"out", "config", "check", "sweep", "help"} <= fields
    assert ("p_err" in dests) == (name != "simulate-mcrb")
    link = {"ps_n0_dbhz", "p_s_dbm", "n0_dbm_hz", "nf_db"}
    assert (link & dests) == (link if name != "simulate-detect" else set())


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_a_command_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["figure", "4"]) == 0
    assert built == ["rfid-doppler figure"]


def single_parser():
    """One parser that holds every subcommand's arguments, as main once built."""
    parser = argparse.ArgumentParser(prog="rfid-doppler",
                                     description=cli._listing_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in cli._SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def outcome(run, capsys):
    """(exit code, stdout, stderr) of run(), a SystemExit's code included."""
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in SUBCOMMAND_ARGUMENTS),
    ["bounds", "--ps-n0", "52.8", "--v", "2"],
    ["vmin", "--p-err", "0.01"],
    ["figure", "4", "--set", "v_grid=1"],
    ["simulate-mcrb", *FAST_SIM, "--trials", "3", "--seed", "1"],
    ["simulate-detect", "--trials", "3", "--estimator", "gaussian"],
    ["noise-figure", "--m", "4"],
    ["figure", "6"],
    ["vmin", "--p-err"],
    ["figure", "4", "--bogus"],
    ["simulate-mcrb", "--trials", "2", "--p-err", "0.05"],
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_answers_as_the_single_parser_did(argv, capsys):
    def reference():
        args = single_parser().parse_args(argv)
        return cli._SUBCOMMANDS[args.command][2](args)

    assert outcome(lambda: main(argv), capsys) == outcome(reference, capsys)
