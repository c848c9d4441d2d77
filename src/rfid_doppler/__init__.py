"""Bounds and baseband verification for Doppler-based UHF-RFID motion detection.

Modules
-------
protocol     Gen2 uplink timing (BLF, encodings, reply durations, reader modes)
bounds       closed-form limits: tolerable variance, MCRB, v_min, noise figure
baseband     complex-baseband synthesis of backscatter replies plus AWGN
estimator    modulation wipe-off, periodogram Doppler estimation, classifier
experiments  seeded Monte Carlo runners, figure datasets, CSV output
cli          the ``rfid-doppler`` command
"""

from .bounds import (
    BoundResult,
    LinkBudget,
    MotionScenario,
    SPEED_OF_LIGHT,
    c_t_dual,
    c_t_single,
    doppler_shift,
    evaluate_bounds,
    mcrb_ask_finite_l,
    mcrb_sigma_sq,
    noise_density_from_sensitivity,
    p_err_from_sigma,
    ps_n0_from_ber,
    required_ps_dbm,
    required_ps_n0,
    sigma_max_sq,
    timing_factor,
    v_min,
)
from .protocol import (
    EncodingScheme,
    FM0,
    MILLER2,
    MILLER4,
    MILLER8,
    ReaderMode,
    ReplyTiming,
    find_reader_mode,
    pause_duration,
    reply_symbol_counts,
    reply_timing,
    signal_duration,
    symbol_period,
)
from .baseband import (
    BasebandFrame,
    ChannelParams,
    add_awgn,
    encode_fm0,
    encode_miller,
    rect_states,
    synthesize_burst,
    synthesize_reply,
)
from .estimator import (
    EstimateReport,
    WipedSignal,
    classify_motion,
    estimate_doppler,
    wipe_modulation,
)
from .experiments import (
    ExperimentConfig,
    derive_seed,
    figure_dataset,
    noise_figure_report,
    run_detection_experiment,
    run_mcrb_experiment,
    write_csv,
)

__version__ = "0.1.0"
