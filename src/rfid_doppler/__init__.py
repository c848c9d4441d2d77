"""Bounds and baseband verification for Doppler-based UHF-RFID motion detection.

Modules
-------
protocol     Gen2 uplink timing (BLF, encodings, reply durations, reader modes,
             the simulator's sample rate)
bounds       closed-form limits: tolerable variance, MCRB, v_min, noise figure
baseband     complex-baseband synthesis of backscatter replies plus AWGN
estimator    modulation wipe-off, periodogram Doppler estimation, classifier
experiments  run settings, the two Monte Carlo runners, figure datasets, CSV
             output; imports no numpy
montecarlo   the runners' engine: seeded frames, block-sum trials, estimates
cli          the ``rfid-doppler`` command
"""

__version__ = "0.1.0"
