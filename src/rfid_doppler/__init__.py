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

__version__ = "0.1.0"
