"""Closed-form limits for Doppler-based motion detection in UHF-RFID.

Covers the maximum tolerable estimation variance for a target classification
error rate, the modified Cramer-Rao bound on Doppler estimation variance for
one- and two-part tag replies, the minimum detectable tag speed, and the
noise-figure back-solve from a reader's published sensitivity.

Conventions
-----------
* All bound functions are pure and take linear-domain quantities (e.g. the
  P_S/N0 ratio in Hz); dB conversion happens only at interfaces.
* The Doppler shift is signed, positive toward the antenna; the bounds use
  magnitudes only.
* Error probabilities enter through the upper-tail normal quantile
  z = Q^-1(p) = sqrt(2) erfinv(1 - 2p), taken from the standard library's
  ``NormalDist.inv_cdf`` (AS241, full double precision deep into the tail);
  the forward tail uses ``math.erfc``, which keeps its relative precision
  where ``1 + erf`` cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from . import protocol

SPEED_OF_LIGHT = 299_792_458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0   # thermal noise floor at room temperature

_STANDARD_NORMAL = NormalDist()


# ---------------------------------------------------------------------------
# dB <-> linear helpers
# ---------------------------------------------------------------------------

def linear_from_db(value_db: float) -> float:
    """Power ratio from dB (also dB-Hz -> Hz, dBm -> mW)."""
    return 10.0 ** (value_db / 10.0)


def db_from_linear(value: float) -> float:
    """dB from a positive linear power ratio."""
    if value <= 0.0:
        raise ValueError(f"linear value must be positive, got {value}")
    return 10.0 * math.log10(value)


def _z(p: float) -> float:
    """Upper-tail standard normal quantile Q^-1(p) = sqrt(2) erfinv(1 - 2p)."""
    return -_STANDARD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotionScenario:
    """Tag motion and detection target: speed, carrier, tolerated error rate."""

    v: float                      # m/s, >= 0
    f_c_hz: float                 # carrier frequency
    p_err: float                  # target classification error probability

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"tag speed must be >= 0, got {self.v}")
        if self.f_c_hz <= 0:
            raise ValueError(f"carrier frequency must be positive, got {self.f_c_hz}")
        if not 0.0 < self.p_err < 0.5:
            raise ValueError(f"p_err must lie in (0, 0.5), got {self.p_err}")


@dataclass(frozen=True)
class LinkBudget:
    """Received tag power, noise density and their ratio, in dB domain.

    ``ps_n0_dbhz`` is always present; power and noise terms are optional but
    must be mutually consistent when given (N0 = -174 dBm-Hz + NF, and
    P_S/N0 = P_S - N0).
    """

    ps_n0_dbhz: float
    p_s_dbm: Optional[float] = None
    n0_dbm_hz: Optional[float] = None
    nf_db: Optional[float] = None

    def __post_init__(self):
        if self.n0_dbm_hz is not None and self.nf_db is not None:
            if abs(self.n0_dbm_hz - (THERMAL_NOISE_DBM_HZ + self.nf_db)) > 1e-9:
                raise ValueError("n0_dbm_hz and nf_db disagree with N0 = -174 dBm-Hz + NF")
        if self.p_s_dbm is not None and self.n0_dbm_hz is not None:
            if abs(self.ps_n0_dbhz - (self.p_s_dbm - self.n0_dbm_hz)) > 1e-9:
                raise ValueError("ps_n0_dbhz inconsistent with p_s_dbm - n0_dbm_hz")

    @classmethod
    def from_power(cls, p_s_dbm: float, n0_dbm_hz: Optional[float] = None,
                   nf_db: Optional[float] = None) -> "LinkBudget":
        """Build from received power plus either N0 or the noise figure."""
        if n0_dbm_hz is None and nf_db is None:
            raise ValueError("need n0_dbm_hz or nf_db alongside p_s_dbm")
        if n0_dbm_hz is None:
            n0_dbm_hz = THERMAL_NOISE_DBM_HZ + nf_db
        elif nf_db is None:
            nf_db = n0_dbm_hz - THERMAL_NOISE_DBM_HZ
        return cls(ps_n0_dbhz=p_s_dbm - n0_dbm_hz, p_s_dbm=p_s_dbm,
                   n0_dbm_hz=n0_dbm_hz, nf_db=nf_db)

    @property
    def ps_n0_linear(self) -> float:
        """P_S/N0 as a linear ratio in Hz."""
        return linear_from_db(self.ps_n0_dbhz)


@dataclass(frozen=True)
class BoundResult:
    """All bound quantities for one (scenario, timing, link) combination."""

    sigma_max_sq: float          # Hz^2, largest tolerable estimation variance
    sigma_mcrb_sq: float         # Hz^2, smallest achievable estimation variance
    v_min: float                 # m/s, smallest reliably detectable speed
    scenario: MotionScenario

    @property
    def detectable(self) -> bool:
        """True when the scenario's speed is at or above the detection bound."""
        return self.scenario.v >= self.v_min


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def doppler_shift(v: float, f_c_hz: float) -> float:
    """Round-trip Doppler shift 2 v f_c / c, signed (positive = approaching)."""
    if f_c_hz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c_hz}")
    return 2.0 * v * f_c_hz / SPEED_OF_LIGHT

def sigma_max_sq(scenario: MotionScenario) -> float:
    """Largest estimation variance that still meets the scenario's error rate.

    v^2 f_c^2 / (c^2 Q^-1(P_err)^2), i.e. v^2 f_c^2 / (2 c^2 erfinv(1 - 2 P_err)^2);
    undefined for v = 0, where no threshold separates static from moving, and
    refused where it underflows to 0, as at v = 1e-300 m/s.
    """
    if scenario.v <= 0:
        raise ValueError(f"a tag at rest has no threshold: v must be > 0, got {scenario.v}")
    z = _z(scenario.p_err)
    ratio = scenario.v * scenario.f_c_hz / SPEED_OF_LIGHT
    variance = ratio * ratio / (z * z)
    if variance == 0:
        raise ValueError(f"the tolerable variance at {scenario.v:.6g} m/s underflows to 0")
    return variance


def c_t_single(t0: float) -> float:
    """Timing factor T0^3 for estimation from one signal part."""
    if t0 <= 0:
        raise ValueError(f"signal duration must be positive, got {t0}")
    return float(t0) ** 3


def c_t_dual(t1: float, t2: float, t_pause: float) -> float:
    """Timing factor for estimation from two parts separated by a pause.

    (T1+T2)^3 + 12 T1 T2 T_pause (T1+T2+T_pause)/(T1+T2); reduces to the
    single-part factor of the merged signal for T_pause = 0.
    """
    t1, t2, t_pause = float(t1), float(t2), float(t_pause)
    if t1 <= 0 or t2 <= 0:
        raise ValueError(f"signal durations must be positive, got {t1}, {t2}")
    if t_pause < 0:
        raise ValueError(f"pause must be >= 0, got {t_pause}")
    total = t1 + t2
    return total ** 3 + 12.0 * t1 * t2 * t_pause * (total + t_pause) / total


def timing_factor(timing: protocol.ReplyTiming, parts: str) -> float:
    """C_T for the selected reply parts: 'rn16', 'epc', or 'both'."""
    if parts == "both":
        return c_t_dual(float(timing.t_rn16), float(timing.t_epc), float(timing.t_pause))
    return c_t_single(float(timing.single(parts)))


def mcrb_sigma_sq(c_t: float, ps_n0_linear: float) -> float:
    """Modified Cramer-Rao bound on Doppler variance: 3/(2 pi^2 C_T) * N0/P_S."""
    if c_t <= 0:
        raise ValueError(f"timing factor must be positive, got {c_t}")
    if ps_n0_linear <= 0:
        raise ValueError(f"P_S/N0 must be positive, got {ps_n0_linear}")
    return 3.0 / (2.0 * math.pi ** 2 * c_t) / ps_n0_linear


def mcrb_ask_finite_l(base_mcrb: float, l_symbols: int) -> float:
    """Exact ASK bound for an L-symbol signal: base / (1 - 3/(4 L^2))."""
    if l_symbols < 1:
        raise ValueError(f"symbol count must be >= 1, got {l_symbols}")
    return base_mcrb / (1.0 - 3.0 / (4.0 * l_symbols * l_symbols))


def v_min(c_t: float, ps_n0_linear: float, f_c_hz: float, p_err: float) -> float:
    """Smallest tag speed distinguishable from static at error rate p_err.

    c Q^-1(p_err) / (pi f_c) * sqrt(3 / (2 C_T P_S/N0)).
    """
    if not 0.0 < p_err < 0.5:
        raise ValueError(f"p_err must lie in (0, 0.5), got {p_err}")
    if f_c_hz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c_hz}")
    if c_t <= 0 or ps_n0_linear <= 0:
        raise ValueError("timing factor and P_S/N0 must be positive")
    return SPEED_OF_LIGHT * _z(p_err) / (math.pi * f_c_hz) * math.sqrt(1.5 / c_t / ps_n0_linear)


def required_ps_n0(v: float, c_t: float, f_c_hz: float, p_err: float) -> float:
    """P_S/N0 in dB-Hz making v the minimum detectable speed (inverts v_min)."""
    if not 0.0 < p_err < 0.5:
        raise ValueError(f"p_err must lie in (0, 0.5), got {p_err}")
    if v <= 0:
        raise ValueError(f"tag speed must be positive, got {v}")
    if c_t <= 0:
        raise ValueError(f"timing factor must be positive, got {c_t}")
    k = SPEED_OF_LIGHT * _z(p_err) / (math.pi * f_c_hz)
    return db_from_linear(1.5 * k * k / (c_t * v * v))


def required_ps_dbm(v: float, c_t: float, f_c_hz: float, p_err: float,
                    nf_db: float) -> float:
    """Received tag power needed for detection at speed v, given the noise figure."""
    return required_ps_n0(v, c_t, f_c_hz, p_err) + (THERMAL_NOISE_DBM_HZ + nf_db)


def ps_n0_from_ber(blf_hz: float, m: int, ber: float) -> float:
    """P_S/N0 in dB-Hz at which orthogonal signaling reaches the given BER.

    10 log10(BLF Q^-1(BER)^2 / M), from BER = Q(sqrt(Eb/N0)) with
    Eb = P_S M / BLF.
    """
    if not protocol.BLF_MIN_HZ <= blf_hz <= protocol.BLF_MAX_HZ:
        raise ValueError(f"blf_hz: must lie in the Gen2 range [{protocol.BLF_MIN_HZ:.0f}, "
                         f"{protocol.BLF_MAX_HZ:.0f}] Hz, got {blf_hz}")
    if m not in (1, 2, 4, 8):
        raise ValueError(f"spread factor M must be 1 (FM0), 2, 4 or 8, got {m}")
    if not 0.0 < ber < 0.5:
        raise ValueError(f"ber: must lie in (0, 0.5), got {ber}")
    z = _z(ber)
    return db_from_linear(blf_hz * z * z / m)


def noise_density_from_sensitivity(p_s_dbm: float, ber: float, blf_hz: float,
                                   m: int) -> tuple[float, float]:
    """Back-solve (N0 in dBm-Hz, NF in dB) from a published sensitivity point."""
    n0 = p_s_dbm - ps_n0_from_ber(blf_hz, m, ber)
    return n0, n0 - THERMAL_NOISE_DBM_HZ


def p_err_from_sigma(sigma_sq: float, v: float, f_c_hz: float) -> float:
    """Classification error rate of the half-Doppler threshold test.

    Q((mu - x)/sigma) = 0.5 erfc(mu / (2 sqrt(2 sigma^2))) with mu the moving
    tag's Doppler shift and threshold x = mu/2; inverse of sigma_max_sq.
    """
    if sigma_sq <= 0:
        raise ValueError(f"variance must be positive, got {sigma_sq}")
    mu = doppler_shift(v, f_c_hz)
    return 0.5 * math.erfc(mu / (2.0 * math.sqrt(2.0 * sigma_sq)))


def evaluate_bounds(scenario: MotionScenario, c_t: float, link: LinkBudget) -> BoundResult:
    """Assemble every bound for one configuration into a BoundResult."""
    s_max = sigma_max_sq(scenario)
    s_mcrb = mcrb_sigma_sq(c_t, link.ps_n0_linear)
    vm = v_min(c_t, link.ps_n0_linear, scenario.f_c_hz, scenario.p_err)
    # internal identity: at v = v_min the two variances coincide
    check = sigma_max_sq(MotionScenario(vm, scenario.f_c_hz, scenario.p_err))
    if abs(check - s_mcrb) > 1e-9 * s_mcrb:
        raise AssertionError("bound consistency identity violated (numerical fault)")
    return BoundResult(sigma_max_sq=s_max, sigma_mcrb_sq=s_mcrb, v_min=vm, scenario=scenario)
