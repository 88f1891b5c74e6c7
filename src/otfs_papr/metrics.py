"""Peak-to-average power ratio of a frame and empirical CCDF estimation."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedPaprError

CCDF_THRESHOLD_STEP_DB = 0.1
CCDF_THRESHOLD_MAX_DB = 13.0


@dataclass(frozen=True)
class PaprSample:
    """One frame's PAPR, linear and in dB."""

    value_linear: float
    value_db: float


@dataclass(frozen=True)
class CcdfCurve:
    """P(PAPR > threshold) over an ascending dB threshold grid."""

    thresholds_db: np.ndarray
    probabilities: np.ndarray


def papr(s) -> PaprSample:
    """PAPR of a sampled frame: len(s) * max|s|^2 / sum|s|^2."""
    s = np.asarray(s, dtype=complex)
    p = np.abs(s) ** 2
    total = p.sum()
    if total == 0:
        raise UndefinedPaprError("PAPR is undefined for an all-zero frame")
    value = len(s) * p.max() / total
    return PaprSample(value_linear=float(value), value_db=float(10 * np.log10(value)))


def default_thresholds_db() -> np.ndarray:
    """0 to 13 dB in 0.1 dB steps; covers the observed PAPR range."""
    n = int(round(CCDF_THRESHOLD_MAX_DB / CCDF_THRESHOLD_STEP_DB))
    return np.linspace(0.0, CCDF_THRESHOLD_MAX_DB, n + 1)


def ccdf(samples_db, thresholds_db=None) -> CcdfCurve:
    """Empirical exceedance probability of the samples over a threshold grid."""
    samples = np.asarray(samples_db, dtype=float)
    if samples.size == 0:
        raise ParameterError("CCDF of an empty sample set")
    th = default_thresholds_db() if thresholds_db is None else np.asarray(thresholds_db, float)
    probs = (samples[None, :] > th[:, None]).mean(axis=1)
    return CcdfCurve(thresholds_db=th, probabilities=probs)


def papr_at_ccdf(samples_db, target: float, thresholds_db=None) -> float:
    """Threshold at which the empirical CCDF crosses `target`.

    Read off the CCDF curve with linear interpolation between the two
    adjacent grid points that bracket the target, which keeps the
    readout well defined when the sample distribution has atoms.  The
    readout is interpolated off the threshold grid (0.1 dB steps by
    default), not taken from the samples, so it can be off by up to one
    grid step where the samples cluster within a step: a set that is
    all 0 dB up to rounding reads 0.05 dB at 0.5 and 0.09 dB at 0.1.
    """
    if not 0 < target < 1:
        raise ParameterError(f"CCDF target must be in (0, 1), got {target}")
    curve = ccdf(samples_db, thresholds_db)
    th, probs = curve.thresholds_db, curve.probabilities
    if probs[0] <= target:
        return float(th[0])
    below = np.nonzero(probs <= target)[0]
    if below.size == 0:
        return float(th[-1])
    i = below[0]
    c1, c0 = probs[i - 1], probs[i]
    if c1 == c0:
        return float(th[i])
    return float(th[i - 1] + (th[i] - th[i - 1]) * (c1 - target) / (c1 - c0))
