"""Peak-to-average power ratio of a frame and empirical CCDF estimation."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedPaprError

CCDF_THRESHOLD_STEP_DB = 0.1
CCDF_THRESHOLD_MAX_DB = 13.0


@dataclass(frozen=True)
class PaprSample:
    """PAPR, linear and in dB: of one frame as floats, or of a stack of
    frames as arrays with one value a row."""

    value_linear: float | np.ndarray
    value_db: float | np.ndarray

    def __eq__(self, other):
        """Equal values, for a frame and for a stack alike."""
        return isinstance(other, PaprSample) and all(map(
            np.array_equal, (self.value_linear, self.value_db),
            (other.value_linear, other.value_db)))


@dataclass(frozen=True)
class CcdfCurve:
    """P(PAPR > threshold) over an ascending dB threshold grid."""

    thresholds_db: np.ndarray
    probabilities: np.ndarray


def papr(s) -> PaprSample:
    """PAPR of a sampled frame: len(s) * max|s|^2 / sum|s|^2.  s is one
    frame, or a stack of frames, one a row, read with one call a stage;
    each row's PAPR is bit for bit its own."""
    s = np.asarray(s, dtype=complex)
    if s.ndim not in (1, 2):
        raise ParameterError(f"expected a frame or a stack of frames, one a row, "
                             f"got shape {s.shape}")
    S = s[None] if s.ndim == 1 else s
    p = np.abs(S) ** 2
    total = p.sum(axis=1)
    finite = (0 < total) & (total < np.inf)
    if not np.all(finite):
        raise UndefinedPaprError(
            f"PAPR needs a frame of finite nonzero power, got {total[~finite][0]}")
    value = S.shape[1] * p.max(axis=1) / total
    value_db = 10 * np.log10(value)
    if s.ndim == 1:
        return PaprSample(value_linear=float(value[0]), value_db=float(value_db[0]))
    return PaprSample(value_linear=value, value_db=value_db)


def default_thresholds_db() -> np.ndarray:
    """0 to 13 dB in 0.1 dB steps; covers the observed PAPR range."""
    n = int(round(CCDF_THRESHOLD_MAX_DB / CCDF_THRESHOLD_STEP_DB))
    return np.linspace(0.0, CCDF_THRESHOLD_MAX_DB, n + 1)


def ccdf(samples_db) -> CcdfCurve:
    """Empirical exceedance probability of the samples over default_thresholds_db."""
    samples = np.asarray(samples_db, dtype=float)
    if samples.size == 0:
        raise ParameterError("CCDF of an empty sample set")
    th = default_thresholds_db()
    probs = (samples[None, :] > th[:, None]).mean(axis=1)
    return CcdfCurve(thresholds_db=th, probabilities=probs)


def papr_at_ccdf(samples_db, target: float) -> float:
    """Threshold at which the empirical CCDF crosses `target`.

    Read off the CCDF curve with linear interpolation between the two
    adjacent grid points that bracket the target, which keeps the
    readout well defined when the sample distribution has atoms.  The
    readout is interpolated off default_thresholds_db's 0.1 dB grid,
    not taken from the samples, so it can be off by up to one
    grid step where the samples cluster within a step: a set that is
    all 0 dB up to rounding reads 0.05 dB at 0.5 and 0.09 dB at 0.1.
    """
    if not 0 < target < 1:
        raise ParameterError(f"CCDF target must be in (0, 1), got {target}")
    curve = ccdf(samples_db)
    th, probs = curve.thresholds_db, curve.probabilities
    if probs[0] <= target:
        return float(th[0])
    below = np.nonzero(probs <= target)[0]
    if below.size == 0:
        return float(th[-1])
    i = below[0]
    c1, c0 = probs[i - 1], probs[i]
    return float(th[i - 1] + (th[i] - th[i - 1]) * (c1 - target) / (c1 - c0))
