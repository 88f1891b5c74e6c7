"""Greedy amplitude precoding for PAPR reduction, plus an exhaustive oracle.

Information sits in the phases of PSK symbols, so each symbol's
amplitude may be doubled without losing information.  Over the 2^(MN)
choices of per-symbol amplitude {A, 2A} the greedy search repeatedly
evaluates all MN single-symbol amplitude flips of the current vector,
commits the one that lowers the frame PAPR the most, and stops when no
single flip improves (or when an iteration cap is hit).

The search keeps one state per delay column l: the power of column l
of the time frame and, for each candidate flip in that column, the max
and sum of the column's power after the flip.  A flip at flat index
t = k*M + l changes only column l, by delta * exp(-2j*pi*n*k/N), so one
pass reads all MN candidate PAPRs off this state in O(MN), and each
commit costs one N-point column FFT plus an N x N candidate refresh of
column l.  An N-point FFT of a column equals that column of the full
transform bit for bit, so the committed PAPR, read off the refreshed
power grid, is exactly papr(modulate(x_star)).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptedStateError, InstanceTooLargeError, ParameterError
from .frame import FrameParams
from .metrics import PaprSample, papr
from .modem import modulate

BRUTE_FORCE_MAX_SYMBOLS = 20
_AMPLITUDE_TOL = 1e-9


@dataclass(frozen=True)
class GreedyConfig:
    """max_iter caps the number of search passes; None runs until no
    single flip improves (the search always terminates: each committed
    flip strictly lowers the PAPR over a finite candidate space)."""

    max_iter: int | None = 5

    def __post_init__(self):
        if self.max_iter is not None and self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1 or None, got {self.max_iter}")


@dataclass(frozen=True)
class PrecodeResult:
    x_star: np.ndarray
    papr_star: PaprSample
    iterations_used: int
    flips: list[int] = field(default_factory=list)


def _base_amplitude(u: np.ndarray) -> float:
    mags = np.abs(u)
    A = float(mags[0])
    if A == 0 or np.any(np.abs(mags - A) > _AMPLITUDE_TOL * A):
        raise ParameterError("information vector must have constant nonzero amplitude")
    return A


def candidate_flip(x, t: int, A: float) -> np.ndarray:
    """Copy of x with element t toggled between amplitude A and 2A.

    The scale factor is 2^(3 - 2*|x[t]|/A): 2 when |x[t]| = A, 1/2 when
    |x[t]| = 2A.  The factor is applied as an exact 2 or 1/2 so repeated
    flips are an exact involution; the phase is never touched.
    """
    x = np.asarray(x, dtype=complex).copy()
    mag = abs(x[t])
    if abs(mag - A) <= _AMPLITUDE_TOL * A:
        x[t] *= 2.0
    elif abs(mag - 2 * A) <= _AMPLITUDE_TOL * A:
        x[t] *= 0.5
    else:
        raise CorruptedStateError(
            f"|x[{t}]| = {mag!r} is neither A = {A!r} nor 2A within tolerance")
    return x


def _column_stats(x_cols, delta_cols, W):
    """Power of the transformed delay columns x_cols (N, L), and per
    candidate flip (k, l) the max and sum of column l's power after it.

    Flipping x[k, l] adds delta[k, l] * W[:, k] to the transformed
    column l and leaves every other column unchanged.
    """
    s = np.fft.fft(x_cols, axis=0)
    cpw = np.abs(s[:, None, :] + delta_cols[None, :, :] * W[:, :, None]) ** 2
    return np.abs(s) ** 2, cpw.max(axis=0), cpw.sum(axis=0)


def greedy_precode(u, params: FrameParams, cfg: GreedyConfig = GreedyConfig()) -> PrecodeResult:
    """Iterative single-flip amplitude search over the {A, 2A} rings.

    Each pass evaluates the PAPR of all MN single-flip candidates of the
    best vector found so far, ties broken toward the lowest flat index.
    The best candidate is committed only if strictly better; otherwise
    the search stops.  iterations_used counts passes, including the
    final non-improving one.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (params.size,):
        raise ParameterError(f"expected {params.size} symbols, got shape {u.shape}")
    _base_amplitude(u)
    M, N, MN = params.M, params.N, params.size
    cap = np.inf if cfg.max_iter is None else cfg.max_iter

    x = u.copy()
    xg = x.reshape(N, M)  # view: xg[k, l] is x[k*M + l]
    delta = xg.copy()  # the change a flip makes: +u on ring A, -u on ring 2A
    W = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)
    pw, cand_max, cand_sum = _column_stats(xg, delta, W)
    p_star = MN * pw.max() / pw.sum()

    iterations = 0
    flips: list[int] = []
    while iterations < cap:
        iterations += 1
        col_max, col_sum = pw.max(axis=0), pw.sum(axis=0)
        if M > 1:
            two_largest = np.partition(col_max, M - 2)[M - 2:]
            other_max = np.where(col_max == two_largest[1],
                                 two_largest[0], two_largest[1])
        else:
            other_max = np.zeros(1)
        p_cand = MN * np.maximum(cand_max, other_max[None, :]) \
            / (pw.sum() - col_sum[None, :] + cand_sum)
        t = int(np.argmin(p_cand))  # first minimum == lowest flat index
        if not p_cand.reshape(-1)[t] < p_star:
            break
        k, l = divmod(t, M)
        xg[k, l] += delta[k, l]
        delta[k, l] = -delta[k, l]
        pw[:, l:l + 1], cand_max[:, l:l + 1], cand_sum[:, l:l + 1] = \
            _column_stats(xg[:, l:l + 1], delta[:, l:l + 1], W)
        p_new = MN * pw.max() / pw.sum()
        if not p_new < p_star:
            # The candidate value beat p_star but the refreshed grid does
            # not: an ulp-level tie.  Undo and stop so the committed PAPR
            # sequence stays strictly decreasing.
            xg[k, l] += delta[k, l]
            break
        p_star = p_new
        flips.append(t)

    papr_star = papr(modulate(x, params))
    return PrecodeResult(x_star=x, papr_star=papr_star,
                         iterations_used=iterations, flips=flips)


def brute_force_precode(u, params: FrameParams) -> tuple[np.ndarray, PaprSample]:
    """Global minimizer of the frame PAPR over all 2^(MN) amplitude choices.

    Bit i of the enumeration counter selects u[i] (0) or 2*u[i] (1);
    ties keep the lowest counter.  Guarded to MN <= 20.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (params.size,):
        raise ParameterError(f"expected {params.size} symbols, got shape {u.shape}")
    _base_amplitude(u)
    MN = params.size
    if MN > BRUTE_FORCE_MAX_SYMBOLS:
        raise InstanceTooLargeError(
            f"exhaustive search over 2^{MN} candidates refused (limit MN <= "
            f"{BRUTE_FORCE_MAX_SYMBOLS})")

    best_p = np.inf
    best_counter = -1
    batch = 1 << 13
    bit_weights = 1 << np.arange(MN, dtype=np.int64)
    for start in range(0, 1 << MN, batch):
        counters = np.arange(start, min(start + batch, 1 << MN), dtype=np.int64)
        doubled = (counters[:, None] & bit_weights[None, :]) != 0
        xs = u[None, :] * np.where(doubled, 2.0, 1.0)
        s = np.fft.fft(xs.reshape(-1, params.N, params.M), axis=1).reshape(-1, MN)
        p = np.abs(s) ** 2
        vals = MN * p.max(axis=1) / p.sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_p:
            best_p = float(vals[i])
            best_counter = int(counters[i])

    doubled = (best_counter & bit_weights) != 0
    x_best = u * np.where(doubled, 2.0, 1.0)
    return x_best, papr(modulate(x_best, params))
