"""Greedy amplitude precoding for PAPR reduction, plus an exhaustive oracle.

Information sits in the phases of PSK symbols, so each symbol's
amplitude may be doubled without losing information.  Over the 2^(MN)
choices of per-symbol amplitude {A, 2A} the greedy search repeatedly
evaluates all MN single-symbol amplitude flips of the current vector,
commits the one that lowers the frame PAPR the most, and stops when no
single flip improves (or when a positive pass cap is hit).

The search keeps one state per delay column l: the power of column l
of the time frame and, for each candidate flip in that column, the max
of the column's power after the flip.  With d symbols on ring 2A the
frame's energy is exactly N*A^2*(MN + 3d), so a flip is ranked by its
frame peak over the integer MN + 3(d +- 1), with no energy summed.  A
flip at flat index t = k*M + l changes only column l, by
delta * exp(-2j*pi*n*k/N), so one pass reads all MN candidate values off
this state in O(MN), and each commit costs one N-point column FFT plus
an N x N candidate refresh of column l.  An N-point FFT of a column
equals that column of the full transform bit for bit, so the committed
PAPR, read off the refreshed power grid, is exactly
papr(modulate(x_star)); it is returned as papr_star without transforming
the frame again.

One kernel, greedy_precode_batch, runs a batch of B frames in lockstep;
greedy_precode is that kernel on a batch of one.  The state is stacked
frame-major, (B, N, M), so each frame's grid is one contiguous block and
every reduction over it is the frame's own, at any M: each frame gets
bit for bit the result it gets alone.  Each pass takes one argmin and
commits at most one column refresh per frame, so a pass's per-call cost
is paid once for the whole batch.  A frame stops on its own terms: a
natural stop (no flip beats its PAPR), an ulp-level tie (the refreshed
grid does not confirm the candidate's value, so the flip is undone) or
the pass cap.  Stopped frames are dropped from the state, and the frames
still searching have all run the same number of passes.

A frame's vector is kept as a ring mask over a read-only view of the
caller's u: x[t] is u[t] + u[t] where the mask is set (ring 2A) and u[t]
where it is not.  With the two float grids of the column state that is
17 bytes a symbol.  A pass builds its temporaries in place and drops them
before the column refresh, a frame's x* is built when it stops, stopped
frames are dropped one grid at a time and the initial state is built
frame by frame, so the kernel's peak allocation above its input stays
under 100 bytes a symbol (about 51 at 16x16 with B = 64); the runners
choose B so that a batch holds about a fixed number of symbols.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptedStateError, InstanceTooLargeError, ParameterError
from .frame import FrameParams
from .metrics import PaprSample, papr
from .modem import fourier_matrix, modulate

BRUTE_FORCE_MAX_SYMBOLS = 20
_AMPLITUDE_TOL = 1e-9


@dataclass(frozen=True)
class GreedyConfig:
    """A positive max_iter caps the number of search passes; 0 runs until
    no single flip improves (the search always terminates: each committed
    flip strictly lowers the PAPR over a finite candidate space)."""

    max_iter: int

    def __post_init__(self):
        if self.max_iter < 0:
            raise ParameterError(f"max_iter must be >= 0, got {self.max_iter}")


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
    candidate flip (k, l) the max of column l's power after it.

    Flipping x[k, l] adds delta[k, l] * W[:, k] to the transformed
    column l and leaves every other column unchanged.  The L columns may
    belong to different frames: each is handled on its own.
    """
    s = np.fft.fft(x_cols, axis=0)
    # Built in place from one (N, N, L) copy: numpy gives each broadcast
    # operand of a large call a buffer, so delta * W would take two.
    cpw = np.repeat(delta_cols[None, :, :], len(W), axis=0)
    cpw *= W[:, :, None]
    cpw += s[:, None, :]
    cpw = np.abs(cpw)
    cpw **= 2
    return np.abs(s) ** 2, cpw.max(axis=0)


def greedy_precode(u, params: FrameParams, cfg: GreedyConfig) -> PrecodeResult:
    """Iterative single-flip amplitude search over the {A, 2A} rings.

    Each pass ranks the MN single-flip candidates of the best vector so
    far by PAPR, computed as peak over exact energy; bitwise-equal values
    go to the lowest flat index.  So among the ring-A flips that keep the
    frame peak (outside the peak column, their column's new max below
    it), which tie exactly, the lowest flat index is the one committed.
    The best candidate is committed only if strictly better, as confirmed
    in papr() units on the refreshed grid; otherwise the search stops, as
    it does after cfg.max_iter passes when that is positive.
    iterations_used counts passes, including the final non-improving
    one.  This is greedy_precode_batch on a batch of one frame.
    """
    return greedy_precode_batch(params.frame(u)[None, :], params, cfg)[0]


def greedy_precode_batch(U, params: FrameParams, cfg: GreedyConfig) -> list[PrecodeResult]:
    """greedy_precode of every row of U, with all frames in lockstep.

    Each frame's result is the one it gets alone: the frames share
    passes, never arithmetic.
    """
    U = np.asarray(U, dtype=complex)
    for u in np.atleast_1d(U):  # a lone frame's rows are symbols, not frames
        _base_amplitude(params.frame(u))
    M, N, MN = params.M, params.N, params.size
    cap = np.inf if cfg.max_iter == 0 else cfg.max_iter
    W = fourier_matrix(N).conj()

    B = len(U)
    x_star, p_out = [None] * B, np.empty(B)  # filled as frames stop
    u = U.reshape(B, N, M)  # u[f, k, l] is u[k*M + l] of frame f
    frame = np.arange(B)  # the frame of each state row
    # ring[b, k, l] is set where state row b holds x[k*M + l] = u + u
    # (ring 2A) of its frame, frame[b], rather than u (ring A).
    ring = np.zeros((B, N, M), dtype=bool)
    # pw[b, n, l] is the power of time sample (n, l) of row b, and
    # cand_max[b, k, l] the max of column l's power after the flip of x[k, l].
    pw, cand_max = np.empty((B, N, M)), np.empty((B, N, M))
    for b in range(B):  # frame by frame: no (B, N, N, M) temporary
        pw[b], cand_max[b] = _column_stats(u[b], u[b], W)
    p_star = MN * pw.reshape(B, MN).max(axis=1) / pw.reshape(B, MN).sum(axis=1)
    e_up = np.full(B, MN + 3.0)  # MN + 3(d + 1): the energy after a ring-A flip
    flips: list[list[int]] = [[] for _ in U]

    passes = 0  # read by the cap; a frame flips once a pass but its last
    while len(frame):
        passes += 1
        col_max = pw.max(axis=1, keepdims=True)
        other_max = 0.0  # the peak of the other columns; none at M = 1
        if M > 1:
            top2 = np.partition(col_max, M - 2, axis=2)[..., M - 2:]
            other_max = np.where(col_max == top2[..., 1:], top2[..., :1], top2[..., 1:])
        den = ring * -6.0  # the exact energy after each flip
        den += e_up[:, None, None]
        p_cand = np.divide(np.maximum(cand_max, other_max), den, out=den).reshape(-1, MN)
        t = p_cand.argmin(axis=1)  # first minimum == lowest flat index
        done = ~(p_cand[np.arange(len(frame)), t] < col_max.max(axis=(1, 2)) / (e_up - 3))
        del p_cand, den
        c = np.flatnonzero(~done)  # the rows that commit their best flip
        tc = t[c]
        k, l = np.divmod(tc, M)
        ring[c, k, l] ^= True
        uc, rc = u[frame[c], :, l], ring[c, :, l]
        stats = _column_stats(np.where(rc, uc + uc, uc).T, np.where(rc, -uc, uc).T, W)
        pw[c, :, l], cand_max[c, :, l] = (a.T for a in stats)
        # Confirmed in papr() units; every row is reduced, each on its own.
        p_new = MN * pw.reshape(-1, MN).max(axis=1)[c]
        p_new /= pw.reshape(-1, MN).sum(axis=1)[c]
        tie = ~(p_new < p_star[c])
        if tie.any():
            # An ulp-level tie: the refreshed grid does not confirm the flip.
            # Undo and stop, so the committed PAPRs stay strictly decreasing.
            ring[c[tie], k[tie], l[tie]] ^= True
            done[c[tie]] = True
            c, tc, k, l, p_new = c[~tie], tc[~tie], k[~tie], l[~tie], p_new[~tie]
        p_star[c] = p_new
        e_up[c] += np.where(ring[c, k, l], 3, -3)
        for f, flip in zip(frame[c].tolist(), tc.tolist()):
            flips[f].append(flip)
        if passes >= cap:  # the cap stops every frame still searching
            done[:] = True
        if done.any():  # x* of the stopped frames, then drop their state
            for f, r in zip(frame[done].tolist(), ring[done]):
                x_star[f] = np.where(r, u[f] + u[f], u[f]).reshape(MN)
            p_out[frame[done]] = p_star[done]
            keep = ~done  # one grid at a time: never two copies of the state
            frame, ring, e_up, p_star = frame[keep], ring[keep], e_up[keep], p_star[keep]
            pw = pw[keep]
            cand_max = cand_max[keep]

    return [PrecodeResult(x_star=x, iterations_used=min(len(f) + 1, cap), flips=f,
                          papr_star=PaprSample(float(p), float(10 * np.log10(p))))
            for x, p, f in zip(x_star, p_out, flips)]


def brute_force_precode(u, params: FrameParams) -> tuple[np.ndarray, PaprSample]:
    """Global minimizer of the frame PAPR over all 2^(MN) amplitude choices.

    Bit i of the enumeration counter selects u[i] (0) or 2*u[i] (1);
    ties keep the lowest counter.  Guarded to MN <= 20.
    """
    u = params.frame(u)
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
