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
bit for bit the result it gets alone.  Each pass takes one argmin per
frame and refreshes the committed columns of all frames in batched
calls, so a pass's per-call cost is paid once for the whole batch.  A
frame stops on its own terms: a natural stop (no flip beats its PAPR),
an ulp-level tie (the refreshed grid does not confirm the candidate's
value, so the flip is undone) or the pass cap.  Stopped frames are
dropped from the state.

The level step.  Almost every commit is a strict peak-keeping tie: a
ring-A flip in a column whose peak is below the frame peak P, with
cand_max <= P.  Its value is fl(P / e) for the energy e wherever it is,
so the one-flip pass commits such ties in flat-index order, and whether
a flip is one depends only on its own column.  After a strict tie t at
(k0, l0), the one-flip pass therefore goes on with t's column's
drop-back chain (the lowest strict tie above row k0 that the column's
refresh made, then the one its next refresh made, and so on), then the
next column right of l0 with a strict tie on row k0 and its chain, along
the whole Doppler row, unless some other flip takes the lead.  On grids
of M >= 32 delay bins a pass commits that sequence at once: row k0's
strict ties, refreshed in batched calls, then the chains, one batched
refresh a link.  Each commit j is then checked at its own energy
e + 3j against what the one-flip pass would see there:
- the unique peak column's flips, ranked against the running peak of the
  other columns (a commit that lowers the second-highest column can let
  a peak-lowering flip win);
- with a shared peak, a peak column's own ties on row k0, which come
  first: the step stops short of them;
- band candidates, ring-A flips whose cand_max is a few ulps above P and
  may round onto the tie's value, in every state they live in, a chain
  column's intermediate states included;
- a column whose refreshed peak reaches P (a tie with cand_max == P ends
  the step);
- the pass cap.
Each frame keeps its commits up to its first failed check, and the
columns of the rest are recomputed from the kept ring.  The one-flip pass
confirms each commit on the refreshed grid; a level commit needs no
confirmation: it keeps the peak at P while the exact energy rises by 3N,
far more than the rounding of the pairwise energy sum, so its PAPR
falls.  A frame whose chosen flip is not such a tie commits that flip
alone, and grids narrower than 32 delay bins keep the one-commit pass:
there a level pass costs more than the passes it saves.  On five
random QPSK batches of 16 frames at 64x16, a search took 43-76 passes
instead of 654-798.

A frame's vector is kept as a ring mask over a read-only view of the
caller's u: x[t] is u[t] + u[t] where the mask is set (ring 2A) and u[t]
where it is not.  With the two float grids of the column state that is
17 bytes a symbol.  A pass builds its temporaries in place and drops them
before the column refresh, each refresh call takes at most about 32
bytes a symbol of the batch, a frame's x* is built when it stops and
stopped frames are dropped one grid at a time, so the kernel's peak
allocation above its input stays under 100 bytes a symbol (about 49 at
16x16 with B = 64, 60 at 64x16 with B = 16 and 70 at 64x16 with B = 4);
the runners choose B so that a batch holds about a fixed number of
symbols.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptedStateError, InstanceTooLargeError, ParameterError
from .frame import FrameParams
from .metrics import PaprSample, papr
from .modem import fourier_matrix, modulate

BRUTE_FORCE_MAX_SYMBOLS = 20
_AMPLITUDE_TOL = 1e-9
# Grids narrower than this keep the one-commit pass (module docstring).
_LEVEL_MIN_M = 32
# A bound on each _column_stats call's temporaries, in bytes a symbol of the batch.
_REFRESH_BYTES = 32
# cand_max above P by more than this factor cannot round onto a tie's value.
_BAND = 1 + 2.0 ** -44


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
    # operand of a large call a buffer, so delta * W would take two.  The
    # operand order is part of the result: numpy 2.4's SIMD complex
    # multiply is not bit-commutative (a*b != b*a for about a third of
    # random pairs), and W * delta gives other bits for 8-PSK columns.
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
    # Columns per _column_stats call: its temporaries take about
    # 24*N*N + 128*N bytes a column.
    width = max(1, _REFRESH_BYTES * B * MN // (24 * N * N + 128 * N))

    def refresh(rows, cols):
        """Recompute the column state of (state row, column) pairs from the ring."""
        for i in range(0, len(rows), width):
            r, c = rows[i:i + width], cols[i:i + width]
            uc, rc = u[frame[r], :, c], ring[r, :, c]
            stats = _column_stats(np.where(rc, uc + uc, uc).T, np.where(rc, -uc, uc).T, W)
            pw[r, :, c], cand_max[r, :, c] = (a.T for a in stats)

    refresh(np.repeat(frame, M), np.tile(np.arange(M), B))
    p_star = MN * pw.reshape(B, MN).max(axis=1) / pw.reshape(B, MN).sum(axis=1)
    e_up = np.full(B, MN + 3.0)  # MN + 3(d + 1): the energy after a ring-A flip
    n_flips = np.zeros(B, dtype=int)  # a searching frame has run n_flips passes
    flips: list[list[int]] = [[] for _ in U]

    while len(frame):
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
        level = []
        if M >= _LEVEL_MIN_M:
            level = _level_commits(refresh, ring, pw, cand_max, col_max[:, 0], e_up,
                                   cap - n_flips, c, k, l)
        else:
            refresh(c, l)
        # Confirmed in papr() units; every row is reduced, each on its own.
        # A level row's commits all keep the peak, so its PAPR falls.
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
        n_flips[c] += 1
        for f, flip in zip(frame[c].tolist(), tc.tolist()):
            flips[f].append(flip)
        for r, more in level:
            flips[frame[r]].extend(more)
            e_up[r] += 3 * len(more)
            n_flips[r] += len(more)
        done |= n_flips >= cap  # the cap stops a frame that has run cap passes
        if done.any():  # x* of the stopped frames, then drop their state
            for f, r in zip(frame[done].tolist(), ring[done]):
                x_star[f] = np.where(r, u[f] + u[f], u[f]).reshape(MN)
            p_out[frame[done]] = p_star[done]
            keep = ~done  # one grid at a time: never two copies of the state
            frame, ring, e_up, p_star = frame[keep], ring[keep], e_up[keep], p_star[keep]
            n_flips = n_flips[keep]
            pw = pw[keep]
            cand_max = cand_max[keep]

    return [PrecodeResult(x_star=x, iterations_used=min(len(f) + 1, cap), flips=f,
                          papr_star=PaprSample(float(p), float(10 * np.log10(p))))
            for x, p, f in zip(x_star, p_out, flips)]


def _level_commits(refresh, ring, pw, cand_max, col_max, e_up, room, c, k, l):
    """Refresh the columns of the flips just committed, at state rows c,
    Doppler rows k and columns l; where such a flip is a strict
    peak-keeping tie, first commit the rest of its level step (see the
    module docstring).  Returns, for each row that took a level step, the
    row and the flat indices it committed after its own flip, in the
    order the one-flip pass would have committed them.

    col_max[b, l] is column l's peak before the pass, e_up each row's
    energy after a ring-A flip, and room the passes each row has left.
    """
    _, N, M = ring.shape
    MN = N * M
    P = col_max.max(axis=1)
    # A strict tie (its flip now on ring 2A): cand_max <= P, column below P.
    # One whose column reaches P ends its level step, so it takes none.
    lv = ring[c, k, l] & (cand_max[c, k, l] < P[c]) & (col_max[c, l] < P[c]) & (room[c] > 1)
    R, k0, l0 = c[lv], k[lv], l[lv]
    P = P[R]
    peak_col = col_max[R] == P[:, None]
    shared = peak_col.sum(axis=1) > 1
    # Row k0's strict ties right of l0 are committed with the flip, up to
    # the first that reaches P, and short of a peak column's tie (with a
    # shared peak, it ties too and comes first).
    row_cm = cand_max[R, k0]
    strict = ~ring[R, k0] & (row_cm <= P[:, None]) & (np.arange(M) > l0[:, None])
    reach = strict & (row_cm == P[:, None]) & ~peak_col
    blocked = strict & peak_col & shared[:, None]
    cut = np.minimum(np.where(reach.any(axis=1), reach.argmax(axis=1) + 1, M),
                     np.where(blocked.any(axis=1), blocked.argmax(axis=1), M))
    er, el = np.nonzero(strict & ~peak_col & (np.arange(M) < cut[:, None]))
    if not len(er):
        refresh(c, l)
        return []
    n = len(R)
    below = np.where(peak_col, 0.0, col_max[R])  # column peaks, the peak columns' as 0
    # Band candidates: ring A, cand_max a few ulps above P.  Each is ranked
    # exactly at the events it meets (a unique peak column's with the rest
    # of its flips); only rows up to k0 can come before an event.
    P_band = P * _BAND
    cm = cand_max[R]
    bi, bk, bl = np.nonzero((cm > P[:, None, None]) & (cm <= P_band[:, None, None]))
    bcm = cm[bi, bk, bl]
    del cm
    f = ~ring[R[bi], bk, bl] & (bk <= k0[bi]) & (shared[bi] | ~peak_col[bi, bl])
    bands = [(bi[f], bk[f] * M + bl[f], bcm[f], np.full(np.count_nonzero(f), -1))]
    ring[R[er], k0[er], el] = True
    refresh(np.concatenate([c, R[er]]), np.concatenate([l, el]))

    # Each committed column's drop-back chain: after its refresh, its
    # lowest strict tie above row k0, committed and refreshed in turn.  An
    # event is a commit, with its column's peak and band candidates after it.
    events = []
    ri, li = np.concatenate([np.arange(n), er]), np.concatenate([l0, el])
    ki, step, n_ev = k0[ri], 0, 0
    while len(ri):
        r = R[ri]
        cmc, free = cand_max[r, :, li], ~ring[r, :, li]
        top = pw[r, :, li].max(axis=1)
        events.append((ri, li, ki, np.full(len(ri), step), top))
        low = cmc <= P[ri, None]
        bj, bk = np.nonzero(~low & (cmc <= P_band[ri, None]))
        if len(bj):
            f = free[bj, bk] & (bk <= k0[ri[bj]])
            bj, bk = bj[f], bk[f]
            bands.append((ri[bj], bk * M + li[bj], cmc[bj, bk], n_ev + bj))
        low &= free
        low &= np.arange(N) < k0[ri, None]
        go = low.any(axis=1) & (top < P[ri])
        n_ev += len(ri)
        ri, li, ki = ri[go], li[go], low.argmax(axis=1)[go]
        ring[R[ri], ki, li] = True
        refresh(R[ri], li)
        step += 1
    ri, li, ki, step, top = (np.concatenate(a) for a in zip(*events))
    order = np.argsort((ri * M + li) * N + step)  # one-flip order: column, then chain
    ri, li, ki, step, top = (a[order] for a in (ri, li, ki, step, top))
    row_len = np.bincount(ri, minlength=n)
    ends = np.cumsum(row_len)
    starts = ends - row_len
    pos = np.arange(n_ev) - np.repeat(starts, row_len)
    flat = ki * M + li
    e = e_up[R][ri] + 3.0 * pos
    value = P[ri] / e  # a strict tie's value at each event
    chained = step > 0
    last = np.append(~chained[1:], True)  # a column's last event

    # The column peaks each event meets: the columns left of it as their
    # chains left them, its own as its last event left it, the columns
    # right of it untouched.  A column that reaches P ends the step.
    final_top = below.copy()
    final_top[ri[last], li[last]] = top[last]
    left, right = np.zeros((n, M)), np.zeros((n, M))
    left[:, 1:] = np.maximum.accumulate(final_top, axis=1)[:, :-1]
    right[:, :-1] = np.maximum.accumulate(below[:, ::-1], axis=1)[:, -2::-1]
    other = below[ri, li]
    other[chained] = top[np.flatnonzero(chained) - 1]
    other = np.maximum(other, np.maximum(left[ri, li], right[ri, li]))
    bad = (other >= P[ri]) | (pos >= room[R][ri])
    # The unique peak column's flips, ranked against the other columns'
    # running peak exactly as the one-flip pass ranks them.
    pc = peak_col.argmax(axis=1)
    den = ring[R, :, pc][ri] * -6.0
    den += e[:, None]
    p_pc = np.divide(np.maximum(cand_max[R, :, pc][ri], other[:, None]), den, out=den)
    ahead = p_pc < value[:, None]
    ahead |= (p_pc == value[:, None]) & (np.arange(N) * M + pc[ri, None] < flat[:, None])
    bad |= ~shared[ri] & ahead.any(axis=1)
    del den, p_pc, ahead
    # A band candidate meets the events from the one after the event that
    # left it (or the first) to its column's next event (or the last).
    bi, bflat, bcm, src = (np.concatenate(a) for a in zip(*bands))
    if len(bi):
        rank = np.empty(n_ev, dtype=int)
        rank[order] = np.arange(n_ev)
        first = np.full((n, M), -1)
        first[ri[~chained], li[~chained]] = np.flatnonzero(~chained)
        init, col_first = src < 0, first[bi, bflat % M]
        after = rank[np.where(init, 0, src)]
        lo = np.where(init, starts[bi], after + 1)
        hi = np.where(init, np.where(col_first >= 0, col_first, ends[bi] - 1),
                      np.where(last[after], ends[bi] - 1, after + 1))
        span = np.maximum(hi - lo + 1, 0)
        chunk = max(1, ring.size // (8 * row_len.max()))  # bounds the expanded pairs
        for i in range(0, len(bi), chunk):
            s = span[i:i + chunk]
            j = np.repeat(lo[i:i + chunk] - np.cumsum(s) + s, s) + np.arange(s.sum())
            b = np.repeat(np.arange(i, i + len(s)), s)
            hit = (bflat[b] < flat[j]) & (bcm[b] / e[j] == value[j])
            bad[j[hit]] = True

    first_bad = np.minimum.reduceat(np.where(bad & (pos > 0), pos, n_ev), starts)
    keep = pos < first_bad[ri]
    if not keep.all():  # undo from each row's first bad event, then refresh
        drop = ~keep
        ring[R[ri[drop]], ki[drop], li[drop]] = False
        undone = np.zeros((n, M), dtype=bool)
        undone[ri[drop], li[drop]] = True
        ur, ul = np.nonzero(undone)
        refresh(R[ur], ul)
    keep &= pos > 0
    split = np.cumsum(np.add.reduceat(keep, starts, dtype=int))[:-1]
    return list(zip(R.tolist(), (a.tolist() for a in np.split(flat[keep], split))))


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
