"""Doubly-dispersive channel: tapped delay line with per-path Doppler.

A realization carries per-path complex gains, integer delay taps and
Doppler shifts.  The time-domain action on one frame is

    r[n] = sum_i h_i * exp(2j*pi*nu_i*(n - l_i)*Ts) * s[(n - l_i) mod MN]

with a circular delay convention, so the whole frame map is an MN x MN
matrix and its delay-Doppler-domain conjugate is exactly MN x MN too.

Cutting the frame into MN/b blocks of b samples, with b above every
delay tap, makes that matrix block-cyclic bidiagonal: channel_blocks
builds its diagonal blocks, and the only nonzero corners of the others,
straight from the taps, in O(MN*b) memory, with b sized by the largest
tap (block_size), not by M.  The dense matrices (time_domain_matrix,
effective_dd_matrix) are oracles for small grids, guarded to
MN <= DENSE_MAX_SIZE.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .frame import FrameParams, check_dense_size

# 3GPP Extended Typical Urban delay/power profile (9 paths).
ETU_DELAYS_NS = (0.0, 50.0, 120.0, 200.0, 230.0, 500.0, 1600.0, 2300.0, 5000.0)
ETU_POWERS_DB = (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0)


@dataclass(frozen=True)
class PathProfile:
    """Relative multipath profile: delays in ns, powers in dB."""

    delays_ns: tuple
    powers_db: tuple

    def __post_init__(self):
        object.__setattr__(self, "delays_ns", tuple(float(d) for d in self.delays_ns))
        object.__setattr__(self, "powers_db", tuple(float(p) for p in self.powers_db))
        if len(self.delays_ns) != len(self.powers_db):
            raise ParameterError("delays_ns and powers_db must have equal length")
        if len(self.delays_ns) == 0:
            raise ParameterError("profile needs at least one path")
        for key in ("delays_ns", "powers_db"):
            values = getattr(self, key)
            if not all(map(math.isfinite, values)):
                raise ParameterError(f"{key} must be finite, got {list(values)}")
        if any(d < 0 for d in self.delays_ns):
            raise ParameterError("delays must be non-negative")
        if any(b < a for a, b in zip(self.delays_ns, self.delays_ns[1:])):
            raise ParameterError("delays must be ascending")


ETU300_PROFILE = PathProfile(ETU_DELAYS_NS, ETU_POWERS_DB)
SINGLE_PATH_PROFILE = PathProfile((0.0,), (0.0,))

_NAMED_PROFILES = {
    "etu300": ETU300_PROFILE,
    "single-path": SINGLE_PATH_PROFILE,
}


def named_profile(name: str) -> PathProfile:
    try:
        return _NAMED_PROFILES[name.lower()]
    except KeyError:
        raise ParameterError(
            f"unknown profile {name!r}; known: {sorted(_NAMED_PROFILES)}") from None


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel: per-path complex gain, delay tap, Doppler (Hz)."""

    gains: np.ndarray
    delay_taps: np.ndarray
    doppler_hz: np.ndarray


def identity_channel() -> ChannelRealization:
    """Deterministic single path with unit gain; for debugging chains."""
    return ChannelRealization(gains=np.ones(1, dtype=complex),
                              delay_taps=np.zeros(1, dtype=np.int64),
                              doppler_hz=np.zeros(1))


def sample_channels(profile: PathProfile, nu_maxes, params: FrameParams,
                    rng: np.random.Generator) -> list:
    """One draw of a channel's gains and angles theta, realized at each
    maximum Doppler in nu_maxes.

    Gains are i.i.d. circularly-symmetric complex Gaussian with variances
    proportional to the power profile and normalized so their total
    variance is 1.  Path i's Doppler is nu*cos(theta_i) with theta_i
    uniform on [0, 2pi), for every nu, so the realizations differ only in
    their Doppler shifts; delays are rounded to the nearest sample tap.
    """
    for nu_max in nu_maxes:
        if not 0 <= nu_max < math.inf:
            raise ParameterError(f"nu_max must be >= 0 and finite, got {nu_max}")
    # Relative to the strongest path: no finite power overflows or all underflow.
    lin = 10.0 ** ((np.asarray(profile.powers_db) - max(profile.powers_db)) / 10.0)
    var = lin / lin.sum()
    n = len(profile.delays_ns)
    gains = np.sqrt(var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cos_theta = np.cos(rng.uniform(0.0, 2.0 * np.pi, n))
    taps = delay_taps(profile, params)
    return [ChannelRealization(gains=gains, delay_taps=taps,
                               doppler_hz=nu_max * cos_theta)
            for nu_max in nu_maxes]


def delay_taps(profile: PathProfile, params: FrameParams) -> np.ndarray:
    """Each path's delay rounded to the nearest sample tap.  Raise
    ParameterError where a tap is not below MN, so where no receiver
    block size exists (block_size), before casting a tap that might not
    fit an int64."""
    taps = np.rint(np.asarray(profile.delays_ns) * 1e-9 * params.M * params.delta_f)
    _check_tap(taps.max(), params)
    return taps.astype(np.int64)


# The receiver's blocks are at least this many samples long, or M where
# M is shorter: below about 16 samples a block's work is mostly per-call
# overhead, and blocks of M keep the arithmetic of grids with M <= 16.
MIN_BLOCK = 16


def block_size(taps, params: FrameParams) -> int:
    """The receiver's block size b for these delay taps: the smallest
    divisor of MN with b >= min(M, MIN_BLOCK) and b above L, the largest
    tap.  While L < M <= MIN_BLOCK that is M.  Raise ParameterError when
    no divisor of MN exceeds L, that is when L >= MN (a delay of at least
    one frame)."""
    L = int(np.max(taps, initial=0))
    MN = params.size
    _check_tap(L, params)
    low = max(min(params.M, MIN_BLOCK), L + 1)
    return next(b for b in range(low, MN + 1) if MN % b == 0)


def _check_tap(L, params: FrameParams):
    """Raise ParameterError unless the delay tap L is below MN."""
    if L >= params.size:
        raise ParameterError(
            f"delay tap {L:.0f} is not below MN={params.size}: the receiver "
            f"needs every path delay to round to a tap below MN, i.e. a "
            f"delay shorter than one frame of "
            f"{1e9 * params.N / params.delta_f:.6g} ns")


def _path_gains(ch: ChannelRealization, params: FrameParams):
    """Yield each path's delay tap l and its per-sample gain
    h*exp(2j*pi*nu*(n - l)*Ts) over the frame's MN samples n."""
    n = np.arange(params.size)
    for h, l, nu in zip(ch.gains, ch.delay_taps, ch.doppler_hz):
        yield int(l), h * np.exp(2j * np.pi * nu * (n - l) * params.Ts)


def apply_channel(s, ch: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Pass one frame (MN,), or a stack of frames (S, MN), through the
    channel (no noise), circular in delay.  Each path's per-sample gain
    is computed once for the whole stack."""
    s = params.frames(s, "samples")
    r = np.zeros(s.shape, dtype=complex)
    for l, gain in _path_gains(ch, params):
        r += gain * np.roll(s, l, axis=-1)
    return r


def time_domain_matrix(ch: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Dense MN x MN matrix of apply_channel (oracle)."""
    MN = params.size
    check_dense_size(MN, "time_domain_matrix")
    n = np.arange(MN)
    H = np.zeros((MN, MN), dtype=complex)
    for l, gain in _path_gains(ch, params):
        H[n, (n - l) % MN] += gain
    return H


def effective_dd_matrix(ch: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Channel as seen between DD-domain input and DD-domain output.

    Conjugates the time-domain matrix with the frame transforms, so that
    demodulate(apply_channel(modulate(x))) == H_eff @ x.  Dense (oracle).
    """
    MN, M, N = params.size, params.M, params.N
    check_dense_size(MN, "effective_dd_matrix")
    H = time_domain_matrix(ch, params)
    # Right-multiply by the synthesis matrix: the matrix is symmetric, so
    # this is modulate() applied to each row.
    G = np.fft.fft(H.reshape(MN, N, M), axis=1).reshape(MN, MN)
    # Left-multiply by the analysis matrix: demodulate() on each column.
    return np.fft.ifft(G.reshape(N, M, MN), axis=0).reshape(MN, MN)


@dataclass(frozen=True)
class ChannelBlocks:
    """apply_channel cut into J blocks of b samples, b above every tap.

    Output block j depends only on input blocks j and j-1 (cyclic in j):
    r_j = D[j] @ s_j, plus E[j] @ s_{j-1}[b-L:] in its first L rows, with
    L the largest delay tap.  D (J, b, b) holds the diagonal blocks; E
    (J, L, L) holds the top-right L x L corner of each block (j, j-1),
    which is zero outside it.  b is block_size's, so J = MN/b need not
    be N.
    """

    D: np.ndarray
    E: np.ndarray


def channel_blocks(ch: ChannelRealization, params: FrameParams) -> ChannelBlocks:
    """The blocks of apply_channel, built from the taps with the same
    per-sample phases, in blocks of block_size's b samples; every tap
    must be below MN."""
    b = block_size(ch.delay_taps, params)
    J = params.size // b
    L = int(np.max(ch.delay_taps, initial=0))
    q = np.arange(b)
    D = np.zeros((J, b, b), dtype=complex)
    E = np.zeros((J, L, L), dtype=complex)
    for l, gain in _path_gains(ch, params):
        phase = gain.reshape(J, b)
        # Row q of block j reads sample q - l of block j, or, where q < l,
        # sample b + q - l of block j - 1: column q + L - l of E[j].
        D[:, q[l:], q[l:] - l] += phase[:, l:]
        E[:, q[:l], q[:l] + L - l] += phase[:, :l]
    return ChannelBlocks(D=D, E=E)


def unit_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise of per-sample variance
    2, which add_noise scales to any variance."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def add_noise(r, sigma2, w) -> np.ndarray:
    """A new array: r, one frame or a stack, plus the unit noise w
    (unit_noise) scaled to per-sample variance sigma2, one a row.  At
    sigma2 = 0 the scaled noise is exact zeros, so the values are r's."""
    r = np.asarray(r, dtype=complex)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 < 0):
        raise ParameterError(f"noise variance must be >= 0, got {sigma2}")
    return r + np.sqrt(sigma2 / 2.0)[..., None] * w


def finite_noise(snr_db: float) -> bool:
    """Whether snr_db gives a finite noise variance.  NaN does not, nor
    does an SNR so low that 10^(-snr_db/10) overflows: -inf, and about
    -3,082.5 dB and below."""
    try:
        return 10.0 ** (-snr_db / 10.0) < math.inf
    except OverflowError:
        return False


def calibrate_noise(snr_db: float, r):
    """Per-sample noise variance from the received mean power of one
    frame, as a float, or of each row of a stack of frames, one a row.

    SNR is referenced at the receiver: sigma2 = mean|r|^2 / 10^(snr/10),
    with 10^(snr/10) taken once, on the Python float snr_db, for every
    row.  An infinite snr_db, and any above about 3,083 dB, where
    10^(snr/10) overflows, yields exactly zero noise.  An snr_db without
    a finite noise variance (finite_noise), or whose variance overflows
    against a frame's power, raises ParameterError.
    """
    if not finite_noise(snr_db):
        raise ParameterError(
            f"snr_db must not be NaN, -inf or below about -3082.5 dB, where "
            f"the noise power overflows; got {snr_db}")
    r = np.asarray(r, dtype=complex)
    power = np.mean(np.abs(r) ** 2, axis=-1)
    if np.any(power == 0):
        raise ParameterError("cannot calibrate noise against an all-zero frame")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    with np.errstate(over="ignore"):
        sigma2 = power / ratio
    if np.any(sigma2 == math.inf):
        raise ParameterError(
            f"snr_db = {snr_db} gives an infinite noise variance against a "
            f"received power of {np.max(power):.6g}")
    return float(sigma2) if r.ndim == 1 else sigma2
