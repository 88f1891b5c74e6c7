"""Doubly-dispersive channel: tapped delay line with per-path Doppler.

A realization carries per-path complex gains, integer delay taps and
Doppler shifts.  The time-domain action on one frame is

    r[n] = sum_i h_i * exp(2j*pi*nu_i*(n - l_i)*Ts) * s[(n - l_i) mod MN]

with a circular delay convention, so the whole frame map is an MN x MN
matrix and its delay-Doppler-domain conjugate is exactly MN x MN too.

When every delay tap is below M, cutting the frame into N blocks of M
samples makes that matrix block-cyclic bidiagonal: channel_blocks builds
its blocks straight from the taps, in O(N*M^2) memory.  The dense
matrices (time_domain_matrix, effective_dd_matrix) are oracles for small
grids, guarded to MN <= DENSE_MAX_SIZE.
"""

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
        if any(d < 0 for d in self.delays_ns):
            raise ParameterError("delays must be non-negative")
        if any(b < a for a, b in zip(self.delays_ns, self.delays_ns[1:])):
            raise ParameterError("delays must be ascending")

    @property
    def n_paths(self) -> int:
        return len(self.delays_ns)


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

    @property
    def n_paths(self) -> int:
        return len(self.gains)


def identity_channel() -> ChannelRealization:
    """Deterministic single path with unit gain; for debugging chains."""
    return ChannelRealization(gains=np.ones(1, dtype=complex),
                              delay_taps=np.zeros(1, dtype=np.int64),
                              doppler_hz=np.zeros(1))


def sample_channel(profile: PathProfile, nu_max: float, params: FrameParams,
                   rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Gains are i.i.d. circularly-symmetric complex Gaussian with variances
    proportional to the power profile and normalized so their total
    variance is 1.  Each path's Doppler is nu_max*cos(theta) with theta
    uniform on [0, 2pi); delays are rounded to the nearest sample tap.
    """
    if nu_max < 0:
        raise ParameterError(f"nu_max must be >= 0, got {nu_max}")
    lin = 10.0 ** (np.asarray(profile.powers_db) / 10.0)
    var = lin / lin.sum()
    n = profile.n_paths
    gains = np.sqrt(var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    doppler = nu_max * np.cos(theta)
    return ChannelRealization(gains=gains, delay_taps=delay_taps(profile, params),
                              doppler_hz=doppler)


def delay_taps(profile: PathProfile, params: FrameParams) -> np.ndarray:
    """Each path's delay rounded to the nearest sample tap."""
    return np.rint(np.asarray(profile.delays_ns) * 1e-9 * params.M * params.delta_f
                   ).astype(np.int64)


def check_taps_below_m(taps, params: FrameParams):
    """Raise ParameterError unless every delay tap is below M, which the
    block receiver needs (a delay shorter than one block of M samples)."""
    taps = np.asarray(taps)
    if taps.size and taps.max() >= params.M:
        raise ParameterError(
            f"delay tap {int(taps.max())} is not below M={params.M}: the "
            f"receiver needs every path delay to round to a tap below M, i.e. "
            f"a delay shorter than one block of {1e9 / params.delta_f:.6g} ns")


def apply_channel(s, ch: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Pass one frame through the channel (no noise), circular in delay."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (params.size,):
        raise ParameterError(f"expected {params.size} samples, got shape {s.shape}")
    n = np.arange(params.size)
    r = np.zeros(params.size, dtype=complex)
    for h, l, nu in zip(ch.gains, ch.delay_taps, ch.doppler_hz):
        phase = np.exp(2j * np.pi * nu * (n - l) * params.Ts)
        r += h * phase * np.roll(s, int(l))
    return r


def time_domain_matrix(ch: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Dense MN x MN matrix of apply_channel (oracle)."""
    MN = params.size
    check_dense_size(MN, "time_domain_matrix")
    n = np.arange(MN)
    H = np.zeros((MN, MN), dtype=complex)
    for h, l, nu in zip(ch.gains, ch.delay_taps, ch.doppler_hz):
        phase = h * np.exp(2j * np.pi * nu * (n - l) * params.Ts)
        H[n, (n - int(l)) % MN] += phase
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
    """apply_channel cut into N blocks of M samples, for taps below M.

    Output block b depends only on input blocks b and b-1 (cyclic in b):
    r_b = D[b] @ s_b + E[b] @ s_{b-1}.  The Gram matrix H^H H is then
    block-cyclic tridiagonal, with diagonal blocks
    gram[j] = D[j]^H D[j] + E[j+1]^H E[j+1] and sub-diagonal blocks
    lower[j] = D[j]^H E[j] at (j, j-1).  All arrays are (N, M, M).  At
    N = 1 and N = 2, lower's cyclic corner blocks land on the same
    block position as another term and add to it.
    """

    params: FrameParams
    D: np.ndarray
    E: np.ndarray
    gram: np.ndarray
    lower: np.ndarray


def channel_blocks(ch: ChannelRealization, params: FrameParams) -> ChannelBlocks:
    """The blocks of apply_channel and of its Gram matrix, built from the
    taps with the same per-sample phases; every tap must be below M."""
    check_taps_below_m(ch.delay_taps, params)
    M, N = params.M, params.N
    n = np.arange(params.size)
    q = np.arange(M)
    D = np.zeros((N, M, M), dtype=complex)
    E = np.zeros((N, M, M), dtype=complex)
    for h, l, nu in zip(ch.gains, ch.delay_taps, ch.doppler_hz):
        l = int(l)
        phase = (h * np.exp(2j * np.pi * nu * (n - l) * params.Ts)).reshape(N, M)
        # Row q of block b reads sample q - l of block b, or of block
        # b - 1 where q < l.
        D[:, q[l:], q[l:] - l] += phase[:, l:]
        E[:, q[:l], q[:l] + M - l] += phase[:, :l]
    DH, EH = D.conj().swapaxes(1, 2), E.conj().swapaxes(1, 2)
    return ChannelBlocks(params=params, D=D, E=E,
                         gram=DH @ D + np.roll(EH @ E, -1, axis=0),
                         lower=DH @ E)


def add_awgn(r, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of per-sample
    variance sigma2."""
    r = np.asarray(r, dtype=complex)
    if sigma2 < 0:
        raise ParameterError(f"noise variance must be >= 0, got {sigma2}")
    if sigma2 == 0:
        return r.copy()
    w = rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
    return r + np.sqrt(sigma2 / 2.0) * w


def calibrate_noise(snr_db: float, r) -> float:
    """Per-sample noise variance from the received frame's mean power.

    SNR is referenced at the receiver: sigma2 = mean|r|^2 / 10^(snr/10).
    An infinite snr_db yields exactly zero noise.
    """
    r = np.asarray(r, dtype=complex)
    power = float(np.mean(np.abs(r) ** 2))
    if power == 0:
        raise ParameterError("cannot calibrate noise against an all-zero frame")
    if np.isinf(snr_db):
        return 0.0
    return power / 10.0 ** (snr_db / 10.0)
