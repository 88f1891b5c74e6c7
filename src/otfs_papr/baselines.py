"""Comparison PAPR-reduction methods: mu-law companding, iterative
clipping-and-filtering, and unitary DFT spreading.

These are standard textbook forms with every parameter exposed in the
configs; they serve as reference points for the amplitude precoder.
The stage configs declare no defaults: each default lives in
`ExperimentConfig`, which builds them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .frame import FrameParams

@dataclass(frozen=True)
class CompandingConfig:
    mu: float

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ParameterError(f"mu must be finite and positive, got {self.mu}")


@dataclass(frozen=True)
class IcfConfig:
    clip_ratio_db: float
    iterations: int
    oversample_factor: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if self.oversample_factor < 2:
            raise ParameterError(
                f"oversample_factor must be >= 2, got {self.oversample_factor}")
        with np.errstate(over="ignore"):  # icf's clip level is rms times this ratio
            ratio = np.power(10.0, self.clip_ratio_db / 20)
        if not 0 < ratio < np.inf:
            raise ParameterError(f"clip_ratio_db must be finite, with 10**(clip_ratio_db/20) "
                                 f"neither overflowing nor 0, got {self.clip_ratio_db}")


@dataclass(frozen=True)
class DftSpreadConfig:
    axis: str

    def __post_init__(self):
        if self.axis not in ("delay", "doppler"):
            raise ParameterError(f"axis must be 'delay' or 'doppler', got {self.axis!r}")


def mu_compand(s, cfg: CompandingConfig, V) -> np.ndarray:
    """Logarithmic magnitude compression toward the peak reference V.

    |out| = V * ln(1 + mu*|s|/V) / ln(1 + mu), phases preserved.  V must
    be at least the frame peak so the map stays on [0, V].  s is one
    frame, with V a number, or a stack of frames, one a row, with V one
    peak reference a row; each row is companded toward its own V.
    """
    s = np.asarray(s, dtype=complex)
    V = np.asarray(V, dtype=float)
    mag = np.abs(s)
    peak = mag.max(axis=-1, initial=0.0)
    if not np.all(peak > 0):
        raise ParameterError("cannot compand an all-zero frame")
    low = V < peak
    if np.any(low):
        raise ParameterError(
            f"peak reference V={V[low][0]} below frame peak {peak[low][0]}")
    V = V[..., None]
    out_mag = V * np.log1p(cfg.mu * mag / V) / np.log1p(cfg.mu)
    return _with_magnitude(s, mag, out_mag)


def mu_expand(s, cfg: CompandingConfig, V: float) -> np.ndarray:
    """Exact functional inverse of mu_compand on magnitudes.

    Magnitudes above V (possible after channel and noise) are clipped to
    V first; callers that care count the exceedances via clip_count().
    """
    s = np.asarray(s, dtype=complex)
    if not V > 0:
        raise ParameterError(f"peak reference must be positive, got {V}")
    mag = np.abs(s)
    out_mag = (V / cfg.mu) * np.expm1(np.minimum(mag, V) * np.log1p(cfg.mu) / V)
    return _with_magnitude(s, mag, out_mag)


def clip_count(s, V: float) -> int:
    """Number of samples whose magnitude exceeds the expander range."""
    return int(np.count_nonzero(np.abs(np.asarray(s)) > V))


def _with_magnitude(s, mag, new_mag):
    """s with each magnitude mag set to new_mag, phases kept; samples
    whose magnitude is not positive come out 0."""
    nz = mag > 0
    ratio = np.divide(new_mag, mag, out=np.zeros_like(mag), where=nz)
    return np.multiply(s, ratio, out=np.zeros_like(s), where=nz)


def _spectral_interpolate(s, L: int) -> np.ndarray:
    """Zero-padded spectrum extension of each row of s (or of one frame)
    to L times its sample count."""
    n = s.shape[-1]
    head = (n + 1) // 2
    spec = np.fft.fft(s)
    padded = np.zeros(s.shape[:-1] + (L * n,), dtype=complex)
    padded[..., :head] = spec[..., :head]
    padded[..., L * n - (n - head):] = spec[..., head:]
    up = np.fft.ifft(padded)
    up *= L
    return up


def _spectral_decimate(up, n: int, L: int) -> np.ndarray:
    """Inverse of _spectral_interpolate: keep the n in-band bins."""
    head = (n + 1) // 2
    spec = np.fft.fft(up)
    spec /= L
    kept = np.concatenate([spec[..., :head], spec[..., L * n - (n - head):]], axis=-1)
    return np.fft.ifft(kept)


def icf(s, cfg: IcfConfig, params: FrameParams) -> np.ndarray:
    """Iterative clipping and filtering, of one frame or of every row of
    a stack with one call a stage.

    Each round interpolates to an oversampled grid, clips magnitudes at
    gamma = rms * 10^(clip_ratio_db/20), rms that of the frame's own
    oversampled samples (phase preserved), and removes the out-of-band
    regrowth by keeping only the in-band spectral bins.  Each row is
    clipped at its own gamma and comes out bit for bit as alone.  The
    receiver applies no inverse; the residual clipping distortion rides
    along as noise.  The oversampled grid holds L samples a symbol of s,
    so callers bound memory by the rows they pass.
    """
    s = params.frames(s, "samples")
    out = s.reshape(-1, params.size)
    L = cfg.oversample_factor
    ratio = 10 ** (cfg.clip_ratio_db / 20)
    for _ in range(cfg.iterations):
        up = _spectral_interpolate(out, L)
        mag = np.abs(up)
        gamma = np.sqrt(np.mean(mag ** 2, axis=-1, keepdims=True)) * ratio
        over = mag > gamma
        up[over] *= np.broadcast_to(gamma, up.shape)[over] / mag[over]
        out = _spectral_decimate(up, params.size, L)
    return out.reshape(s.shape)


def dft_spread(u, cfg: DftSpreadConfig, params: FrameParams) -> np.ndarray:
    """Unitary DFT precoding of the symbol grid along one axis.

    axis='delay' replaces each Doppler row's M-long delay sequence by
    its unitary M-point DFT; axis='doppler' transforms the N-long
    Doppler columns instead.

    Effect on PAPR in this modulator, which applies an N-point DFT down
    each delay bin:

    - axis='delay' makes modulation a full 2-D DFT, so every time sample
      sums all MN symbols.  The frame is near-Gaussian with constant
      energy, P(PAPR > g) ~ 1 - (1 - exp(-g))^(MN) (8.92 dB at CCDF 0.1
      for MN = 256), above uncompensated OTFS.
    - axis='doppler' cancels the modulator's DFT up to a scale and an
      index reversal, so each time sample is one symbol: 0 dB PAPR for
      PSK at critical sampling.

    u is one frame or a stack of frames, one a row, transformed in one
    FFT call.
    """
    return _unitary_dft(params.frames(u), cfg, params, inverse=False)


def dft_despread(x, cfg: DftSpreadConfig, params: FrameParams) -> np.ndarray:
    """Exact inverse of dft_spread, applied after equalization, of one
    frame or of every row of a stack in one inverse FFT call."""
    return _unitary_dft(params.frames(x), cfg, params, inverse=True)


def _unitary_dft(V, cfg: DftSpreadConfig, params: FrameParams,
                 inverse: bool) -> np.ndarray:
    """The unitary DFT of each frame's symbol grid along cfg.axis, or its
    inverse, for one frame V (MN,) or a stack (F, MN)."""
    axis, n = (2, params.M) if cfg.axis == "delay" else (1, params.N)
    grid = V.reshape(-1, params.N, params.M)
    if inverse:
        out = np.fft.ifft(grid, axis=axis) * np.sqrt(n)
    else:
        out = np.fft.fft(grid, axis=axis) / np.sqrt(n)
    return out.reshape(V.shape)
