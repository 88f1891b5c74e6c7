"""Delay-Doppler to time-domain synthesis and its inverse.

The frame vector x (flat index k*M + l) maps to MN time samples through

    s[n*M + l] = sum_k exp(-2j*pi*n*k/N) * x[k*M + l],

i.e. an unnormalized N-point DFT along the Doppler axis of each delay
bin.  In matrix form s = (F_N^H kron I_M) x with F_N[p, q] =
exp(+2j*pi*p*q/N).  The transform is computed with FFTs; the dense
Kronecker matrix is available separately for cross-checks.

A continuous-time synthesis path (time-frequency grid, rectangular
pulse of one block duration, optional oversampling) serves as an
independent oracle: at oversampling factor 1 it equals modulate() up to
one global scalar.
"""

import numpy as np

from .errors import ParameterError
from .frame import FrameParams, check_dense_size


def modulate(x, params: FrameParams) -> np.ndarray:
    """Synthesize the MN critically-sampled time samples from DD symbols."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (params.size,):
        raise ParameterError(f"expected {params.size} symbols, got shape {x.shape}")
    return np.fft.fft(x.reshape(params.N, params.M), axis=0).reshape(params.size)


def demodulate(r, params: FrameParams) -> np.ndarray:
    """Recover DD symbols from time samples; exact inverse of modulate."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (params.size,):
        raise ParameterError(f"expected {params.size} samples, got shape {r.shape}")
    return np.fft.ifft(r.reshape(params.N, params.M), axis=0).reshape(params.size)


def fourier_matrix(N: int) -> np.ndarray:
    """N x N matrix with entry exp(+2j*pi*p*q/N) at row p, column q."""
    pq = np.outer(np.arange(N), np.arange(N))
    return np.exp(2j * np.pi * pq / N)


def dense_synthesis_matrix(params: FrameParams) -> np.ndarray:
    """Materialized (F_N^H kron I_M); O((MN)^2) memory, for small grids."""
    check_dense_size(params.size, "dense_synthesis_matrix")
    return np.kron(fourier_matrix(params.N).conj().T, np.eye(params.M))


def time_frequency_grid(x, params: FrameParams) -> np.ndarray:
    """N x M time-frequency grid of a DD symbol vector.

    X[n, m] = sum_{k,l} x[k, l] exp(-2j*pi*(m*l/M + n*k/N)); the Doppler
    sign is the one consistent with modulate()'s sampled form.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (params.size,):
        raise ParameterError(f"expected {params.size} symbols, got shape {x.shape}")
    grid = x.reshape(params.N, params.M)
    return np.fft.fft(np.fft.fft(grid, axis=0), axis=1)


def modulate_oracle(x, params: FrameParams, oversample_factor: int = 1) -> np.ndarray:
    """Continuous-time synthesis sampled at oversample_factor * M * delta_f.

    Each of the N blocks of the time-frequency grid is synthesized with a
    rectangular pulse of amplitude 1/sqrt(T) over one block duration T:

        s(t) = sum_{n,m} X[n, m] g(t - n*T) exp(2j*pi*m*delta_f*(t - n*T)).

    Returns oversample_factor * M * N samples of s(t).  At factor 1 the
    result equals modulate(x) times the global scalar M/sqrt(T).
    """
    if oversample_factor < 1:
        raise ParameterError(f"oversample_factor must be >= 1, got {oversample_factor}")
    M, L = params.M, oversample_factor
    tf = time_frequency_grid(x, params)
    # Within block n the pulse gate keeps only that block's carriers:
    # s at offset q of block n is (1/sqrt(T)) sum_m X[n,m] exp(2j*pi*m*q/(L*M)).
    blocks = np.fft.ifft(tf, n=L * M, axis=1) * (L * M) / np.sqrt(params.T)
    return blocks.reshape(L * params.size)
