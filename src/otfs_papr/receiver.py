"""MMSE equalization, DD noise tracking and error counting.

The DD-domain MMSE estimate solves (H_eff^H H_eff + c I) x = H_eff^H y.
The modulator is S = F_N^H kron I_M with S S^H = N I, so this system
is the time-domain one (H^H H + c I) z = H^H r with x = demodulate(z)
and the same loading c.  block_mmse_equalize solves the time-domain
system from the channel's blocks (channel.channel_blocks) in O(N*M^3)
time and O(N*M^2) memory; mmse_equalize solves the dense DD system and
is its oracle.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelBlocks
from .errors import EqualizerError, ParameterError
from .frame import FrameParams, check_dense_size, gray_encode


@dataclass(frozen=True)
class EqualizerInput:
    """DD-domain observations with the exact channel and noise level.

    y = H_eff @ x + w with white DD-domain noise of per-element variance
    sigma2_dd; Es is the symbol energy assumed by the regularizer.
    """

    y: np.ndarray
    H_eff: np.ndarray
    sigma2_dd: float
    Es: float

    def __post_init__(self):
        if self.sigma2_dd < 0:
            raise ParameterError(f"sigma2_dd must be >= 0, got {self.sigma2_dd}")
        if not self.Es > 0:
            raise ParameterError(f"Es must be positive, got {self.Es}")


@dataclass(frozen=True)
class ErrorCounts:
    symbols: int
    symbol_errors: int
    bits: int
    bit_errors: int

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols if self.symbols else 0.0

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0

    def __add__(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(self.symbols + other.symbols,
                           self.symbol_errors + other.symbol_errors,
                           self.bits + other.bits,
                           self.bit_errors + other.bit_errors)


def dd_noise_variance(sigma2_td: float, params: FrameParams) -> float:
    """Per-element DD-domain noise variance after demodulation.

    The analysis transform is (1/N) times an N-scaled unitary map, so
    white time-domain noise of variance sigma2 stays white with variance
    sigma2/N.
    """
    if sigma2_td < 0:
        raise ParameterError(f"sigma2_td must be >= 0, got {sigma2_td}")
    return sigma2_td / params.N


def mmse_equalize(inp: EqualizerInput) -> np.ndarray:
    """Linear MMSE symbol estimates from the dense DD matrix (oracle).

    Solves (H^H H + (sigma2_dd/Es) I) x = H^H y with a direct linear
    solve; deterministic for fixed inputs.  Raises EqualizerError when
    the solve fails or returns non-finite values.
    """
    H = np.asarray(inp.H_eff, dtype=complex)
    y = np.asarray(inp.y, dtype=complex)
    n = H.shape[0]
    if H.shape != (n, n) or y.shape != (n,):
        raise ParameterError(f"shape mismatch: H {H.shape}, y {y.shape}")
    check_dense_size(n, "mmse_equalize's Gram matrix")
    gram = H.conj().T @ H
    gram[np.diag_indices(n)] += inp.sigma2_dd / inp.Es
    try:
        x_hat = np.linalg.solve(gram, H.conj().T @ y)
    except np.linalg.LinAlgError as exc:
        raise EqualizerError(f"MMSE solve failed: {exc}") from exc
    if not np.all(np.isfinite(x_hat)):
        raise EqualizerError("MMSE solve produced non-finite estimates")
    return x_hat


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().swapaxes(-1, -2)


def block_mmse_equalize(blocks: ChannelBlocks, r, loading: float) -> np.ndarray:
    """Time-domain linear MMSE solution z; demodulate(z) is mmse_equalize's
    DD estimate.

    Solves (H^H H + loading I) z = H^H r on the channel's blocks, with
    loading = sigma2_dd/Es.  The matrix is block-cyclic tridiagonal.
    Its blocks 0..N-2 form a block tridiagonal T, bordered by block
    column N-1.  Block Thomas on T with M+1 right-hand sides (the border
    and H^H r) leaves the M x M Schur complement of the last block.
    Raises EqualizerError when a solve fails or returns non-finite
    values.
    """
    params = blocks.params
    N, M = params.N, params.M
    r = np.asarray(r, dtype=complex)
    if r.shape != (params.size,):
        raise ParameterError(f"expected {params.size} samples, got shape {r.shape}")
    r = r.reshape(N, M, 1)
    g = _adjoint(blocks.D) @ r + np.roll(_adjoint(blocks.E) @ r, -1, axis=0)
    A = blocks.gram + loading * np.eye(M)
    lower = blocks.lower
    # Block column N-1 of A.  Index N-2 is N-1 itself at N = 1, so the
    # cyclic corner blocks add onto the diagonal at N = 1 and onto the
    # one off-diagonal block at N = 2.
    col = np.zeros_like(A)
    col[N - 1] = A[N - 1]
    col[0] += lower[0]
    col[N - 2] += _adjoint(lower[N - 1])
    K = N - 1
    Y = np.concatenate([col[:K], g[:K]], axis=2)  # becomes T^-1 [border | g]
    pivots = A[:K].copy()
    upper = _adjoint(lower[1:K])  # becomes pivot^-1 @ block (j, j+1)
    try:
        for j in range(K - 1):
            X = np.linalg.solve(pivots[j], np.concatenate([upper[j], Y[j]], axis=1))
            upper[j], Y[j] = X[:, :M], X[:, M:]
            pivots[j + 1] -= lower[j + 1] @ upper[j]
            Y[j + 1] -= lower[j + 1] @ Y[j]
        # The last pivot of T (none at N = 1, where T is empty).
        Y[K - 1:] = np.linalg.solve(pivots[K - 1:], Y[K - 1:])
        for j in range(K - 2, -1, -1):
            Y[j] -= upper[j] @ Y[j + 1]
        border = (_adjoint(col[:K]) @ Y).sum(axis=0)
        z_last = np.linalg.solve(col[K] - border[:, :M], g[K] - border[:, M:])
    except np.linalg.LinAlgError as exc:
        raise EqualizerError(f"MMSE solve failed: {exc}") from exc
    z = np.concatenate([Y[:, :, M:] - Y[:, :, :M] @ z_last, z_last[None]])
    if not np.all(np.isfinite(z)):
        raise EqualizerError("MMSE solve produced non-finite estimates")
    return z.reshape(params.size)


_POPCOUNT_BYTE = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def count_errors(detected, truth, D: int) -> ErrorCounts:
    """Symbol and Gray-label bit errors between two index sequences."""
    detected = np.asarray(detected, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if detected.shape != truth.shape:
        raise ParameterError(
            f"length mismatch: {detected.shape} vs {truth.shape}")
    if not 2 <= D <= 256:
        raise ParameterError(f"modulation order out of range: {D}")
    bits_per_symbol = max(int(D - 1).bit_length(), 1)
    diff = gray_encode(detected) ^ gray_encode(truth)
    bit_errors = int(_POPCOUNT_BYTE[diff & 0xFF].sum())
    return ErrorCounts(symbols=detected.size,
                       symbol_errors=int(np.count_nonzero(detected != truth)),
                       bits=detected.size * bits_per_symbol,
                       bit_errors=bit_errors)
