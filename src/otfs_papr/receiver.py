"""MMSE equalization, DD noise tracking and error counting.

The DD-domain MMSE estimate solves (H_eff^H H_eff + c I) x = H_eff^H y.
The modulator is S = F_N^H kron I_M with S S^H = N I, so this system
is the time-domain one (H^H H + c I) z = H^H r with x = demodulate(z)
and the same loading c.  block_mmse_equalize solves the time-domain
system from the channel's blocks (channel.channel_blocks): MN/b blocks
of b samples, with b sized by the delay spread, not by M.  It takes
O(MN*b^2) time and O(MN*b) memory, for a whole stack of frames on one
channel at once; mmse_equalize solves the dense DD system and is its
oracle.
Both take the same loading c = sigma2_dd/Es, the per-element DD noise
variance over the symbol energy, and reject a negative or non-finite
one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelBlocks
from .errors import EqualizerError, ParameterError
from .frame import FrameParams, PskAlphabet, check_dense_size, gray_encode


@dataclass(frozen=True)
class ErrorCounts:
    """Error counts; without symbols (or bits) the rate is NaN, not 0,
    so a point whose every frame was skipped does not read error-free."""

    symbols: int
    symbol_errors: int
    bits: int
    bit_errors: int

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols if self.symbols else math.nan

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else math.nan

    def __add__(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(self.symbols + other.symbols,
                           self.symbol_errors + other.symbol_errors,
                           self.bits + other.bits,
                           self.bit_errors + other.bit_errors)


def dd_noise_variance(sigma2_td, params: FrameParams):
    """Per-element DD-domain noise variance after demodulation, of each
    time-domain variance sigma2_td (a number, or one a row).

    The analysis transform is (1/N) times an N-scaled unitary map, so
    white time-domain noise of variance sigma2 stays white with variance
    sigma2/N.
    """
    if np.any(np.asarray(sigma2_td) < 0):
        raise ParameterError(f"sigma2_td must be >= 0, got {sigma2_td}")
    return sigma2_td / params.N


def _check_loading(loading):
    loading = np.asarray(loading)
    if not np.all((0 <= loading) & (loading < math.inf)):
        raise ParameterError(f"loading must be finite and >= 0, got {loading}")


def mmse_equalize(H_eff, y, loading: float) -> np.ndarray:
    """Linear MMSE symbol estimates from the dense DD matrix (oracle).

    Solves (H^H H + loading I) x = H^H y for y = H_eff @ x + w with a
    direct linear solve; deterministic for fixed inputs.  Raises
    EqualizerError when the solve fails or returns non-finite values.
    """
    _check_loading(loading)
    H = np.asarray(H_eff, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = H.shape[0]
    if H.shape != (n, n) or y.shape != (n,):
        raise ParameterError(f"shape mismatch: H {H.shape}, y {y.shape}")
    check_dense_size(n, "mmse_equalize's Gram matrix")
    gram = H.conj().T @ H
    gram[np.diag_indices(n)] += loading
    try:
        x_hat = np.linalg.solve(gram, H.conj().T @ y)
    except np.linalg.LinAlgError as exc:
        raise EqualizerError(f"MMSE solve failed: {exc}") from exc
    if not np.all(np.isfinite(x_hat)):
        raise EqualizerError("MMSE solve produced non-finite estimates")
    return x_hat


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().swapaxes(-1, -2)


def block_mmse_equalize(blocks: ChannelBlocks, r, loading) -> np.ndarray:
    """Time-domain linear MMSE solutions z, one per received frame;
    demodulate(z[i]) is mmse_equalize's DD estimate for frame i.

    r is one frame (MN,) or a stack of frames (S, MN), and loading
    (sigma2_dd/Es) holds one value per frame: a scalar or shape (S,).
    Every frame shares the channel's blocks and solves
    (H^H H + loading I) z = H^H r, all in one recursion.  From the
    channel's blocks D[j] and corners E[j] (channel_blocks), H^H H is
    block-cyclic tridiagonal: diagonal block j is D[j]^H D[j] plus
    E[j+1]^H E[j+1] in its last L rows and columns, and as D[j] is lower
    triangular, block (j, j-1) is zero outside its top-right L x L corner
    C[j] = D[j][:L, :L]^H E[j]: every coupling has rank at most L, the
    largest delay tap.  Blocks 0..J-2 form a block tridiagonal T,
    bordered by block column J-1.  Block Thomas on T, forming each Gram
    block when it reaches it, leaves the b x b Schur complement of the
    last block.

    So each pivot solve takes at most 3L+1 right-hand sides: the L last
    unit columns (the next coupling), the border's nonzero columns (its
    first and last L) and H^H r.  Where 2L > b those two column sets
    overlap and the count is L+b+1, so a profile whose largest tap nears
    b gains little over the 2b+1 of dense couplings, but costs no more.
    The Schur and forward updates touch only an L x L or L-row corner.

    A frame whose solve fails (a singular pivot) or returns non-finite
    values comes back as all NaN.  Every other frame's z is bit for bit
    what it would be if that frame were solved alone.
    """
    size = blocks.D.shape[0] * blocks.D.shape[1]
    r = np.asarray(r, dtype=complex)
    loading = np.asarray(loading, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != size \
            or loading.shape != r.shape[:-1]:
        raise ParameterError(
            f"expected frames of {size} samples and one loading per "
            f"frame, got shapes {r.shape} and {loading.shape}")
    _check_loading(loading)
    try:
        z = _bordered_thomas(blocks, r.reshape(-1, size), loading.reshape(-1))
    except np.linalg.LinAlgError:
        # A singular pivot fails the whole stacked solve; solved alone,
        # only its own frame fails.
        if r.ndim == 1:
            return np.full_like(r, np.nan)
        return np.stack([block_mmse_equalize(blocks, *frame)
                         for frame in zip(r, loading)])
    z[~np.isfinite(z).all(axis=1)] = np.nan
    return z.reshape(r.shape)


def _bordered_thomas(blocks: ChannelBlocks, r, loading) -> np.ndarray:
    """block_mmse_equalize on a stack r (S, MN) with loadings (S,)."""
    D, E = blocks.D, blocks.E
    J, b = D.shape[:2]
    L = E.shape[-1]
    C = _adjoint(D[:, :L, :L]) @ E
    CH = _adjoint(C)
    K = J - 1
    S = len(r)
    r = r.reshape(S, J, b, 1)
    # H^H r, block by block: D[j]^H r_j, formed without a conjugate copy
    # of D, with E[j+1]^H times the first L samples of r_{j+1} added to
    # its last L rows.
    g = np.conj(D.swapaxes(1, 2) @ np.conj(r))
    g[:, :, b - L:] += np.roll(_adjoint(E) @ r[:, :, :L], -1, axis=1)
    diag = np.arange(b)

    def loaded(j):
        """Gram block j plus each frame's loading: one (S, b, b) stack,
        built only when the recursion reaches block j."""
        gram = _adjoint(D[j]) @ D[j]
        after = E[(j + 1) % J]
        gram[b - L:, b - L:] += _adjoint(after) @ after
        pivot = np.repeat(gram[None], S, axis=0)
        pivot[:, diag, diag] += loading[:, None]
        return pivot

    # Block column J-1 above the diagonal holds the cyclic corner blocks,
    # nonzero only in the columns nz: the first L, in the first L of col,
    # and the last L, in the last L of col.  Index J-2 is J-1 itself at
    # J = 1, so they add onto the diagonal at J = 1 and onto the one
    # off-diagonal block at J = 2.
    nz = np.r_[0:L, max(L, b - L):b]
    nb = nz.size
    col = np.zeros((J, b, nb), dtype=complex)
    col[0, :L, nb - L:] += C[0]
    col[J - 2, b - L:, :L] += CH[J - 1]
    border = col[:K]
    # X[:, j] = [last L unit columns | border | g] of block j, which the
    # recursion turns into [W_j | T^-1 border | T^-1 g].  W_j is
    # pivot_j^-1 times the unit columns, so pivot_j^-1 times block
    # (j, j+1), which is zero but for its bottom-left corner C[j+1]^H,
    # is W_j @ C[j+1]^H in its first L columns.
    X = np.empty((S, K, b, L + nb + 1), dtype=complex)
    X[..., :L] = np.eye(b)[:, b - L:]
    X[..., L:-1] = border
    X[..., -1:] = g[:, :K]
    W, Y = X[..., :L], X[..., L:]
    pivot = loaded(0) if K else None
    for j in range(K - 1):  # pivot j, then block j+1 less its Schur update
        X[:, j] = np.linalg.solve(pivot, X[:, j])
        update = C[j + 1] @ X[:, j, b - L:]
        pivot = loaded(j + 1)
        pivot[:, :L, :L] -= update[..., :L] @ CH[j + 1]
        Y[:, j + 1, :L] -= update[..., L:]
    if K:  # the last pivot of T; none at J = 1, where T is empty
        Y[:, K - 1] = np.linalg.solve(pivot, Y[:, K - 1])
    for j in range(K - 2, -1, -1):
        Y[:, j] -= W[:, j] @ (CH[j + 1] @ Y[:, j + 1, :L])
    # The border times T^-1 [border | g] is nonzero only in the rows nz;
    # subtracting it leaves the Schur complement of the last block.
    correction = (_adjoint(border) @ Y).sum(axis=1)
    last = loaded(K)
    last[:, :, nz] += col[K]
    last[:, nz[:, None], nz] -= correction[..., :nb]
    g[:, K, nz] -= correction[..., nb:]
    z_last = np.linalg.solve(last, g[:, K])
    z = np.concatenate([Y[..., nb:] - Y[..., :nb] @ z_last[:, None, nz],
                        z_last[:, None]], axis=1)
    return z.reshape(S, J * b)


def count_errors(detected, truth, alphabet: PskAlphabet):
    """Symbol and Gray-label bit errors against truth of one index
    sequence, as an ErrorCounts, or of each row of a stack, as a list of
    them; every count is a Python int."""
    detected = np.asarray(detected, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if detected.ndim not in (1, 2) or detected.shape[-1:] != truth.shape:
        raise ParameterError(
            f"length mismatch: {detected.shape} vs {truth.shape}")
    rows = np.atleast_2d(detected)
    symbol_errors = np.count_nonzero(rows != truth, axis=1)
    bit_errors = np.bitwise_count(gray_encode(rows) ^ gray_encode(truth)).sum(axis=1)
    bits = truth.size * alphabet.bits_per_symbol
    counts = [ErrorCounts(truth.size, e, bits, b)
              for e, b in zip(symbol_errors.tolist(), bit_errors.tolist())]
    return counts[0] if detected.ndim == 1 else counts
