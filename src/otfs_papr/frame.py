"""Frame geometry, PSK alphabets, Gray bit mapping and phase detection.

Symbols live on a delay-Doppler grid with M delay bins and N Doppler bins.
The flat layout puts the (k, l)-th grid symbol (k Doppler, l delay) at
vector index k*M + l.  FrameParams checks frames: each stage of the
transmit chain takes one frame (MN,) or a stack (F, MN), one frame a
row, through FrameParams.frames and returns the same shape; the entry
points that take exactly one frame check it with FrameParams.frame.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InstanceTooLargeError, ParameterError,
                     UnsupportedModulationError)

# Largest MN for which the dense (MN)^2 oracles build a matrix: 16.8 MB
# per complex matrix at MN = 1024, against 268 MB at 64 x 64.
DENSE_MAX_SIZE = 1024


@dataclass(frozen=True)
class FrameParams:
    """Grid dimensions and timing of one transmit frame.

    M, N are the delay / Doppler bin counts, delta_f the subcarrier
    spacing in Hz.  The block duration T = 1/delta_f and the sample
    period Ts = 1/(M*delta_f) are derived, so T*delta_f == 1 exactly.
    """

    M: int
    N: int
    delta_f: float = 15e3

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ParameterError(f"grid dimensions must be >= 1, got M={self.M}, N={self.N}")
        if not 0 < self.delta_f < np.inf:
            raise ParameterError(f"delta_f must be finite and positive, got {self.delta_f}")

    @property
    def T(self) -> float:
        return 1.0 / self.delta_f

    @property
    def Ts(self) -> float:
        return 1.0 / (self.M * self.delta_f)

    @property
    def size(self) -> int:
        """Number of symbols (and time samples) per frame."""
        return self.M * self.N

    def frame(self, x, what: str = "symbols") -> np.ndarray:
        """x as a complex array of shape (size,).  Any other shape raises
        ParameterError, whose message calls the elements `what`."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.size,):
            raise ParameterError(f"expected {self.size} {what}, got shape {x.shape}")
        return x

    def frames(self, X, what: str = "symbols") -> np.ndarray:
        """X as a complex array of one frame (size,) or a stack of frames
        (F, size), one a row.  Any other shape raises ParameterError,
        whose message calls the elements `what`."""
        X = np.asarray(X, dtype=complex)
        if X.ndim not in (1, 2) or X.shape[-1] != self.size:
            raise ParameterError(
                f"expected frames of {self.size} {what}, got shape {X.shape}")
        return X


def check_dense_size(size: int, what: str):
    """Refuse a dense (size x size) oracle beyond DENSE_MAX_SIZE before
    anything is allocated."""
    if size > DENSE_MAX_SIZE:
        raise InstanceTooLargeError(
            f"{what} would be a dense {size} x {size} matrix "
            f"({16 * size ** 2 / 1e6:.0f} MB); the dense oracles are limited "
            f"to MN <= {DENSE_MAX_SIZE}")


@dataclass(frozen=True)
class PskAlphabet:
    """D-ary PSK ring of amplitude A: symbol p is A*exp(2j*pi*p/D)."""

    D: int
    A: float = 1.0

    def __post_init__(self):
        if self.D < 2:
            raise ParameterError(f"modulation order must be >= 2, got {self.D}")
        if not 0 < self.A < np.inf:
            raise ParameterError(f"amplitude must be finite and positive, got {self.A}")

    def symbols(self) -> np.ndarray:
        return self.A * np.exp(2j * np.pi * np.arange(self.D) / self.D)

    @property
    def bits_per_symbol(self) -> int:
        b = self.D.bit_length() - 1
        if 1 << b != self.D:
            raise UnsupportedModulationError(
                f"bit mapping requires a power-of-two order, got D={self.D}")
        return b


def gray_encode(p):
    """Index -> Gray code label."""
    p = np.asarray(p)
    return p ^ (p >> 1)


def gray_decode(g):
    """Gray code label -> index (inverse of gray_encode)."""
    g = np.asarray(g).astype(np.int64)  # a copy: the loop works in place
    shift = 1
    while shift < 64:
        g ^= g >> shift
        shift <<= 1
    return g


def map_bits_to_symbols(bits, alphabet: PskAlphabet, params: FrameParams) -> np.ndarray:
    """Gray-map a bit sequence onto one frame of PSK symbols, or each row
    of a stack of bit sequences onto its own frame (one row each).

    Consecutive groups of log2(D) bits (MSB first) form a Gray label;
    the symbol index p is its Gray decode, so adjacent constellation
    points differ in exactly one bit.
    """
    b = alphabet.bits_per_symbol
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim not in (1, 2) or bits.shape[-1] != params.size * b:
        raise ParameterError(
            f"need {params.size * b} bits for M*N={params.size} symbols at "
            f"{b} bits/symbol, got shape {bits.shape}")
    if np.any((bits != 0) & (bits != 1)):
        raise ParameterError("bits must be 0 or 1")
    weights = 1 << np.arange(b - 1, -1, -1)
    labels = bits.reshape(*bits.shape[:-1], params.size, b) @ weights
    return alphabet.symbols()[gray_decode(labels)]


def symbols_to_bits(indices, alphabet: PskAlphabet) -> np.ndarray:
    """Inverse of the Gray bit mapping: indices -> flat bit sequence."""
    b = alphabet.bits_per_symbol
    labels = gray_encode(np.asarray(indices, dtype=np.int64))
    shifts = np.arange(b - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).reshape(-1)


def detect_symbols(z, alphabet: PskAlphabet) -> np.ndarray:
    """Phase-only detection: p = round(D*arg(z)/2pi) mod D, elementwise.

    Amplitude is ignored.  z == 0 has no phase; index 0 is returned as a
    fixed tie-break.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ParameterError("cannot detect non-finite values")
    p = np.rint(alphabet.D * np.angle(z) / (2 * np.pi)).astype(np.int64) % alphabet.D
    return np.where(z == 0, 0, p)
