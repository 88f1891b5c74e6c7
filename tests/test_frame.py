"""Frame parameters, alphabets, Gray mapping and phase detection."""

import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_papr import (CompandingConfig, DftSpreadConfig, ExperimentConfig,
                       FrameParams, GreedyConfig, IcfConfig, ParameterError,
                       PskAlphabet, UnsupportedModulationError,
                       brute_force_precode, calibrate_noise, count_errors,
                       dd_noise_variance, demodulate, detect_symbols,
                       dft_despread, dft_spread, greedy_precode, icf,
                       map_bits_to_symbols, modulate, mu_expand, papr,
                       symbols_to_bits, time_frequency_grid)
from otfs_papr.channel import add_noise, unit_noise
from otfs_papr.experiment import transmit

# Every entry point that takes a frame, with what its frame holds and
# whether it takes a stack of frames, one a row, too.
FRAME_ENTRY_POINTS = [
    ("modulate", modulate, "symbols", True),
    ("demodulate", demodulate, "samples", True),
    ("time_frequency_grid", time_frequency_grid, "symbols", False),
    ("icf", lambda s, p: icf(s, IcfConfig(4.0, 1, 4), p), "samples", True),
    ("dft_spread", lambda u, p: dft_spread(u, DftSpreadConfig("delay"), p), "symbols", True),
    ("dft_despread", lambda x, p: dft_despread(x, DftSpreadConfig("delay"), p), "symbols",
     True),
    ("greedy_precode", lambda u, p: greedy_precode(u, p, GreedyConfig(max_iter=0)),
     "symbols", False),
    ("brute_force_precode", brute_force_precode, "symbols", False),
]
SHAPES = [(11,), (13,), (1, 12), (12, 1)]


def _transmitted(method):
    """transmit under `method`, with 2u as the greedy search result."""
    def run(u, p):
        tx = transmit(u, method, ExperimentConfig(M=p.M, N=p.N), 2 * np.asarray(u))
        return [tx.s] + ([] if tx.peak_reference is None else [tx.peak_reference])
    return run


def _errors(z, p):
    """count_errors of z's detected QPSK indices against one truth, as
    an array of the counts, one row an ErrorCounts; every count must be
    a Python int."""
    qpsk = PskAlphabet(D=4)
    truth = detect_symbols(np.exp(0.3j * np.arange(p.size)), qpsk)
    counts = count_errors(detect_symbols(z, qpsk), truth, qpsk)
    rows = [astuple(c) for c in (counts if isinstance(counts, list) else [counts])]
    assert all(type(v) is int for row in rows for v in row)
    return [np.array(rows[0] if np.ndim(z) == 1 else rows)]


# Every entry point that takes one frame or a stack, with what its frame
# holds ("" where no frame size is checked, None where no shape is
# refused); each returns its outputs.  The noise stages take one variance
# a row, here one read off the row.
STACK_ENTRY_POINTS = [
    pytest.param(lambda u, p: [modulate(u, p)], "symbols", id="modulate"),
    pytest.param(lambda r, p: [demodulate(r, p)], "samples", id="demodulate"),
    pytest.param(lambda s, p: [icf(s, IcfConfig(4.0, 3, 4), p)], "samples", id="icf"),
    pytest.param(lambda u, p: [dft_spread(u, DftSpreadConfig("delay"), p)], "symbols",
                 id="dft_spread-delay"),
    pytest.param(lambda u, p: [dft_spread(u, DftSpreadConfig("doppler"), p)], "symbols",
                 id="dft_spread-doppler"),
    pytest.param(lambda x, p: [dft_despread(x, DftSpreadConfig("delay"), p)], "symbols",
                 id="dft_despread"),
    pytest.param(lambda s, p: [papr(s).value_linear, papr(s).value_db], "", id="papr"),
    pytest.param(lambda r, p: [calibrate_noise(7.3, r)], None, id="calibrate_noise"),
    pytest.param(lambda r, p: [add_noise(r, np.abs(r[..., 0]),
                                         unit_noise(p.size, np.random.default_rng(p.size)))],
                 None, id="add_noise"),
    pytest.param(lambda r, p: [dd_noise_variance(np.abs(r[..., 0]), p)], None,
                 id="dd_noise_variance"),
    pytest.param(lambda s, p: [mu_expand(s, CompandingConfig(mu=4.0), 1.5)], None,
                 id="mu_expand"),
    pytest.param(lambda z, p: [detect_symbols(z, PskAlphabet(D=8))], None,
                 id="detect_symbols"),
    pytest.param(_errors, None, id="count_errors"),
] + [pytest.param(_transmitted(method), "symbols", id=f"transmit-{method}")
     for method in ("none", "proposed", "companding", "icf", "dft")]


class TestFrameParams:
    def test_derived_timing_is_exact(self):
        p = FrameParams(M=16, N=16, delta_f=15e3)
        assert p.T * p.delta_f == 1.0
        assert p.Ts == 1.0 / (16 * 15e3)
        assert p.size == 256

    @pytest.mark.parametrize("kwargs", [
        dict(M=0, N=4), dict(M=4, N=0), dict(M=4, N=4, delta_f=0.0),
        dict(M=4, N=4, delta_f=-1.0),
    ])
    def test_rejects_bad_dimensions(self, kwargs):
        with pytest.raises(ParameterError):
            FrameParams(**kwargs)

    def test_frame_is_a_complex_vector_of_size(self):
        x = FrameParams(M=2, N=2).frame([1, 2, 3, 4])
        assert x.dtype == complex and x.shape == (4,)
        assert x.tolist() == [1, 2, 3, 4]

    # A (1, 12) stack is one frame to the entry points that take a stack.
    @pytest.mark.parametrize("entry_point, what, stacks, shape", [
        pytest.param(fn, what, stacks, shape, id=f"{name}-shape{i}")
        for name, fn, what, stacks in FRAME_ENTRY_POINTS
        for i, shape in enumerate(SHAPES) if not (stacks and shape == (1, 12))])
    def test_entry_points_reject_any_other_shape(self, entry_point, what, stacks, shape):
        p = FrameParams(M=3, N=4)  # MN = 12
        frames = "frames of " if stacks else ""
        match = f"expected {frames}{p.size} {what}, got shape {re.escape(str(shape))}"
        with pytest.raises(ParameterError, match=match):
            entry_point(np.ones(shape), p)

    @pytest.mark.parametrize("M, N", [(3, 5), (1, 12), (16, 16)])
    @pytest.mark.parametrize("entry_point, what", STACK_ENTRY_POINTS)
    def test_stack_rows_are_their_lone_frames(self, entry_point, what, M, N):
        """Each row of a stack of 1 to 5 frames, a (1, MN) stack among
        them, comes out bit for bit as that frame alone."""
        p = FrameParams(M=M, N=N)
        rng = np.random.default_rng(M * N)
        for F in range(1, 6):
            X = rng.standard_normal((F, p.size)) + 1j * rng.standard_normal((F, p.size))
            stacked = entry_point(X, p)
            for f in range(F):
                lone = entry_point(X[f], p)
                assert [np.shape(a) for a in lone] == [np.shape(a[f]) for a in stacked]
                assert [np.asarray(a).tobytes() for a in lone] == \
                    [a[f].tobytes() for a in stacked]
        if p.size != 12 or what is None:
            return
        if what:
            cases = [(shape, f"expected frames of 12 {what}, got shape {re.escape(str(shape))}")
                     for shape in [(11,), (13,), (12, 1), (2, 13), (1, 1, 12)]]
        else:  # papr reads a frame, or a stack of frames, of any size
            cases = [((1, 1, 12), r"expected a frame or a stack of frames, one a row, "
                                  r"got shape \(1, 1, 12\)")]
        for shape, match in cases:
            with pytest.raises(ParameterError, match=match):
                entry_point(np.ones(shape), p)


class TestPskAlphabet:
    def test_symbols_sit_on_the_ring(self):
        a = PskAlphabet(D=8, A=2.5)
        syms = a.symbols()
        assert np.allclose(np.abs(syms), 2.5)
        assert np.allclose(syms[0], 2.5)
        assert len(np.unique(np.round(np.angle(syms), 12))) == 8

    def test_rejects_degenerate_orders(self):
        with pytest.raises(ParameterError):
            PskAlphabet(D=1)
        with pytest.raises(ParameterError):
            PskAlphabet(D=4, A=0.0)

    def test_bits_per_symbol_requires_power_of_two(self):
        assert PskAlphabet(D=4).bits_per_symbol == 2
        with pytest.raises(UnsupportedModulationError):
            PskAlphabet(D=6).bits_per_symbol


class TestBitMapping:
    def test_bpsk_is_antipodal(self):
        a = PskAlphabet(D=2, A=1.0)
        p = FrameParams(M=2, N=1)
        u = map_bits_to_symbols([0, 1], a, p)
        assert np.allclose(u, [1.0, -1.0])

    def test_qpsk_gray_order(self):
        a = PskAlphabet(D=4)
        p = FrameParams(M=2, N=2)
        u = map_bits_to_symbols([0, 0, 0, 1, 1, 1, 1, 0], a, p)
        assert np.array_equal(detect_symbols(u, a), [0, 1, 2, 3])

    def test_all_zero_bits_give_constant_vector(self):
        a = PskAlphabet(D=8, A=3.0)
        p = FrameParams(M=4, N=2)
        u = map_bits_to_symbols(np.zeros(8 * 3, dtype=int), a, p)
        assert np.allclose(u, 3.0)

    def test_bit_length_mismatch(self):
        with pytest.raises(ParameterError):
            map_bits_to_symbols([0, 1, 0], PskAlphabet(D=2), FrameParams(M=2, N=1))

    def test_non_binary_bit(self):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            map_bits_to_symbols([0, 2], PskAlphabet(D=2), FrameParams(M=2, N=1))

    def test_non_power_of_two_order(self):
        with pytest.raises(UnsupportedModulationError):
            map_bits_to_symbols([0, 1], PskAlphabet(D=3), FrameParams(M=2, N=1))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 3).map(lambda k: 2 ** (k + 1)),
           st.integers(0, 2 ** 16 - 1), st.integers(1, 4), st.integers(1, 4))
    def test_round_trip_recovers_bits(self, D, bit_seed, M, N):
        a = PskAlphabet(D=D)
        p = FrameParams(M=M, N=N)
        rng = np.random.default_rng(bit_seed)
        bits = rng.integers(0, 2, p.size * a.bits_per_symbol)
        u = map_bits_to_symbols(bits, a, p)
        recovered = symbols_to_bits(detect_symbols(u, a), a)
        assert np.array_equal(recovered, bits)


class TestDetection:
    def test_amplitude_is_ignored(self):
        a = PskAlphabet(D=8, A=1.0)
        assert detect_symbols(3.0 * a.symbols(), a).tolist() == list(range(8))

    def test_nearest_phase_rounding(self):
        a = PskAlphabet(D=8)
        z = np.exp(1j * (0.4 * np.pi / 8))  # offset under half a sector
        assert detect_symbols([z, -z], a).tolist() == [0, 4]

    def test_negative_real_maps_to_half_order(self):
        assert detect_symbols([-5.0 + 0j], PskAlphabet(D=4)).tolist() == [2]

    def test_zero_falls_back_to_index_zero(self):
        assert detect_symbols([0j, 1 + 0j], PskAlphabet(D=4)).tolist() == [0, 0]

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            detect_symbols([1 + 0j, complex(np.nan, 0)], PskAlphabet(D=4))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 16), st.integers(0, 15),
           st.floats(1e-3, 1e3, allow_nan=False))
    def test_scale_invariance(self, D, p, c):
        a = PskAlphabet(D=D)
        assert detect_symbols(c * a.symbols(), a)[p % D] == p % D
