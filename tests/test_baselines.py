"""Companding, iterative clipping-and-filtering, and DFT spreading."""

import numpy as np
import pytest

from otfs_papr import (CompandingConfig, DftSpreadConfig, FrameParams,
                       IcfConfig, ParameterError, dft_despread, dft_spread,
                       icf, modulate, mu_compand, mu_expand, papr)
from otfs_papr.baselines import (_spectral_decimate, _spectral_interpolate,
                                 clip_count)


def random_frame(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestCompanding:
    def test_zeros_stay_zero(self):
        s = np.array([0.0, 1.0, 0.0, -2.0], dtype=complex)
        out = mu_compand(s, CompandingConfig(mu=4), V=2.0)
        assert out[0] == 0 and out[2] == 0

    def test_peak_is_a_fixed_point(self):
        s = np.array([0.5, 2.0 * np.exp(0.7j), 1.0], dtype=complex)
        out = mu_compand(s, CompandingConfig(mu=4), V=2.0)
        assert abs(out[1]) == pytest.approx(2.0, rel=1e-12)
        assert np.angle(out[1]) == pytest.approx(0.7, rel=1e-12)

    def test_round_trip_is_exact(self):
        cfg = CompandingConfig(mu=4)
        s = random_frame(64, 1)
        V = float(np.abs(s).max())
        back = mu_expand(mu_compand(s, cfg, V), cfg, V)
        assert np.max(np.abs(back - s)) <= 1e-10 * np.max(np.abs(s))

    def test_compression_raises_small_magnitudes(self):
        cfg = CompandingConfig(mu=4)
        s = np.array([0.1 + 0j, 1.0], dtype=complex)
        out = mu_compand(s, cfg, V=1.0)
        assert abs(out[0]) > 0.1

    def test_rejects_peak_reference_below_peak(self):
        with pytest.raises(ParameterError):
            mu_compand(np.array([3.0 + 0j]), CompandingConfig(mu=4.0), V=2.0)
        with pytest.raises(ParameterError):
            mu_compand(np.zeros(4, complex), CompandingConfig(mu=4.0), V=1.0)


class TestExpander:
    def test_zeros_and_peak_fixed_points(self):
        cfg = CompandingConfig(mu=4)
        assert np.all(mu_expand(np.zeros(4, complex), cfg, V=1.0) == 0)
        out = mu_expand(np.array([1.0 + 0j]), cfg, V=1.0)
        assert abs(out[0]) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_increasing_in_magnitude(self):
        cfg = CompandingConfig(mu=7)
        mags = np.linspace(0.01, 1.0, 50)
        out = np.abs(mu_expand(mags.astype(complex), cfg, V=1.0))
        assert np.all(np.diff(out) > 0)

    def test_magnitudes_above_reference_are_clipped(self):
        cfg = CompandingConfig(mu=4)
        s = np.array([1.5 * np.exp(0.2j)], dtype=complex)
        out = mu_expand(s, cfg, V=1.0)
        capped = mu_expand(np.array([np.exp(0.2j)]), cfg, V=1.0)
        assert abs(out[0]) == pytest.approx(abs(capped[0]), rel=1e-12)
        assert clip_count(s, 1.0) == 1
        assert clip_count(np.array([0.5 + 0j]), 1.0) == 0

    def test_rejects_non_positive_reference(self):
        with pytest.raises(ParameterError, match="peak reference must be positive"):
            mu_expand(np.ones(4, complex), CompandingConfig(mu=4), V=0.0)


class TestSpectralResampling:
    @pytest.mark.parametrize("n,L", [(8, 2), (16, 4), (15, 3), (9, 2)])
    def test_interpolate_then_decimate_is_identity(self, n, L):
        s = random_frame(n, n * L)
        back = _spectral_decimate(_spectral_interpolate(s, L), n, L)
        assert np.max(np.abs(back - s)) <= 1e-12 * np.max(np.abs(s))

    def test_interpolation_preserves_original_samples(self):
        s = random_frame(16, 5)
        up = _spectral_interpolate(s, 4)
        assert np.max(np.abs(up[::4] - s)) <= 1e-10 * np.max(np.abs(s))


class TestIcf:
    def test_inactive_clipping_returns_input(self):
        # single-tone frame: band-limited interpolation keeps a flat
        # envelope, so no sample reaches the threshold at any ratio >= 0
        p = FrameParams(M=4, N=4)
        s = np.exp(2j * np.pi * 3 * np.arange(16) / 16)
        out = icf(s, IcfConfig(clip_ratio_db=0.0, iterations=3, oversample_factor=4), p)
        assert np.max(np.abs(out - s)) <= 1e-10

    def test_high_threshold_is_a_no_op(self):
        p = FrameParams(M=4, N=4)
        s = modulate(random_frame(16, 9), p)
        out = icf(s, IcfConfig(clip_ratio_db=40.0, iterations=2, oversample_factor=4), p)
        assert np.max(np.abs(out - s)) <= 1e-10 * np.max(np.abs(s))

    def test_all_zero_frame_stays_zero(self):
        p = FrameParams(M=4, N=4)
        out = icf(np.zeros(16), IcfConfig(clip_ratio_db=4.0, iterations=3,
                                           oversample_factor=4), p)
        assert np.all(out == 0)

    def test_oversampled_clip_stage_caps_magnitudes(self):
        cfg = IcfConfig(clip_ratio_db=3.0, iterations=1, oversample_factor=4)
        s = modulate(random_frame(64, 11), FrameParams(M=8, N=8))
        up = _spectral_interpolate(s, cfg.oversample_factor)
        gamma = np.sqrt(np.mean(np.abs(up) ** 2)) * 10 ** (cfg.clip_ratio_db / 20)
        clipped = np.where(np.abs(up) > gamma, gamma * up / np.abs(up), up)
        assert np.abs(clipped).max() <= gamma * (1 + 1e-12)

    def test_statistical_papr_reduction_guard(self):
        # regression guard, not a theorem: the experiment's default ICF
        # settings lower the critically-sampled PAPR on at least 95% of
        # random QPSK frames
        p = FrameParams(M=16, N=16)
        cfg = IcfConfig(clip_ratio_db=4.0, iterations=3, oversample_factor=4)
        rng = np.random.default_rng(12)
        reduced = 0
        frames = 1000
        for _ in range(frames):
            u = np.exp(2j * np.pi * rng.integers(0, 4, p.size) / 4)
            s = modulate(u, p)
            if papr(icf(s, cfg, p)).value_linear <= papr(s).value_linear:
                reduced += 1
        assert reduced >= 0.95 * frames


class TestDftSpreading:
    @pytest.mark.parametrize("axis", ["delay", "doppler"])
    def test_round_trip_and_energy(self, axis):
        p = FrameParams(M=8, N=4)
        cfg = DftSpreadConfig(axis=axis)
        u = random_frame(32, 3)
        v = dft_spread(u, cfg, p)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(u), rel=1e-12)
        back = dft_despread(v, cfg, p)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    def test_single_delay_bin_spread_is_identity(self):
        p = FrameParams(M=1, N=4)
        u = random_frame(4, 8)
        v = dft_spread(u, DftSpreadConfig(axis="delay"), p)
        assert np.allclose(v, u)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ParameterError):
            DftSpreadConfig(axis="time")


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            CompandingConfig(mu=0.0)
        with pytest.raises(ParameterError):
            IcfConfig(clip_ratio_db=4.0, iterations=0, oversample_factor=4)
        with pytest.raises(ParameterError):
            IcfConfig(clip_ratio_db=4.0, iterations=3, oversample_factor=1)
