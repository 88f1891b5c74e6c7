"""Tapped-delay-line channel, DD-domain matrix, and noise calibration."""

import numpy as np
import pytest

from otfs_papr import (ETU300_PROFILE, ChannelRealization, FrameParams,
                       ParameterError, PathProfile, apply_channel,
                       calibrate_noise, demodulate, effective_dd_matrix,
                       identity_channel, modulate, named_profile)
from otfs_papr.channel import (add_noise, finite_noise, sample_channels,
                               time_domain_matrix, unit_noise)


def fixed_channel(gains, taps, dopplers):
    return ChannelRealization(gains=np.asarray(gains, complex),
                              delay_taps=np.asarray(taps, np.int64),
                              doppler_hz=np.asarray(dopplers, float))


class TestPathProfile:
    def test_etu_profile_shape(self):
        assert len(ETU300_PROFILE.delays_ns) == 9
        assert ETU300_PROFILE.delays_ns[-1] == 5000.0
        assert named_profile("etu300") is ETU300_PROFILE

    def test_validation(self):
        with pytest.raises(ParameterError):
            PathProfile((0.0, 100.0), (0.0,))
        with pytest.raises(ParameterError):
            PathProfile((100.0, 0.0), (0.0, 0.0))
        with pytest.raises(ParameterError):
            PathProfile((-5.0,), (0.0,))
        with pytest.raises(ParameterError, match="at least one path"):
            PathProfile((), ())
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParameterError, match="delays_ns must be finite"):
                PathProfile((0.0, bad), (0.0, 0.0))
            with pytest.raises(ParameterError, match="powers_db must be finite"):
                PathProfile((0.0, 50.0), (0.0, bad))
        with pytest.raises(ParameterError):
            named_profile("nosuch")


class TestSampleChannel:
    def test_etu_delay_taps_at_default_grid(self):
        params = FrameParams(M=16, N=16, delta_f=15e3)
        ch = sample_channels(ETU300_PROFILE, (300.0,), params, np.random.default_rng(0))[0]
        assert ch.delay_taps.tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 1]

    def test_zero_doppler_limit(self):
        params = FrameParams(M=16, N=16)
        ch = sample_channels(ETU300_PROFILE, (0.0,), params, np.random.default_rng(1))[0]
        assert np.all(ch.doppler_hz == 0.0)

    def test_doppler_bounded_by_maximum(self):
        params = FrameParams(M=8, N=8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            ch = sample_channels(ETU300_PROFILE, (700.0,), params, rng)[0]
            assert np.all(np.abs(ch.doppler_hz) <= 700.0)

    def test_gain_normalization_statistics(self):
        params = FrameParams(M=16, N=16)
        rng = np.random.default_rng(3)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
            total += np.sum(np.abs(ch.gains) ** 2)
        assert total / draws == pytest.approx(1.0, abs=0.02)

    def test_single_path_profile(self):
        params = FrameParams(M=16, N=16)
        profile = named_profile("single-path")
        rng = np.random.default_rng(4)
        power = np.mean([np.abs(sample_channels(profile, (0.0,), params, rng)[0].gains[0]) ** 2
                         for _ in range(10_000)])
        assert power == pytest.approx(1.0, abs=0.03)
        ch = sample_channels(profile, (0.0,), params, rng)[0]
        assert ch.delay_taps.tolist() == [0]

    def test_dopplers_share_one_draw(self):
        """Each maximum Doppler gets the one draw of gains and angles that
        a lone maximum Doppler gets: only nu_max*cos(theta) differs."""
        params = FrameParams(M=16, N=4)
        chs = sample_channels(ETU300_PROFILE, (0.0, 300.0, 1200.0), params,
                              np.random.default_rng(5))
        alone = sample_channels(ETU300_PROFILE, (300.0,), params, np.random.default_rng(5))[0]
        for a, b in zip((chs[1].gains, chs[1].delay_taps, chs[1].doppler_hz),
                        (alone.gains, alone.delay_taps, alone.doppler_hz)):
            assert np.array_equal(a, b)
        assert all(np.array_equal(ch.gains, alone.gains) for ch in chs)
        assert np.all(chs[0].doppler_hz == 0.0)
        assert np.array_equal(chs[2].doppler_hz, 4.0 * chs[1].doppler_hz)
        with pytest.raises(ParameterError, match="nu_max must be >= 0"):
            sample_channels(ETU300_PROFILE, (0.0, -1.0), params, np.random.default_rng(5))

    @pytest.mark.parametrize("powers_db, variances", [
        ((0.0, 4000.0), (0.0, 1.0)),  # 10^400 overflows a float
        ((-4000.0, -4000.0), (0.5, 0.5)),  # 10^-400 underflows to 0
    ])
    def test_extreme_finite_powers_give_finite_variances(self, powers_db, variances):
        ch = sample_channels(PathProfile((0.0, 100.0), powers_db), (0.0,),
                             FrameParams(M=4, N=4), np.random.default_rng(7))[0]
        rng = np.random.default_rng(7)
        unit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(ch.gains, np.sqrt(np.array(variances) / 2.0) * unit,
                           rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("nu_max", [float("nan"), float("inf")])
    def test_non_finite_nu_max_rejected(self, nu_max):
        with pytest.raises(ParameterError, match="nu_max must be >= 0 and finite"):
            sample_channels(ETU300_PROFILE, (nu_max,), FrameParams(M=4, N=4),
                            np.random.default_rng(6))[0]


class TestApplyChannel:
    def test_identity_channel_passthrough(self):
        params = FrameParams(M=4, N=4)
        s = np.arange(16, dtype=complex)
        assert np.allclose(apply_channel(s, identity_channel(), params), s)

    def test_pure_doppler_rotation(self):
        params = FrameParams(M=4, N=4)
        s = np.ones(16, dtype=complex)
        nu = 777.0
        ch = fixed_channel([1.0], [0], [nu])
        expected = np.exp(2j * np.pi * nu * np.arange(16) * params.Ts)
        assert np.allclose(apply_channel(s, ch, params), expected)

    def test_pure_delay_is_circular_shift(self):
        params = FrameParams(M=4, N=2)
        s = np.arange(8, dtype=complex)
        ch = fixed_channel([1.0], [1], [0.0])
        assert np.allclose(apply_channel(s, ch, params), np.roll(s, 1))

    def test_linear_in_signal_and_gains(self):
        params = FrameParams(M=4, N=4)
        rng = np.random.default_rng(5)
        s1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
        lhs = apply_channel(2.0 * s1 + 3j * s2, ch, params)
        rhs = 2.0 * apply_channel(s1, ch, params) + 3j * apply_channel(s2, ch, params)
        assert np.allclose(lhs, rhs)
        doubled = fixed_channel(2.0 * ch.gains, ch.delay_taps, ch.doppler_hz)
        assert np.allclose(apply_channel(s1, doubled, params),
                           2.0 * apply_channel(s1, ch, params))

    def test_dense_matrix_matches_apply(self):
        params = FrameParams(M=4, N=4)
        rng = np.random.default_rng(6)
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        ch = sample_channels(ETU300_PROFILE, (500.0,), params, rng)[0]
        H = time_domain_matrix(ch, params)
        assert np.allclose(H @ s, apply_channel(s, ch, params))

    def test_stack_matches_each_frame_bit_for_bit(self):
        """A stack of frames goes through each path's gain once; every row
        is, bit for bit, the one-frame result and the per-path sum
        h * phase * roll(s, l) written out."""
        rng = np.random.default_rng(12)
        for M, N, nu in [(4, 4, 900.0), (16, 16, 300.0), (8, 2, 2400.0), (1, 3, 50.0)]:
            params = FrameParams(M=M, N=N)
            ch = sample_channels(ETU300_PROFILE, (nu,), params, rng)[0]
            s = rng.standard_normal((5, params.size)) \
                + 1j * rng.standard_normal((5, params.size))
            stacked = apply_channel(s, ch, params)
            assert stacked.shape == s.shape
            n = np.arange(params.size)
            for s_i, r_i in zip(s, stacked):
                assert np.array_equal(r_i, apply_channel(s_i, ch, params))
                written_out = np.zeros(params.size, dtype=complex)
                for h, l, nu_i in zip(ch.gains, ch.delay_taps, ch.doppler_hz):
                    phase = np.exp(2j * np.pi * nu_i * (n - l) * params.Ts)
                    written_out += h * phase * np.roll(s_i, int(l))
                assert np.array_equal(r_i, written_out)

    def test_rejects_frames_of_the_wrong_size(self):
        params = FrameParams(M=4, N=4)
        for shape in [(15,), (2, 15), (2, 2, 16)]:
            with pytest.raises(ParameterError, match="expected frames of 16 samples"):
                apply_channel(np.ones(shape, complex), identity_channel(), params)

    def test_average_received_power_is_calibrated(self):
        # with unit-normalized gains and zero Doppler the mean power gain
        # over many draws is 1 for a constant-modulus input
        params = FrameParams(M=4, N=4)
        s = np.exp(2j * np.pi * np.arange(16) / 7.0)
        rng = np.random.default_rng(7)
        gains = [np.linalg.norm(apply_channel(
            s, sample_channels(ETU300_PROFILE, (0.0,), params, rng)[0], params)) ** 2
            / np.linalg.norm(s) ** 2 for _ in range(10_000)]
        assert np.mean(gains) == pytest.approx(1.0, abs=0.05)


class TestEffectiveDdMatrix:
    def test_identity_channel_gives_identity(self):
        params = FrameParams(M=4, N=4)
        H = effective_dd_matrix(identity_channel(), params)
        assert np.max(np.abs(H - np.eye(16))) <= 1e-10

    def test_pure_delay_two_by_two(self):
        params = FrameParams(M=2, N=2)
        ch = fixed_channel([1.0], [1], [0.0])
        H = effective_dd_matrix(ch, params)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            via_chain = demodulate(apply_channel(modulate(x, params), ch, params),
                                   params)
            assert np.allclose(H @ x, via_chain, atol=1e-12)

    def test_consistency_contract_random_cases(self):
        params = FrameParams(M=4, N=4)
        rng = np.random.default_rng(9)
        for _ in range(100):
            ch = sample_channels(ETU300_PROFILE, (1000.0,), params, rng)[0]
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            lhs = effective_dd_matrix(ch, params) @ x
            rhs = demodulate(apply_channel(modulate(x, params), ch, params), params)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_linearity_in_gains(self):
        params = FrameParams(M=2, N=4)
        rng = np.random.default_rng(10)
        ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
        doubled = fixed_channel(2.0 * ch.gains, ch.delay_taps, ch.doppler_hz)
        assert np.allclose(effective_dd_matrix(doubled, params),
                           2.0 * effective_dd_matrix(ch, params))


class TestNoise:
    def test_zero_variance_is_identity(self):
        r = np.ones(8, dtype=complex)
        out = add_noise(r, 0.0, unit_noise(np.shape(r), np.random.default_rng(0)))
        assert np.array_equal(out, r)

    def test_empirical_variance(self):
        rng = np.random.default_rng(11)
        sigma2 = 0.37
        w = add_noise(np.zeros(100_000, complex), sigma2, unit_noise(100_000, rng))
        assert np.mean(np.abs(w) ** 2) == pytest.approx(sigma2, rel=0.03)
        assert np.var(w.real) == pytest.approx(sigma2 / 2, rel=0.03)
        assert np.var(w.imag) == pytest.approx(sigma2 / 2, rel=0.03)

    def test_rejects_negative_variance(self):
        with pytest.raises(ParameterError):
            add_noise(np.ones(4, complex), -1.0, unit_noise(4, np.random.default_rng(0)))


class TestNoiseCalibration:
    def test_zero_db_matches_mean_power(self):
        r = np.array([1.0, 1j, -1.0, -1j]) * 2.0
        assert calibrate_noise(0.0, r) == pytest.approx(4.0)

    def test_ten_db(self):
        r = np.array([1.0 + 0j, 1j, -1.0, -1j])
        assert calibrate_noise(10.0, r) == pytest.approx(0.1)

    def test_infinite_snr_gives_zero(self):
        assert calibrate_noise(np.inf, np.ones(4, complex)) == 0.0

    @pytest.mark.parametrize("snr_db", [3083.0, 4000.0, 1e300])
    def test_snr_whose_ratio_overflows_gives_zero(self, snr_db):
        assert calibrate_noise(snr_db, np.ones(4, complex)) == 0.0

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan, -3083.0, -4000.0])
    def test_snr_without_finite_noise_rejected(self, snr_db):
        assert not finite_noise(snr_db)
        with pytest.raises(ParameterError, match="snr_db must not be NaN, -inf"):
            calibrate_noise(snr_db, np.ones(4, complex))

    def test_lowest_snr_with_finite_noise(self):
        assert finite_noise(-3082.0)
        assert 0 < calibrate_noise(-3082.0, np.ones(4, complex)) < np.inf

    def test_noise_overflowing_against_the_frame_rejected(self):
        """-3082 dB gives a finite variance at power 1 but not at power 4;
        the error names the SNR, not what the receiver would make of it."""
        with pytest.raises(ParameterError,
                           match=r"snr_db = -3082.0 gives an infinite noise variance"):
            calibrate_noise(-3082.0, 2.0 * np.ones(4, complex))

    def test_all_zero_frame_rejected(self):
        with pytest.raises(ParameterError):
            calibrate_noise(10.0, np.zeros(4, complex))
        with pytest.raises(ParameterError, match="all-zero frame"):
            calibrate_noise(10.0, np.array([np.ones(4), np.zeros(4)], complex))

    def test_stack_rows_over_a_dense_snr_grid(self):
        """Each row's variance is its mean power over 10 ** (snr_db / 10)
        taken on the Python float snr_db, bit for bit, at every SNR of a
        dense grid; numpy's array power differs from it in the last bit
        at some SNRs on SIMD hosts."""
        rng = np.random.default_rng(17)
        R = rng.standard_normal((5, 60)) + 1j * rng.standard_normal((5, 60))
        power = [float(np.mean(np.abs(r) ** 2)) for r in R]
        for snr_db in np.arange(-30.0, 40.0, 0.37).tolist():
            expected = [pw / 10.0 ** (snr_db / 10.0) for pw in power]
            assert calibrate_noise(snr_db, R).tolist() == expected
            assert [calibrate_noise(snr_db, r) for r in R] == expected
