"""MMSE equalization, DD noise tracking, and error counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_papr import (ChannelRealization, EqualizerInput, ExperimentConfig,
                       FrameParams, InstanceTooLargeError, ParameterError,
                       PathProfile, add_awgn, apply_channel, channel,
                       channel_blocks, count_errors, dd_noise_variance,
                       demodulate, dense_synthesis_matrix,
                       effective_dd_matrix, experiment, mmse_equalize,
                       modulate, receiver, sample_channel)
from otfs_papr.channel import ETU300_PROFILE, time_domain_matrix
from otfs_papr.experiment import run_error_rate
from otfs_papr.frame import DENSE_MAX_SIZE
from otfs_papr.receiver import block_mmse_equalize


class TestDdNoiseVariance:
    def test_single_doppler_bin_is_identity(self):
        assert dd_noise_variance(0.8, FrameParams(M=4, N=1)) == 0.8

    def test_zero_in_zero_out(self):
        assert dd_noise_variance(0.0, FrameParams(M=4, N=4)) == 0.0

    def test_scaling_matches_demodulated_noise(self):
        params = FrameParams(M=50, N=20)
        rng = np.random.default_rng(0)
        sigma2 = 0.9
        collected = []
        for _ in range(100):
            w = add_awgn(np.zeros(params.size, complex), sigma2, rng)
            collected.append(demodulate(w, params))
        observed = np.mean(np.abs(np.concatenate(collected)) ** 2)
        assert observed == pytest.approx(dd_noise_variance(sigma2, params), rel=0.03)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            dd_noise_variance(-0.1, FrameParams(M=2, N=2))


class TestMmseEqualize:
    def test_identity_channel_zero_noise_passthrough(self):
        y = np.array([1.0 + 2j, -0.5, 3j])
        out = mmse_equalize(EqualizerInput(y=y, H_eff=np.eye(3), sigma2_dd=0.0, Es=1.0))
        assert np.allclose(out, y, atol=1e-12)

    def test_identity_channel_scalar_shrinkage(self):
        y = np.exp(1j * np.array([0.1, 2.0, -1.3]))
        sigma2 = 0.25
        out = mmse_equalize(EqualizerInput(y=y, H_eff=np.eye(3), sigma2_dd=sigma2, Es=1.0))
        assert np.allclose(out, y / (1 + sigma2), atol=1e-12)
        assert np.allclose(np.angle(out), np.angle(y))

    def test_noiseless_random_channel_recovers_input(self):
        params = FrameParams(M=4, N=4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            ch = sample_channel(ETU300_PROFILE, 300.0, params, rng)
            H = effective_dd_matrix(ch, params)
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            y = demodulate(apply_channel(modulate(x, params), ch, params), params)
            x_hat = mmse_equalize(EqualizerInput(y=y, H_eff=H, sigma2_dd=0.0, Es=1.0))
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_phase_equivariance(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = mmse_equalize(EqualizerInput(y=y, H_eff=H, sigma2_dd=0.3, Es=1.0))
        phi = np.exp(0.77j)
        rotated = mmse_equalize(EqualizerInput(y=phi * y, H_eff=phi * H,
                                               sigma2_dd=0.3, Es=1.0))
        assert np.allclose(base, rotated, atol=1e-12)

    def test_converges_to_zero_forcing(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H += 4.0 * np.eye(8)  # keep it well conditioned
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = H @ x
        zf = np.linalg.solve(H, y)
        near = mmse_equalize(EqualizerInput(y=y, H_eff=H, sigma2_dd=1e-12, Es=1.0))
        assert np.max(np.abs(near - zf)) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            mmse_equalize(EqualizerInput(y=np.ones(3), H_eff=np.eye(4),
                                         sigma2_dd=0.0, Es=1.0))
        with pytest.raises(ParameterError):
            EqualizerInput(y=np.ones(3), H_eff=np.eye(3), sigma2_dd=-1.0, Es=1.0)
        with pytest.raises(ParameterError):
            EqualizerInput(y=np.ones(3), H_eff=np.eye(3), sigma2_dd=0.0, Es=0.0)


def random_channel(M, n_taps, rng):
    return ChannelRealization(
        gains=rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps),
        delay_taps=rng.integers(0, M, n_taps),
        doppler_hz=rng.uniform(-3000.0, 3000.0, n_taps))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 4),
       st.floats(1e-3, 10.0), st.integers(0, 2 ** 32 - 1))
def test_block_solve_matches_dense_oracle(M, N, n_taps, loading, seed):
    """N = 1 and N = 2 run the folded cyclic corner blocks."""
    params = FrameParams(M=M, N=N)
    rng = np.random.default_rng(seed)
    ch = random_channel(M, n_taps, rng)
    blocks = channel_blocks(ch, params)
    s = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    s_blocks = s.reshape(N, M, 1)
    via_blocks = blocks.D @ s_blocks + blocks.E @ np.roll(s_blocks, 1, axis=0)
    assert np.allclose(via_blocks.reshape(-1), apply_channel(s, ch, params),
                       rtol=0, atol=1e-12 * np.linalg.norm(s))
    r = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    want = mmse_equalize(EqualizerInput(y=demodulate(r, params),
                                        H_eff=effective_dd_matrix(ch, params),
                                        sigma2_dd=loading, Es=1.0))
    got = demodulate(block_mmse_equalize(blocks, r, loading), params)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestBlockMmseEqualize:
    def test_noiseless_random_channel_recovers_input(self):
        params = FrameParams(M=8, N=4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = sample_channel(ETU300_PROFILE, 300.0, params, rng)
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            r = apply_channel(modulate(x, params), ch, params)
            x_hat = demodulate(block_mmse_equalize(channel_blocks(ch, params), r, 0.0),
                               params)
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_tap_at_or_above_m_rejected(self):
        params = FrameParams(M=4, N=3)
        ch = ChannelRealization(gains=np.ones(2, complex),
                                delay_taps=np.array([0, 4]), doppler_hz=np.zeros(2))
        with pytest.raises(ParameterError, match="tap 4 is not below M=4"):
            channel_blocks(ch, params)

    def test_long_delay_profile_fails_before_any_frame(self, monkeypatch):
        frames = []
        monkeypatch.setattr(experiment, "_frames",
                            lambda *a: frames.append(a) or iter(()))
        # 70 us at 16 x 15 kHz is tap 17.
        cfg = ExperimentConfig(M=16, N=4, frames=2, snr_db_list=(10.0,),
                               profile=PathProfile((0.0, 70_000.0), (0.0, -3.0)))
        with pytest.raises(ParameterError, match="tap 17 is not below M=16"):
            run_error_rate(cfg)
        assert frames == []

    def test_error_points_build_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense oracle called on the error-rate path")

        for module in (channel, receiver, experiment):
            for name in ("effective_dd_matrix", "time_domain_matrix", "mmse_equalize"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        cfg = ExperimentConfig(M=8, N=4, frames=3, seed=5, profile="etu300",
                               nu_max_hz=300.0, snr_db_list=(10.0, float("inf")),
                               method="none,proposed,companding,icf,dft")
        result = run_error_rate(cfg)
        assert all(p.frames == 3 and p.skipped_frames == 0 for p in result.points)

    def test_input_validation(self):
        blocks = channel_blocks(random_channel(2, 1, np.random.default_rng(0)),
                                FrameParams(M=2, N=2))
        with pytest.raises(ParameterError):
            block_mmse_equalize(blocks, np.ones(3), 0.1)


class TestDenseSizeGuards:
    def test_dense_oracles_refuse_large_grids(self):
        params = FrameParams(M=64, N=64)
        ch = sample_channel(ETU300_PROFILE, 300.0, params, np.random.default_rng(0))
        for build in (lambda: time_domain_matrix(ch, params),
                      lambda: effective_dd_matrix(ch, params),
                      lambda: dense_synthesis_matrix(params)):
            with pytest.raises(InstanceTooLargeError, match="268 MB"):
                build()
        n = DENSE_MAX_SIZE + 1
        # A read-only broadcast view, so the test allocates no n x n array.
        H = np.broadcast_to(np.zeros(1, complex), (n, n))
        with pytest.raises(InstanceTooLargeError):
            mmse_equalize(EqualizerInput(y=np.zeros(n, complex), H_eff=H,
                                         sigma2_dd=0.1, Es=1.0))

    def test_limit_admits_64_by_16(self):
        params = FrameParams(M=64, N=16)
        assert params.size == DENSE_MAX_SIZE
        assert dense_synthesis_matrix(params).shape == (1024, 1024)


class TestCountErrors:
    def test_identical_sequences(self):
        c = count_errors([0, 1, 2, 3], [0, 1, 2, 3], D=4)
        assert c.symbol_errors == 0 and c.bit_errors == 0
        assert c.symbols == 4 and c.bits == 8
        assert c.ser == 0.0 and c.ber == 0.0

    def test_bpsk_single_flip(self):
        truth = np.zeros(256, dtype=int)
        detected = truth.copy()
        detected[17] = 1
        c = count_errors(detected, truth, D=2)
        assert c.ser == pytest.approx(1 / 256)
        assert c.ber == pytest.approx(1 / 256)

    def test_qpsk_adjacent_symbols_differ_in_one_bit(self):
        c = count_errors([1], [0], D=4)
        assert c.symbol_errors == 1 and c.bit_errors == 1
        opposite = count_errors([2], [0], D=4)
        assert opposite.bit_errors == 2  # Gray: antipodal differs in both bits

    def test_accumulation(self):
        a = count_errors([0, 1], [0, 0], D=4)
        b = count_errors([3], [0], D=4)
        total = a + b
        assert total.symbols == 3 and total.symbol_errors == 2
        assert total.bits == 6

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            count_errors([0, 1], [0], D=2)
