"""MMSE equalization, DD noise tracking, and error counting."""

import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otfs_papr import (ChannelRealization, EqualizerError, ExperimentConfig,
                       FrameParams, InstanceTooLargeError, ParameterError,
                       PathProfile, PskAlphabet, apply_channel,
                       channel, channel_blocks, count_errors,
                       dd_noise_variance, demodulate, dense_synthesis_matrix,
                       effective_dd_matrix, experiment, mmse_equalize,
                       modulate, receiver)
from otfs_papr.channel import (ETU300_PROFILE, add_noise, block_size,
                               sample_channels, time_domain_matrix, unit_noise)
from otfs_papr.experiment import run_error_rate
from otfs_papr.frame import DENSE_MAX_SIZE, symbols_to_bits
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
            w = add_noise(np.zeros(params.size, complex), sigma2,
                          unit_noise(params.size, rng))
            collected.append(demodulate(w, params))
        observed = np.mean(np.abs(np.concatenate(collected)) ** 2)
        assert observed == pytest.approx(dd_noise_variance(sigma2, params), rel=0.03)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            dd_noise_variance(-0.1, FrameParams(M=2, N=2))


class TestMmseEqualize:
    def test_identity_channel_zero_noise_passthrough(self):
        y = np.array([1.0 + 2j, -0.5, 3j])
        out = mmse_equalize(np.eye(3), y, 0.0)
        assert np.allclose(out, y, atol=1e-12)

    def test_identity_channel_scalar_shrinkage(self):
        y = np.exp(1j * np.array([0.1, 2.0, -1.3]))
        sigma2 = 0.25
        out = mmse_equalize(np.eye(3), y, sigma2)
        assert np.allclose(out, y / (1 + sigma2), atol=1e-12)
        assert np.allclose(np.angle(out), np.angle(y))

    def test_noiseless_random_channel_recovers_input(self):
        params = FrameParams(M=4, N=4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
            H = effective_dd_matrix(ch, params)
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            y = demodulate(apply_channel(modulate(x, params), ch, params), params)
            x_hat = mmse_equalize(H, y, 0.0)
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_phase_equivariance(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = mmse_equalize(H, y, 0.3)
        phi = np.exp(0.77j)
        rotated = mmse_equalize(phi * H, phi * y, 0.3)
        assert np.allclose(base, rotated, atol=1e-12)

    def test_converges_to_zero_forcing(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H += 4.0 * np.eye(8)  # keep it well conditioned
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = H @ x
        zf = np.linalg.solve(H, y)
        near = mmse_equalize(H, y, 1e-12)
        assert np.max(np.abs(near - zf)) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            mmse_equalize(np.eye(4), np.ones(3), 0.0)
        with pytest.raises(ParameterError):
            mmse_equalize(np.eye(3), np.ones(3), -1.0)  # sigma2_dd < 0
        with pytest.raises(ParameterError):
            mmse_equalize(np.eye(3), np.ones(3), float("nan"))  # 0 / Es, Es = 0
        with pytest.raises(EqualizerError, match="solve failed"):
            mmse_equalize(np.zeros((3, 3)), np.ones(3), 0.0)  # singular Gram
        with pytest.raises(EqualizerError, match="non-finite"):
            mmse_equalize(np.eye(3), np.array([1.0, np.nan, 1.0]), 0.1)


def random_channel(M, n_taps, rng):
    return ChannelRealization(
        gains=rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps),
        delay_taps=rng.integers(0, M, n_taps),
        doppler_hz=rng.uniform(-3000.0, 3000.0, n_taps))


def oracle_channel(params, n_taps, taps, rng):
    """A random channel whose taps are drawn below MN ("random"), all 0
    (L = 0, no coupling between blocks), or drawn with one at M - 1
    ("top", the largest L with blocks of M samples where M <= 16), at
    MN/2 - 1 ("half", two blocks where MN is even and N > 1) or at MN - 1
    ("last", one block)."""
    ch = random_channel(params.size, n_taps, rng)
    if taps == "zero":
        return replace(ch, delay_taps=np.zeros(n_taps, dtype=np.int64))
    top = {"top": params.M - 1, "half": max(params.size // 2 - 1, 0),
           "last": params.size - 1}.get(taps)
    if top is not None:
        return replace(ch, delay_taps=np.r_[top, ch.delay_taps[1:]])
    return ch


def assert_blocks_of_dense_matrix(blocks, ch, params):
    """D and the E corners are bit for bit the blocks of the dense
    time-domain matrix, which is zero outside D and those corners."""
    J, b = blocks.D.shape[:2]
    L = int(np.max(ch.delay_taps, initial=0))
    assert blocks.D.shape == (J, b, b) and blocks.E.shape == (J, L, L)
    H = time_domain_matrix(ch, params).reshape(J, b, J, b)
    j = np.arange(J)
    lower = np.zeros((J, b, b), dtype=complex)
    lower[:, :L, b - L:] = blocks.E
    if J == 1:
        assert np.array_equal(blocks.D + lower, H[j, :, j])
    else:
        assert np.array_equal(blocks.D, H[j, :, j])
        assert np.array_equal(lower, H[j, :, j - 1])
    H[j, :, j] = 0
    H[j, :, j - 1] = 0
    assert not H.any()


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 4),
       st.sampled_from(["random", "zero", "top", "half", "last"]),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                min_size=1, max_size=5, unique=True),
       st.integers(0, 2 ** 32 - 1))
@example(M=1, N=1, n_taps=1, taps="zero", loadings=[0.5], seed=0)
@example(M=5, N=1, n_taps=3, taps="top", loadings=[0.0, 0.1, 2.0], seed=1)
@example(M=6, N=2, n_taps=2, taps="top", loadings=[1.0, 0.0], seed=2)
@example(M=7, N=2, n_taps=4, taps="random", loadings=[0.3, 0.0, 5.0, 0.01, 1.0],
         seed=3)
@example(M=8, N=5, n_taps=3, taps="zero", loadings=[0.0, 0.2], seed=4)
@example(M=12, N=6, n_taps=4, taps="top", loadings=[0.0, 0.5, 1e-3, 3.0, 10.0],
         seed=5)
@example(M=4, N=3, n_taps=1, taps="half", loadings=[0.2, 0.0], seed=6)
@example(M=2, N=2, n_taps=2, taps="last", loadings=[0.1], seed=7)
def test_block_solve_matches_dense_oracle(M, N, n_taps, taps, loadings, seed):
    """A stack of systems on one channel, one per loading.

    Each row is bit for bit what the system gives solved alone, and
    satisfies the time-domain normal equations to a backward error of
    1e-12.  It matches the dense oracle to 1e-9 wherever the normal
    equations are well conditioned: at every loading >= 1e-3, and at
    loading 0 when cond(H) <= 1e3.  (At loading 0 the two solvers differ
    by up to about cond(H)^2 times the rounding error.)  Taps reach up to
    MN - 1, so the blocks are often not M samples long; one block and two
    blocks run the folded cyclic corner blocks.
    """
    params = FrameParams(M=M, N=N)
    rng = np.random.default_rng(seed)
    ch = oracle_channel(params, n_taps, taps, rng)
    blocks = channel_blocks(ch, params)
    L = int(ch.delay_taps.max())
    J, b = blocks.D.shape[:2]
    assert b == block_size(ch.delay_taps, params) and J * b == params.size
    assert_blocks_of_dense_matrix(blocks, ch, params)
    s = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    s_blocks = s.reshape(J, b, 1)
    via_blocks = blocks.D @ s_blocks
    via_blocks[:, :L] += blocks.E @ np.roll(s_blocks, 1, axis=0)[:, b - L:]
    assert np.allclose(via_blocks.reshape(-1), apply_channel(s, ch, params),
                       rtol=0, atol=1e-12 * np.linalg.norm(s))
    loadings = np.array(loadings)
    r = rng.standard_normal((len(loadings), params.size)) \
        + 1j * rng.standard_normal((len(loadings), params.size))
    z = block_mmse_equalize(blocks, r, loadings)
    H = time_domain_matrix(ch, params)
    H_eff = effective_dd_matrix(ch, params)
    well_conditioned = np.linalg.cond(H_eff) <= 1e3
    for z_i, r_i, loading in zip(z, r, loadings):
        assert np.array_equal(z_i, block_mmse_equalize(blocks, r_i, loading))
        A = H.conj().T @ H + loading * np.eye(params.size)
        b = H.conj().T @ r_i
        assert np.linalg.norm(A @ z_i - b) <= 1e-12 * (
            np.linalg.norm(A, 2) * np.linalg.norm(z_i) + np.linalg.norm(b))
        if loading > 0 or well_conditioned:
            want = mmse_equalize(H_eff, demodulate(r_i, params), loading)
            got = demodulate(z_i, params)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("M, N, taps, b", [
    (16, 16, [0, 1], 16),     # ETU-300 at 16x16: blocks of M
    (8, 8, [], 8),            # no path: L = 0
    (1, 1, [0], 1),
    (64, 16, [0, 5], 16),     # ETU-300 at 64x16: 64 blocks of 16
    (32, 16, [0, 2], 16),
    (24, 2, [1], 16),         # a block size that does not divide M
    (17, 1, [0], 17),         # MN prime: one block
    (16, 4, [0, 5, 17], 32),  # a tap beyond M
    (4, 3, [0, 4], 6),
    (2, 2, [3], 4),           # tap MN - 1: one block
    (7, 5, [9], 35),
])
def test_block_size_rule(M, N, taps, b):
    """The smallest divisor of MN that is >= min(M, 16) and above every tap."""
    assert block_size(np.array(taps, dtype=np.int64), FrameParams(M=M, N=N)) == b


def test_blocks_below_m_are_the_m_sample_blocks():
    """With every tap below M <= 16, the blocks are the N blocks of M
    samples: D and the (N, L, L) corners E bit for bit the blocks of the
    dense time-domain matrix, which is zero outside them."""
    rng = np.random.default_rng(12)
    for _ in range(120):
        params = FrameParams(M=int(rng.integers(1, 17)), N=int(rng.integers(1, 9)))
        M, N = params.M, params.N
        ch = random_channel(M, int(rng.integers(1, 5)), rng)
        blocks = channel_blocks(ch, params)
        assert blocks.D.shape == (N, M, M)
        assert_blocks_of_dense_matrix(blocks, ch, params)


@pytest.mark.parametrize("M", [32, 64])
def test_blocks_of_sixteen_match_dense_oracle(M):
    """ETU-300 at Mx16 takes blocks of 16 samples, not M, and agrees
    with the dense DD solve to 1e-12."""
    params = FrameParams(M=M, N=16)
    rng = np.random.default_rng(M)
    ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
    blocks = channel_blocks(ch, params)
    assert blocks.D.shape == (params.size // 16, 16, 16)
    loadings = np.array([0.05, 1e-3])
    r = rng.standard_normal((2, params.size)) + 1j * rng.standard_normal((2, params.size))
    z = block_mmse_equalize(blocks, r, loadings)
    H_eff = effective_dd_matrix(ch, params)
    for z_i, r_i, loading in zip(z, r, loadings):
        want = mmse_equalize(H_eff, demodulate(r_i, params), loading)
        got = demodulate(z_i, params)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_failing_system_fails_alone():
    """A singular pivot or a non-finite frame turns only its own row to
    NaN; every other row is what it is solved alone."""
    params = FrameParams(M=6, N=4)
    rng = np.random.default_rng(8)
    r = rng.standard_normal((4, params.size)) + 1j * rng.standard_normal((4, params.size))
    # No path at all: at loading 0 every pivot is the zero matrix.
    silent = ChannelRealization(gains=np.zeros(2, complex),
                                delay_taps=np.array([0, 2]), doppler_hz=np.zeros(2))
    loadings = np.array([0.3, 0.0, 1.0, 0.0])
    z = block_mmse_equalize(channel_blocks(silent, params), r, loadings)
    assert np.isnan(z[[1, 3]]).all()
    assert np.array_equal(z[[0, 2]], np.zeros((2, params.size)))
    blocks = channel_blocks(random_channel(params.M, 3, rng), params)
    r[2, 5] = np.nan
    loadings = np.array([0.3, 0.0, 1.0, 0.2])
    z = block_mmse_equalize(blocks, r, loadings)
    assert np.isnan(z[2]).all()
    for i in (0, 1, 3):
        assert np.isfinite(z[i]).all()
        assert np.array_equal(z[i], block_mmse_equalize(blocks, r[i], loadings[i]))


# Each MMSE solver on (channel, params, received frame, loading).
SOLVERS = {
    "dense": lambda ch, params, r, loading: mmse_equalize(
        effective_dd_matrix(ch, params), demodulate(r, params), loading),
    "block": lambda ch, params, r, loading: block_mmse_equalize(
        channel_blocks(ch, params), r, loading),
}


@pytest.mark.parametrize("loading", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_bad_loading_rejected(solver, loading):
    """A negative loading makes the normal equations indefinite and a
    non-finite one leaves no estimate; both solvers refuse them."""
    params = FrameParams(M=4, N=3)
    rng = np.random.default_rng(6)
    ch = random_channel(params.M, 2, rng)
    r = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    with pytest.raises(ParameterError, match="loading"):
        SOLVERS[solver](ch, params, r, loading)


class TestBlockMmseEqualize:
    def test_noiseless_random_channel_recovers_input(self):
        params = FrameParams(M=8, N=4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0]
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            r = apply_channel(modulate(x, params), ch, params)
            x_hat = demodulate(block_mmse_equalize(channel_blocks(ch, params), r, 0.0),
                               params)
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_tap_at_or_above_m_matches_dense_oracle(self):
        params = FrameParams(M=4, N=3)
        rng = np.random.default_rng(9)
        ch = ChannelRealization(gains=rng.standard_normal(2) + 1j * rng.standard_normal(2),
                                delay_taps=np.array([0, 4]),
                                doppler_hz=np.array([0.0, 700.0]))
        blocks = channel_blocks(ch, params)
        assert blocks.D.shape == (2, 6, 6)
        r = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
        got = demodulate(block_mmse_equalize(blocks, r, 0.1), params)
        want = mmse_equalize(effective_dd_matrix(ch, params), demodulate(r, params), 0.1)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_tap_at_or_above_mn_rejected(self):
        params = FrameParams(M=4, N=3)
        ch = ChannelRealization(gains=np.ones(2, complex),
                                delay_taps=np.array([0, 12]), doppler_hz=np.zeros(2))
        with pytest.raises(ParameterError, match="tap 12 is not below MN=12"):
            channel_blocks(ch, params)

    def test_long_delay_profile_matches_dense_oracle(self, monkeypatch):
        """70 us at 16 x 15 kHz is tap 17, beyond M: the run takes blocks
        of 32 samples, and every row it solves matches the dense oracle."""
        solved = []

        def blocks_with_channel(ch, params):
            return ch, params, channel_blocks(ch, params)

        def checked_solve(built, r, loading):
            ch, params, blocks = built
            assert blocks.D.shape == (2, 32, 32)
            z = block_mmse_equalize(blocks, r, loading)
            H_eff = effective_dd_matrix(ch, params)
            for z_i, r_i, c in zip(z, r, loading):
                want = mmse_equalize(H_eff, demodulate(r_i, params), c)
                got = demodulate(z_i, params)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            solved.append(len(z))
            return z

        monkeypatch.setattr(experiment, "channel_blocks", blocks_with_channel)
        monkeypatch.setattr(experiment, "block_mmse_equalize", checked_solve)
        cfg = ExperimentConfig(M=16, N=4, frames=2, snr_db_list=(10.0,),
                               method="none,proposed",
                               profile=PathProfile((0.0, 70_000.0), (0.0, -3.0)))
        result = run_error_rate(cfg)
        assert solved == [2, 2]
        assert all(p.frames == 2 and p.skipped_frames == 0 for p in result.points)

    def test_delay_of_a_frame_fails_before_any_frame(self, monkeypatch):
        frames = []
        monkeypatch.setattr(experiment, "_chunks",
                            lambda *a: frames.append(a) or iter(()))
        # 300 us at 16 x 15 kHz is tap 72, beyond the frame's 64 samples.
        cfg = ExperimentConfig(M=16, N=4, frames=2, snr_db_list=(10.0,),
                               profile=PathProfile((0.0, 300_000.0), (0.0, -3.0)))
        with pytest.raises(ParameterError, match="tap 72 is not below MN=64"):
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
        with pytest.raises(ParameterError, match="one loading per frame"):
            block_mmse_equalize(blocks, np.ones((2, 4)), 0.1)
        with pytest.raises(ParameterError, match="one loading per frame"):
            block_mmse_equalize(blocks, np.ones((2, 4)), [0.1, 0.2, 0.3])


def test_stack_allocates_less_than_a_copy_of_the_gram_blocks_per_row():
    """The recursion builds each loaded pivot when it reaches it, so a
    stack of S rows at 64x16 allocates less than S copies of the (N, M, M)
    Gram blocks, S*N*M^2*16 bytes."""
    params = FrameParams(M=64, N=16)
    rng = np.random.default_rng(15)
    blocks = channel_blocks(sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0], params)
    S = 4
    r = rng.standard_normal((S, params.size)) + 1j * rng.standard_normal((S, params.size))
    loading = np.full(S, 0.05)
    tracemalloc.start()
    try:
        z = block_mmse_equalize(blocks, r, loading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(z).all()
    assert peak < S * params.N * params.M ** 2 * 16


def test_one_row_at_64x16_allocates_less_than_one_stack_of_m_by_m_blocks():
    """ETU-300 at 64x16 takes blocks of 16 samples, and the solve forms
    H^H r without an adjoint copy of D and each Gram block only when it
    reaches it, so one row allocates less than one (N, M, M) complex
    stack, N*M^2*16 bytes."""
    params = FrameParams(M=64, N=16)
    rng = np.random.default_rng(16)
    blocks = channel_blocks(sample_channels(ETU300_PROFILE, (300.0,), params, rng)[0], params)
    r = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    tracemalloc.start()
    try:
        z = block_mmse_equalize(blocks, r, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(z).all()
    assert peak < params.N * params.M ** 2 * 16


def test_building_the_blocks_at_64x16_allocates_less_than_two_stacks_of_blocks():
    """channel_blocks keeps D and only the L x L corners E, and forms no
    Gram product, so a build at 64x16 (64 blocks of 16) allocates less
    than two (J, b, b) complex stacks, 2*J*b^2*16 bytes."""
    params = FrameParams(M=64, N=16)
    ch = sample_channels(ETU300_PROFILE, (300.0,), params, np.random.default_rng(17))[0]
    tracemalloc.start()
    try:
        blocks = channel_blocks(ch, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    J, b = blocks.D.shape[:2]
    assert (J, b) == (64, 16) and blocks.E.shape == (J, 5, 5)
    assert peak < 2 * J * b * b * 16


class TestDenseSizeGuards:
    def test_dense_oracles_refuse_large_grids(self):
        params = FrameParams(M=64, N=64)
        ch = sample_channels(ETU300_PROFILE, (300.0,), params, np.random.default_rng(0))[0]
        for build in (lambda: time_domain_matrix(ch, params),
                      lambda: effective_dd_matrix(ch, params),
                      lambda: dense_synthesis_matrix(params)):
            with pytest.raises(InstanceTooLargeError, match="268 MB"):
                build()
        n = DENSE_MAX_SIZE + 1
        # A read-only broadcast view, so the test allocates no n x n array.
        H = np.broadcast_to(np.zeros(1, complex), (n, n))
        with pytest.raises(InstanceTooLargeError):
            mmse_equalize(H, np.zeros(n, complex), 0.1)

    def test_limit_admits_64_by_16(self):
        params = FrameParams(M=64, N=16)
        assert params.size == DENSE_MAX_SIZE
        assert dense_synthesis_matrix(params).shape == (1024, 1024)


QPSK = PskAlphabet(D=4)


class TestCountErrors:
    def test_identical_sequences(self):
        c = count_errors([0, 1, 2, 3], [0, 1, 2, 3], QPSK)
        assert c.symbol_errors == 0 and c.bit_errors == 0
        assert c.symbols == 4 and c.bits == 8
        assert c.ser == 0.0 and c.ber == 0.0

    def test_bpsk_single_flip(self):
        truth = np.zeros(256, dtype=int)
        detected = truth.copy()
        detected[17] = 1
        c = count_errors(detected, truth, PskAlphabet(D=2))
        assert c.ser == pytest.approx(1 / 256)
        assert c.ber == pytest.approx(1 / 256)

    def test_qpsk_adjacent_symbols_differ_in_one_bit(self):
        c = count_errors([1], [0], QPSK)
        assert c.symbol_errors == 1 and c.bit_errors == 1
        opposite = count_errors([2], [0], QPSK)
        assert opposite.bit_errors == 2  # Gray: antipodal differs in both bits

    def test_accumulation(self):
        a = count_errors([0, 1], [0, 0], QPSK)
        b = count_errors([3], [0], QPSK)
        total = a + b
        assert total.symbols == 3 and total.symbol_errors == 2
        assert total.bits == 6

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            count_errors([0, 1], [0], PskAlphabet(D=2))
        with pytest.raises(ParameterError):
            count_errors([[0, 1]], [0], PskAlphabet(D=2))

    def test_stack_counts_each_row_against_one_truth(self):
        """One ErrorCounts a row, of Python ints, each the row's lone
        count, so rows compare and add as single counts do."""
        detected = np.array([[0, 1, 2, 3], [3, 3, 3, 3], [2, 0, 0, 0]])
        truth = [0, 1, 2, 3]
        rows = count_errors(detected, truth, QPSK)
        assert rows == [count_errors(d, truth, QPSK) for d in detected]
        assert [(c.symbol_errors, c.bit_errors) for c in rows] == [(0, 0), (3, 4), (4, 6)]
        assert all(type(v) is int for c in rows for v in astuple(c))
        assert count_errors(detected[:0], truth, QPSK) == []

    @pytest.mark.parametrize("D", [2, 4, 512, 65536])
    def test_bit_errors_match_the_bit_mapping(self, D):
        """symbols_to_bits inverts the Gray bit mapping, so the bits that
        differ between its two outputs are the bit errors."""
        alphabet = PskAlphabet(D=D)
        rng = np.random.default_rng(D)
        n = 300
        truth = rng.integers(0, D, n)
        detected = np.where(rng.random(n) < 0.5, rng.integers(0, D, n), truth)
        c = count_errors(detected, truth, alphabet)
        assert c.bit_errors == np.count_nonzero(
            symbols_to_bits(detected, alphabet) != symbols_to_bits(truth, alphabet))
        assert c.bits == n * int(np.log2(D))
        assert c.symbol_errors == np.count_nonzero(detected != truth)
