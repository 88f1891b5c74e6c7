"""Greedy amplitude precoder against hand traces, the exhaustive oracle,
and a naive full-recomputation reference implementation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otfs_papr import (CorruptedStateError, FrameParams, GreedyConfig,
                       InstanceTooLargeError, ParameterError, PskAlphabet,
                       brute_force_precode, candidate_flip, detect_symbols,
                       greedy_precode, greedy_precode_batch, modulate,
                       papr)


def random_psk_frame(params, D, seed, A=1.0):
    rng = np.random.default_rng(seed)
    return A * np.exp(2j * np.pi * rng.integers(0, D, params.size) / D)


def naive_greedy(u, params, max_iter):
    """Reference implementation: full transform for every candidate."""
    u = np.asarray(u, complex)
    A = abs(u[0])
    x = u.copy()
    p_star = papr(modulate(x, params)).value_linear
    iterations = 0
    flips = []
    cap = np.inf if max_iter == 0 else max_iter
    while iterations < cap:
        iterations += 1
        values = [papr(modulate(candidate_flip(x, t, A), params)).value_linear
                  for t in range(params.size)]
        t_best = int(np.argmin(values))
        if values[t_best] < p_star:
            x = candidate_flip(x, t_best, A)
            p_star = values[t_best]
            flips.append(t_best)
        else:
            break
    return x, p_star, iterations, flips


class TestCandidateFlip:
    def test_doubles_base_amplitude(self):
        x = np.exp(1j * np.array([0.5, 1.2]))
        out = candidate_flip(x, 0, 1.0)
        assert out[0] == pytest.approx(2 * x[0])
        assert out[1] == x[1]

    def test_halves_doubled_amplitude(self):
        x = np.array([2.0 * np.exp(0.3j), 1.0])
        out = candidate_flip(x, 0, 1.0)
        assert out[0] == pytest.approx(np.exp(0.3j))

    def test_is_an_exact_involution(self):
        rng = np.random.default_rng(0)
        x = np.exp(2j * np.pi * rng.random(6))
        x[2] *= 2.0
        twice = candidate_flip(candidate_flip(x, 2, 1.0), 2, 1.0)
        assert np.array_equal(twice, x)

    def test_rejects_amplitude_off_both_rings(self):
        with pytest.raises(CorruptedStateError):
            candidate_flip(np.array([1.5 + 0j]), 0, 1.0)


class TestGreedyHandTraces:
    def test_single_symbol_stops_immediately(self):
        p = FrameParams(M=1, N=1)
        r = greedy_precode(np.array([1j]), p, GreedyConfig(max_iter=5))
        assert np.array_equal(r.x_star, [1j])
        assert r.papr_star.value_linear == pytest.approx(1.0)
        assert r.iterations_used == 1
        assert r.flips == []

    def test_two_doppler_bins_bpsk(self):
        p = FrameParams(M=1, N=2)
        r = greedy_precode(np.array([1.0 + 0j, 1.0]), p, GreedyConfig(max_iter=5))
        assert np.allclose(r.x_star, [2.0, 1.0])  # tie broken toward index 0
        assert r.papr_star.value_linear == pytest.approx(1.8)
        assert r.papr_star.value_db == pytest.approx(2.553, abs=1e-3)
        assert r.iterations_used == 2
        assert r.flips == [0]

    def test_two_by_two_constant_has_no_improving_flip(self):
        p = FrameParams(M=2, N=2)
        u = np.ones(4, dtype=complex)
        r = greedy_precode(u, p, GreedyConfig(max_iter=5))
        assert np.array_equal(r.x_star, u)
        assert r.papr_star.value_linear == pytest.approx(2.0)
        assert r.iterations_used == 1
        assert r.flips == []
        # every single flip lands at 36/14
        for t in range(4):
            flipped = papr(modulate(candidate_flip(u, t, 1.0), p)).value_linear
            assert flipped == pytest.approx(36 / 14)

    def test_rejects_non_constant_amplitude_input(self):
        with pytest.raises(ParameterError):
            greedy_precode(np.array([1.0, 2.0], complex), FrameParams(M=1, N=2),
                           GreedyConfig(max_iter=5))


class TestBruteForce:
    def test_two_symbol_tiebreak_takes_lowest_counter(self):
        p = FrameParams(M=1, N=2)
        x, value = brute_force_precode(np.array([1.0 + 0j, 1.0]), p)
        assert np.allclose(x, [2.0, 1.0])
        assert value.value_linear == pytest.approx(1.8)

    def test_single_symbol(self):
        p = FrameParams(M=1, N=1)
        u = np.array([np.exp(0.7j)])
        x, value = brute_force_precode(u, p)
        assert np.array_equal(x, u)
        assert value.value_linear == pytest.approx(1.0)

    def test_never_worse_than_uncompensated(self):
        p = FrameParams(M=4, N=2)
        for seed in range(5):
            u = random_psk_frame(p, 2, seed)
            _, value = brute_force_precode(u, p)
            assert value.value_linear <= papr(modulate(u, p)).value_linear + 1e-12

    def test_size_guard(self):
        p = FrameParams(M=7, N=3)
        with pytest.raises(InstanceTooLargeError):
            brute_force_precode(random_psk_frame(p, 2, 0), p)


GRIDS = [(2, 2, 2), (4, 2, 4), (2, 4, 2), (3, 4, 4), (4, 3, 2)]


class TestGreedyProperties:
    @pytest.mark.parametrize("M,N,D", GRIDS)
    # 0 runs to the natural stop; its id names the absent cap.
    @pytest.mark.parametrize("max_iter", [5, pytest.param(0, id="None")])
    def test_sandwich_membership_and_flip_budget(self, M, N, D, max_iter):
        p = FrameParams(M=M, N=N)
        for seed in range(8):
            u = random_psk_frame(p, D, seed)
            uncomp = papr(modulate(u, p)).value_linear
            r = greedy_precode(u, p, GreedyConfig(max_iter=max_iter))
            _, brute = brute_force_precode(u, p)
            assert brute.value_linear <= r.papr_star.value_linear * (1 + 1e-12)
            assert r.papr_star.value_linear <= uncomp * (1 + 1e-12)
            ratio = r.x_star / u
            assert np.all(np.isclose(ratio, 1.0) | np.isclose(ratio, 2.0))
            if max_iter:
                assert r.iterations_used <= max_iter
                assert len(r.flips) <= max_iter

    @pytest.mark.parametrize("M,N,D", GRIDS)
    def test_committed_sequence_strictly_decreases(self, M, N, D):
        p = FrameParams(M=M, N=N)
        for seed in range(6):
            u = random_psk_frame(p, D, seed + 50)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            x = u.copy()
            previous = papr(modulate(x, p)).value_linear
            for t in r.flips:
                x = candidate_flip(x, t, 1.0)
                current = papr(modulate(x, p)).value_linear
                assert current < previous
                previous = current
            assert np.array_equal(x, r.x_star)

    def test_reported_papr_is_recomputable(self):
        p = FrameParams(M=4, N=4)
        for seed in range(6):
            u = random_psk_frame(p, 4, seed + 9)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            assert r.papr_star.value_linear == papr(modulate(r.x_star, p)).value_linear

    def test_deterministic_for_identical_inputs(self):
        p = FrameParams(M=4, N=4)
        u = random_psk_frame(p, 4, 123)
        r1 = greedy_precode(u, p, GreedyConfig(max_iter=0))
        r2 = greedy_precode(u.copy(), p, GreedyConfig(max_iter=0))
        assert np.array_equal(r1.x_star, r2.x_star)
        assert r1.papr_star == r2.papr_star
        assert r1.flips == r2.flips

    def test_phases_and_detected_indices_preserved(self):
        p = FrameParams(M=4, N=4)
        a = PskAlphabet(D=4)
        for seed in range(4):
            u = random_psk_frame(p, 4, seed + 77)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            assert np.array_equal(detect_symbols(r.x_star, a),
                                  detect_symbols(u, a))

    def test_iteration_count_matches_flip_count_semantics(self):
        p = FrameParams(M=2, N=4)
        for seed in range(10):
            u = random_psk_frame(p, 2, seed + 200)
            r = greedy_precode(u, p, GreedyConfig(max_iter=3))
            if r.iterations_used < 3:
                # natural stop: the last pass committed nothing
                assert len(r.flips) == r.iterations_used - 1
            else:
                assert len(r.flips) in (2, 3)  # cap may cut an improving pass


class TestAgainstNaiveReference:
    """The incremental candidate engine must stay within 1e-12 of full
    recomputation.  Flip choices are only required to coincide where the
    reference minimum is unambiguous: at analytic ties the two float
    paths may break the tie at different ulp-equal indices."""

    @pytest.mark.parametrize("M,N,D", [(2, 2, 2), (4, 2, 4), (2, 4, 2),
                                       (4, 4, 4), (3, 5, 8)])
    def test_committed_flips_are_reference_minima(self, M, N, D):
        p = FrameParams(M=M, N=N)
        for seed in range(5):
            u = random_psk_frame(p, D, seed + 31)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            x = u.copy()
            for t in r.flips:
                values = np.array([
                    papr(modulate(candidate_flip(x, c, 1.0), p)).value_linear
                    for c in range(p.size)])
                vmin = values.min()
                assert values[t] <= vmin * (1 + 1e-12)
                unambiguous = np.count_nonzero(values <= vmin * (1 + 1e-9)) == 1
                if unambiguous:
                    assert t == int(np.argmin(values))
                x = candidate_flip(x, t, 1.0)

    @pytest.mark.parametrize("M,N,D", [(4, 4, 4), (2, 4, 2), (3, 5, 8)])
    def test_termination_leaves_no_improving_flip(self, M, N, D):
        p = FrameParams(M=M, N=N)
        for seed in range(5):
            u = random_psk_frame(p, D, seed + 61)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            final = r.papr_star.value_linear
            for t in range(p.size):
                flipped = papr(modulate(candidate_flip(r.x_star, t, 1.0), p))
                assert flipped.value_linear >= final * (1 - 1e-12)

    @pytest.mark.parametrize("M,N,D", [(4, 4, 4), (8, 2, 2), (5, 3, 4)])
    def test_final_value_matches_naive_when_paths_agree(self, M, N, D):
        p = FrameParams(M=M, N=N)
        agreements = 0
        for seed in range(6):
            u = random_psk_frame(p, D, seed + 97)
            r = greedy_precode(u, p, GreedyConfig(max_iter=0))
            x_ref, p_ref, it_ref, flips_ref = naive_greedy(u, p, 0)
            if r.flips == flips_ref:
                agreements += 1
                assert r.iterations_used == it_ref
                assert np.array_equal(r.x_star, x_ref)
                assert r.papr_star.value_linear == pytest.approx(p_ref, rel=1e-12)
        assert agreements >= 3  # generic frames rarely tie

    def test_exact_ties_go_to_the_lowest_flat_index(self):
        """Every ring-A flip that keeps the frame peak (outside the peak
        column, its column's new max below the peak) has the same exact
        PAPR, so a committed one must be the lowest flat index of them."""
        checked = 0
        for M, N, D, frames in [(*g, 10) for g in GRIDS] + [(16, 16, 4, 3)]:
            p = FrameParams(M=M, N=N)
            for seed in range(frames):
                u = random_psk_frame(p, D, seed)
                x = u.copy()
                for t in greedy_precode(u, p, GreedyConfig(max_iter=0)).flips:
                    power = (np.abs(modulate(x, p)) ** 2).reshape(N, M)
                    peak = power.max()
                    peak_cols = power.max(axis=0) >= peak * (1 - 1e-9)
                    keeping = [
                        c for c in range(p.size)
                        if np.isclose(abs(x[c]), 1.0) and not peak_cols[c % M]
                        and (np.abs(modulate(candidate_flip(x, c, 1.0), p)) ** 2)
                        .reshape(N, M)[:, c % M].max() < peak * (1 - 1e-9)]
                    if t in keeping:
                        assert t == keeping[0], (M, N, D, seed)
                        checked += 1
                    x = candidate_flip(x, t, 1.0)
        assert checked > 100


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([2, 4, 8]),
       st.one_of(st.just(0), st.integers(1, 5)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.0, 0.7, 2.5]))
@example(M=1, N=2, D=8, max_iter=0, seed=13003168, A=0.7)
def test_greedy_properties_over_random_shapes(M, N, D, max_iter, seed, A):
    """M = 1 or N = 1 runs the single-column and single-row edge cases."""
    p = FrameParams(M=M, N=N)
    u = random_psk_frame(p, D, seed, A)
    r = greedy_precode(u, p, GreedyConfig(max_iter=max_iter))
    assert r.papr_star.value_linear == papr(modulate(r.x_star, p)).value_linear
    assert np.all((r.x_star == u) | (r.x_star == 2 * u))
    x = u.copy()
    previous = papr(modulate(x, p)).value_linear
    for t in r.flips:
        x = candidate_flip(x, t, A)
        current = papr(modulate(x, p)).value_linear
        assert current < previous
        previous = current
    assert np.array_equal(x, r.x_star)
    if len(r.flips) < r.iterations_used:  # natural stop
        for t in range(p.size):
            flipped = papr(modulate(candidate_flip(r.x_star, t, A), p))
            assert flipped.value_linear >= previous * (1 - 1e-12)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([2, 4, 8]),
       st.sampled_from([0, 1, 3]), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
@example(M=1, N=1, D=2, max_iter=0, batch=5, seed=0)
@example(M=1, N=8, D=4, max_iter=0, batch=9, seed=1)
@example(M=8, N=1, D=8, max_iter=3, batch=9, seed=2)
@example(M=1, N=8, D=4, max_iter=0, batch=9, seed=526)
def test_batch_results_do_not_depend_on_batch_membership(M, N, D, max_iter,
                                                         batch, seed):
    """Each frame of a lockstep batch gets exactly its result alone, also
    when other frames stop (and are compacted out) on earlier passes."""
    p = FrameParams(M=M, N=N)
    cfg = GreedyConfig(max_iter=max_iter)
    rng = np.random.default_rng(seed)
    A = rng.choice([1.0, 0.7, 2.5], batch)[:, None]
    U = A * np.exp(2j * np.pi * rng.integers(0, D, (batch, p.size)) / D)
    for u, r in zip(U, greedy_precode_batch(U, p, cfg)):
        alone = greedy_precode(u, p, cfg)
        assert np.array_equal(r.x_star, alone.x_star)
        assert r.iterations_used == alone.iterations_used
        assert r.flips == alone.flips
        assert r.papr_star == alone.papr_star


@pytest.mark.parametrize("M, N, batch", [(16, 16, 64), (64, 16, 16)])
@pytest.mark.parametrize("max_iter", [0, 3])
def test_runner_chunks_give_every_frame_its_lone_result(M, N, batch, max_iter):
    """The runners' chunks of 16384 symbols: 64 frames at 16x16 and 16 at
    64x16, searched in lockstep from a read-only view of U."""
    p, cfg = FrameParams(M=M, N=N), GreedyConfig(max_iter=max_iter)
    rng = np.random.default_rng(M + max_iter)
    U = np.exp(2j * np.pi * rng.integers(0, 4, (batch, p.size)) / 4)
    before = U.copy()
    results = greedy_precode_batch(U, p, cfg)
    assert U.tobytes() == before.tobytes()
    for u, r in zip(U, results):
        alone = greedy_precode(u, p, cfg)
        assert r.x_star.tobytes() == alone.x_star.tobytes()
        assert r.flips == alone.flips
        assert r.papr_star == alone.papr_star
        assert r.iterations_used == alone.iterations_used
    if max_iter:
        assert {r.iterations_used for r in results} == {3}


@pytest.mark.parametrize("M, N, batch", [(16, 16, 64), (64, 16, 16)])
def test_batch_peak_allocation_stays_under_100_bytes_a_symbol(M, N, batch):
    """The search state is a ring mask plus two float grids (17 bytes a
    symbol), and a pass's temporaries are built in place, so the kernel's
    peak allocation above its input (about 51 bytes a symbol at 16x16)
    stays under 100 bytes a symbol."""
    p = FrameParams(M=M, N=N)
    rng = np.random.default_rng(5)
    U = np.exp(2j * np.pi * rng.integers(0, 4, (batch, p.size)) / 4)
    greedy_precode_batch(U[:1], p, GreedyConfig(max_iter=1))  # warm up numpy
    tracemalloc.start()
    try:
        greedy_precode_batch(U, p, GreedyConfig(max_iter=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * U.size


# M = 1 QPSK frames whose last pass commits a candidate that the refreshed
# grid does not confirm (an ulp-level tie): (N, symbol indices, passes,
# flips, |x*|).
ULP_TIE_FRAMES = [
    (2, [1, 2], 1, [], [1, 1]),
    (6, [1, 2, 3, 1, 0, 2], 4, [2, 1, 3], [1, 2, 2, 2, 1, 1]),
]


@pytest.mark.parametrize("N, indices, passes, flips, mags", ULP_TIE_FRAMES)
def test_ulp_tie_undoes_the_flip(N, indices, passes, flips, mags):
    """The tied flip is undone, so x* is doubled at exactly the symbols
    that the reported flips toggle an odd number of times."""
    p = FrameParams(M=1, N=N)
    u = PskAlphabet(D=4).symbols()[indices]
    r = greedy_precode(u, p, GreedyConfig(max_iter=0))
    assert (r.iterations_used, r.flips) == (passes, flips)
    assert np.allclose(np.abs(r.x_star), mags)
    odd = np.bincount(r.flips, minlength=N) % 2 == 1
    assert np.array_equal(r.x_star, np.where(odd, 2 * u, u))
    assert r.papr_star == papr(modulate(r.x_star, p))


def test_ulp_tie_frame_keeps_its_lone_result_in_a_batch():
    p, cfg = FrameParams(M=1, N=6), GreedyConfig(max_iter=0)
    rng = np.random.default_rng(17)
    U = np.exp(2j * np.pi * rng.integers(0, 4, (9, p.size)) / 4)
    U[4] = PskAlphabet(D=4).symbols()[ULP_TIE_FRAMES[1][1]]
    alone = greedy_precode(U[4], p, cfg)
    r = greedy_precode_batch(U, p, cfg)[4]
    assert r.flips == alone.flips == ULP_TIE_FRAMES[1][3]
    assert np.array_equal(r.x_star, alone.x_star)
    assert (r.iterations_used, r.papr_star) == (alone.iterations_used, alone.papr_star)


def test_batch_rejects_rows_of_the_wrong_size_or_amplitude():
    p, cfg = FrameParams(M=2, N=2), GreedyConfig(max_iter=5)
    with pytest.raises(ParameterError):
        greedy_precode_batch(np.ones((3, 5), complex), p, cfg)
    for lone in (np.ones(4, complex), np.complex128(1)):
        with pytest.raises(ParameterError):
            greedy_precode_batch(lone, p, cfg)
    U = np.ones((2, 4), complex)
    U[1, 3] = 2.0
    with pytest.raises(ParameterError):
        greedy_precode_batch(U, p, cfg)
