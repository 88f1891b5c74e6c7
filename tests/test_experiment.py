"""Experiment runners: determinism, CSV schemas, and end-to-end sanity."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otfs_papr import ExperimentConfig, ParameterError, experiment
from otfs_papr.experiment import (FRAME_CHUNK_SYMBOLS, csv_body,
                                  draw_info_batch, frame_rng,
                                  render_ccdf_curve_csv,
                                  render_ccdf_samples_csv,
                                  render_error_rate_csv, render_scaling_csv,
                                  run_ccdf, run_doppler_sweep, run_error_rate,
                                  run_scaling_table, transmit)
from otfs_papr.frame import FrameParams, PskAlphabet, map_bits_to_symbols
from otfs_papr.metrics import papr
from otfs_papr.precoder import greedy_precode

SMALL = dict(M=4, N=4, frames=20, seed=9)


class TestRngContract:
    def test_substreams_are_reproducible_and_distinct(self):
        a = frame_rng(7, 0, 3).standard_normal(4)
        b = frame_rng(7, 0, 3).standard_normal(4)
        c = frame_rng(7, 0, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunCcdf:
    def test_deterministic_bodies(self):
        cfg = ExperimentConfig(method="proposed", **SMALL)
        r1, r2 = run_ccdf(cfg), run_ccdf(cfg)
        assert csv_body(render_ccdf_samples_csv(r1)) == csv_body(render_ccdf_samples_csv(r2))
        assert csv_body(render_ccdf_curve_csv(r1)) == csv_body(render_ccdf_curve_csv(r2))

    def test_single_frame_curve_is_a_unit_step(self):
        cfg = ExperimentConfig(M=4, N=4, frames=1, seed=3)
        result = run_ccdf(cfg)
        probs = result.curve.probabilities
        assert set(np.unique(probs)) <= {0.0, 1.0}
        drop = np.nonzero(np.diff(probs) < 0)[0]
        assert len(drop) == 1
        assert abs(result.curve.thresholds_db[drop[0]] - result.samples_db[0]) <= 0.1

    def test_samples_csv_schema(self):
        cfg = ExperimentConfig(**SMALL)
        text = render_ccdf_samples_csv(run_ccdf(cfg))
        body = csv_body(text).splitlines()
        assert body[0] == "frame_idx,papr_db"
        assert len(body) == 1 + cfg.frames
        assert text.splitlines()[0].startswith("#")

    def test_proposed_never_exceeds_uncompensated(self):
        cfg = ExperimentConfig(**SMALL)
        none = run_ccdf(cfg, method="none")
        proposed = run_ccdf(cfg, method="proposed")
        assert np.all(proposed.samples_db <= none.samples_db + 1e-9)

    def test_two_methods_need_a_method_argument(self):
        cfg = ExperimentConfig(method="none,proposed", **SMALL)
        with pytest.raises(ParameterError, match="ccdf takes exactly one method"):
            run_ccdf(cfg)
        assert run_ccdf(cfg, method="none").method == "none"

    def test_proposed_does_not_depend_on_amplitude(self):
        """The greedy search runs on the unit ring, so every frame flips
        the same symbols at any amplitude."""
        cfg = ExperimentConfig(frames=20, seed=2, method="proposed")
        unit = run_ccdf(cfg).samples_db
        for A in (0.1, 3.7, 1e-100):
            scaled = run_ccdf(replace(cfg, amplitude=A)).samples_db
            np.testing.assert_allclose(scaled, unit, rtol=0, atol=1e-12)


class TestTransmitDispatch:
    def test_methods_produce_frames_of_correct_size(self):
        cfg = ExperimentConfig(M=4, N=2, modulation=4)
        params = FrameParams(M=4, N=2)
        alphabet = PskAlphabet(D=4)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, params.size * 2)
        u = map_bits_to_symbols(bits, alphabet, params)
        precoded = greedy_precode(u, cfg.params, cfg.greedy)
        for method in ("none", "proposed", "companding", "icf", "dft"):
            tx = transmit(u, method, cfg, precoded.x_star)
            assert tx.s.shape == (params.size,)

    def test_proposed_x_star_must_have_the_shape_of_u(self):
        cfg = ExperimentConfig(M=4, N=4)
        U = np.ones((3, 16), complex)
        for u, x_star, got in [(U, U[:2], r"shape \(2, 16\)"),
                               (U[0], U[0, :15], r"shape \(15,\)"),
                               (U[0], None, "none")]:
            match = rf"proposed needs x_star of u's shape {re.escape(str(u.shape))}, got {got}"
            with pytest.raises(ParameterError, match=match):
                transmit(u, "proposed", cfg, x_star)

    def test_unknown_method_rejected(self):
        cfg = ExperimentConfig(M=2, N=2)
        with pytest.raises(ParameterError):
            transmit(np.ones(4, complex), "slm", cfg, None)


class TestRunErrorRate:
    def test_requires_snr_grid(self):
        with pytest.raises(ParameterError):
            run_error_rate(ExperimentConfig(**SMALL))

    def test_noiseless_identity_chain_is_error_free(self):
        cfg = ExperimentConfig(M=4, N=4, frames=15, seed=2, profile="identity",
                               snr_db_list=(float("inf"),),
                               method="none,proposed,companding,dft")
        result = run_error_rate(cfg)
        assert len(result.points) == 4
        for p in result.points:
            assert p.counts.symbol_errors == 0
            assert p.counts.bit_errors == 0
            assert p.skipped_frames == 0

    def test_error_csv_schema_and_determinism(self):
        cfg = ExperimentConfig(M=4, N=4, frames=10, seed=4,
                               snr_db_list=(12.0, 18.0), method="none,dft")
        r1, r2 = run_error_rate(cfg), run_error_rate(cfg)
        t1, t2 = render_error_rate_csv(r1), render_error_rate_csv(r2)
        assert csv_body(t1) == csv_body(t2)
        body = csv_body(t1).splitlines()
        assert body[0] == ("method,snr_db,nu_max_hz,frames,symbols,"
                           "symbol_errors,bit_errors,ser,ber")
        assert len(body) == 1 + 2 * 2  # snr points x methods

    def test_methods_share_frames_and_channels(self):
        # identical substreams mean identical symbol counts per point
        cfg = ExperimentConfig(M=4, N=4, frames=8, seed=6,
                               snr_db_list=(15.0,), method="none,icf")
        result = run_error_rate(cfg)
        symbols = {p.counts.symbols for p in result.points}
        assert symbols == {8 * 16}

    ALL_METHODS = "none,proposed,companding,icf,dft"

    def test_a_methods_point_does_not_depend_on_the_others(self):
        """Every method of a frame goes through one stacked receiver
        call; its rows come out as if solved alone."""
        cfg = ExperimentConfig(M=8, N=4, frames=6, seed=11, method=self.ALL_METHODS,
                               snr_db_list=(6.0, 14.0, float("inf")))
        together = run_error_rate(cfg).points
        for method in ("none", "dft"):
            alone = run_error_rate(replace(cfg, method=method)).points
            assert alone == [p for p in together if p.method == method]

    def test_a_failing_method_skips_only_its_own_frames(self, monkeypatch):
        cfg = ExperimentConfig(M=8, N=4, frames=3, seed=12, method=self.ALL_METHODS,
                               snr_db_list=(10.0,))
        others = run_error_rate(replace(cfg, method="none,proposed,icf,dft")).points
        monkeypatch.setattr(experiment, "mu_expand",
                            lambda r, *args: np.full_like(r, np.nan))
        result = run_error_rate(cfg)
        companding = [p for p in result.points if p.method == "companding"]
        assert [(p.frames, p.skipped_frames) for p in companding] == [(0, 3)]
        assert [p for p in result.points if p.method != "companding"] == others
        skipped = [line for line in render_error_rate_csv(result).splitlines()
                   if line.startswith("# skipped:")]
        assert skipped == ["# skipped: method=companding snr_db=10 nu_max_hz=300 count=3"]
        # No symbols were counted: the rates are NaN, not an error-free 0.
        assert all(np.isnan(p.counts.ser) and np.isnan(p.counts.ber) for p in companding)
        rows = csv_body(render_error_rate_csv(result)).splitlines()
        assert [r for r in rows if r.startswith("companding,")] == [
            "companding,10,300,0,0,0,0,nan,nan"]


class TestRunDopplerSweep:
    def test_default_grid_and_zero_point(self):
        cfg = ExperimentConfig(M=4, N=4, frames=5, seed=8, method="none")
        result = run_doppler_sweep(cfg, nu_max_list=(0.0, 600.0))
        assert [p.nu_max_hz for p in result.points] == [0.0, 600.0]
        assert all(p.snr_db == 18.0 for p in result.points)

    def test_snr_from_config(self, monkeypatch):
        cfg = ExperimentConfig(M=4, N=4, frames=2, seed=8, method="none",
                               snr_db_list=(5.0,))
        result = run_doppler_sweep(cfg, nu_max_list=(0.0,))
        assert [p.snr_db for p in result.points] == [5.0]
        default = run_doppler_sweep(replace(cfg, snr_db_list=()), nu_max_list=(0.0,))
        assert default.config.snr_db_list == (18.0,)
        calls = []
        monkeypatch.setattr(experiment, "_chunks", lambda *a: calls.append(a))
        with pytest.raises(ParameterError):
            run_doppler_sweep(replace(cfg, snr_db_list=(5.0, 10.0)))
        assert calls == []

    def test_csv_rows_match_grid(self):
        cfg = ExperimentConfig(M=4, N=4, frames=4, seed=8, method="none,dft")
        result = run_doppler_sweep(cfg, nu_max_list=(0.0, 300.0, 600.0))
        body = csv_body(render_error_rate_csv(result)).splitlines()
        assert len(body) == 1 + 3 * 2


class TestCommonDraws:
    """Every sweep point runs on frame f of frame_rng(seed, 0, f), so each
    point is, byte for byte, the run of that point alone."""

    def test_every_snr_point_is_its_single_snr_run(self):
        cfg = ExperimentConfig(M=8, N=4, frames=6, seed=13, profile="etu300",
                               method="none,proposed,companding,icf,dft",
                               snr_db_list=(8.0, 12.0, 16.0))
        multi = csv_body(render_error_rate_csv(run_error_rate(cfg))).splitlines()
        for b, snr_db in enumerate(cfg.snr_db_list):
            single = csv_body(render_error_rate_csv(
                run_error_rate(replace(cfg, snr_db_list=(snr_db,))))).splitlines()
            assert multi[0] == single[0]
            assert multi[1 + 5 * b:1 + 5 * (b + 1)] == single[1:]
        assert sum(int(row.split(",")[5]) for row in multi[1:6]) > 0

    def test_every_doppler_point_is_the_error_rate_run(self):
        cfg = ExperimentConfig(M=8, N=4, frames=6, seed=14, profile="etu300",
                               method="none,proposed,companding",
                               snr_db_list=(10.0,))
        nus = (1500.0, 0.0, 600.0)
        sweep = run_doppler_sweep(cfg, nu_max_list=nus)
        rows = csv_body(render_error_rate_csv(sweep)).splitlines()
        for a, nu in enumerate(nus):
            alone = run_error_rate(replace(cfg, nu_max_hz=nu))
            assert sweep.points[3 * a:3 * (a + 1)] == alone.points
            assert rows[1 + 3 * a:1 + 3 * (a + 1)] == \
                csv_body(render_error_rate_csv(alone)).splitlines()[1:]
        assert sum(p.counts.symbol_errors for p in sweep.points[:3]) > 0


class TestRunScalingTable:
    def test_rows_and_schema(self):
        cfg = ExperimentConfig(M=4, N=4, frames=30, seed=5, method="none,proposed")
        result = run_scaling_table(cfg, sweep_n=[2, 4])
        assert [(r.M, r.N, r.method) for r in result.rows] == [
            (4, 2, "none"), (4, 2, "proposed"), (4, 4, "none"), (4, 4, "proposed")]
        body = csv_body(render_scaling_csv(result)).splitlines()
        assert body[0] == "M,N,method,papr_db_at_ccdf_0p1"
        assert len(body) == 5

    def test_exactly_one_sweep_axis(self):
        cfg = ExperimentConfig(**SMALL)
        with pytest.raises(ParameterError):
            run_scaling_table(cfg)
        with pytest.raises(ParameterError):
            run_scaling_table(cfg, sweep_m=[4], sweep_n=[4])

    def test_every_grid_size_checked_before_any_frame(self, monkeypatch):
        calls = []
        chunks = experiment._chunks
        monkeypatch.setattr(experiment, "_chunks",
                            lambda *a: calls.append(a) or chunks(*a))
        for sweep_m in ([4, 0], [4, 2.5]):
            with pytest.raises(ParameterError):
                run_scaling_table(ExperimentConfig(**SMALL), sweep_m=sweep_m)
        assert calls == []

    def test_numpy_integer_grid_sizes_run(self):
        cfg = ExperimentConfig(M=4, N=4, frames=5, seed=5)
        result = run_scaling_table(cfg, sweep_n=np.array([2, 4], dtype=np.int64))
        assert result.rows == run_scaling_table(cfg, sweep_n=[2, 4]).rows
        assert "# sweep: N=[2,4]" in render_scaling_csv(result)


class TestFrameChunks:
    """The runners draw, precode, transmit and read PAPR in chunks;
    per-frame results must be those of the single-frame path."""

    # Runner configs with the sizes of their chunks at 100 symbols a chunk.
    # The odd grid splits ICF's spectrum unevenly, and the fifth config
    # clips its chunks of 6 frames in ICF slices of 3.
    CONFIGS = [
        (dict(M=4, N=4, frames=14, seed=21), [6, 6, 2]),
        (dict(M=3, N=5, frames=14, seed=24), [6, 6, 2]),
        # One delay column: each frame's sums are its own at M = 1 too.
        (dict(M=1, N=12, modulation=2, frames=10, seed=38), [8, 2]),
        (dict(M=4, N=4, modulation=16, frames=9, seed=25), [6, 3]),
        (dict(M=5, N=3, icf_oversample=2, dft_axis="doppler", frames=9, seed=26), [6, 3]),
        (dict(M=4, N=5, icf_oversample=5, amplitude=3.7, frames=9, seed=27), [5, 4]),
    ]

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """Chunks of 100 symbols; records the size of every precoded chunk."""
        sizes = []
        batch = experiment.greedy_precode_batch
        monkeypatch.setattr(experiment, "FRAME_CHUNK_SYMBOLS", 100)
        monkeypatch.setattr(experiment, "greedy_precode_batch",
                            lambda U, *a: sizes.append(len(U)) or batch(U, *a))
        return sizes

    def test_ccdf_matches_single_frame_transmit(self, chunk_sizes):
        for kwargs, sizes in self.CONFIGS:
            cfg = ExperimentConfig(method=TestRunErrorRate.ALL_METHODS, **kwargs)
            A = cfg.amplitude
            for method in cfg.methods:
                chunk_sizes.clear()
                result = run_ccdf(cfg, method)
                assert chunk_sizes == (sizes if method == "proposed" else [])
                for f, value in enumerate(result.samples_db):
                    e = draw_info_batch(cfg, [frame_rng(cfg.seed, f)])[1][0]
                    precoded = greedy_precode(e, cfg.params, cfg.greedy)
                    tx = transmit(A * e, method, cfg, A * precoded.x_star)
                    assert value == papr(tx.s).value_db

    def test_scaling_table_and_error_rate_match_one_frame_chunks(
            self, chunk_sizes, monkeypatch):
        """All five methods, at 100 symbols a chunk, at one frame a chunk
        and at the default FRAME_CHUNK_SYMBOLS (one chunk for these runs)."""
        default = FRAME_CHUNK_SYMBOLS
        # 16 and 32 symbols a frame; the error rate runs at M = 8.
        cases = [(dict(N=4, frames=14, seed=22), [4, 8], [6, 6, 2] + [3, 3, 3, 3, 2] * 2)]
        cases += [(kwargs, [kwargs["M"]], sizes * 2) for kwargs, sizes in self.CONFIGS]
        for kwargs, sweep_m, sizes in cases:
            monkeypatch.setattr(experiment, "FRAME_CHUNK_SYMBOLS", 100)
            chunk_sizes.clear()
            cfg = ExperimentConfig(method=TestRunErrorRate.ALL_METHODS,
                                   snr_db_list=(6.0, 12.0), **kwargs)
            runs = [lambda: run_scaling_table(cfg, sweep_m=sweep_m).rows,
                    lambda: run_error_rate(replace(cfg, M=sweep_m[-1])).points]
            chunked = [run() for run in runs]
            # Both SNR points share the error-rate run's one pass over the frames.
            assert chunk_sizes == sizes
            assert sum(p.counts.symbol_errors for p in chunked[1]) > 0
            for symbols, chunks in [(1, cfg.frames), (default, 1)]:
                chunk_sizes.clear()
                monkeypatch.setattr(experiment, "FRAME_CHUNK_SYMBOLS", symbols)
                assert [run() for run in runs] == chunked
                assert chunk_sizes == [cfg.frames // chunks] * chunks * (len(sweep_m) + 1)

    @pytest.mark.parametrize("M, N", [(16, 16), (64, 16)])
    def test_chunk_transmit_peak_allocation_stays_under_100_bytes_a_symbol(self, M, N):
        """A chunk's transmit stack is 16 bytes a symbol and each method's
        stages build few temporaries; ICF works in slices of a quarter of
        the chunk (icf_oversample = 4), so its 4x oversampled grid holds
        no more symbols than the chunk.  Measured peak allocation above
        the inputs, in bytes a symbol, at 16x16 (64 frames a chunk) and
        64x16 (16 frames): 16 for none and proposed, 32 for dft, 65 for
        companding and 81 for icf."""
        cfg = ExperimentConfig(M=M, N=N)
        rngs = [frame_rng(5, f) for f in range(FRAME_CHUNK_SYMBOLS // cfg.params.size)]
        E = draw_info_batch(cfg, rngs)[1]
        X = 2 * E
        for method in TestRunErrorRate.ALL_METHODS.split(","):
            transmit(E[:1], method, cfg, X[:1])  # warm up numpy
            tracemalloc.start()
            try:
                transmit(E, method, cfg, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 100 * E.size, method
