"""PAPR metric and empirical CCDF behaviour."""

import numpy as np
import pytest

from otfs_papr import (FrameParams, ParameterError, UndefinedPaprError, ccdf,
                       default_thresholds_db, modulate, papr, papr_at_ccdf)
from otfs_papr.metrics import CCDF_THRESHOLD_STEP_DB


class TestPapr:
    def test_constant_modulus_frame_is_zero_db(self):
        s = 2.0 * np.exp(1j * np.linspace(0, 5, 64))
        result = papr(s)
        assert result.value_linear == pytest.approx(1.0)
        assert result.value_db == pytest.approx(0.0, abs=1e-12)

    def test_two_peaks_two_zeros(self):
        result = papr(np.array([2.0, 2.0, 0.0, 0.0], dtype=complex))
        assert result.value_linear == pytest.approx(2.0)
        assert result.value_db == pytest.approx(3.0103, abs=1e-3)

    def test_bpsk_all_ones_frame_peaks_at_doppler_size(self):
        p = FrameParams(M=16, N=16)
        result = papr(modulate(np.ones(256, dtype=complex), p))
        assert result.value_linear == pytest.approx(16.0)
        assert result.value_db == pytest.approx(12.04, abs=1e-2)

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        base = papr(s).value_linear
        for c in (0.01, 7.3, 1j, -2.5 + 1.1j):
            assert papr(c * s).value_linear == pytest.approx(base, rel=1e-12)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            v = papr(s).value_linear
            assert 1.0 <= v <= 24.0
            assert papr(rng.permutation(s)).value_linear == pytest.approx(v, rel=1e-12)
        single = np.zeros(24, complex)
        single[5] = 1.0
        assert papr(single).value_linear == pytest.approx(24.0)

    def test_all_zero_frame_is_undefined(self):
        with pytest.raises(UndefinedPaprError):
            papr(np.zeros(8, complex))


class TestCcdf:
    def test_direct_count(self):
        curve = ccdf([0.0, 3.01, 6.02], thresholds_db=[1.5])
        assert curve.probabilities[0] == pytest.approx(2 / 3)

    def test_threshold_extremes(self):
        curve = ccdf([2.0, 3.0, 4.0], thresholds_db=[1.0, 5.0])
        assert curve.probabilities[0] == 1.0
        assert curve.probabilities[1] == 0.0

    def test_probabilities_non_increasing_on_default_grid(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0, 13, 500)
        curve = ccdf(samples)
        assert np.all(np.diff(curve.probabilities) <= 0)
        assert len(curve.probabilities) == len(curve.thresholds_db)

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ParameterError):
            ccdf([])

    def test_default_grid_shape(self):
        th = default_thresholds_db()
        assert th[0] == 0.0 and th[-1] == pytest.approx(13.0)
        assert np.allclose(np.diff(th), 0.1)


class TestCcdfReadout:
    def test_interpolates_between_grid_points(self):
        # 1000 uniform samples on [0, 10]: CCDF(x) ~ 1 - x/10.
        samples = np.linspace(0.005, 9.995, 1000)
        assert papr_at_ccdf(samples, 0.5) == pytest.approx(5.0, abs=0.05)
        assert papr_at_ccdf(samples, 0.1) == pytest.approx(9.0, abs=0.05)

    def test_single_sample_is_a_unit_step(self):
        value = papr_at_ccdf([6.37], 0.5)
        assert abs(value - 6.37) <= 0.1  # within one grid step of the jump

    def test_atoms_do_not_break_the_readout(self):
        # Heavy tie mass exactly at 7.96 dB plus a light tail above it.
        samples = np.concatenate([np.full(700, 5.0), np.full(250, 7.96),
                                  np.full(50, 9.5)])
        v = papr_at_ccdf(samples, 0.1)
        assert 7.9 <= v <= 9.6

    @pytest.mark.parametrize("offset_db", [0.0, 4e-15])
    def test_all_zero_db_set_errs_by_at_most_one_grid_step(self, offset_db):
        # Every sample is 0 dB up to rounding, as for a Doppler-axis DFT
        # spread frame; the readout comes off the threshold grid.
        samples = np.full(200, offset_db)
        for target, on_grid in ((0.5, 0.05), (0.1, 0.09)):
            value = papr_at_ccdf(samples, target)
            assert 0.0 <= value - offset_db <= CCDF_THRESHOLD_STEP_DB
            if offset_db > 0:  # just above the 0 dB grid point
                assert value == pytest.approx(on_grid)

    def test_rejects_unusable_targets(self):
        with pytest.raises(ParameterError):
            papr_at_ccdf([1.0, 2.0], 0.0)
