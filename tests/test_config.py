"""Flat config parsing and ExperimentConfig construction."""

import pytest

from otfs_papr import (ETU300_PROFILE, ExperimentConfig, ParameterError,
                       PathProfile, config_from_mapping, parse_config_text)
from otfs_papr.config import config_summary, profile_from_mapping

SAMPLE = """
# comparison run
M = 16
N = 8            # Doppler bins
method = "proposed"
frames = 250
snr_db_list = [10, 14, 18]
mu = 4.0
profile = "etu300"
seed = 42
"""


class TestParser:
    def test_parses_flat_keys(self):
        mapping = parse_config_text(SAMPLE)
        assert mapping["M"] == 16
        assert mapping["method"] == "proposed"
        assert mapping["snr_db_list"] == (10, 14, 18)
        assert mapping["mu"] == 4.0

    def test_rejects_garbage_lines(self):
        with pytest.raises(ParameterError):
            parse_config_text("just some words\n")

    def test_rejects_unparseable_values(self):
        with pytest.raises(ParameterError):
            parse_config_text("M = sixteen\n")

    def test_booleans_and_strings(self):
        mapping = parse_config_text("a = true\nb = false\nc = 'x'\n")
        assert mapping == {"a": True, "b": False, "c": "x"}

    def test_infinite_snr(self):
        assert parse_config_text("snr_db_list = [inf]\n")["snr_db_list"] == (float("inf"),)


class TestConfigConstruction:
    def test_round_trip_from_mapping(self):
        cfg = config_from_mapping(parse_config_text(SAMPLE))
        assert cfg.M == 16 and cfg.N == 8
        assert cfg.methods == ("proposed",)
        assert cfg.snr_db_list == (10.0, 14.0, 18.0)
        assert cfg.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            config_from_mapping({"bogus": 1})

    def test_integer_coercion_guards(self):
        with pytest.raises(ParameterError):
            config_from_mapping({"M": 2.5})
        assert config_from_mapping({"M": 8.0}).M == 8

    def test_method_list_validation(self):
        cfg = config_from_mapping({"method": "none, proposed"})
        assert cfg.methods == ("none", "proposed")
        with pytest.raises(ParameterError):
            config_from_mapping({"method": "nosuch"})

    def test_snr_list_from_comma_string(self):
        cfg = config_from_mapping({"snr_db_list": "6,12, 18"})
        assert cfg.snr_db_list == (6.0, 12.0, 18.0)

    def test_snr_list_from_one_number(self):
        cfg = config_from_mapping(parse_config_text("snr_db_list = 18\n"))
        assert cfg.snr_db_list == (18.0,)

    @pytest.mark.parametrize("text", ["frames = true", "M = true", "mu = false",
                                      "snr_db_list = [10, true]"])
    def test_booleans_rejected_for_numbers(self, text):
        with pytest.raises(ParameterError, match=repr(text.split()[0])):
            config_from_mapping(parse_config_text(text + "\n"))

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.M, cfg.N) == (16, 16)
        assert cfg.frames == 1000
        assert cfg.max_iter == 0  # greedy runs to its natural stop
        assert cfg.profile == "etu300"

    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(frames=0)
        with pytest.raises(ParameterError):
            ExperimentConfig(max_iter=-1)

    @pytest.mark.parametrize("bad", [
        dict(M=0), dict(N=0), dict(delta_f=0.0), dict(modulation=1),
        dict(modulation=3), dict(amplitude=0.0), dict(mu=0.0),
        dict(icf_iterations=0), dict(icf_oversample=1),
    ])
    def test_stage_validation(self, bad):
        with pytest.raises(ParameterError):
            ExperimentConfig(**bad)

    def test_profile_validation(self):
        for name in ("etu300", "single-path", "identity", "Identity"):
            assert ExperimentConfig(profile=name).profile == name
        two_tap = PathProfile((0.0, 1000.0), (0.0, -3.0))
        assert ExperimentConfig(profile=two_tap).profile is two_tap
        with pytest.raises(ParameterError):
            ExperimentConfig(profile="nosuch")
        with pytest.raises(ParameterError):
            ExperimentConfig(profile=ETU300_PROFILE.delays_ns)
        with pytest.raises(ParameterError):
            config_from_mapping(parse_config_text('profile = "nosuch"\n'))

    def test_dft_axis_validation(self):
        assert ExperimentConfig(dft_axis="doppler").dft_axis == "doppler"
        with pytest.raises(ParameterError):
            ExperimentConfig(dft_axis="diag")
        with pytest.raises(ParameterError):
            config_from_mapping(parse_config_text('method = "none"\ndft_axis = "diag"\n'))

    def test_summary_is_deterministic(self):
        cfg = ExperimentConfig(snr_db_list=(1.0, 2.0))
        assert config_summary(cfg) == config_summary(cfg)
        assert "snr_db_list=[1,2]" in config_summary(cfg)
        cfg = ExperimentConfig(profile=PathProfile((0.0, 1000.0), (0.0, -3.0)))
        assert "profile=PathProfile(delays_ns=[0,1000],powers_db=[0,-3]) " \
            in config_summary(cfg)


class TestProfileFromMapping:
    def test_one_number_is_a_one_value_list(self):
        assert profile_from_mapping({"delays_ns": 0, "powers_db": -1.5}) == \
            PathProfile((0.0,), (-1.5,))

    @pytest.mark.parametrize("mapping", [
        {"delays_ns": True, "powers_db": 0},
        {"delays_ns": (0, 50), "powers_db": (0, "loud")},
        {"delays_ns": (0, 50)},
    ])
    def test_bad_values_raise_parameter_error(self, mapping):
        with pytest.raises(ParameterError):
            profile_from_mapping(mapping)
