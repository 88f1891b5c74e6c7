"""Flat config parsing and ExperimentConfig construction."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from otfs_papr import (ETU300_PROFILE, CompandingConfig, DftSpreadConfig,
                       ExperimentConfig, GreedyConfig, IcfConfig,
                       ParameterError, PathProfile, config_from_mapping,
                       parse_config_text)
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
        dict(nu_max_hz=-300.0), dict(nu_max_hz=float("inf")),
        dict(nu_max_hz=float("nan")), dict(snr_db_list=(10.0, float("nan"))),
        dict(snr_db_list=(float("-inf"), 0.0)), dict(snr_db_list=(-4000.0,)),
        dict(method=","), dict(amplitude=float("inf")), dict(mu=float("inf")),
        dict(clip_ratio_db=float("nan")), dict(clip_ratio_db=float("-inf")),
        dict(clip_ratio_db=-7000.0), dict(clip_ratio_db=7000.0),
        dict(delta_f=float("inf")), dict(seed=-1),
        dict(amplitude=1e153), dict(amplitude=2e151), dict(amplitude=1e-160),
        dict(amplitude=1e-170), dict(clip_ratio_db=-2000.0),
        dict(clip_ratio_db=-1050.0), dict(clip_ratio_db=-4.0, icf_iterations=2000),
        dict(M=2.5), dict(frames=1.5), dict(seed=2.0), dict(modulation=4.0),
        dict(max_iter=0.5), dict(M=True), dict(delta_f=True), dict(amplitude="1.0"),
    ])
    def test_stage_validation(self, bad):
        with pytest.raises(ParameterError):
            ExperimentConfig(**bad)

    def test_integer_fields_name_their_key(self):
        """Library callers skip config_from_mapping's coercion: every int
        field refuses a float and a bool, naming the key."""
        keys = [f.name for f in fields(ExperimentConfig) if f.type is int]
        assert len(keys) == 8
        for key in keys:
            for bad in (2.0, 2.5, True):
                with pytest.raises(ParameterError, match=f"^'{key}' expects an integer"):
                    ExperimentConfig(**{key: bad})

    def test_float_fields_name_their_key(self):
        """Every float field refuses a bool, a string and a complex number,
        naming the key, and takes an integer or a numpy float."""
        keys = [f.name for f in fields(ExperimentConfig) if f.type is float]
        assert keys == ["delta_f", "amplitude", "nu_max_hz", "mu", "clip_ratio_db"]
        for key in keys:
            for bad in (True, False, np.True_, "1.0", 1 + 0j, None):
                with pytest.raises(ParameterError, match=f"^'{key}' expects a real number"):
                    ExperimentConfig(**{key: bad})
            for ok in (3, np.float32(2.5), np.int64(2)):
                assert getattr(ExperimentConfig(**{key: ok}), key) == ok

    @pytest.mark.parametrize("ok", [
        dict(amplitude=1e150), dict(amplitude=1e-150), dict(clip_ratio_db=-1000.0),
        dict(amplitude=1.3e151), dict(amplitude=1.5e-154),
        dict(M=64, amplitude=3.2e150), dict(clip_ratio_db=-1025.5),
    ])
    def test_frame_power_edges_pass(self, ok):
        ExperimentConfig(**ok)

    @pytest.mark.parametrize("key, bad", [
        ("amplitude", dict(amplitude=1.32e151)),
        ("amplitude", dict(amplitude=1.49e-154)),
        ("amplitude", dict(M=64, amplitude=3.3e150)),
        ("clip_ratio_db", dict(clip_ratio_db=-1025.6)),
    ])
    def test_frame_power_beyond_the_edge_names_its_key(self, key, bad):
        """A frame's power must stay a normal float; a value just beyond
        the edge fails naming its key."""
        with pytest.raises(ParameterError, match=f"^{key}"):
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


class TestStageObjects:
    """Each setting has one default, in ExperimentConfig, and reaches its
    stage object unchanged."""

    @pytest.mark.parametrize("stage", [GreedyConfig, CompandingConfig, IcfConfig,
                                       DftSpreadConfig], ids=lambda c: c.__name__)
    def test_method_stage_configs_declare_no_defaults(self, stage):
        assert all(f.default is MISSING and f.default_factory is MISSING
                   for f in fields(stage))

    @pytest.mark.parametrize("key, value, stage, attr", [
        ("max_iter", 0, "greedy", "max_iter"),
        ("max_iter", 7, "greedy", "max_iter"),
        ("mu", 2.5, "companding", "mu"),
        ("clip_ratio_db", 6.0, "icf", "clip_ratio_db"),
        ("icf_iterations", 2, "icf", "iterations"),
        ("icf_oversample", 3, "icf", "oversample_factor"),
        ("dft_axis", "doppler", "dft", "axis"),
    ])
    def test_value_reaches_its_stage_unchanged(self, key, value, stage, attr):
        assert getattr(getattr(ExperimentConfig(**{key: value}), stage), attr) == value

    def test_profile_resolves_once(self):
        assert ExperimentConfig(profile="identity").channel_profile is None
        assert ExperimentConfig(profile="Identity").channel_profile is None
        assert ExperimentConfig(profile="etu300").channel_profile is ETU300_PROFILE
        two_tap = PathProfile((0.0, 1000.0), (0.0, -3.0))
        assert ExperimentConfig(profile=two_tap).channel_profile is two_tap

    def test_greedy_config_rejects_only_a_negative_cap(self):
        assert GreedyConfig(max_iter=0).max_iter == 0  # the natural stop
        with pytest.raises(ParameterError, match="max_iter"):
            GreedyConfig(max_iter=-1)


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
