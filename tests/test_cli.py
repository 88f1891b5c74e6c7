"""CLI surface: subcommands, config files, overrides, exit codes."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import otfs_papr
from otfs_papr import ExperimentConfig, ParameterError, cli

CLI = [sys.executable, "-m", "otfs_papr.cli"]
# The child imports the package from where this process found it.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(Path(otfs_papr.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")))))


def run_cli(*args, stdin_text=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin_text, env=ENV)


def body_of(path):
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


class TestCcdfCommand:
    def test_writes_samples_and_curve(self, tmp_path):
        out = tmp_path / "run"
        r = run_cli("ccdf", "--M", "4", "--N", "4", "--frames", "10",
                    "--modulation", "2", "--output", str(out))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "run.samples.csv").exists()
        assert (tmp_path / "run.curve.csv").exists()
        assert "papr_db at ccdf 0.5" in r.stdout

    def test_rerun_is_byte_identical_modulo_metadata(self, tmp_path):
        args = ["ccdf", "--M", "4", "--N", "4", "--frames", "8", "--seed", "77",
                "--method", "proposed"]
        r1 = run_cli(*args, "--output", str(tmp_path / "a"))
        r2 = run_cli(*args, "--output", str(tmp_path / "b"))
        assert r1.returncode == 0 and r2.returncode == 0
        assert body_of(tmp_path / "a.samples.csv") == body_of(tmp_path / "b.samples.csv")
        assert body_of(tmp_path / "a.curve.csv") == body_of(tmp_path / "b.curve.csv")

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text('M = 4\nN = 4\nframes = 6\nmethod = "none"\nseed = 3\n')
        out = tmp_path / "c"
        r = run_cli("ccdf", "--config", str(cfg), "--frames", "4",
                    "--output", str(out))
        assert r.returncode == 0, r.stderr
        assert len(body_of(tmp_path / "c.samples.csv").splitlines()) == 1 + 4

    def test_single_method_required(self, tmp_path):
        r = run_cli("ccdf", "--M", "4", "--N", "4", "--frames", "2",
                    "--method", "none,proposed", "--output", str(tmp_path / "m"))
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert not (tmp_path / "m.samples.csv").exists()

    @pytest.mark.parametrize("bad", [("--mu", "0"), ("--icf-oversample", "1"),
                                     ("--icf-iterations", "0"), ("--modulation", "3")])
    def test_bad_stage_parameter_fails_before_any_frame(self, tmp_path, bad):
        r = run_cli("ccdf", "--method", "none", "--frames", "2", *bad,
                    "--output", str(tmp_path / "b"))
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unknown_profile_fails_cleanly(self, tmp_path):
        r = run_cli("ccdf", "--M", "4", "--N", "4", "--frames", "2",
                    "--profile", "nosuch", "--output", str(tmp_path / "u"))
        assert r.returncode == 1
        assert "error:" in r.stderr


# subcommand: (its extra arguments, suffix of the CSV the script plots,
# the x and y columns of that CSV)
PLOTS = {
    "ccdf": ((), ".curve.csv", "threshold_db", "ccdf"),
    "error-rate": (("--snr-db-list", "20"), ".csv", "snr_db", "ser"),
    "doppler-sweep": (("--nu-max-list", "0,600"), ".csv", "nu_max_hz", "ser"),
    "scaling-table": (("--sweep-m", "2,4"), ".csv", "M", "papr_db_at_ccdf_0p1"),
}


@pytest.mark.parametrize("command", sorted(PLOTS))
def test_plot_script_emission(tmp_path, command):
    extra, suffix, x, y = PLOTS[command]
    r = run_cli(command, "--M", "4", "--N", "4", "--frames", "3",
                *extra, "--output", str(tmp_path / "p"), "--plot-script")
    assert r.returncode == 0, r.stderr
    csv_path = tmp_path / f"p{suffix}"
    script = csv_path.with_suffix(".plot.py")
    text = script.read_text()
    compile(text, str(script), "exec")
    columns = body_of(csv_path).splitlines()[0].split(",")
    for column in (x, y):
        assert column in columns
        assert repr(column) in text
    assert repr(str(csv_path)) in text


class TestErrorRateCommand:
    def test_noiseless_identity_run(self, tmp_path):
        out = tmp_path / "er"
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "5",
                    "--profile", "identity", "--snr-db-list", "inf",
                    "--method", "none,dft", "--output", str(out))
        assert r.returncode == 0, r.stderr
        lines = body_of(tmp_path / "er.csv").splitlines()
        assert lines[0].startswith("method,snr_db")
        assert all(row.split(",")[7] == "0" for row in lines[1:])

    def test_missing_snr_grid_fails_cleanly(self):
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2")
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_large_grid_needs_no_dense_matrix(self, tmp_path):
        # A dense 4096 x 4096 receiver would exceed the oracle size guard.
        r = run_cli("error-rate", "--M", "64", "--N", "64", "--frames", "1",
                    "--snr-db-list", "18", "--output", str(tmp_path / "big"))
        assert r.returncode == 0, r.stderr
        row = body_of(tmp_path / "big.csv").splitlines()[1].split(",")
        assert row[3:5] == ["1", "4096"]


class TestDopplerSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "ds"
        r = run_cli("doppler-sweep", "--M", "4", "--N", "4", "--frames", "3",
                    "--nu-max-list", "0,600", "--method", "none",
                    "--output", str(out))
        assert r.returncode == 0, r.stderr
        assert len(body_of(tmp_path / "ds.csv").splitlines()) == 3

    def test_snr_comes_from_snr_db_list(self, tmp_path):
        r = run_cli("doppler-sweep", "--M", "4", "--N", "4", "--frames", "2",
                    "--nu-max-list", "0,600", "--method", "none",
                    "--snr-db-list", "5", "--output", str(tmp_path / "ds"))
        assert r.returncode == 0, r.stderr
        rows = body_of(tmp_path / "ds.csv").splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["5", "5"]


class TestScalingTableCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "st"
        r = run_cli("scaling-table", "--M", "4", "--frames", "10",
                    "--sweep-n", "2,4", "--method", "none", "--output", str(out))
        assert r.returncode == 0, r.stderr
        lines = body_of(tmp_path / "st.csv").splitlines()
        assert lines[0] == "M,N,method,papr_db_at_ccdf_0p1"
        assert len(lines) == 3

    def test_bad_grid_size_fails_before_any_frame(self, tmp_path):
        r = run_cli("scaling-table", "--sweep-m", "4,0", "--frames", "2",
                    "--output", str(tmp_path / "st"))
        assert r.returncode == 1
        assert "M=0" in r.stderr
        assert list(tmp_path.iterdir()) == []


class TestPrecodeCommand:
    def test_precode_from_stdin(self):
        r = run_cli("precode", "--M", "1", "--N", "2", "-",
                    stdin_text="1+0j\n1+0j\n")
        assert r.returncode == 0, r.stderr
        assert "papr_before_db: 3.010300" in r.stdout
        assert "papr_after_db:  2.552725" in r.stdout
        assert "flips: 0" in r.stdout

    def test_precode_from_file(self, tmp_path):
        symbols = tmp_path / "u.txt"
        symbols.write_text("1+0j\n-1+0j\n1+0j\n-1+0j\n")
        r = run_cli("precode", "--M", "2", "--N", "2", str(symbols))
        assert r.returncode == 0, r.stderr
        assert "iterations_used:" in r.stdout

    def test_bad_symbols_fail_cleanly(self):
        r = run_cli("precode", "--M", "1", "--N", "2", "-",
                    stdin_text="hello\nworld\n")
        assert r.returncode == 1


class TestConfigFile:
    def test_wrong_type_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frames = true\n")
        r = run_cli("ccdf", "--config", str(cfg), "--output", str(tmp_path / "b"))
        assert r.returncode == 1
        assert "error:" in r.stderr and "frames" in r.stderr
        assert list(tmp_path.iterdir()) == [cfg]


# A value for every config key's flag, unlike its default.
FLAG_VALUES = {
    "M": ("8", 8), "N": ("4", 4), "delta_f": ("30e3", 30e3),
    "modulation": ("8", 8), "amplitude": ("2", 2.0),
    "method": ("proposed", "proposed"), "frames": ("5", 5), "seed": ("3", 3),
    "snr_db_list": ("10,inf", (10.0, float("inf"))), "nu_max_hz": ("600", 600.0),
    "profile": ("identity", "identity"), "max_iter": ("7", 7), "mu": ("2.5", 2.5),
    "clip_ratio_db": ("6", 6.0), "icf_iterations": ("2", 2),
    "icf_oversample": ("8", 8), "dft_axis": ("doppler", "doppler"),
    "output_path": ("runs/x", "runs/x"),
}


def _config_from_flags(*argv):
    return cli._build_config(cli.build_parser().parse_args(["ccdf", *argv]))


@pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_config_key_has_a_flag(f):
    text, want = FLAG_VALUES[f.name]
    assert want != f.default
    flag = "--output" if f.name == "output_path" else "--" + f.name.replace("_", "-")
    value = getattr(_config_from_flags(flag, text), f.name)
    assert value == want
    assert isinstance(value, f.type) and not isinstance(value, bool)
    if f.type is tuple:
        assert all(type(v) is float for v in value)


@pytest.mark.parametrize("flag, text", [("--M", "2.5"), ("--frames", "abc")])
def test_bad_flag_value_names_its_key(flag, text):
    with pytest.raises(ParameterError, match=repr(flag[2:])):
        _config_from_flags(flag, text)


class TestProfileFile:
    def test_profile_file_round_trip(self, tmp_path):
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 1000]\npowers_db = [0, -3]\n")
        out = tmp_path / "pf"
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--method", "none", "--output", str(out))
        assert r.returncode == 0, r.stderr
        assert "profile=PathProfile(delays_ns=[0,1000],powers_db=[0,-3])" \
            in (tmp_path / "pf.csv").read_text()

    def test_one_number_is_a_one_path_profile(self, tmp_path):
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = 0\npowers_db = 0\n")
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--method", "none", "--output", str(tmp_path / "one"))
        assert r.returncode == 0, r.stderr
        assert "profile=PathProfile(delays_ns=[0],powers_db=[0])" \
            in (tmp_path / "one.csv").read_text()

    @pytest.mark.parametrize("text, key", [
        ('delays_ns = [0, "far"]\npowers_db = [0, -3]\n', "delays_ns"),
        ("delays_ns = [0, 50]\npowers_db = true\n", "powers_db"),
    ])
    def test_wrong_type_fails_cleanly(self, tmp_path, text, key):
        prof = tmp_path / "prof.cfg"
        prof.write_text(text)
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--output", str(tmp_path / "bad"))
        assert r.returncode == 1
        assert "error:" in r.stderr and key in r.stderr
        assert "Traceback" not in r.stderr
        assert list(tmp_path.iterdir()) == [prof]

    def test_delay_beyond_one_block_fails_before_any_frame(self, tmp_path):
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 70000]\npowers_db = [0, -3]\n")
        r = run_cli("error-rate", "--M", "16", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--output", str(tmp_path / "far"))
        assert r.returncode == 1
        assert "error:" in r.stderr and "not below M=16" in r.stderr
        assert list(tmp_path.iterdir()) == [prof]

    def test_profile_file_missing_key(self, tmp_path):
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 1000]\n")
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof))
        assert r.returncode == 1
        assert "error:" in r.stderr
