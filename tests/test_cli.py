"""CLI surface: subcommands, config files, overrides, exit codes."""

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import otfs_papr
from otfs_papr import (ExperimentConfig, FrameParams, ParameterError, cli,
                       experiment, modulate, papr)

CLI = [sys.executable, "-m", "otfs_papr.cli"]
# The child imports the package from where this process found it.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(Path(otfs_papr.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")))))


def run_cli(*args, stdin_text=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin_text, env=ENV)


def header_of(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


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
                                     ("--icf-iterations", "0"), ("--modulation", "3"),
                                     ("--amplitude", "inf"), ("--clip-ratio-db", "nan"),
                                     ("--amplitude", "1e-160"), ("--clip-ratio-db=-2000",)])
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


# subcommand: (its extra arguments, its runner on a config, {CSV suffix:
# renderer} in the order written, the summary lines of a result)
COMMAND_PATHS = {
    "ccdf": (
        ("--method", "proposed"), experiment.run_ccdf,
        {".samples.csv": experiment.render_ccdf_samples_csv,
         ".curve.csv": experiment.render_ccdf_curve_csv},
        lambda r: [f"papr_db at ccdf {t}: {r.papr_at_targets[t]:.3f}" for t in (0.5, 0.1)]),
    "error-rate": (
        ("--method", "none,proposed,companding,icf,dft", "--snr-db-list", "10,inf"),
        experiment.run_error_rate, {".csv": experiment.render_error_rate_csv},
        lambda r: [f"{p.method} snr={p.snr_db:g} dB nu_max={p.nu_max_hz:g} Hz: "
                   f"ser={p.counts.ser:.6g} ber={p.counts.ber:.6g}" for p in r.points]),
    "doppler-sweep": (
        ("--method", "none,dft", "--nu-max-list", "0,600"),
        lambda cfg: experiment.run_doppler_sweep(cfg, nu_max_list=(0.0, 600.0)),
        {".csv": experiment.render_error_rate_csv},
        lambda r: [f"{p.method} nu_max={p.nu_max_hz:g} Hz: ser={p.counts.ser:.6g}"
                   for p in r.points]),
    "scaling-table": (
        ("--method", "none,proposed", "--sweep-m", "2,4"),
        lambda cfg: experiment.run_scaling_table(cfg, sweep_m=(2, 4)),
        {".csv": experiment.render_scaling_csv},
        lambda r: [f"M={row.M} N={row.N} {row.method}: {row.papr_db_at_ccdf_0p1:.3f} dB"
                   for row in r.rows]),
}


@pytest.mark.parametrize("command", sorted(COMMAND_PATHS))
def test_command_writes_what_the_library_renders(tmp_path, capsys, command):
    """Each runner subcommand writes exactly its rendered CSVs and the
    plot script of the last one, then prints one `wrote` line per file
    and the result's summary lines."""
    extra, runner, renderers, summary = COMMAND_PATHS[command]
    argv = [command, *extra, "--M", "4", "--N", "4", "--frames", "3",
            "--profile", "identity", "--output", str(tmp_path / "p"), "--plot-script"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    result = runner(cfg)
    paths = [tmp_path / f"p{suffix}" for suffix in renderers]
    for path, render in zip(paths, renderers.values()):
        assert experiment.csv_body(path.read_text()) == \
            experiment.csv_body(render(result))
    written = paths + [paths[-1].with_suffix(".plot.py")]
    assert sorted(tmp_path.iterdir()) == sorted(written)
    assert printed == [f"wrote {path}" for path in written] + summary(result)


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

    def test_snr_beyond_float_range_is_noiseless(self, tmp_path):
        """10^(4000/10) overflows a float; the run gives the `inf` rows."""
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "3",
                    "--snr-db-list", "4000,inf", "--method", "none,proposed",
                    "--output", str(tmp_path / "er"))
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        rows = [row.split(",") for row in body_of(tmp_path / "er.csv").splitlines()[1:]]
        assert [row[1] for row in rows] == ["4000", "4000", "inf", "inf"]
        assert [row[3:] for row in rows[:2]] == [row[3:] for row in rows[2:]]

    def test_any_power_of_two_order_counts_bits(self, tmp_path):
        """The bit count follows the alphabet: 512-PSK has 9 bits a symbol."""
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "3",
                    "--modulation", "512", "--method", "none,proposed",
                    "--snr-db-list", "10,inf", "--output", str(tmp_path / "er"))
        assert r.returncode == 0, r.stderr
        lines = body_of(tmp_path / "er.csv").splitlines()
        assert len(lines) == 1 + 4

    def test_snr_whose_noise_overflows_is_named(self, tmp_path):
        """At -3082 dB the noise variance of a frame of power 4 overflows;
        the run fails naming the SNR, not the receiver's loading."""
        r = run_cli("error-rate", "--snr-db-list", "-3082", "--profile", "identity",
                    "--M", "4", "--N", "4", "--frames", "2", "--method", "none",
                    "--output", str(tmp_path / "er"))
        assert r.returncode == 1
        assert "error: snr_db = -3082.0 gives an infinite noise variance" in r.stderr
        assert list(tmp_path.iterdir()) == []

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

    def test_header_echoes_the_swept_grid_not_the_config_value(self, tmp_path):
        r = run_cli("doppler-sweep", "--M", "4", "--N", "4", "--frames", "1",
                    "--nu-max-list", "0,300", "--method", "none",
                    "--nu-max-hz", "600", "--output", str(tmp_path / "ds"))
        assert r.returncode == 0, r.stderr
        header = header_of(tmp_path / "ds.csv")
        config = next(h for h in header if h.startswith("# config: "))
        assert "nu_max_hz" not in config and "M=4 N=4" in config
        assert "# sweep: nu_max_hz=[0,300]" in header


class TestScalingTableCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "st"
        r = run_cli("scaling-table", "--M", "4", "--frames", "10",
                    "--sweep-n", "2,4", "--method", "none", "--output", str(out))
        assert r.returncode == 0, r.stderr
        lines = body_of(tmp_path / "st.csv").splitlines()
        assert lines[0] == "M,N,method,papr_db_at_ccdf_0p1"
        assert len(lines) == 3

    @pytest.mark.parametrize("axis,held", [("m", "N=4"), ("n", "M=4")])
    def test_header_echoes_the_swept_dimension(self, tmp_path, axis, held):
        r = run_cli("scaling-table", "--M", "4", "--N", "4", "--frames", "2",
                    f"--sweep-{axis}", "2,8", "--method", "none",
                    "--output", str(tmp_path / "st"))
        assert r.returncode == 0, r.stderr
        header = header_of(tmp_path / "st.csv")
        config = next(h for h in header if h.startswith("# config: ")).split()
        assert held in config and f"{axis.upper()}=4" not in config
        assert f"# sweep: {axis.upper()}=[2,8]" in header

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

    def test_reports_before_and_after(self, tmp_path, capsys):
        symbols = tmp_path / "u.txt"
        symbols.write_text("1+0j\n" * 4)
        assert cli.main(["precode", "--M", "2", "--N", "2", "--modulation", "2",
                         str(symbols)]) == 0
        report = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                      if line.startswith("papr_"))
        before = papr(modulate([1.0] * 4, FrameParams(M=2, N=2))).value_db
        assert report["papr_before_db"].strip() == f"{before:.6f}"
        assert float(report["papr_after_db"]) <= float(report["papr_before_db"])

    def test_bad_symbols_fail_cleanly(self):
        r = run_cli("precode", "--M", "1", "--N", "2", "-",
                    stdin_text="hello\nworld\n")
        assert r.returncode == 1

    @pytest.mark.parametrize("flag", [["--plot-script"],
                                      ["--profile-file", "/nonexistent.toml"]])
    def test_runner_only_flags_are_rejected(self, tmp_path, capsys, flag):
        """precode writes no CSV and runs no channel, so it has no
        --plot-script or --profile-file to ignore."""
        symbols = tmp_path / "u.txt"
        symbols.write_text("1+0j\n" * 4)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["precode", str(symbols), "--M", "2", "--N", "2", *flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["doppler-sweep", "--nu-max-list", "0,abc"], "'nu_max_list' expects a number"),
    (["doppler-sweep", "--nu-max-list", "-300"], "nu_max_hz must be finite and >= 0"),
    (["doppler-sweep", "--nu-max-list", "0,-300"], "nu_max_hz must be finite and >= 0"),
    (["error-rate", "--snr-db-list", "nan"], "snr_db_list must not hold NaN"),
    (["scaling-table", "--sweep-m", "4.5"], "'sweep_m' expects an integer"),
    (["scaling-table", "--sweep-n", "4,x"], "'sweep_n' expects a number"),
    (["error-rate", "--snr-db-list=-inf,0"], "snr_db_list must not hold NaN, -inf"),
    (["doppler-sweep", "--nu-max-list", ","], "nu_max_list must be non-empty"),
    (["scaling-table", "--sweep-m", ","], "sweep_m must be non-empty"),
    (["scaling-table", "--sweep-n", ","], "sweep_n must be non-empty"),
])
def test_bad_sweep_value_fails_before_any_frame(tmp_path, monkeypatch, capsys,
                                                argv, named):
    calls = []
    monkeypatch.setattr(experiment, "_chunks", lambda *a: calls.append(a))
    assert cli.main([*argv, "--profile", "identity", "--frames", "1",
                     "--output", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []


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

    def test_delay_beyond_one_block_runs(self, tmp_path):
        # 70 us at 16 x 15 kHz is tap 17: the receiver takes blocks of 32.
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 70000]\npowers_db = [0, -3]\n")
        r = run_cli("error-rate", "--M", "16", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--output", str(tmp_path / "far"))
        assert r.returncode == 0, r.stderr
        rows = [row.split(",") for row in body_of(tmp_path / "far.csv").splitlines()]
        assert rows[1][:5] == ["none", "20", "300", "2", "128"]

    @pytest.mark.parametrize("powers", ["[0.0, 4000.0]", "[-4000.0, -4000.0]"])
    def test_extreme_finite_powers_run(self, tmp_path, powers):
        # Linear powers of 10^400 overflow and of 10^-400 underflow.
        prof = tmp_path / "prof.toml"
        prof.write_text(f"delays_ns = [0, 1000]\npowers_db = {powers}\n")
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--method", "none", "--snr-db-list", "10",
                    "--profile-file", str(prof), "--output", str(tmp_path / "ext"))
        assert r.returncode == 0, r.stderr
        rows = [row.split(",") for row in body_of(tmp_path / "ext.csv").splitlines()]
        assert len(rows) == 2 and rows[1][3:5] == ["2", "32"]
        assert all(math.isfinite(float(v)) for v in rows[1][5:])

    def test_delay_beyond_one_frame_fails_before_any_frame(self, tmp_path):
        # 300 us at 16 x 15 kHz is tap 72, beyond the frame's 64 samples.
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 300000]\npowers_db = [0, -3]\n")
        r = run_cli("error-rate", "--M", "16", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof),
                    "--output", str(tmp_path / "far"))
        assert r.returncode == 1
        assert "error:" in r.stderr and "tap 72 is not below MN=64" in r.stderr
        assert list(tmp_path.iterdir()) == [prof]

    @pytest.mark.parametrize("delays, powers, message", [
        ("[0.0, nan]", "[0.0, -3.0]", "delays_ns must be finite"),
        ("[0.0, inf]", "[0.0, -3.0]", "delays_ns must be finite"),
        # Tap 6e25 does not fit an int64; it fails like any tap >= MN.
        ("[0.0, 1e30]", "[0.0, -3.0]", "is not below MN=16"),
        ("[0.0, 50.0]", "[0.0, nan]", "powers_db must be finite"),
        ("[0.0, 50.0]", "[0.0, inf]", "powers_db must be finite"),
    ])
    def test_bad_profile_value_fails_before_any_frame(self, tmp_path, delays,
                                                      powers, message):
        prof = tmp_path / "prof.toml"
        prof.write_text(f"delays_ns = {delays}\npowers_db = {powers}\n")
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--method", "none", "--snr-db-list", "10",
                    "--profile-file", str(prof), "--output", str(tmp_path / "bad"))
        assert r.returncode == 1
        assert "error:" in r.stderr and message in r.stderr
        assert "Traceback" not in r.stderr
        assert list(tmp_path.iterdir()) == [prof]

    def test_profile_file_missing_key(self, tmp_path):
        prof = tmp_path / "prof.cfg"
        prof.write_text("delays_ns = [0, 1000]\n")
        r = run_cli("error-rate", "--M", "4", "--N", "4", "--frames", "2",
                    "--snr-db-list", "20", "--profile-file", str(prof))
        assert r.returncode == 1
        assert "error:" in r.stderr


@pytest.mark.parametrize("argv, runner, grid_sizes", [
    (["ccdf", "--method", "proposed"], "run_ccdf", 1),
    (["error-rate", "--method", "none,proposed", "--snr-db-list", "6,12"],
     "run_error_rate", 1),
    (["doppler-sweep", "--method", "none,proposed", "--nu-max-list", "0,600"],
     "run_doppler_sweep", 1),
    (["scaling-table", "--method", "none,proposed", "--sweep-m", "2,4"],
     "run_scaling_table", 2),
])
def test_runners_and_frame_rng_are_looked_up_on_experiment(
        tmp_path, monkeypatch, argv, runner, grid_sizes):
    """The benchmark's contract with the package (bench/harness.py): it
    replaces experiment's run_* runners and frame_rng before it calls
    cli.main, and takes set-up time up to the first runner entry and
    frame times from the frame_rng calls.  So the CLI looks each runner up
    on `experiment` when the command runs, and every frame draws exactly
    one frame_rng, after the runner is entered."""
    events = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return call

    for name, fn in list(vars(experiment).items()):
        if name.startswith("run_") and callable(fn):
            monkeypatch.setattr(experiment, name, recorded(name, fn))
    monkeypatch.setattr(experiment, "frame_rng",
                        recorded("frame_rng", experiment.frame_rng))
    frames = 3
    assert cli.main([*argv, "--M", "4", "--N", "4", "--frames", str(frames),
                     "--profile", "etu300", "--output", str(tmp_path / "out")]) == 0
    assert events == [runner] + ["frame_rng"] * (frames * grid_sizes)
