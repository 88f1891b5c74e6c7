"""Command-line experiment runner.

Subcommands mirror the experiment runners; every config key can come
from a TOML config file (--config) and be overridden by the same-named
flag.  All file output happens here, never in the library modules.
"""

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiment
from .config import (ExperimentConfig, config_from_mapping, parse_config_text,
                     profile_from_mapping)
from .errors import ParameterError


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="TOML config file")
    for f in fields(ExperimentConfig):
        # Flags give text; config_from_mapping coerces it like file values.
        p.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                       dest=f.name, help=f.metadata.get("help"))
    p.add_argument("--profile-file", help="TOML file with delays_ns, powers_db")
    p.add_argument("--plot-script", action="store_true", dest="plot_script",
                   help="also emit a matplotlib script consuming the CSV")


def _build_config(args) -> ExperimentConfig:
    mapping = parse_config_text(Path(args.config).read_text()) if args.config else {}
    mapping.update({f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                    if getattr(args, f.name) is not None})
    return config_from_mapping(mapping)


def _load_profile_file(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "profile_file", None):
        profile = profile_from_mapping(
            parse_config_text(Path(args.profile_file).read_text()))
        cfg = replace(cfg, profile=profile)
    return cfg


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Plot {ylabel} against {xlabel} from `otfs-papr {kind}` output.\"\"\"
import csv
import math
import sys
from collections import defaultdict
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else {csv!r}
XSCALE, YSCALE = {xscale!r}, {yscale!r}
curves = defaultdict(list)
with open(path) as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        x = math.prod(float(row[c]) for c in {x!r})
        curves[row.get("method", "")].append((x, float(row[{y!r}])))
for method, pts in sorted(curves.items()):
    if YSCALE == "log":  # a log axis cannot show zeros
        pts = [p for p in pts if p[1] > 0]
    plt.plot(*zip(*sorted(pts)), marker=".", label=method or None)
plt.xscale(XSCALE)
plt.yscale(YSCALE)
plt.xlabel({xlabel!r})
plt.ylabel({ylabel!r})
if any(curves):
    plt.legend()
plt.grid(True, which="both", alpha=0.3)
plt.tight_layout()
plt.show()
"""

# Per subcommand: the CSV columns whose product is x, the y column, the
# x and y axis scales and labels.
_PLOTS = {
    "ccdf": (("threshold_db",), "ccdf", "linear", "log",
             "PAPR threshold (dB)", "P(PAPR > threshold)"),
    "error-rate": (("snr_db",), "ser", "linear", "log", "SNR (dB)", "SER"),
    "doppler-sweep": (("nu_max_hz",), "ser", "linear", "log",
                      "maximum Doppler shift (Hz)", "SER"),
    "scaling-table": (("M", "N"), "papr_db_at_ccdf_0p1", "log", "linear",
                      "frame size M*N", "PAPR at CCDF 0.1 (dB)"),
}


def _maybe_write_plot_script(args, kind: str, csv_path: Path):
    if getattr(args, "plot_script", False):
        x, y, xscale, yscale, xlabel, ylabel = _PLOTS[kind]
        script = _PLOT_TEMPLATE.format(
            kind=kind, csv=str(csv_path), x=x, y=y, xscale=xscale,
            yscale=yscale, xlabel=xlabel, ylabel=ylabel)
        _write(csv_path.with_suffix(".plot.py"), script)


def _cmd_ccdf(args) -> int:
    cfg = _load_profile_file(_build_config(args), args)
    result = experiment.run_ccdf(cfg)
    stem = Path(cfg.output_path)
    _write(stem.with_suffix(".samples.csv"), experiment.render_ccdf_samples_csv(result))
    curve_path = stem.with_suffix(".curve.csv")
    _write(curve_path, experiment.render_ccdf_curve_csv(result))
    _maybe_write_plot_script(args, "ccdf", curve_path)
    for target, value in sorted(result.papr_at_targets.items(), reverse=True):
        print(f"papr_db at ccdf {target}: {value:.3f}")
    return 0


def _cmd_error_rate(args) -> int:
    cfg = _load_profile_file(_build_config(args), args)
    result = experiment.run_error_rate(cfg)
    csv_path = Path(cfg.output_path).with_suffix(".csv")
    _write(csv_path, experiment.render_error_rate_csv(result))
    _maybe_write_plot_script(args, "error-rate", csv_path)
    for p in result.points:
        print(f"{p.method} snr={p.snr_db:g} dB nu_max={p.nu_max_hz:g} Hz: "
              f"ser={p.counts.ser:.6g} ber={p.counts.ber:.6g}")
    return 0


def _cmd_doppler_sweep(args) -> int:
    cfg = _load_profile_file(_build_config(args), args)
    nus = None
    if args.nu_max_list:
        nus = [float(v) for v in args.nu_max_list.split(",")]
    result = experiment.run_doppler_sweep(cfg, nu_max_list=nus)
    csv_path = Path(cfg.output_path).with_suffix(".csv")
    _write(csv_path, experiment.render_error_rate_csv(result))
    _maybe_write_plot_script(args, "doppler-sweep", csv_path)
    for p in result.points:
        print(f"{p.method} nu_max={p.nu_max_hz:g} Hz: ser={p.counts.ser:.6g}")
    return 0


def _cmd_scaling_table(args) -> int:
    cfg = _load_profile_file(_build_config(args), args)
    sweep_m = [int(v) for v in args.sweep_m.split(",")] if args.sweep_m else None
    sweep_n = [int(v) for v in args.sweep_n.split(",")] if args.sweep_n else None
    result = experiment.run_scaling_table(cfg, sweep_m=sweep_m, sweep_n=sweep_n)
    csv_path = Path(cfg.output_path).with_suffix(".csv")
    _write(csv_path, experiment.render_scaling_csv(result))
    _maybe_write_plot_script(args, "scaling-table", csv_path)
    for r in result.rows:
        print(f"M={r.M} N={r.N} {r.method}: {r.papr_db_at_ccdf_0p1:.3f} dB")
    return 0


def _cmd_precode(args) -> int:
    cfg = _build_config(args)
    text = sys.stdin.read() if args.symbols == "-" else Path(args.symbols).read_text()
    u = [complex(line.strip().replace(" ", "")) for line in text.splitlines()
         if line.strip()]
    result = experiment.precode_frame(u, cfg)
    print(f"papr_before_db: {result.papr_before_db:.6f}")
    print(f"papr_after_db:  {result.papr_after_db:.6f}")
    print(f"iterations_used: {result.iterations_used}")
    print(f"flips: {','.join(map(str, result.flips)) or '-'}")
    for v in result.x_star:
        print(f"{v.real:+.12g}{v.imag:+.12g}j")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfs-papr",
        description="OTFS PAPR-reduction experiments: CCDFs, error rates, "
                    "Doppler sweeps and grid-size scaling tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ccdf", help="per-frame PAPR samples and CCDF curve")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ccdf)

    p = sub.add_parser("error-rate", help="SER/BER over an SNR grid")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_error_rate)

    p = sub.add_parser("doppler-sweep", help="SER at fixed SNR over a Doppler grid")
    _add_config_flags(p)
    p.add_argument("--nu-max-list", help="comma-separated Doppler grid in Hz")
    p.set_defaults(func=_cmd_doppler_sweep)

    p = sub.add_parser("scaling-table", help="PAPR at CCDF 0.1 over grid sizes")
    _add_config_flags(p)
    p.add_argument("--sweep-m", help="comma-separated M values")
    p.add_argument("--sweep-n", help="comma-separated N values")
    p.set_defaults(func=_cmd_scaling_table)

    p = sub.add_parser("precode", help="precode one frame of symbols")
    _add_config_flags(p)
    p.add_argument("symbols", help="file of complex symbols, one per line; - for stdin")
    p.set_defaults(func=_cmd_precode)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
