"""The benchmark's workloads: the configs they hand to `otfs-papr`, and
the checks their outputs must pass.

A round is one whole unit of work: the config for one round seed, the
`otfs-papr` invocations that run it, and the checks of what they wrote.
Every check is a property the method must have, never a comparison
against stored output.  `check_round` runs on one round's CSVs;
`check_run` runs on the pooled counts of all rounds in a run (the SER
ordering is a statistical property, so it is checked on the most frames
the run has).
"""

import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

# The values of configs/reference-tables.cfg, frozen here so that a later
# change to that file does not change what the benchmark measures.
REFERENCE = {
    "M": 16, "N": 16, "delta_f": 15000, "modulation": 4, "amplitude": 1.0,
    "profile": "etu300", "nu_max_hz": 300, "max_iter": 0, "mu": 4.0,
    "clip_ratio_db": 5.0, "icf_iterations": 3, "icf_oversample": 4,
    "dft_axis": "delay",
}
ALL_METHODS = ("none", "proposed", "companding", "icf", "dft")
CCDF_TARGET = 0.1
DFT_LAW_TOL_DB = 0.5
# Slack for comparing PAPR values that the CSVs print with 10 significant
# digits: below 100 dB a printed value is within 5e-9 dB of the true one,
# so two printed values are within 1e-8 dB of their true difference.
PRINT_TOL_DB = 1e-8


@dataclass(frozen=True)
class Invocation:
    """One `otfs-papr` process: its subcommand arguments (without
    --config and --output), the stem of its output, and how many
    method-frames it carries."""

    label: str
    args: tuple
    method_frames: int


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    invocations: tuple
    check_round: object  # (round_dir, config) -> (problems, pooled counts)
    check_run: object = field(default=lambda pooled, config: [])
    min_rounds: int = 1


def round_seed(seed: int, index: int) -> int:
    """Config seed of round `index` of a run with workload seed `seed`."""
    return random.Random(f"{seed}/{index}").randrange(1, 2 ** 31)


def render_config(config: dict) -> str:
    def value(v):
        if isinstance(v, str):
            return f'"{v}"'
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(str(x) for x in v) + "]"
        return str(v)
    return "".join(f"{k} = {value(v)}\n" for k, v in config.items())


def read_csv(path: Path):
    """Header lines (without '#') and rows of string fields."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line[1:].strip())
        elif line:
            rows.append(line.split(","))
    return header, rows[0], rows[1:]


def csv_bodies(round_dir: Path) -> dict:
    """{file name: body without '#' lines} for every CSV of a round."""
    return {p.name: "\n".join(l for l in p.read_text().splitlines()
                              if not l.startswith("#"))
            for p in sorted(round_dir.glob("*.csv"))}


def skipped_frames(round_dir: Path) -> int:
    """Frames the receiver skipped, from the `# skipped: ... count=K` lines."""
    total = 0
    for p in round_dir.glob("*.csv"):
        header, _, _ = read_csv(p)
        total += sum(int(h.rpartition("count=")[2]) for h in header
                     if h.startswith("skipped:"))
    return total


def fmt(v: float) -> str:
    """The number format of the program's CSVs."""
    return f"{v:.10g}"


def full_spread_papr_db(MN: int, target: float) -> float:
    """PAPR at CCDF `target` of a frame whose MN samples are i.i.d.
    unit-power complex Gaussian: P(PAPR > g) = 1 - (1 - e^-g)^MN."""
    return 10 * math.log10(-math.log(1 - (1 - target) ** (1 / MN)))


# ---------------------------------------------------------------------------
# ccdf-16x16


def _header_value(header, key: str) -> float:
    for h in header:
        if h.startswith(key + ":"):
            return float(h.partition(":")[2])
    raise KeyError(key)


def exceedance_matches(curve, samples, frames: int) -> bool:
    """Whether the curve rows are, at 0, 0.1, ..., 13 dB, the fraction of
    `samples` above each threshold.  A sample that is printed within
    PRINT_TOL_DB of a threshold may be on either side of it (a
    delay-axis DFT frame can print as exactly 10 dB), so it may count
    either way."""
    if len(curve) != 131:
        return False
    for k, row in enumerate(curve):
        t = k / 10
        above = sum(s > t + PRINT_TOL_DB for s in samples)
        near = sum(abs(s - t) <= PRINT_TOL_DB for s in samples)
        allowed = {fmt(c / frames) for c in range(above, above + near + 1)}
        if row[:1] != [fmt(t)] or len(row) != 2 or row[1] not in allowed:
            return False
    return True


def check_ccdf(round_dir: Path, config: dict):
    problems = []
    frames, N = config["frames"], config["N"]
    samples, at_target = {}, {}
    for m in ALL_METHODS:
        header, cols, rows = read_csv(round_dir / f"{m}.samples.csv")
        if cols != ["frame_idx", "papr_db"] or \
                [r[0] for r in rows] != [str(i) for i in range(frames)]:
            problems.append(f"{m}: samples CSV is not frame_idx 0..{frames - 1}")
            continue
        samples[m] = [float(r[1]) for r in rows]
        at_target[m] = _header_value(header, f"papr_db_at_ccdf_{CCDF_TARGET}")
        _, cols, curve = read_csv(round_dir / f"{m}.curve.csv")
        if cols != ["threshold_db", "ccdf"] or \
                not exceedance_matches(curve, samples[m], frames):
            problems.append(f"{m}: curve CSV differs from the exceedance "
                            "fractions of its samples")
    if len(samples) < len(ALL_METHODS):
        return problems, {}
    none = samples["none"]
    bound = 10 * math.log10(N)
    for f, (n, p, c) in enumerate(zip(none, samples["proposed"], samples["companding"])):
        if not p < n:
            problems.append(f"frame {f}: proposed {p} dB not below none {n} dB")
        if not c <= n + PRINT_TOL_DB:
            problems.append(f"frame {f}: companding {c} dB above none {n} dB")
        if not n <= bound + PRINT_TOL_DB:
            problems.append(f"frame {f}: none {n} dB above 10*log10(N) = {bound:.4f}")
    if not at_target["icf"] < at_target["none"]:
        problems.append(f"icf {at_target['icf']} dB not below none "
                        f"{at_target['none']} dB at CCDF {CCDF_TARGET}")
    law = full_spread_papr_db(config["M"] * N, CCDF_TARGET)
    if not abs(at_target["dft"] - law) <= DFT_LAW_TOL_DB:
        problems.append(f"dft {at_target['dft']} dB at CCDF {CCDF_TARGET}, "
                        f"law {law:.3f} +/- {DFT_LAW_TOL_DB}")
    return problems, {}


# ---------------------------------------------------------------------------
# error-rate workloads


def check_error_rate(round_dir: Path, config: dict):
    """Per-row identities; returns {(method, snr): [symbols, errors]}."""
    problems, pooled = [], {}
    MN = config["M"] * config["N"]
    bits_per_symbol = int(math.log2(config["modulation"]))
    header, cols, rows = read_csv(round_dir / "error-rate.csv")
    if cols != ["method", "snr_db", "nu_max_hz", "frames", "symbols",
                "symbol_errors", "bit_errors", "ser", "ber"]:
        return [f"unexpected columns {cols}"], {}
    methods = config["method"].split(",")
    want = {(m, float(s)) for s in config["snr_db_list"] for m in methods}
    got = [(r[0], float(r[1])) for r in rows]
    if sorted(got) != sorted(want):
        return [f"rows {sorted(got)} are not every (method, SNR) of {sorted(want)}"], {}
    skipped = {}
    for h in header:
        if h.startswith("skipped:"):
            kv = dict(part.split("=") for part in h.split()[1:])
            skipped[(kv["method"], float(kv["snr_db"]))] = int(kv["count"])
    for r in rows:
        key = (r[0], float(r[1]))
        frames, symbols, sym_err, bit_err = map(int, r[3:7])
        bits = symbols * bits_per_symbol
        where = f"{r[0]} at {r[1]} dB"
        if float(r[2]) != float(config["nu_max_hz"]):
            problems.append(f"{where}: nu_max_hz {r[2]}")
        if frames != config["frames"] - skipped.get(key, 0):
            problems.append(f"{where}: {frames} frames, config has "
                            f"{config['frames']} less {skipped.get(key, 0)} skipped")
        if symbols != frames * MN:
            problems.append(f"{where}: {symbols} symbols != frames*MN = {frames * MN}")
        if not sym_err <= bit_err <= bits_per_symbol * sym_err:
            problems.append(f"{where}: bit errors {bit_err} outside "
                            f"[{sym_err}, {bits_per_symbol * sym_err}]")
        if symbols and (r[7] != fmt(sym_err / symbols) or r[8] != fmt(bit_err / bits)):
            problems.append(f"{where}: ser {r[7]} / ber {r[8]} are not errors "
                            f"over symbols {symbols} / bits {bits}")
        pooled[key] = [symbols, sym_err]
    return problems, pooled


def check_ser_ordering(pooled: dict, config: dict):
    """SER does not increase with SNR, on the run's pooled counts."""
    problems = []
    for m in config["method"].split(","):
        sers = [(s, pooled[(m, float(s))][1] / pooled[(m, float(s))][0])
                for s in sorted(config["snr_db_list"]) if pooled[(m, float(s))][0]]
        for (s0, e0), (s1, e1) in zip(sers, sers[1:]):
            if e1 > e0:
                problems.append(f"{m}: SER {e1:.3g} at {s1} dB above {e0:.3g} "
                                f"at {s0} dB")
    return problems


# ---------------------------------------------------------------------------
# scaling-m


def check_scaling(round_dir: Path, config: dict, sweep: tuple):
    problems = []
    _, cols, rows = read_csv(round_dir / "scaling-table.csv")
    methods = config["method"].split(",")
    table = {(int(r[0]), int(r[1]), r[2]): float(r[3]) for r in rows}
    want = [(M, config["N"], m) for M in sweep for m in methods]
    if cols != ["M", "N", "method", "papr_db_at_ccdf_0p1"] or \
            sorted(table) != sorted(want) or len(rows) != len(want):
        return [f"rows {sorted(table)} are not every (M, N, method) of {want}"], {}
    bound = 10 * math.log10(config["N"])
    for M in sweep:
        none, prop = table[(M, config["N"], "none")], table[(M, config["N"], "proposed")]
        if not prop < none:
            problems.append(f"M={M}: proposed {prop} dB not below none {none} dB")
        if not none <= bound + PRINT_TOL_DB:
            problems.append(f"M={M}: none {none} dB above 10*log10(N) = {bound:.4f}")
    return problems, {}


# ---------------------------------------------------------------------------
# The workloads.  A round takes a few seconds on a 2-vCPU Xeon with
# single-threaded BLAS.  The statistical checks hold with a wide margin:
# the DFT law at CCDF 0.1 on the 400 frames of each round, and the SER
# ordering on the *_POOLED_FRAMES frames per SNR point that set the
# error-rate workloads' least number of rounds per run.  README.md gives
# the figures.

CCDF_FRAMES = 400
SCALING_FRAMES = 16
ER16_FRAMES = 20
ER64_FRAMES = 4
ER16_POOLED_FRAMES = 160
ER64_POOLED_FRAMES = 32


def _ccdf_16x16():
    config = dict(REFERENCE, frames=CCDF_FRAMES)
    return Workload(
        name="ccdf-16x16", config=config,
        invocations=tuple(Invocation(m, ("ccdf", "--method", m), CCDF_FRAMES)
                          for m in ALL_METHODS),
        check_round=check_ccdf)


def _error_rate(name, M, methods, snrs, frames, pooled_frames):
    config = dict(REFERENCE, M=M, frames=frames, method=",".join(methods),
                  snr_db_list=snrs)
    return Workload(
        name=name, config=config,
        invocations=(Invocation("error-rate", ("error-rate",),
                                frames * len(methods) * len(snrs)),),
        check_round=check_error_rate, check_run=check_ser_ordering,
        min_rounds=pooled_frames // frames)


def _scaling_m():
    sweep = (16, 32, 64)
    methods = ("none", "proposed")
    config = dict(REFERENCE, frames=SCALING_FRAMES, method=",".join(methods))
    return Workload(
        name="scaling-m", config=config,
        invocations=(Invocation(
            "scaling-table",
            ("scaling-table", "--sweep-m", ",".join(map(str, sweep))),
            SCALING_FRAMES * len(sweep) * len(methods)),),
        check_round=partial(check_scaling, sweep=sweep))


WORKLOADS = {w.name: w for w in (
    _ccdf_16x16(),
    _error_rate("error-rate-16x16", 16, ALL_METHODS, (10, 14, 18),
                ER16_FRAMES, ER16_POOLED_FRAMES),
    _scaling_m(),
    _error_rate("error-rate-64x16", 64, ("none", "proposed"), (14, 18),
                ER64_FRAMES, ER64_POOLED_FRAMES),
)}
