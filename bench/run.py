"""Benchmark of the `otfs-papr` experiments, end to end and layer by layer.

    python3 bench/run.py --workload ccdf-16x16 --seed 1 --seconds 25 --trace 0

Run from a source checkout (the package is imported from `src/`, not
installed).  The run repeats whole rounds of its workload (see
workloads.py), each round with its own config seed derived from --seed,
until --seconds have passed.  Every `otfs-papr` command runs in a fresh
single-threaded interpreter (bench/harness.py).  Each round's outputs
are checked, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation is one method-frame; it fails if the receiver skips it or
if its command exits non-zero.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 its per-layer ones: each
round then runs once untraced and once traced, and the two must write
byte-identical CSV bodies.  Outputs, per-process reports and the full
per-layer table go to bench/out/<workload>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, csv_bodies, render_config, round_seed, skipped_frames

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 150
# No round starts unless the run can still end within this many seconds.
DEADLINE_S = 170
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


@dataclass
class Process:
    ok: bool
    wall_s: float
    setup_s: float = 0.0
    frame_s: float = 0.0
    frame_times: list = field(default_factory=list)
    rss_mb: float = 0.0
    report: dict = field(default_factory=dict)


@dataclass
class Round:
    config: dict
    directory: Path
    processes: list  # [(Invocation, Process)]

    @property
    def ok(self) -> bool:
        return all(p.ok for _, p in self.processes)

    @property
    def method_frames(self) -> int:
        return sum(inv.method_frames for inv, _ in self.processes)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for _, p in self.processes)

    @property
    def frame_times(self) -> list:
        return [t for _, p in self.processes for t in p.frame_times]


def run_process(args, report_path: Path, trace: bool) -> Process:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "harness.py"), str(report_path),
           "1" if trace else "0", "--", *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}", file=sys.stderr)
        return Process(ok=False, wall_s=time.monotonic() - start)
    wall = time.monotonic() - start
    if proc.returncode != 0 or not report_path.exists():
        print(f"exit {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return Process(ok=False, wall_s=wall)
    report = json.loads(report_path.read_text())
    # Interval k runs from method-frame mark k to the next one; the first
    # from the runner's entry, the last to the command's return.
    bounds = [report["first_frame"], *report["marks"][1:], report["end"]]
    return Process(ok=True, wall_s=wall, setup_s=report["first_frame"] - start,
                   frame_s=report["end"] - report["first_frame"],
                   frame_times=[b - a for a, b in zip(bounds, bounds[1:])],
                   rss_mb=report["max_rss_kb"] / 1024, report=report)


def run_round(workload, config: dict, directory: Path, trace: bool) -> Round:
    """Run every invocation of `workload` on `config`, writing to `directory`."""
    directory.mkdir(parents=True)
    config_path = directory / "config.cfg"
    config_path.write_text(render_config(config))
    processes = []
    for inv in workload.invocations:
        args = [*inv.args, "--config", str(config_path),
                "--output", str(directory / inv.label)]
        processes.append((inv, run_process(
            args, directory / f"{inv.label}.report.json", trace)))
    return Round(config, directory, processes)


def typical_frames_per_s(rounds) -> float:
    """Method-frames per second of a typical round: every interval
    between method-frame marks takes its median time over the run's
    rounds.

    All rounds of a run make the same sequence of method-frames, so the
    k-th intervals of every round time the same work on other inputs.
    The median drops the intervals that a process's start or a spell of
    a busy host slowed, which the run's total rate keeps.  Should the
    rounds mark different numbers of intervals, each process's whole
    frame time is one interval."""
    sequences = [r.frame_times for r in rounds]
    if len({len(s) for s in sequences}) > 1:
        sequences = [[p.frame_s for _, p in r.processes] for r in rounds]
    typical = [statistics.median(times) for times in zip(*sequences)]
    return rounds[0].method_frames / sum(typical)


def span_table(reports) -> dict:
    """{span name: [calls, inclusive s, self s]} over the given reports."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for report in reports:
        spans = report["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_s):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
    return table


def layer_metrics(traced_rounds, overheads) -> dict:
    """Every per-layer figure the traced rounds give, per round where it
    is a count or a time, per call where it is a rate."""
    reports = [p.report for r in traced_rounds for _, p in r.processes]
    n = len(traced_rounds)
    table = span_table(reports)
    counts = defaultdict(float)
    for report in reports:
        for key, value in report["counts"].items():
            counts[key] += value
    distinct = sum(len({c for _, p in r.processes for c in p.report["channels"]})
                   for r in traced_rounds)
    m = {}
    layer_self = defaultdict(float)
    for name, (calls, total, self_s) in sorted(table.items()):
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = self_s / n
        m[f"{name}.us_per_call"] = 1e6 * total / calls
        m[f"{name}.ms_per_call"] = 1e3 * total / calls
        layer_self[name.partition(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_s"] = self_s / n
    for key, value in counts.items():
        m[key] = value / n
    m["receiver.mmse_equalize.skipped"] = counts["receiver.mmse_equalize.raised"] / n
    greedy = table.get("precoder.greedy_precode")
    if greedy and counts["precoder.greedy_precode.passes"]:
        m["precoder.greedy_precode.us_per_pass"] = \
            1e6 * greedy[1] / counts["precoder.greedy_precode.passes"]
    dd = table.get("channel.effective_dd_matrix")
    if dd:
        m["channel.effective_dd_matrix.distinct"] = distinct / n
        m["channel.effective_dd_matrix.distinct_per_call"] = distinct / dd[0]
    m["trace.overhead_s"] = statistics.median(overheads)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "otfs_papr" / "cli.py").is_file():
        print(f"no otfs_papr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    shutil.rmtree(OUT / workload.name, ignore_errors=True)

    plain_rounds, traced_rounds, all_rounds = [], [], []
    overheads, problems = [], []
    pooled = defaultdict(lambda: [0, 0])
    start = time.monotonic()
    longest = 0.0
    # Start another round while it can end within --seconds, and in any
    # case until the workload's least number of rounds has run.
    while len(plain_rounds) < workload.min_rounds or (
            time.monotonic() - start + longest <= args.seconds
            and time.monotonic() - start + longest < DEADLINE_S):
        t = time.monotonic()
        index = len(plain_rounds)
        config = dict(workload.config, seed=round_seed(args.seed, index))
        where = OUT / workload.name / f"round{index:03d}"
        plain = run_round(workload, config, where / "plain", trace=False)
        plain_rounds.append(plain)
        all_rounds.append(plain)
        if args.trace:
            traced = run_round(workload, config, where / "traced", trace=True)
            all_rounds.append(traced)
            if plain.ok and traced.ok:
                traced_rounds.append(traced)
                overheads.append(traced.wall_s - plain.wall_s)
                if csv_bodies(plain.directory) != csv_bodies(traced.directory):
                    problems.append(f"round {index}: traced CSV bodies differ "
                                    "from untraced ones")
        if plain.ok:
            found, counts = workload.check_round(plain.directory, plain.config)
            problems += [f"round {index}: {p}" for p in found]
            for key, (symbols, errors) in counts.items():
                pooled[key][0] += symbols
                pooled[key][1] += errors
        longest = max(longest, time.monotonic() - t)
    if pooled:
        problems += workload.check_run(pooled, workload.config)

    attempted = sum(r.method_frames for r in all_rounds)
    failed = sum(inv.method_frames if not p.ok else skipped_frames(r.directory)
                 for r in all_rounds for inv, p in r.processes)
    good = [r for r in plain_rounds if r.ok]
    if not good or (args.trace and not traced_rounds):
        print("no round ran to its end", file=sys.stderr)
        return 1

    if args.trace:
        table = layer_metrics(traced_rounds, overheads)
        wanted = spec["per_layer"]
    else:
        rates = [r.method_frames / sum(p.frame_s for _, p in r.processes)
                 for r in good]
        table = {
            "frames_per_s": typical_frames_per_s(good),
            "run_frames_per_s": sum(r.method_frames for r in good)
            / sum(p.frame_s for r in good for _, p in r.processes),
            "peak_rss_mb": statistics.median(
                max(p.rss_mb for _, p in r.processes) for r in good),
            "setup_s": statistics.median(
                p.setup_s for r in good for _, p in r.processes),
        }
        wanted = spec["end_to_end"]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {w["name"]: {"value": table.get(w["name"], 0.0), "unit": w["unit"]}
                    for w in wanted},
    }
    (OUT / workload.name / "result.json").write_text(json.dumps(
        dict(result, workload=workload.name, seed=args.seed, rounds=len(good),
             all_metrics=table, round_frames_per_s=None if args.trace else rates),
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
