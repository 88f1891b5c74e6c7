"""Quick self-test of the benchmark (about 15 s).

    python3 bench/selftest.py        # or: python3 -m pytest -q bench/selftest.py

Runs one small round of every workload, untraced and traced, and asserts
that its checks pass, that tracing leaves the CSV bodies byte-identical
and that the traced rounds give every per-layer metric of BENCHMARK.json.
It also asserts that the checks catch broken outputs, and that the
benchmark exits non-zero without a result where there is no program.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from workloads import (WORKLOADS, check_ser_ordering, csv_bodies,
                       exceedance_matches, fmt, full_spread_papr_db)

OUT = run.OUT / "selftest"
# Frames per round: few, except where a check within one round is
# statistical (the DFT law at CCDF 0.1 needs the workload's own count).
SMALL_FRAMES = {"ccdf-16x16": None, "error-rate-16x16": 2, "scaling-m": 4,
                "error-rate-64x16": 1}


def small_round(name: str, tag: str, trace: bool):
    workload = WORKLOADS[name]
    frames = SMALL_FRAMES[name]
    if frames is not None:
        full = workload.config["frames"]
        workload = replace(
            workload, config=dict(workload.config, frames=frames),
            invocations=tuple(replace(inv, method_frames=inv.method_frames * frames // full)
                              for inv in workload.invocations))
    config = dict(workload.config, seed=12345)
    return workload, run.run_round(workload, config, OUT / name / tag, trace)


def test_rounds_pass_their_checks_and_tracing_changes_no_output():
    shutil.rmtree(OUT, ignore_errors=True)
    metrics = {}
    for name in WORKLOADS:
        workload, plain = small_round(name, "plain", trace=False)
        _, traced = small_round(name, "traced", trace=True)
        assert plain.ok and traced.ok, name
        problems, _ = workload.check_round(plain.directory, plain.config)
        assert problems == [], (name, problems)
        assert csv_bodies(plain.directory) == csv_bodies(traced.directory), name
        assert run.skipped_frames(plain.directory) == 0, name
        for _, p in plain.processes:
            assert 0 < p.setup_s < p.wall_s and p.frame_s > 0 and p.rss_mb > 0, name
            assert p.frame_times and abs(sum(p.frame_times) - p.frame_s) < 1e-6, name
        typical = run.typical_frames_per_s([plain, plain])
        assert abs(typical * sum(plain.frame_times) / plain.method_frames - 1) < 1e-9, name
        metrics.update(run.layer_metrics([traced], [traced.wall_s - plain.wall_s]))
    spec = json.loads(run.SPEC.read_text())
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    assert missing == [], missing


def test_checks_catch_broken_outputs():
    # Runs after the test above, on the rounds it left behind.
    workload = WORKLOADS["error-rate-16x16"]
    plain = OUT / workload.name / "plain"
    config = dict(workload.config, frames=SMALL_FRAMES[workload.name])
    path = plain / "error-rate.csv"
    good = path.read_text()
    lines = good.splitlines()
    row = next(i for i, l in enumerate(lines) if l.startswith("none,"))
    fields = lines[row].split(",")
    fields[6] = str(int(fields[5]) * 2 + 1)  # more bit errors than 2 per symbol error
    path.write_text("\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]))
    assert workload.check_round(plain, config)[0]
    path.write_text("\n".join(l for i, l in enumerate(lines) if i != row))
    assert workload.check_round(plain, config)[0]
    path.write_text(good)
    assert workload.check_round(plain, config)[0] == []

    ccdf = WORKLOADS["ccdf-16x16"]
    plain = OUT / ccdf.name / "plain"
    path = plain / "proposed.samples.csv"
    good = path.read_text()
    path.write_text("\n".join("0,99.0" if l.startswith("0,") else l
                               for l in good.splitlines()))
    assert ccdf.check_round(plain, ccdf.config)[0]
    path.write_text(good)
    path = plain / "icf.curve.csv"
    good = path.read_text()
    lines = good.splitlines()
    row = next(i for i, l in enumerate(lines)
               if l[0].isdigit() and l.split(",")[1] not in ("0", "1"))
    threshold, p = lines[row].split(",")
    lines[row] = f"{threshold},{fmt(float(p) + 1 / ccdf.config['frames'])}"  # one frame more
    path.write_text("\n".join(lines))
    assert ccdf.check_round(plain, ccdf.config)[0]
    path.write_text(good)
    assert ccdf.check_round(plain, ccdf.config)[0] == []

    # A sample printed as exactly 10 dB may be above 10 dB or not.
    curve = [[fmt(k / 10), fmt(float(k < 100))] for k in range(131)]
    assert exceedance_matches(curve, [10.0], 1)
    curve[100][1] = "0"
    assert exceedance_matches(curve, [10.0], 1)
    assert not exceedance_matches(curve, [10.1], 1)

    config = {"method": "none", "snr_db_list": (10, 14)}
    assert check_ser_ordering({("none", 10.0): [100, 5], ("none", 14.0): [100, 6]}, config)
    assert not check_ser_ordering({("none", 10.0): [100, 5], ("none", 14.0): [100, 5]}, config)


def test_full_spread_law():
    # 8.92 dB at CCDF 0.1 for MN = 256 (the README of the package).
    assert abs(full_spread_papr_db(256, 0.1) - 8.9186) < 1e-3


def test_fails_without_the_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for p in run.HERE.glob("*.py"):
        shutil.copy(p, bare / "bench")
    shutil.copy(run.SPEC, bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scaling-m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_rounds_pass_their_checks_and_tracing_changes_no_output,
                 test_checks_catch_broken_outputs, test_full_spread_law,
                 test_fails_without_the_program):
        test()
        print(f"ok {test.__name__}")
