"""Golden CSV bodies: every runner's output, byte for byte.

The files under tests/golden/ hold the deterministic CSV bodies (the
`#` metadata lines stripped) of small runs that cover every runner and
method.  A refactor of the runners must leave them unchanged; a change
that moves them on purpose regenerates them with

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from otfs_papr import ExperimentConfig
from otfs_papr.experiment import (csv_body, render_ccdf_curve_csv,
                                  render_ccdf_samples_csv,
                                  render_error_rate_csv, render_scaling_csv,
                                  run_ccdf, run_doppler_sweep, run_error_rate,
                                  run_scaling_table)

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_METHODS = "none,proposed,companding,icf,dft"
INF = float("inf")
ETU300 = dict(profile="etu300", clip_ratio_db=5.0, seed=11)


def _ccdf(render, **kw):
    return lambda: render(run_ccdf(ExperimentConfig(**kw)))


def _error_rate(**kw):
    return lambda: render_error_rate_csv(run_error_rate(ExperimentConfig(**kw)))


def _doppler(nus, **kw):
    return lambda: render_error_rate_csv(
        run_doppler_sweep(ExperimentConfig(**kw), nu_max_list=nus))


def _scaling(sweep, values, **kw):
    return lambda: render_scaling_csv(
        run_scaling_table(ExperimentConfig(**kw), **{sweep: values}))


CASES = {
    "ccdf-proposed-8x8.samples": _ccdf(render_ccdf_samples_csv, M=8, N=8,
                                       frames=40, seed=3, method="proposed"),
    "ccdf-proposed-8x8.curve": _ccdf(render_ccdf_curve_csv, M=8, N=8,
                                     frames=40, seed=3, method="proposed"),
    "ccdf-icf-16x16-bpsk.samples": _ccdf(render_ccdf_samples_csv, frames=30,
                                         seed=4, modulation=2, method="icf"),
    "error-rate-identity-inf": _error_rate(M=8, N=8, frames=5, seed=5,
                                           profile="identity", method=ALL_METHODS,
                                           snr_db_list=(INF,)),
    "error-rate-etu300-inf": _error_rate(frames=4, method=ALL_METHODS,
                                         snr_db_list=(INF,), **ETU300),
    "error-rate-etu300-10-14-18": _error_rate(frames=6, method=ALL_METHODS,
                                              snr_db_list=(10.0, 14.0, 18.0),
                                              **ETU300),
    "doppler-sweep": _doppler((0.0, 600.0, 1200.0), M=8, N=8, frames=4, seed=6,
                              method="none,proposed,companding"),
    "scaling-sweep-m": _scaling("sweep_m", [4, 8], N=8, frames=20, seed=7,
                                method=ALL_METHODS),
    "scaling-sweep-n": _scaling("sweep_n", [2, 4, 8], M=8, frames=20, seed=8,
                                method="none,proposed", max_iter=5),
    "scaling-m64": _scaling("sweep_m", [64], N=4, frames=4, seed=9,
                            method="none,proposed"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_body_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_text()
    assert csv_body(CASES[name]()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / f"{name}.csv").write_text(csv_body(make()))
        print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)
