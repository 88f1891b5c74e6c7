"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s to see them live).

The reference values and tolerances are frozen here; the baseline-method
parameters come from configs/reference-tables.cfg and are never tuned per
test.  Run time for the whole module is around ten minutes, dominated by
the error-rate criteria.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from otfs_papr import (FrameParams, GreedyConfig, brute_force_precode,
                       candidate_flip, demodulate, dense_synthesis_matrix,
                       effective_dd_matrix, greedy_precode, modulate,
                       modulate_oracle, papr)
from otfs_papr.channel import (ETU300_PROFILE, add_noise, apply_channel,
                               sample_channels, unit_noise)
from otfs_papr.config import config_from_mapping, parse_config_text
from otfs_papr.experiment import (csv_body, render_ccdf_samples_csv,
                                  render_error_rate_csv, render_scaling_csv,
                                  run_ccdf, run_doppler_sweep, run_error_rate,
                                  run_scaling_table)
from otfs_papr.receiver import dd_noise_variance

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "reference-tables.cfg"
FROZEN = config_from_mapping(parse_config_text(CONFIG_PATH.read_text()))

TABLE_I_N = (4, 8, 16, 32, 64)
TABLE_I_UNCOMPENSATED = (6.0, 7.8, 8.5, 9.0, 9.6)
TABLE_I_PROPOSED = (2.8, 2.9, 3.3, 4.0, 4.6)
TABLE_II_M = (4, 8, 16, 32, 64)
TABLE_II_UNCOMPENSATED = (7.8, 8.2, 8.4, 8.8, 9.1)
TABLE_II_PROPOSED = (2.9, 3.1, 3.3, 4.6, 5.5)
TABLE_TOL_DB = 0.5


def report(criterion: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"\n[{status}] {criterion}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"{criterion} -- " + " | ".join(failures)


def spearman(x, y) -> float:
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r
    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))


def test_criterion_01_bpsk_ccdf_medians():
    cfg = replace(FROZEN, modulation=2)
    unc = run_ccdf(cfg, method="none").papr_at_targets[0.5]
    prop = run_ccdf(cfg, method="proposed").papr_at_targets[0.5]
    failures = []
    if abs(unc - 8.0) > TABLE_TOL_DB:
        failures.append(f"uncompensated papr at ccdf 0.5 = {unc:.2f} dB, want 8.0 +/- 0.5")
    if abs(prop - 3.3) > TABLE_TOL_DB:
        failures.append(f"proposed papr at ccdf 0.5 = {prop:.2f} dB, want 3.3 +/- 0.5")
    report("criterion 1: BPSK 16x16 CCDF medians (8.0 / 3.3 dB +/- 0.5)", failures)


def _check_table(rows, axis_name, axis_values, expected_unc, expected_prop):
    got = {(r.M, r.N, r.method): r.papr_db_at_ccdf_0p1 for r in rows}
    failures = []
    for value, want_u, want_p in zip(axis_values, expected_unc, expected_prop):
        key_m = value if axis_name == "M" else 16
        key_n = value if axis_name == "N" else 16
        gu = got[(key_m, key_n, "none")]
        gp = got[(key_m, key_n, "proposed")]
        if abs(gu - want_u) > TABLE_TOL_DB:
            failures.append(f"{axis_name}={value} uncompensated {gu:.2f} dB, "
                            f"want {want_u} +/- 0.5")
        if abs(gp - want_p) > TABLE_TOL_DB:
            failures.append(f"{axis_name}={value} proposed {gp:.2f} dB, "
                            f"want {want_p} +/- 0.5")
    return failures


def test_criterion_02_qpsk_table_fixed_m():
    cfg = replace(FROZEN, method="none,proposed")
    rows = run_scaling_table(cfg, sweep_n=list(TABLE_I_N)).rows
    failures = _check_table(rows, "N", TABLE_I_N, TABLE_I_UNCOMPENSATED,
                            TABLE_I_PROPOSED)
    report("criterion 2: QPSK M=16 scaling table at CCDF 0.1", failures)


def test_criterion_03_qpsk_table_fixed_n():
    cfg = replace(FROZEN, method="none,proposed")
    rows = run_scaling_table(cfg, sweep_m=list(TABLE_II_M)).rows
    failures = _check_table(rows, "M", TABLE_II_M, TABLE_II_UNCOMPENSATED,
                            TABLE_II_PROPOSED)
    report("criterion 3: QPSK N=16 scaling table at CCDF 0.1", failures)


def full_spread_papr_db(size: int, target: float) -> float:
    """PAPR at CCDF `target` of a constant-energy frame of `size`
    independent unit-mean exponential sample powers.

    P(PAPR > g) = 1 - (1 - exp(-g))^size, solved for g.  A unitary
    delay-axis DFT spread turns the modulator into a full 2-D DFT, so
    every time sample sums all MN PSK symbols and this law holds.
    """
    return float(10 * np.log10(-np.log1p(-(1 - target) ** (1 / size))))


def test_criterion_04_method_ordering_at_ccdf_0p1():
    cfg = replace(FROZEN, method="proposed,companding,icf,dft,none")
    rows = run_scaling_table(cfg, sweep_n=[16]).rows
    v = {r.method: r.papr_db_at_ccdf_0p1 for r in rows}
    failures = []
    for lo, hi in (("proposed", "companding"), ("companding", "icf"),
                   ("companding", "dft"), ("icf", "none")):
        if not v[lo] < v[hi]:
            failures.append(f"expected {lo} ({v[lo]:.2f} dB) < {hi} ({v[hi]:.2f} dB)")
    law = full_spread_papr_db(FROZEN.M * FROZEN.N, 0.1)
    if abs(v["dft"] - law) > TABLE_TOL_DB:
        failures.append(f"dft {v['dft']:.2f} dB, want full-spread law "
                        f"{law:.2f} +/- 0.5")
    detail = " ".join(f"{m}={v[m]:.2f}" for m in
                      ("proposed", "companding", "icf", "dft", "none"))
    report(f"criterion 4: PAPR ordering at M=N=16 QPSK CCDF 0.1 ({detail})", failures)


ORACLE_SHAPES = [(2, 2, 2), (2, 2, 4), (4, 2, 2), (2, 4, 4),
                 (4, 3, 2), (3, 4, 4), (6, 2, 2), (2, 6, 4)]


def test_criterion_05_oracle_equivalence_suite():
    failures = []
    cfg5 = GreedyConfig(max_iter=5)
    frames_per_shape = 25  # 8 shapes x 25 = 200 frames
    for M, N, D in ORACLE_SHAPES:
        params = FrameParams(M=M, N=N)
        rng = np.random.default_rng(1000 + M * 10 + N + D)
        for _ in range(frames_per_shape):
            u = np.exp(2j * np.pi * rng.integers(0, D, params.size) / D)
            uncomp = papr(modulate(u, params)).value_linear
            r = greedy_precode(u, params, cfg5)
            _, brute = brute_force_precode(u, params)
            if not brute.value_linear <= r.papr_star.value_linear * (1 + 1e-12):
                failures.append(f"M={M} N={N}: brute {brute.value_linear} > "
                                f"greedy {r.papr_star.value_linear}")
            if not r.papr_star.value_linear <= uncomp * (1 + 1e-12):
                failures.append(f"M={M} N={N}: greedy above uncompensated")
            ratio = r.x_star / u
            if not np.all(np.isclose(ratio, 1.0) | np.isclose(ratio, 2.0)):
                failures.append(f"M={M} N={N}: output leaves the candidate set")
            if len(r.flips) > 5:
                failures.append(f"M={M} N={N}: {len(r.flips)} flips exceed 5")
            x, prev = u.copy(), uncomp
            for t in r.flips:
                x = candidate_flip(x, t, 1.0)
                cur = papr(modulate(x, params)).value_linear
                if not cur < prev:
                    failures.append(f"M={M} N={N}: committed PAPR not decreasing")
                prev = cur
            if failures:
                break
        if failures:
            break
    report("criterion 5: greedy vs exhaustive oracle on 200 small frames",
           failures)


def test_criterion_06_modem_suite():
    failures = []
    rng = np.random.default_rng(2026)
    # round trip and energy over a spread of shapes
    for M, N in [(2, 2), (4, 4), (8, 8), (16, 4), (4, 16), (16, 16), (3, 5)]:
        params = FrameParams(M=M, N=N)
        x = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
        back = demodulate(modulate(x, params), params)
        if np.max(np.abs(back - x)) > 1e-12 * np.max(np.abs(x)):
            failures.append(f"round trip above 1e-12 at M={M} N={N}")
        s = modulate(x, params)
        energy_err = abs(np.linalg.norm(s) ** 2 - N * np.linalg.norm(x) ** 2)
        if energy_err > 1e-9 * N * np.linalg.norm(x) ** 2:
            failures.append(f"energy relation above 1e-9 at M={M} N={N}")
    # dense Kronecker agreement for MN <= 64
    for M, N in [(2, 2), (4, 4), (8, 8), (16, 4), (4, 16), (8, 4), (1, 64)]:
        params = FrameParams(M=M, N=N)
        x = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
        dense = dense_synthesis_matrix(params) @ x
        if np.max(np.abs(dense - modulate(x, params))) > 1e-10:
            failures.append(f"dense-matrix disagreement at M={M} N={N}")
    # continuous-time oracle proportionality
    for M in (2, 4, 8):
        for N in (2, 4, 8):
            params = FrameParams(M=M, N=N)
            x = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
            s = modulate(x, params)
            o = modulate_oracle(x, params, oversample_factor=1)
            alpha = np.vdot(s, o) / np.vdot(s, s)
            resid = np.linalg.norm(o - alpha * s) / np.linalg.norm(o)
            if resid > 1e-9:
                failures.append(f"oracle residual {resid:.2e} at M={M} N={N}")
    report("criterion 6: modem correctness suite", failures)


def test_criterion_07_channel_receiver_suite():
    failures = []
    params = FrameParams(M=4, N=4)
    rng = np.random.default_rng(2027)
    for _ in range(100):
        ch = sample_channels(ETU300_PROFILE, (1000.0,), params, rng)[0]
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        lhs = effective_dd_matrix(ch, params) @ x
        rhs = demodulate(apply_channel(modulate(x, params), ch, params), params)
        if np.linalg.norm(lhs - rhs) > 1e-9 * np.linalg.norm(rhs):
            failures.append("effective-matrix consistency contract violated")
            break
    cfg = replace(FROZEN, M=4, N=4, frames=100, profile="identity",
                  snr_db_list=(float("inf"),),
                  method="none,proposed,dft,companding")
    for point in run_error_rate(cfg).points:
        if point.counts.symbol_errors != 0:
            failures.append(f"noiseless chain: {point.method} has "
                            f"{point.counts.symbol_errors} symbol errors")
    noise_params = FrameParams(M=50, N=20)
    sigma2 = 0.8
    rng = np.random.default_rng(2028)
    samples = [demodulate(add_noise(np.zeros(1000, complex), sigma2, unit_noise(1000, rng)),
                          noise_params)
               for _ in range(100)]
    observed = np.mean(np.abs(np.concatenate(samples)) ** 2)
    expected = dd_noise_variance(sigma2, noise_params)
    if abs(observed - expected) > 0.03 * expected:
        failures.append(f"DD noise variance {observed:.4f} vs expected {expected:.4f}")
    report("criterion 7: channel and receiver suite", failures)


ERROR_RATE_FRAMES = 2000


@pytest.fixture(scope="module")
def error_rate_at_18db():
    cfg = replace(FROZEN, frames=ERROR_RATE_FRAMES, snr_db_list=(18.0,),
                  method="none,proposed,companding,icf,dft")
    result = run_error_rate(cfg)
    return {p.method: p.counts.ser for p in result.points}


def test_criterion_08_error_rate_orderings(error_rate_at_18db):
    ser = error_rate_at_18db
    failures = []
    if not ser["none"] <= ser["proposed"]:
        failures.append(f"uncompensated {ser['none']:.2e} > proposed {ser['proposed']:.2e}")
    if not ser["proposed"] < ser["companding"]:
        failures.append(f"proposed {ser['proposed']:.2e} not below companding "
                        f"{ser['companding']:.2e}")
    for other in ("dft", "icf"):
        ratio = ser["proposed"] / ser[other] if ser[other] else np.inf
        if not 0.5 <= ratio <= 2.0:
            failures.append(f"proposed/{other} SER ratio {ratio:.2f} outside [0.5, 2]")
    detail = " ".join(f"{m}={ser[m]:.2e}" for m in
                      ("none", "proposed", "companding", "icf", "dft"))
    # Both ratio bounds hold for some proposed SER only if icf/dft lies
    # in [0.25, 4].
    icf_over_dft = ser["icf"] / ser["dft"] if ser["dft"] else np.inf
    detail += f" icf/dft={icf_over_dft:.3f}, [0.25, 4] needed"
    report(f"criterion 8: SER orderings at 18 dB, ETU-300 ({detail})", failures)


def test_criterion_09_doppler_invariance():
    cfg = replace(FROZEN, frames=ERROR_RATE_FRAMES, method="proposed,companding")
    result = run_doppler_sweep(cfg)
    prop = [(p.nu_max_hz, p.counts.ser) for p in result.points if p.method == "proposed"]
    comp = [(p.nu_max_hz, p.counts.ser) for p in result.points if p.method == "companding"]
    failures = []
    prop_ser = [s for _, s in prop]
    ratio = max(prop_ser) / max(min(prop_ser), 1e-12)
    if not ratio <= 2.0:
        failures.append(
            "proposed SER max/min ratio over the Doppler grid = "
            f"{ratio:.2f} > 2 (" +
            " ".join(f"{int(nu)}:{s:.2e}" for nu, s in prop) + ")")
    rho = spearman([nu for nu, _ in comp], [s for _, s in comp])
    if not rho > 0:
        failures.append(f"companding SER not positively correlated with "
                        f"Doppler (spearman {rho:.2f})")
    report("criterion 9: Doppler invariance at 18 dB", failures)


def test_criterion_10_byte_identical_reruns():
    failures = []
    ccdf_cfg = replace(FROZEN, frames=50, method="proposed")
    a = csv_body(render_ccdf_samples_csv(run_ccdf(ccdf_cfg)))
    b = csv_body(render_ccdf_samples_csv(run_ccdf(ccdf_cfg)))
    if a != b:
        failures.append("ccdf sample bodies differ across reruns")
    er_cfg = replace(FROZEN, M=4, N=4, frames=15, snr_db_list=(14.0, 18.0),
                     method="none,companding")
    e1 = csv_body(render_error_rate_csv(run_error_rate(er_cfg)))
    e2 = csv_body(render_error_rate_csv(run_error_rate(er_cfg)))
    if e1 != e2:
        failures.append("error-rate bodies differ across reruns")
    sc_cfg = replace(FROZEN, frames=25, method="none,icf")
    s1 = csv_body(render_scaling_csv(run_scaling_table(sc_cfg, sweep_n=[4, 8])))
    s2 = csv_body(render_scaling_csv(run_scaling_table(sc_cfg, sweep_n=[4, 8])))
    if s1 != s2:
        failures.append("scaling-table bodies differ across reruns")
    report("criterion 10: byte-identical CSV bodies across reruns", failures)
