"""Seeded Monte Carlo experiment runners and CSV rendering.

Runners are pure with respect to the filesystem; the CLI writes the
rendered CSV text.  Every frame draws from its own RNG substream keyed
by (seed, sweep-point index, frame index), so results do not depend on
execution order.  The loop is frame-major: each frame, and its channel
and noise, is drawn once and every method runs on it, so methods are
compared on identical frames, channels and noise.
"""

import datetime
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import (clip_count, dft_despread, dft_spread, icf, mu_compand,
                        mu_expand)
from .channel import (add_awgn, apply_channel, calibrate_noise, channel_blocks,
                      check_taps_below_m, delay_taps, identity_channel,
                      sample_channel)
from .config import ExperimentConfig, config_summary
from .errors import EqualizerError, ParameterError
from .frame import detect_symbols, map_bits_to_symbols
from .metrics import CcdfCurve, ccdf, papr, papr_at_ccdf
from .modem import demodulate, modulate
from .precoder import greedy_precode
from .receiver import (ErrorCounts, block_mmse_equalize, count_errors,
                       dd_noise_variance)

RNG_SCHEME = "pcg64-seedseq-v1"
CCDF_TARGETS = (0.5, 0.1)
DOPPLER_SWEEP_DEFAULT_HZ = tuple(float(v) for v in range(0, 2401, 300))
DOPPLER_SWEEP_SNR_DB = 18.0


def frame_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic per-frame substream; independent of worker scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


def draw_info_vector(cfg: ExperimentConfig, rng: np.random.Generator):
    """Random information bits and their mapped symbol vector."""
    bits = rng.integers(0, 2, cfg.params.size * cfg.alphabet.bits_per_symbol)
    return bits, map_bits_to_symbols(bits, cfg.alphabet, cfg.params)


def _frames(cfg: ExperimentConfig, *point: int):
    """Yield (substream, information vector) for each frame at one sweep
    point; the caller runs every method on the frame before the next."""
    for f in range(cfg.frames):
        rng = frame_rng(cfg.seed, *point, f)
        _, u = draw_info_vector(cfg, rng)
        yield rng, u


@dataclass(frozen=True)
class TransmitFrame:
    """Transmit-side products of one frame for one method."""

    s: np.ndarray
    peak_reference: float | None = None  # companding side information
    flips: int = 0


def transmit(u, method: str, cfg: ExperimentConfig) -> TransmitFrame:
    """Apply one method's transmit path to an information vector."""
    params = cfg.params
    if method == "none":
        return TransmitFrame(s=modulate(u, params))
    if method == "proposed":
        result = greedy_precode(u, params, cfg.greedy)
        return TransmitFrame(s=modulate(result.x_star, params), flips=len(result.flips))
    if method == "companding":
        s0 = modulate(u, params)
        V = float(np.abs(s0).max())
        return TransmitFrame(s=mu_compand(s0, cfg.companding, V), peak_reference=V)
    if method == "icf":
        return TransmitFrame(s=icf(modulate(u, params), cfg.icf, params))
    if method == "dft":
        spread = dft_spread(u, cfg.dft, params)
        return TransmitFrame(s=modulate(spread, params))
    raise ParameterError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# CCDF experiments


@dataclass(frozen=True)
class CcdfResult:
    config: ExperimentConfig
    method: str
    samples_db: np.ndarray
    curve: CcdfCurve
    papr_at_targets: dict


def _papr_samples(cfg: ExperimentConfig, methods, *point: int) -> np.ndarray:
    """PAPR (dB) of every frame at one sweep point, one row per method."""
    samples = np.empty((len(methods), cfg.frames))
    for f, (_, u) in enumerate(_frames(cfg, *point)):
        for i, method in enumerate(methods):
            samples[i, f] = papr(transmit(u, method, cfg).s).value_db
    return samples


def run_ccdf(cfg: ExperimentConfig, method: str = None) -> CcdfResult:
    """PAPR of `frames` random frames under one method, with its CCDF.

    Without `method`, the config must name exactly one method.
    """
    if method is None:
        if len(cfg.methods) != 1:
            raise ParameterError(
                f"ccdf takes exactly one method, got {cfg.method!r}")
        method = cfg.methods[0]
    samples = _papr_samples(cfg, (method,))[0]
    curve = ccdf(samples)
    targets = {t: papr_at_ccdf(samples, t) for t in CCDF_TARGETS}
    return CcdfResult(config=cfg, method=method, samples_db=samples,
                      curve=curve, papr_at_targets=targets)


# ---------------------------------------------------------------------------
# Error-rate experiments


@dataclass(frozen=True)
class ErrorRatePoint:
    method: str
    snr_db: float
    nu_max_hz: float
    frames: int
    counts: ErrorCounts
    skipped_frames: int = 0
    expander_clips: int = 0


@dataclass(frozen=True)
class ErrorRateResult:
    config: ExperimentConfig
    points: list = field(default_factory=list)


def _error_points(cfg: ExperimentConfig, snr_db: float, nu_max: float,
                  point_idx: int) -> list:
    """One ErrorRatePoint per configured method at one (SNR, Doppler) point.

    Each frame's channel and its receiver blocks are drawn and built
    once, and every method gets the same unit noise draw, scaled to its
    own received power.  A profile with a delay tap at or above M fails
    before any frame.
    """
    params, alphabet = cfg.params, cfg.alphabet
    profile = cfg.path_profile()
    if profile is not None:
        check_taps_below_m(delay_taps(profile, params), params)
    methods = cfg.methods
    counts = [ErrorCounts(0, 0, 0, 0)] * len(methods)
    skipped = [0] * len(methods)
    clips = [0] * len(methods)
    for rng, u in _frames(cfg, point_idx):
        truth = detect_symbols(u, alphabet)
        if profile is None:
            ch = identity_channel()
        else:
            ch = sample_channel(profile, nu_max, params, rng)
        blocks = channel_blocks(ch, params)
        noise_state = rng.bit_generator.state
        for i, method in enumerate(methods):
            tx = transmit(u, method, cfg)
            r0 = apply_channel(tx.s, ch, params)
            sigma2 = calibrate_noise(snr_db, r0)
            rng.bit_generator.state = noise_state  # same unit noise per method
            r = add_awgn(r0, sigma2, rng)
            if method == "companding":
                clips[i] += clip_count(r, tx.peak_reference)
                r = mu_expand(r, cfg.companding, tx.peak_reference)
            try:
                z = block_mmse_equalize(
                    blocks, r, dd_noise_variance(sigma2, params) / alphabet.A ** 2)
            except EqualizerError:
                skipped[i] += 1
                continue
            x_hat = demodulate(z, params)
            if method == "dft":
                x_hat = dft_despread(x_hat, cfg.dft, params)
            counts[i] = counts[i] + count_errors(detect_symbols(x_hat, alphabet),
                                                 truth, alphabet.D)
    return [ErrorRatePoint(method=method, snr_db=snr_db, nu_max_hz=nu_max,
                           frames=cfg.frames - skipped[i], counts=counts[i],
                           skipped_frames=skipped[i], expander_clips=clips[i])
            for i, method in enumerate(methods)]


def run_error_rate(cfg: ExperimentConfig) -> ErrorRateResult:
    """SER/BER over the configured SNR grid for each configured method.

    Methods are compared on identical information vectors, channel
    draws and noise.
    """
    if not cfg.snr_db_list:
        raise ParameterError("snr_db_list must be non-empty for error-rate runs")
    points = []
    for point_idx, snr_db in enumerate(cfg.snr_db_list):
        points += _error_points(cfg, float(snr_db), cfg.nu_max_hz, point_idx)
    return ErrorRateResult(config=cfg, points=points)


def run_doppler_sweep(cfg: ExperimentConfig, nu_max_list=None) -> ErrorRateResult:
    """SER at one SNR across a maximum-Doppler grid.

    The SNR is the config's one snr_db_list value, DOPPLER_SWEEP_SNR_DB
    if the list is empty; the result's config echoes the SNR used.
    """
    if len(cfg.snr_db_list) > 1:
        raise ParameterError(
            f"doppler-sweep takes at most one SNR, got {cfg.snr_db_list}")
    snr_db = cfg.snr_db_list[0] if cfg.snr_db_list else DOPPLER_SWEEP_SNR_DB
    cfg = replace(cfg, snr_db_list=(snr_db,))
    nus = DOPPLER_SWEEP_DEFAULT_HZ if nu_max_list is None else tuple(nu_max_list)
    points = []
    for point_idx, nu in enumerate(nus):
        points += _error_points(cfg, snr_db, float(nu), point_idx)
    return ErrorRateResult(config=cfg, points=points)


# ---------------------------------------------------------------------------
# Grid-size scaling table


@dataclass(frozen=True)
class ScalingRow:
    M: int
    N: int
    method: str
    papr_db_at_ccdf_0p1: float


@dataclass(frozen=True)
class ScalingResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)


def run_scaling_table(cfg: ExperimentConfig, sweep_m=None, sweep_n=None) -> ScalingResult:
    """PAPR at CCDF 0.1 for every (grid size, method) combination.

    Exactly one of sweep_m / sweep_n gives the swept dimension; the
    other dimension is held at the config value.
    """
    if (sweep_m is None) == (sweep_n is None):
        raise ParameterError("provide exactly one of sweep_m or sweep_n")
    values = sweep_m if sweep_m is not None else sweep_n
    # Every grid size is validated before the first frame runs.
    sized_cfgs = [replace(cfg, M=int(value) if sweep_m is not None else cfg.M,
                          N=int(value) if sweep_n is not None else cfg.N)
                  for value in values]
    rows = []
    for grid_idx, sized in enumerate(sized_cfgs):
        samples = _papr_samples(sized, cfg.methods, grid_idx)
        rows += [ScalingRow(M=sized.M, N=sized.N, method=method,
                            papr_db_at_ccdf_0p1=papr_at_ccdf(row, 0.1))
                 for method, row in zip(cfg.methods, samples)]
    return ScalingResult(config=cfg, rows=rows)


# ---------------------------------------------------------------------------
# Single-frame precoding (CLI `precode` subcommand)


@dataclass(frozen=True)
class PrecodeFrameResult:
    x_star: np.ndarray
    papr_before_db: float
    papr_after_db: float
    iterations_used: int
    flips: list


def precode_frame(u, cfg: ExperimentConfig) -> PrecodeFrameResult:
    before = papr(modulate(np.asarray(u, complex), cfg.params)).value_db
    result = greedy_precode(u, cfg.params, cfg.greedy)
    return PrecodeFrameResult(x_star=result.x_star, papr_before_db=before,
                              papr_after_db=result.papr_star.value_db,
                              iterations_used=result.iterations_used,
                              flips=list(result.flips))


# ---------------------------------------------------------------------------
# CSV rendering (bodies are byte-stable; only the timestamp header varies)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _metadata_lines(cfg: ExperimentConfig, kind: str, extra=()) -> list:
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    lines = [f"# otfs-papr v{__version__} {kind}",
             f"# generated: {now}",
             f"# rng: {RNG_SCHEME} seed={cfg.seed}",
             f"# config: {config_summary(cfg)}"]
    lines.extend(f"# {e}" for e in extra)
    return lines


def render_ccdf_samples_csv(result: CcdfResult) -> str:
    extra = [f"method: {result.method}"] + [
        f"papr_db_at_ccdf_{t}: {_fmt(result.papr_at_targets[t])}"
        for t in CCDF_TARGETS]
    lines = _metadata_lines(result.config, "ccdf-samples", extra)
    lines.append("frame_idx,papr_db")
    lines.extend(f"{i},{_fmt(float(v))}" for i, v in enumerate(result.samples_db))
    return "\n".join(lines) + "\n"


def render_ccdf_curve_csv(result: CcdfResult) -> str:
    extra = [f"method: {result.method}"] + [
        f"papr_db_at_ccdf_{t}: {_fmt(result.papr_at_targets[t])}"
        for t in CCDF_TARGETS]
    lines = _metadata_lines(result.config, "ccdf-curve", extra)
    lines.append("threshold_db,ccdf")
    lines.extend(f"{_fmt(float(t))},{_fmt(float(p))}"
                 for t, p in zip(result.curve.thresholds_db,
                                 result.curve.probabilities))
    return "\n".join(lines) + "\n"


def render_error_rate_csv(result: ErrorRateResult) -> str:
    extra = []
    for p in result.points:
        if p.skipped_frames:
            extra.append(f"skipped: method={p.method} snr_db={_fmt(p.snr_db)} "
                         f"nu_max_hz={_fmt(p.nu_max_hz)} count={p.skipped_frames}")
        if p.expander_clips:
            extra.append(f"expander_clips: method={p.method} snr_db={_fmt(p.snr_db)} "
                         f"nu_max_hz={_fmt(p.nu_max_hz)} count={p.expander_clips}")
    lines = _metadata_lines(result.config, "error-rate", extra)
    lines.append("method,snr_db,nu_max_hz,frames,symbols,symbol_errors,bit_errors,ser,ber")
    for p in result.points:
        c = p.counts
        lines.append(",".join([p.method, _fmt(p.snr_db), _fmt(p.nu_max_hz),
                               str(p.frames), str(c.symbols), str(c.symbol_errors),
                               str(c.bit_errors), _fmt(c.ser), _fmt(c.ber)]))
    return "\n".join(lines) + "\n"


def render_scaling_csv(result: ScalingResult) -> str:
    lines = _metadata_lines(result.config, "scaling-table")
    lines.append("M,N,method,papr_db_at_ccdf_0p1")
    lines.extend(f"{r.M},{r.N},{r.method},{_fmt(r.papr_db_at_ccdf_0p1)}"
                 for r in result.rows)
    return "\n".join(lines) + "\n"


def csv_body(text: str) -> str:
    """CSV text with `#` metadata lines stripped (the deterministic part)."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#")) + "\n"
