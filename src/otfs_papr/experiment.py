"""Seeded Monte Carlo experiment runners and CSV rendering.

Runners are pure with respect to the filesystem; the CLI writes the
rendered CSV text.  Every frame draws from its own RNG substream, so
results do not depend on execution order: frame f of a ccdf run draws
from (seed, f), and of grid size g of a scaling table from (seed, g, f).
An error-rate or Doppler sweep draws frame f once, from (seed, 0, f):
its information vector, its channel's gains and angles, and one
unit-noise vector.  Every sweep point (SNR or maximum Doppler) runs on
these common draws, so a point's rows are those of a run at that point
alone.  Every method runs on the same drawn frames, channels and noise,
so methods are compared on identical inputs.

Every runner takes its frames in chunks from `_chunks` and runs each
stage of the chain once on a stack, one frame or one receive row a row;
each stage is one function that takes one frame or a stack.  A chunk is
drawn, Gray-mapped, greedy-searched in lockstep and transmitted by each
method in one call a stage; ccdf and scaling-table runs then read its
PAPR in one papr call.  Error-rate and Doppler sweeps take the chunk's
frames in turn: the channel runs on the stack of a frame's methods, and
noise, expansion, the receiver, despreading and detection each run once
on the stack of its (SNR, method) rows.
"""

import datetime
import itertools
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import (clip_count, dft_despread, dft_spread, icf, mu_compand,
                        mu_expand)
from .channel import (add_noise, apply_channel, calibrate_noise,
                      channel_blocks, delay_taps, identity_channel,
                      sample_channels, unit_noise)
from .config import METHODS, ExperimentConfig, config_summary
from .errors import ParameterError
from .frame import PskAlphabet, detect_symbols, map_bits_to_symbols
from .metrics import CcdfCurve, ccdf, papr, papr_at_ccdf
from .modem import demodulate, modulate
from .precoder import greedy_precode_batch
from .receiver import (ErrorCounts, block_mmse_equalize, count_errors,
                       dd_noise_variance)

RNG_SCHEME = "pcg64-seedseq-v2"
CCDF_TARGETS = (0.5, 0.1)
DOPPLER_SWEEP_DEFAULT_HZ = tuple(float(v) for v in range(0, 2401, 300))
DOPPLER_SWEEP_SNR_DB = 18.0
# Symbols per frame chunk of the runners: each chunk of
# max(1, FRAME_CHUNK_SYMBOLS // MN) frames is drawn, precoded, transmitted
# and, in ccdf runs, read for PAPR with one call a stage.  Larger chunks
# make every call cheaper per frame but raise peak memory: the greedy
# search holds a ring mask and two float grids, 17 bytes a symbol, and
# allocates about 51 bytes a symbol at its peak, 0.8 MB a chunk; each
# transmit stack is 16 bytes a symbol, and ICF works on slices of the
# chunk, so its oversampled grid holds no more symbols than the chunk.
# No result depends on the chunk.
FRAME_CHUNK_SYMBOLS = 16384


def frame_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic per-frame substream; independent of worker scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


def draw_info_batch(cfg: ExperimentConfig, rngs):
    """Random information bits and their symbols on the unit ring, one
    frame a row for each substream in rngs: each frame's bits come from
    its own substream, and the stack is mapped to the unit ring in one
    call."""
    n = cfg.params.size * cfg.alphabet.bits_per_symbol
    bits = np.array([rng.integers(0, 2, n) for rng in rngs])
    return bits, map_bits_to_symbols(bits, PskAlphabet(cfg.modulation), cfg.params)


def _chunk_frames(params) -> int:
    """Frames per chunk of the runners (FRAME_CHUNK_SYMBOLS)."""
    return max(1, FRAME_CHUNK_SYMBOLS // params.size)


def _chunks(cfg: ExperimentConfig, methods, *point: int):
    """The runners' one transmit stage: yield (substreams, information
    vectors, one TransmitFrame stack per method) for each chunk of
    about FRAME_CHUNK_SYMBOLS symbols, one frame a row, frame f drawing
    from frame_rng(seed, *point, f).

    Each stage runs once a chunk: the draw, the Gray mapping, with
    "proposed" one lockstep greedy_precode_batch search on the unit ring
    (x* is then scaled by A, so no flip depends on A), and each method's
    transmit.  Transmitting draws nothing from the substreams, so
    a caller's draws follow the information vector's (the symbols
    times A).
    """
    A, chunk = cfg.amplitude, _chunk_frames(cfg.params)
    for start in range(0, cfg.frames, chunk):
        rngs = [frame_rng(cfg.seed, *point, f)
                for f in range(start, min(start + chunk, cfg.frames))]
        E = draw_info_batch(cfg, rngs)[1]
        X_star = None
        if "proposed" in methods:
            X_star = np.array([r.x_star for r in
                               greedy_precode_batch(E, cfg.params, cfg.greedy)])
            X_star *= A
        E *= A  # the information vectors u
        yield rngs, E, [transmit(E, method, cfg, X_star) for method in methods]


@dataclass(frozen=True)
class TransmitFrame:
    """Transmit-side products for one method: of one frame, or of a stack
    of frames with one row of s and one peak reference a frame."""

    s: np.ndarray
    peak_reference: float | np.ndarray | None = None  # companding side information


def transmit(u, method: str, cfg: ExperimentConfig,
             x_star: np.ndarray | None) -> TransmitFrame:
    """One method's transmit path, for one frame u or a stack of frames,
    one a row, with one call a stage: modulate u, or x_star (u's greedy
    search result, of u's shape) for "proposed" or u spread for "dft",
    then compand for "companding", each frame toward its own peak (its
    peak reference), or clip for "icf", each frame at its own rms.  ICF
    runs in slices of max(1, chunk // oversample_factor) frames, chunk
    the runners' frames a chunk, so its oversampled grid holds no more
    symbols than a chunk.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    params = cfg.params
    U = params.frames(u)
    if method == "proposed" and np.shape(x_star) != U.shape:
        got = "none" if x_star is None else f"shape {np.shape(x_star)}"
        raise ParameterError(f"proposed needs x_star of u's shape {U.shape}, got {got}")
    X = (x_star if method == "proposed"
         else dft_spread(U, cfg.dft, params) if method == "dft" else U)
    S = modulate(X, params)
    if method == "companding":
        V = np.abs(S).max(axis=-1)
        return TransmitFrame(s=mu_compand(S, cfg.companding, V),
                             peak_reference=V if V.ndim else float(V))
    if method == "icf":
        step = max(1, _chunk_frames(params) // cfg.icf.oversample_factor)
        rows = S.reshape(-1, params.size)
        for i in range(0, len(rows), step):
            rows[i:i + step] = icf(rows[i:i + step], cfg.icf, params)
    return TransmitFrame(s=S)


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
    start = 0
    for rngs, _, sent in _chunks(cfg, methods, *point):
        for row, tx in zip(samples, sent):
            row[start:start + len(rngs)] = papr(tx.s).value_db
        start += len(rngs)
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
    sweep: tuple = ()  # (config key, values) that the run swept in its place


def _error_sweep(cfg: ExperimentConfig, nus, snrs) -> list:
    """One ErrorRatePoint per (maximum Doppler, SNR, method), in that
    order, on common draws.

    Frame f draws from frame_rng(seed, 0, f) for every sweep point: its
    information vector, its channel's gains and angles, and one
    unit-noise vector w.  At each maximum Doppler nu the channel is
    nu*cos(theta) with the frame's gains and angles, and the frame's
    methods pass through it as one stack.  Each receive stage then runs
    once on the stack of the frame's (SNR, method) rows, SNR-major: each
    SNR scales w to its own noise variance, referenced to the method's
    received power, and a row whose solve fails skips that frame alone.
    A profile with a delay tap at or above MN, for which no receiver
    block size exists, fails before any frame.
    """
    params, alphabet = cfg.params, cfg.alphabet
    profile = cfg.channel_profile
    if profile is not None:
        delay_taps(profile, params)  # raises where no block size exists
    methods = cfg.methods
    names = np.tile(methods, len(snrs))  # each row's method
    expand, dft_rows = names == "companding", names == "dft"
    counts = np.full((len(nus), len(names)), ErrorCounts(0, 0, 0, 0), dtype=object)
    skipped = np.zeros(counts.shape, dtype=int)
    clips = np.zeros(counts.shape, dtype=int)
    for rngs, U, sent in _chunks(cfg, methods, 0):
        for f, rng in enumerate(rngs):
            truth = detect_symbols(U[f], alphabet)
            if profile is None:
                channels = [identity_channel()] * len(nus)
            else:
                channels = sample_channels(profile, nus, params, rng)
            w = unit_noise(params.size, rng)
            s = np.array([tx.s[f] for tx in sent])
            for a, ch in enumerate(channels):
                r0 = apply_channel(s, ch, params)
                sigma2 = np.concatenate([calibrate_noise(snr_db, r0) for snr_db in snrs])
                r = add_noise(np.tile(r0, (len(snrs), 1)), sigma2, w)
                if expand.any():  # one peak reference serves every companding row
                    V = sent[methods.index("companding")].peak_reference[f]
                    for j in np.flatnonzero(expand):
                        clips[a, j] += clip_count(r[j], V)
                    r[expand] = mu_expand(r[expand], cfg.companding, V)
                z = block_mmse_equalize(channel_blocks(ch, params), r,
                                        dd_noise_variance(sigma2, params) / alphabet.A ** 2)
                x_hat = demodulate(z, params)
                x_hat[dft_rows] = dft_despread(x_hat[dft_rows], cfg.dft, params)
                ok = ~np.isnan(x_hat[:, 0])  # False where the receiver failed
                skipped[a] += ~ok
                counts[a, ok] += count_errors(detect_symbols(x_hat[ok], alphabet),
                                              truth, alphabet)
    points = itertools.product(nus, snrs, methods)
    return [ErrorRatePoint(method=method, snr_db=snr_db, nu_max_hz=nu,
                           frames=cfg.frames - n_skipped, counts=c,
                           skipped_frames=n_skipped, expander_clips=n_clips)
            for (nu, snr_db, method), c, n_skipped, n_clips in zip(
                points, counts.flat, skipped.ravel().tolist(), clips.ravel().tolist())]


def run_error_rate(cfg: ExperimentConfig) -> ErrorRateResult:
    """SER/BER over the configured SNR grid for each configured method.

    Methods and SNR points are compared on identical information
    vectors, channel draws and unit noise.
    """
    if not cfg.snr_db_list:
        raise ParameterError("snr_db_list must be non-empty for error-rate runs")
    return ErrorRateResult(config=cfg, points=_error_sweep(
        cfg, (cfg.nu_max_hz,), [float(snr_db) for snr_db in cfg.snr_db_list]))


def run_doppler_sweep(cfg: ExperimentConfig, nu_max_list=None) -> ErrorRateResult:
    """SER at one SNR across a maximum-Doppler grid.

    The SNR is the config's one snr_db_list value, DOPPLER_SWEEP_SNR_DB
    if the list is empty; the result's config echoes the SNR used.  Every
    Doppler value runs on the same frames, channel gains and angles, and
    noise.
    """
    if len(cfg.snr_db_list) > 1:
        raise ParameterError(
            f"doppler-sweep takes at most one SNR, got {cfg.snr_db_list}")
    snr_db = cfg.snr_db_list[0] if cfg.snr_db_list else DOPPLER_SWEEP_SNR_DB
    cfg = replace(cfg, snr_db_list=(snr_db,))
    nus = DOPPLER_SWEEP_DEFAULT_HZ if nu_max_list is None else nu_max_list
    if len(nus) == 0:
        raise ParameterError("nu_max_list must be non-empty for doppler-sweep runs")
    # Every Doppler value is validated before the first frame runs.
    nus = tuple(replace(cfg, nu_max_hz=float(nu)).nu_max_hz for nu in nus)
    return ErrorRateResult(config=cfg, points=_error_sweep(cfg, nus, (snr_db,)),
                           sweep=("nu_max_hz", nus))


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
    sweep: tuple = ()  # (config key, values) that the run swept in its place


def run_scaling_table(cfg: ExperimentConfig, sweep_m=None, sweep_n=None) -> ScalingResult:
    """PAPR at CCDF 0.1 for every (grid size, method) combination.

    Exactly one of sweep_m / sweep_n gives the swept dimension; the
    other dimension is held at the config value.
    """
    if (sweep_m is None) == (sweep_n is None):
        raise ParameterError("provide exactly one of sweep_m or sweep_n")
    key, values = ("M", sweep_m) if sweep_m is not None else ("N", sweep_n)
    if len(values) == 0:
        raise ParameterError(f"sweep_{key.lower()} must be non-empty for scaling-table runs")
    # Every grid size is validated before the first frame runs.
    sized_cfgs = [replace(cfg, **{key: value}) for value in values]
    rows = []
    for grid_idx, sized in enumerate(sized_cfgs):
        samples = _papr_samples(sized, cfg.methods, grid_idx)
        rows += [ScalingRow(M=sized.M, N=sized.N, method=method,
                            papr_db_at_ccdf_0p1=papr_at_ccdf(row, 0.1))
                 for method, row in zip(cfg.methods, samples)]
    return ScalingResult(config=cfg, rows=rows,
                         sweep=(key, tuple(int(v) for v in values)))


# ---------------------------------------------------------------------------
# CSV rendering (bodies are byte-stable; only the timestamp header varies)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _metadata_lines(cfg: ExperimentConfig, kind: str, extra=(), sweep=()) -> list:
    """Header lines; a swept config key is echoed with the values the run
    used, on its own line, not with the config's unused value."""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    lines = [f"# otfs-papr v{__version__} {kind}",
             f"# generated: {now}",
             f"# rng: {RNG_SCHEME} seed={cfg.seed}",
             f"# config: {config_summary(cfg, omit=sweep[:1])}"]
    if sweep:
        key, values = sweep
        lines.append(f"# sweep: {key}=[{','.join(map(_fmt, values))}]")
    lines.extend(f"# {e}" for e in extra)
    return lines


def _ccdf_extra(result: CcdfResult) -> list:
    return [f"method: {result.method}"] + [
        f"papr_db_at_ccdf_{t}: {_fmt(result.papr_at_targets[t])}"
        for t in CCDF_TARGETS]


def _csv(metadata: list, columns: str, rows) -> str:
    """The one CSV layout: the metadata lines, the column line, then one
    comma-joined line of _fmt values per row."""
    lines = metadata + [columns]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def render_ccdf_samples_csv(result: CcdfResult) -> str:
    return _csv(_metadata_lines(result.config, "ccdf-samples", _ccdf_extra(result)),
                "frame_idx,papr_db", enumerate(result.samples_db))


def render_ccdf_curve_csv(result: CcdfResult) -> str:
    return _csv(_metadata_lines(result.config, "ccdf-curve", _ccdf_extra(result)),
                "threshold_db,ccdf",
                zip(result.curve.thresholds_db, result.curve.probabilities))


def render_error_rate_csv(result: ErrorRateResult) -> str:
    extra = [f"{label}: method={p.method} snr_db={_fmt(p.snr_db)} "
             f"nu_max_hz={_fmt(p.nu_max_hz)} count={count}"
             for p in result.points
             for label, count in (("skipped", p.skipped_frames),
                                  ("expander_clips", p.expander_clips)) if count]
    return _csv(_metadata_lines(result.config, "error-rate", extra, result.sweep),
                "method,snr_db,nu_max_hz,frames,symbols,symbol_errors,bit_errors,ser,ber",
                [(p.method, p.snr_db, p.nu_max_hz, p.frames, p.counts.symbols,
                  p.counts.symbol_errors, p.counts.bit_errors, p.counts.ser,
                  p.counts.ber) for p in result.points])


def render_scaling_csv(result: ScalingResult) -> str:
    return _csv(_metadata_lines(result.config, "scaling-table", sweep=result.sweep),
                "M,N,method,papr_db_at_ccdf_0p1", map(astuple, result.rows))


def csv_body(text: str) -> str:
    """CSV text with `#` metadata lines stripped (the deterministic part)."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#")) + "\n"
