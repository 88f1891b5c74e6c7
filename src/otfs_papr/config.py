"""Experiment configuration: one definition per setting.

Every field of `ExperimentConfig` is a config-file key and has a
same-named CLI flag (`--output` for `output_path`), generated from the
field list by `cli._add_config_flags`.  Config files are TOML, read with
the standard library's `tomllib`.  File values and flag values (which
arrive as text) go through the same type coercion in
`config_from_mapping`.  Building a config builds the stage objects the
runners use, so a bad value fails before any frame.  Library callers
that build a config directly skip that coercion, so every `int` field
must hold an integer (a numpy integer will do, a bool or a float will
not) and every `float` field a real number (an integer or a numpy float
will do, a bool or a string will not).  Each setting has one default,
here, and each stage's own validator is the one check of its values.  The exceptions are two
stage defaults that equal the config's, `FrameParams.delta_f` (15 kHz)
and `PskAlphabet.A` (1.0), which let a grid or an alphabet be built on
its own; the defaults of `doppler-sweep`'s own grid,
`experiment.DOPPLER_SWEEP_SNR_DB` and
`experiment.DOPPLER_SWEEP_DEFAULT_HZ`; and two checks that span stages:
`amplitude` must keep a frame's power, at the grid's M and N, a finite
normal float, and `clip_ratio_db` must keep it above the normal range's
floor after `icf_iterations` clipping rounds.
"""

import math
import numbers
import sys
import tomllib
from dataclasses import dataclass, field, fields

from .baselines import CompandingConfig, DftSpreadConfig, IcfConfig
from .channel import PathProfile, finite_noise, named_profile
from .errors import ParameterError
from .frame import FrameParams, PskAlphabet
from .precoder import GreedyConfig

METHODS = ("none", "proposed", "companding", "icf", "dft")
# What a library caller may pass in an int or a float field; a bool is
# neither.
_NUMBER_KINDS = {int: (numbers.Integral, "an integer"),
                 float: (numbers.Real, "a real number")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, modulation, method, Monte Carlo counts, seeds.

    max_iter = 0 lets the greedy precoder run to its natural
    no-improvement stop, which is what reproduces the reference CCDF
    numbers; a positive value caps the number of search passes.  The
    value reaches GreedyConfig unchanged.

    profile is a named profile, "identity" (a deterministic unit-gain
    path) or a PathProfile, such as one loaded from a profile file.

    Built from the fields and kept as plain attributes (not fields, so
    they are neither keys nor flags): `params` (FrameParams), `alphabet`
    (PskAlphabet), `greedy` (GreedyConfig), `companding`
    (CompandingConfig), `icf` (IcfConfig), `dft` (DftSpreadConfig) and
    `channel_profile` (the PathProfile; None for "identity").
    """

    M: int = 16
    N: int = 16
    delta_f: float = 15e3
    modulation: int = field(default=4, metadata={
        "help": "PSK order D (2, 4, ...)"})
    amplitude: float = 1.0
    method: str = field(default="none", metadata={
        "help": "|".join(METHODS) + ", comma-separable"})
    frames: int = 1000
    seed: int = 1
    snr_db_list: tuple = field(default=(), metadata={
        "help": "comma-separated SNR grid in dB (inf allowed)"})
    nu_max_hz: float = 300.0
    profile: str | PathProfile = field(default="etu300", metadata={
        "help": "etu300 | single-path | identity"})
    max_iter: int = field(default=0, metadata={
        "help": "greedy pass cap; 0 runs to the natural stop"})
    mu: float = 4.0
    clip_ratio_db: float = 4.0
    icf_iterations: int = 3
    icf_oversample: int = 4
    dft_axis: str = field(default="delay", metadata={"help": "delay | doppler"})
    output_path: str = field(default="experiment", metadata={
        "flag": "--output", "help": "output path stem"})

    def __post_init__(self):
        for f in fields(self):  # library callers skip config_from_mapping's coercion
            if f.type in _NUMBER_KINDS:
                value, (kind, what) = getattr(self, f.name), _NUMBER_KINDS[f.type]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ParameterError(f"{f.name!r} expects {what}, got {value!r}")
        if self.frames < 1:
            raise ParameterError(f"frames must be >= 1, got {self.frames}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.nu_max_hz < math.inf:
            raise ParameterError(
                f"nu_max_hz must be finite and >= 0, got {self.nu_max_hz}")
        if not all(map(finite_noise, self.snr_db_list)):  # inf is noiseless
            raise ParameterError(
                f"snr_db_list must not hold NaN, -inf or a value below about "
                f"-3082.5 dB, where the noise power overflows; got "
                f"{self.snr_db_list}")
        if not self.methods:
            raise ParameterError("method must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ParameterError(f"unknown method {m!r}; known: {METHODS}")
        profile = self.profile
        if isinstance(profile, str):  # named_profile raises on an unknown name
            profile = None if profile.lower() == "identity" else named_profile(profile)
        elif not isinstance(profile, PathProfile):
            raise ParameterError(f"profile must be a name or a PathProfile, "
                                 f"got {profile!r}")
        # Each stage's own validator runs here, so a bad value fails
        # before any frame.
        stages = dict(
            params=FrameParams(M=self.M, N=self.N, delta_f=self.delta_f),
            alphabet=PskAlphabet(D=self.modulation, A=self.amplitude),
            greedy=GreedyConfig(max_iter=self.max_iter),
            companding=CompandingConfig(mu=self.mu),
            icf=IcfConfig(clip_ratio_db=self.clip_ratio_db,
                          iterations=self.icf_iterations,
                          oversample_factor=self.icf_oversample),
            dft=DftSpreadConfig(axis=self.dft_axis),
            channel_profile=profile)
        stages["alphabet"].bits_per_symbol  # raises on a non-power-of-two order
        # A frame's power must stay a finite normal float: 2NA bounds a
        # precoded sample and N*sqrt(M)*A a delay-axis DFT-spread one, and
        # each ICF round scales the power by about the clip ratio squared.
        A, tiny = self.amplitude, sys.float_info.min
        peak = self.N * max(2, math.sqrt(self.M)) * A
        if not (A * A >= tiny and math.isfinite(self.M * self.N * peak * peak)):
            raise ParameterError(
                f"amplitude must keep the power of a {self.M} x {self.N} "
                f"frame within the normal float range, got {A}")
        clipped = (10 ** (min(self.clip_ratio_db, 0) / 20)) ** (2 * self.icf_iterations)
        if not A * A * clipped >= tiny:
            raise ParameterError(
                f"clip_ratio_db = {self.clip_ratio_db} over icf_iterations = "
                f"{self.icf_iterations} clips a frame of amplitude {A} below "
                f"the normal float range")
        for name, stage in stages.items():
            object.__setattr__(self, name, stage)

    @property
    def methods(self) -> tuple:
        """Comma-separated method field split into individual methods."""
        return tuple(m.strip() for m in self.method.split(",") if m.strip())


def parse_config_text(text: str) -> dict:
    """Parse a TOML config file into a {key: value} dict; lists become
    tuples."""
    try:
        mapping = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ParameterError(f"invalid config file: {exc}") from None
    return {k: tuple(v) if isinstance(v, list) else v for k, v in mapping.items()}


def _number(key: str, value, kind: type):
    """A file value or a flag's text as `kind` (int or float)."""
    if isinstance(value, str):
        for parse in (int, float):
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{key!r} expects a number, got {value!r}")
    if kind is float:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ParameterError(f"{key!r} expects an integer, got {value}")
    return int(value)


def _numbers(key: str, value, kind: type = float) -> tuple:
    """A list of numbers, given as a list, one number or comma-separated
    text, as a tuple of `kind` (float or int)."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(_number(key, v, kind) for v in value)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from parsed keys, validating names and coercing types.

    Values may be typed (from a config file) or text (from a flag).  A
    list of numbers may also be given as one number or as a
    comma-separated string.
    """
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    updates = {}
    for key, value in mapping.items():
        if key not in kinds:
            raise ParameterError(f"unknown config key {key!r}")
        kind = kinds[key]
        if kind is tuple:
            value = _numbers(key, value)
        elif kind in (int, float):
            value = _number(key, value, kind)
        else:
            value = str(value)
        updates[key] = value
    return ExperimentConfig(**updates)


def profile_from_mapping(mapping: dict) -> PathProfile:
    """A path profile from a parsed profile file's delays_ns and
    powers_db, which follow the config keys' rules for number lists."""
    try:
        return PathProfile(_numbers("delays_ns", mapping["delays_ns"]),
                           _numbers("powers_db", mapping["powers_db"]))
    except KeyError as missing:
        raise ParameterError(f"profile file lacks key {missing}") from None


def _list(values) -> str:
    return "[" + ",".join(f"{x:.10g}" for x in values) + "]"


def config_summary(cfg: ExperimentConfig, omit=()) -> str:
    """Single-line deterministic key=value echo for output metadata, less
    the keys in `omit`."""
    parts = []
    for f in fields(ExperimentConfig):
        if f.name in omit:
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = _list(v)
        elif isinstance(v, PathProfile):
            v = f"PathProfile(delays_ns={_list(v.delays_ns)},powers_db={_list(v.powers_db)})"
        parts.append(f"{f.name}={v}")
    return " ".join(parts)
