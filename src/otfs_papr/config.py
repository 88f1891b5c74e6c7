"""Experiment configuration: one definition per setting.

Every field of `ExperimentConfig` is a config-file key and has a
same-named CLI flag (`--output` for `output_path`), generated from the
field list by `cli._add_config_flags`.  Config files are TOML, read with
the standard library's `tomllib`.  File values and flag values (which
arrive as text) go through the same type coercion in
`config_from_mapping`.  Building a config builds the stage objects the
runners use, so a bad value fails before any frame.
"""

import tomllib
from dataclasses import dataclass, field, fields

from .baselines import CompandingConfig, DftSpreadConfig, IcfConfig
from .channel import PathProfile, named_profile
from .errors import ParameterError
from .frame import FrameParams, PskAlphabet
from .precoder import GreedyConfig

METHODS = ("none", "proposed", "companding", "icf", "dft")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, modulation, method, Monte Carlo counts, seeds.

    max_iter = 0 lets the greedy precoder run to its natural
    no-improvement stop, which is what reproduces the reference CCDF
    numbers; a positive value caps the number of search passes.

    profile is a named profile, "identity" (a deterministic unit-gain
    path) or a PathProfile, such as one loaded from a profile file.

    Built from the fields and kept as plain attributes (not fields, so
    they are neither keys nor flags): `params` (FrameParams), `alphabet`
    (PskAlphabet), `greedy` (GreedyConfig), `companding`
    (CompandingConfig), `icf` (IcfConfig) and `dft` (DftSpreadConfig).
    """

    M: int = 16
    N: int = 16
    delta_f: float = 15e3
    modulation: int = field(default=4, metadata={
        "help": "PSK order D (2, 4, ...)"})
    amplitude: float = 1.0
    method: str = field(default="none", metadata={
        "help": "none|proposed|companding|icf|dft, comma-separable"})
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
        if self.frames < 1:
            raise ParameterError(f"frames must be >= 1, got {self.frames}")
        if self.max_iter < 0:  # 0 is valid here (no cap), unlike in GreedyConfig
            raise ParameterError(f"max_iter must be >= 0, got {self.max_iter}")
        if not self.methods:
            raise ParameterError("method must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ParameterError(f"unknown method {m!r}; known: {METHODS}")
        self.path_profile()  # raises on an unknown profile
        # Each stage's own validator runs here, so a bad value fails
        # before any frame.
        stages = dict(
            params=FrameParams(M=self.M, N=self.N, delta_f=self.delta_f),
            alphabet=PskAlphabet(D=self.modulation, A=self.amplitude),
            greedy=GreedyConfig(max_iter=self.max_iter or None),
            companding=CompandingConfig(mu=self.mu),
            icf=IcfConfig(clip_ratio_db=self.clip_ratio_db,
                          iterations=self.icf_iterations,
                          oversample_factor=self.icf_oversample),
            dft=DftSpreadConfig(axis=self.dft_axis))
        stages["alphabet"].bits_per_symbol  # raises on a non-power-of-two order
        for name, stage in stages.items():
            object.__setattr__(self, name, stage)

    @property
    def methods(self) -> tuple:
        """Comma-separated method field split into individual methods."""
        return tuple(m.strip() for m in self.method.split(",") if m.strip())

    def path_profile(self) -> PathProfile | None:
        """The channel's path profile; None for the identity channel."""
        if isinstance(self.profile, PathProfile):
            return self.profile
        if not isinstance(self.profile, str):
            raise ParameterError(f"profile must be a name or a PathProfile, "
                                 f"got {self.profile!r}")
        if self.profile.lower() == "identity":
            return None
        return named_profile(self.profile)


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
        raise ParameterError(f"config key {key!r} expects a number, got {value!r}")
    if kind is float:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ParameterError(f"config key {key!r} expects an integer, got {value}")
    return int(value)


def _numbers(key: str, value) -> tuple:
    """A list of numbers, given as a list, one number or comma-separated
    text, as a tuple of floats."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(_number(key, v, float) for v in value)


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


def config_summary(cfg: ExperimentConfig) -> str:
    """Single-line deterministic key=value echo for output metadata."""
    parts = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = _list(v)
        elif isinstance(v, PathProfile):
            v = f"PathProfile(delays_ns={_list(v.delays_ns)},powers_db={_list(v.powers_db)})"
        parts.append(f"{f.name}={v}")
    return " ".join(parts)
