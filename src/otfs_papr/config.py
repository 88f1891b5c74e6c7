"""Experiment configuration and a flat key=value config-file format.

Config files are a TOML-compatible subset: one `key = value` per line,
`#` comments, values are integers, floats (inf allowed), booleans,
quoted strings, or flat lists of numbers.  Every key can be overridden
by the same-named CLI flag.
"""

from dataclasses import dataclass, fields, replace

from .baselines import CompandingConfig, DftSpreadConfig, IcfConfig
from .channel import PathProfile, named_profile
from .errors import ParameterError
from .frame import FrameParams, PskAlphabet

METHODS = ("none", "proposed", "companding", "icf", "dft")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, modulation, method, Monte Carlo counts, seeds.

    max_iter = 0 lets the greedy precoder run to its natural
    no-improvement stop, which is what reproduces the reference CCDF
    numbers; a positive value caps the number of search passes.

    profile is a named profile, "identity" (a deterministic unit-gain
    path) or a PathProfile, such as one loaded from a profile file.
    """

    M: int = 16
    N: int = 16
    delta_f: float = 15e3
    modulation: int = 4
    amplitude: float = 1.0
    method: str = "none"
    frames: int = 1000
    seed: int = 1
    snr_db_list: tuple = ()
    nu_max_hz: float = 300.0
    profile: str | PathProfile = "etu300"
    max_iter: int = 0
    mu: float = 4.0
    clip_ratio_db: float = 4.0
    icf_iterations: int = 3
    icf_oversample: int = 4
    dft_axis: str = "delay"
    output_path: str = "experiment"

    def __post_init__(self):
        if self.frames < 1:
            raise ParameterError(f"frames must be >= 1, got {self.frames}")
        if self.max_iter < 0:  # every value >= 0 gives a valid GreedyConfig
            raise ParameterError(f"max_iter must be >= 0, got {self.max_iter}")
        if not self.methods:
            raise ParameterError("method must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ParameterError(f"unknown method {m!r}; known: {METHODS}")
        self.path_profile()  # raises on an unknown profile
        # Each stage's own validator, so a bad value fails before any frame.
        FrameParams(M=self.M, N=self.N, delta_f=self.delta_f)
        PskAlphabet(D=self.modulation, A=self.amplitude).bits_per_symbol
        CompandingConfig(mu=self.mu)
        IcfConfig(clip_ratio_db=self.clip_ratio_db, iterations=self.icf_iterations,
                  oversample_factor=self.icf_oversample)
        DftSpreadConfig(axis=self.dft_axis)

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


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_value(part) for part in inner.split(","))
    if (text.startswith('"') and text.endswith('"')) or \
            (text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"cannot parse config value {text!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value format into a {key: value} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = _parse_value(value)
    return out


def config_from_mapping(mapping: dict, base: ExperimentConfig = None) -> ExperimentConfig:
    """Build a config from parsed keys, validating names and coercing types."""
    base = base if base is not None else ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    updates = {}
    for key, value in mapping.items():
        if key not in known:
            raise ParameterError(f"unknown config key {key!r}")
        current = getattr(base, key)
        if key == "snr_db_list":
            if isinstance(value, str):
                value = tuple(float(v) for v in value.split(",") if v.strip())
            else:
                value = tuple(float(v) for v in value)
        elif isinstance(current, bool):
            value = bool(value)
        elif isinstance(current, int) and not isinstance(value, bool):
            if isinstance(value, float) and not value.is_integer():
                raise ParameterError(f"config key {key!r} expects an integer, got {value}")
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        elif isinstance(current, str):
            value = str(value)
        updates[key] = value
    return replace(base, **updates)


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
