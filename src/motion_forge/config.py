"""Configuration file handling: one JSON document, one section per module.

Unknown keys are rejected everywhere so typos fail loudly.  Every section is
optional; omitted sections fall back to the library defaults (see each
config dataclass for the values and their meaning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .curriculum import SamplerConfig, SimConfig
from .errors import ConfigError, check_fields, check_object
from .metrics import GroundModel, SuccessConfig
from .motion_io import read_json
from .prefix_loop import PrefixLoopConfig
from .rewards import RewardConfig, RewardTerm
from .router import RouterConfig


def _from_json(annotation: str, value):
    """`value` in the JSON form of its field's (string) annotation: a RewardTerm
    is a [weight, sigma] pair, a tuple a list, and null passes only `| None`."""
    if value is None and annotation.endswith("| None"):
        return None
    if annotation == "RewardTerm":
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return RewardTerm(*value)
        raise ConfigError("reward terms must be [weight, sigma] pairs")
    if annotation.startswith("tuple["):
        return tuple(value)
    return value


def _build(cls, data, where: str):
    check_object(data, where, {f.name for f in fields(cls)})
    try:
        return cls(**{f.name: _from_json(f.type, data[f.name])
                      for f in fields(cls) if f.name in data})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class AsfoConfig:
    rho_max: int = 8
    mirror_alpha: float = 0.3

    def __post_init__(self):
        check_fields(self, positive=("rho_max",))


@dataclass(frozen=True)
class TrackerConfig:
    noise_scale: float = 0.0
    offset: float = 0.0             # m, z lift from row offset_from_frame on
    offset_from_frame: int = 0

    def __post_init__(self):
        check_fields(self, signed=("offset",))


@dataclass(frozen=True)
class GeneratorConfig:
    noise_scale: float = 0.005

    def __post_init__(self):
        check_fields(self)


@dataclass
class AppConfig:
    ground: GroundModel = field(default_factory=GroundModel)
    success: SuccessConfig = field(default_factory=SuccessConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    curriculum: SamplerConfig = field(default_factory=SamplerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    asfo: AsfoConfig = field(default_factory=AsfoConfig)
    prefix_loop: PrefixLoopConfig = field(default_factory=PrefixLoopConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)


def config_from_dict(data) -> AppConfig:
    """One section per AppConfig field, read into its default factory's class."""
    sections = {f.name: f.default_factory for f in fields(AppConfig)}
    check_object(data, "config", sections)
    return AppConfig(**{name: _build(cls, data[name], name)
                        for name, cls in sections.items() if name in data})


def read_config(path):
    """A config file's JSON document; a NaN, Infinity or out-of-range number is a ConfigError."""
    def finite(literal: str) -> float:
        # every JSON number with a fraction or exponent, and the NaN/Infinity
        # literals Python's json reads, pass through here
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"config {path}: {literal} is not a finite number")
        return value

    return read_json(path, "config", ConfigError, finite)
