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
from .rewards import TASK_TERMS, RewardConfig, RewardTerm
from .router import RouterConfig


def _build(cls, data, where: str, converters: dict | None = None):
    kwargs = dict(check_object(data, where, {f.name for f in fields(cls)}))
    try:
        for key, conv in (converters or {}).items():
            if key in kwargs:
                kwargs[key] = conv(kwargs[key])
        return cls(**kwargs)
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


def _reward_term(value) -> RewardTerm:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return RewardTerm(*value)
    raise ConfigError("reward terms must be [weight, sigma] pairs")


def _optional_tuple(value) -> tuple | None:
    return tuple(value) if value is not None else None


# AppConfig field -> (config class, converters for the section's raw values)
_SECTIONS = {
    "ground": (GroundModel, {}),
    "success": (SuccessConfig, {"ee_bodies": _optional_tuple}),
    "rewards": (RewardConfig, {
        **dict.fromkeys(TASK_TERMS, _reward_term),
        "excluded_contact_bodies": tuple,
        "tracked_bodies": _optional_tuple,
    }),
    "curriculum": (SamplerConfig, {}),
    "sim": (SimConfig, {}),
    "router": (RouterConfig, {}),
    "asfo": (AsfoConfig, {}),
    "prefix_loop": (PrefixLoopConfig, {"tracked_bodies": _optional_tuple}),
    "tracker": (TrackerConfig, {}),
    "generator": (GeneratorConfig, {}),
}


def config_from_dict(data) -> AppConfig:
    check_object(data, "config", _SECTIONS)
    return AppConfig(**{
        name: _build(cls, data[name], name, converters)
        for name, (cls, converters) in _SECTIONS.items()
        if name in data
    })


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
