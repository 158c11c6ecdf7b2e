"""Configuration file handling: one JSON document, one section per module.

Unknown keys are rejected everywhere so typos fail loudly.  Every section is
optional; omitted sections fall back to the library defaults (see each
config dataclass for the values and their meaning).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .curriculum import SamplerConfig, SimConfig
from .errors import ConfigError
from .generation import GUIDANCE_SCALE
from .metrics import GroundModel, SuccessConfig
from .prefix_loop import PrefixLoopConfig
from .rewards import ObservationNoiseConfig, RewardConfig, RewardTerm
from .router import RouterConfig

def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _build(cls, data: dict, where: str, converters: dict | None = None):
    import dataclasses

    names = {f.name for f in dataclasses.fields(cls)}
    _check_keys(data, names, where)
    kwargs = dict(data)
    for key, conv in (converters or {}).items():
        if key in kwargs:
            kwargs[key] = conv(kwargs[key])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class DiffusionConfig:
    num_steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02
    guidance_scale: float = GUIDANCE_SCALE


@dataclass(frozen=True)
class AsfoConfig:
    rho_max: int = 8
    mirror_alpha: float = 0.3


@dataclass(frozen=True)
class TrackerConfig:
    kind: str = "identity"          # identity | perturbation | failure
    seed: int = 0
    noise_scale: float = 0.0
    offset: float = 0.0
    fail_after_frame: int = 0
    fail_offset: float = 10.0

    def __post_init__(self):
        if self.kind not in ("identity", "perturbation", "failure"):
            raise ConfigError(f"unknown tracker kind '{self.kind}'")


@dataclass(frozen=True)
class GeneratorConfig:
    noise_scale: float = 0.005


@dataclass
class AppConfig:
    ground: GroundModel = field(default_factory=GroundModel)
    success: SuccessConfig = field(default_factory=SuccessConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    obs_noise: ObservationNoiseConfig = field(default_factory=ObservationNoiseConfig)
    curriculum: SamplerConfig = field(default_factory=SamplerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    asfo: AsfoConfig = field(default_factory=AsfoConfig)
    prefix_loop: PrefixLoopConfig = field(default_factory=PrefixLoopConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)


def _reward_term(value) -> RewardTerm:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return RewardTerm(float(value[0]), float(value[1]))
    raise ConfigError("reward terms must be [weight, sigma] pairs")


def _optional_tuple(value) -> tuple | None:
    return tuple(value) if value is not None else None


_REWARD_TERMS = ("anchor_pos", "anchor_ori", "rel_body_pos",
                 "rel_body_ori", "body_lin_vel", "body_ang_vel")

# AppConfig field -> (config class, converters for the section's raw values)
_SECTIONS = {
    "ground": (GroundModel, {}),
    "success": (SuccessConfig, {"ee_bodies": _optional_tuple}),
    "rewards": (RewardConfig, {
        **dict.fromkeys(_REWARD_TERMS, _reward_term),
        "excluded_contact_bodies": tuple,
        "tracked_bodies": _optional_tuple,
    }),
    "obs_noise": (ObservationNoiseConfig, {}),
    "curriculum": (SamplerConfig, {}),
    "sim": (SimConfig, {}),
    "router": (RouterConfig, {}),
    "diffusion": (DiffusionConfig, {}),
    "asfo": (AsfoConfig, {}),
    "prefix_loop": (PrefixLoopConfig, {"tracked_bodies": _optional_tuple}),
    "tracker": (TrackerConfig, {}),
    "generator": (GeneratorConfig, {}),
}


def config_from_dict(data: dict) -> AppConfig:
    _check_keys(data, set(_SECTIONS), "config")
    return AppConfig(**{
        name: _build(cls, data[name], name, converters)
        for name, (cls, converters) in _SECTIONS.items()
        if name in data
    })


def load_config(path) -> AppConfig:
    def finite(literal: str) -> float:
        # every JSON number with a fraction or exponent, and the NaN/Infinity
        # literals Python's json reads, pass through here
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"config {path}: {literal} is not a finite number")
        return value

    try:
        data = json.loads(Path(path).read_text(), parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_dict(data)
