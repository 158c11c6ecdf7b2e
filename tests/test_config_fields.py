"""The config field rule, generated from the dataclass fields.

Every `int` or `float` field of every config section, of a corpus file
(`SyntheticFile`), of the library-only configs and of the parameter classes
(`TPMoEParams`, `AttentionPoolParams`, `ExpertPool`) must refuse a bool, a
string, NaN, inf, a fraction in an `int` field, an integer past int64 in an
`int` field or past float64 in a `float` field, a negative number unless the
field is signed, zero where it must be positive and 2.0 where it must be at
most 1, each with a ConfigError naming the field and never another
exception.  Each class's signed/positive/at-most-one tables are written out
in `PINNED` and checked against the call the class makes to `check_fields`,
so an edit to a table in `src` fails here; a field added later is covered
by its annotation without new test code.
"""

import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest

from motion_forge.cli import AppConfig, config_from_dict
from motion_forge.curriculum import SyntheticFile
from motion_forge.errors import ConfigError, check_fields
from motion_forge.generation import (
    AttentionPoolParams,
    TPMoEParams,
    init_attention_pool,
    init_tpmoe,
)
from motion_forge.rewards import ObservationNoiseConfig, RewardConfig, RewardTerm
from motion_forge.router import ExpertPool, make_random_pool

RULES = ("positive", "at_most_one", "signed")


def _section_builder(section):
    return lambda values: config_from_dict({section: values})


def _direct_builder(cls, **required):
    return lambda values: cls(**{**required, **values})


def _replace_builder(obj):
    return lambda values: dataclasses.replace(obj, **values)


# class -> a function building it from {field: value}, the way its users do
BUILDERS = {
    **{f.default_factory: _section_builder(f.name) for f in dataclasses.fields(AppConfig)},
    SyntheticFile: _direct_builder(SyntheticFile, file_id="a", level=1),
    RewardTerm: _direct_builder(RewardTerm, weight=1.0, sigma=0.2),
    ObservationNoiseConfig: _direct_builder(ObservationNoiseConfig),
    TPMoEParams: _replace_builder(init_tpmoe(np.random.default_rng(0), 8, 4, 6, 2)),
    AttentionPoolParams: _replace_builder(init_attention_pool(np.random.default_rng(0), 8, 4)),
    ExpertPool: _replace_builder(make_random_pool(np.random.default_rng(0), 2, 4, (3,), 2,
                                                  capacity=4)),
}


def number_fields(cls) -> dict[str, str]:
    """Field name -> "int" or "float" for every numeric field of `cls`."""
    return {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(cls)
            if f.type in (int, "int", float, "float")}


# class name -> the tables its `check_fields` call names; a rule left out names no field
PINNED = {
    "GroundModel": {"positive": ("contact_height_eps", "skate_disp_threshold"),
                    "signed": ("ground_z",)},
    "SuccessConfig": {},
    "RewardConfig": {"signed": ("action_rate_weight", "joint_limit_weight",
                                "undesired_contact_weight")},
    "SamplerConfig": {
        "positive": ("error_ema_alpha", "success_decay_beta", "error_norm_c", "temperature",
                     "epsilon", "success_eps", "tau_err", "tau_succ", "freeze_duration",
                     "check_interval", "intro_base_iters", "promote_consecutive"),
        "at_most_one": ("error_ema_alpha", "success_decay_beta", "success_weight_w", "epsilon",
                        "intro_start_ratio", "level_mass_floor")},
    "SimConfig": {"positive": ("total_iters", "rollouts_per_iter", "eval_interval",
                               "trace_interval")},
    "RouterConfig": {"positive": ("top_k", "refresh_period", "temperature", "cold_start_cap"),
                     "at_most_one": ("ema_coeff", "rho_hard", "cold_start_cap")},
    "AsfoConfig": {"positive": ("rho_max",)},
    "PrefixLoopConfig": {"positive": ("fps", "mpjpe_tolerance", "max_resamples",
                                      "segment_seconds", "horizon_seconds")},
    "TrackerConfig": {"signed": ("offset",)},
    "GeneratorConfig": {},
    "SyntheticFile": {"positive": ("success_scale",)},
    "RewardTerm": {"positive": ("sigma",), "signed": ("weight",)},
    "ObservationNoiseConfig": {},
    "TPMoEParams": {"positive": ("mask_sharpness", "mask_threshold")},
    "AttentionPoolParams": {"positive": ("num_heads",)},
    "ExpertPool": {"positive": ("input_dim", "output_dim")},
}
TABLES = {cls: {rule: PINNED[cls.__name__].get(rule, ()) for rule in RULES} for cls in BUILDERS}


def rule_tables(cls) -> dict[str, tuple]:
    """The tables `cls` hands `check_fields` when built from defaults."""
    module = sys.modules[cls.__module__]
    with mock.patch.object(module, "check_fields", wraps=check_fields) as spy:
        BUILDERS[cls]({})
    (call,) = [c for c in spy.call_args_list if type(c.args[0]) is cls]
    return {rule: tuple(call.kwargs.get(rule, ())) for rule in RULES}


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_rule_tables_are_the_pinned_ones(cls):
    assert rule_tables(cls) == TABLES[cls]


def bad_values(cls):
    tables = TABLES[cls]
    for name, kind in number_fields(cls).items():
        values = [True, "x", float("nan"), float("inf")]
        values += [1.5] * (kind == "int")
        values += [-1] * (name not in tables["signed"])
        values += [0] * (name in tables["positive"])
        values += [2.0] * (name in tables["at_most_one"])
        for value in values:
            yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")


@pytest.mark.parametrize("cls, name, value", [p for cls in BUILDERS for p in bad_values(cls)])
def test_bad_number_is_a_config_error_naming_the_field(cls, name, value):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        BUILDERS[cls]({name: value})


def out_of_range_values(cls):
    """An `int` field gets 2**63, past int64; a `float` field a 401-digit
    integer, past float64 (Python's json reads 1e400 as inf, but this as an int)."""
    for name, kind in number_fields(cls).items():
        if kind == "int":
            yield pytest.param(cls, name, 2**63, "holds an integer outside int64",
                               id=f"{cls.__name__}.{name}=2**63")
        else:
            yield pytest.param(cls, name, 10**400, "lies outside float64's range",
                               id=f"{cls.__name__}.{name}=10**400")


@pytest.mark.parametrize("cls, name, value, message",
                         [p for cls in BUILDERS for p in out_of_range_values(cls)])
def test_number_the_library_cannot_compute_in_is_a_config_error(cls, name, value, message):
    with pytest.raises(ConfigError, match=rf"\b{name} {message}$"):
        BUILDERS[cls]({name: value})


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_rule_tables_name_only_numeric_fields(cls):
    numeric = number_fields(cls)
    for rule, names in TABLES[cls].items():
        assert set(names) <= set(numeric), f"{cls.__name__} {rule} names a non-numeric field"
    assert not set(TABLES[cls]["signed"]) & set(TABLES[cls]["positive"])



# each of these was accepted, or raised ZeroDivisionError, before the
# parameter classes took the field rule
@pytest.mark.parametrize("cls, name, value", [
    (TPMoEParams, "mask_sharpness", float("nan")), (TPMoEParams, "mask_sharpness", float("inf")),
    (ExpertPool, "capacity", 2.5), (ExpertPool, "unlocked_count", 1.5),
    (ExpertPool, "input_dim", 4.0),
    (AttentionPoolParams, "num_heads", 0), (AttentionPoolParams, "num_heads", -2),
    (AttentionPoolParams, "num_heads", 2.0),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_parameter_class_refuses_a_bad_number(cls, name, value):
    with pytest.raises(ConfigError, match=rf"^{cls.__name__}: {name}\b"):
        BUILDERS[cls]({name: value})
