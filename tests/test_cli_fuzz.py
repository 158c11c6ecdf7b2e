"""Fuzz every CLI input document one JSON node at a time.

Each subcommand starts from one small valid set of input documents, its
`--config` among them.  An example picks one document, one node of it and
one mutation: drop the node, add an unknown key to it, change its type, or
put in NaN, +-inf, zero, a negative, a fraction or a huge number.  Whatever
the mutation, `cli_dispatch` returns 0, or returns 1 with exactly one JSON
error line that names a `MotionForgeError` subclass; it never raises, and it
never succeeds on an input that holds a non-finite number.

A second property targets inputs that would succeed wrongly: a number
replaced by a bool or a numeric string, or a whole number (every valid
document spells one as a JSON integer, and a real number with a fraction
point) replaced by a fraction, must end in exit 1 with one JSON error line.
A third fuzzes the one numeric flag, --seed: a value argparse cannot read
exits 2 with its usage message, and any other value exits 0 or 1 as above.
Every other number a subcommand reads comes from a document, --config among
them, so the first two properties reach it.

Nodes are sampled, not swept: a list offers only its first and last
elements, so a clip of thousands of numbers has about a hundred nodes.
"""

import contextlib
import copy
import functools
import io
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_walk_sequence, neutral_features
from motion_forge import errors
from motion_forge import router as rt
from motion_forge.cli import cli_dispatch
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import FORMAT_VERSION, save_motion

ERRORS = {cls.__name__ for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.MotionForgeError)}
UNKNOWN_KEY = "zz_unknown"
# mutation -> the value it puts in place of the node; "drop" and "unknown"
# edit the tree instead
REPLACEMENTS = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0, "negative": -1,
    "fraction": 0.5, "huge": 1e300, "string": "x", "null": None, "bool": True, "list": [1],
    "object": {"a": 1}, "numeric_string": "0.5",
}
MUTATIONS = ["drop", "unknown", *REPLACEMENTS]
NON_FINITE = {"nan", "inf", "-inf"}

# subcommand -> its argv, naming each input document in braces
COMMANDS = {
    "encode": ["encode", "{clip}", "--out", "{out}"],
    "decode": ["decode", "{features}", "--out", "{out}"],
    "metrics": ["metrics", "{clip}", "{sim}", "--out", "{out}"],
    "reward-eval": ["reward-eval", "{clip}", "{sim}", "--out", "{out}"],
    "curriculum-sim": ["curriculum-sim", "--corpus", "{corpus}", "--out", "{out}"],
    "route-sim": ["route-sim", "{records}", "--pool", "{pool}", "--out", "{out}"],
    "asfo-plan": ["asfo-plan", "{samples}", "--out", "{out}"],
    "prefix-run": ["prefix-run", "{features}", "{target}", "--out", "{out}"],
}


def _inputs(command: str) -> list[str]:
    """The documents `command` reads: its --config and each one its argv names."""
    return ["config"] + [arg[1:-1] for arg in COMMANDS[command]
                         if arg.startswith("{") and arg != "{out}"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def documents(workdir):
    """One small valid document of each kind, as parsed JSON."""
    skel = default_skeleton()
    save_motion(make_walk_sequence(skel, 1.0, 0.1, 4, 30.0), workdir / "saved.json", skel)
    clip = json.loads((workdir / "saved.json").read_text())
    pool = rt.make_random_pool(np.random.default_rng(0), num_experts=2, input_dim=4,
                               hidden=(3,), output_dim=2, capacity=3)
    features = {"format_version": FORMAT_VERSION, "fps": 30.0,
                "features": neutral_features(3).tolist()}
    return {
        "config": {
            "ground": {"ground_z": 0.0}, "success": {"pelvis_z_threshold": 0.2},
            "rewards": {"anchor_pos": [1.0, 0.3], "tracked_bodies": [0, 1]},
            "curriculum": {"epsilon": 0.2, "n_min": 2},
            "sim": {"rollouts_per_iter": 4, "total_iters": 20},
            "router": {"top_k": 2, "temperature": 1.0}, "asfo": {"rho_max": 4},
            "prefix_loop": {"horizon_seconds": 1.0, "mpjpe_tolerance": 0.15},
            "tracker": {"noise_scale": 0.001},
            "generator": {"noise_scale": 0.005},
        },
        "clip": clip,
        "sim": copy.deepcopy(clip),
        "features": features,
        "target": {**features, "features": features["features"][:1]},
        "corpus": {"files": [{"id": "a", "level": 1, "start_error": 0.3},
                             {"id": "b", "level": 2, "success_scale": 0.1}]},
        "records": {"stage": 1, "records": [
            {"z": [0.1, -0.2, 0.3, 0.4, 0.5], "level": 1},
            {"z": [0.2, 0.1, -0.3, 0.0, 0.1], "obs": [0.1, 0.2, 0.3, 0.4], "level": 2},
        ]},
        "pool": rt.pool_to_dict(pool),
        "samples": {"samples": {"a": ["walk"], "b": ["flip"]}},
    }


def _nodes(doc, path=()):
    """Every node of `doc` as a key path; a list offers its first and last elements."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for index in sorted({0, len(doc) - 1}):
            yield from _nodes(doc[index], path + (index,))


def _copy_at(doc, path):
    """A copy of `doc` inside a one-element list, and the container and key
    of the node `path` in that copy."""
    holder = [copy.deepcopy(doc)]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    return holder, parent, key


def _mutate(doc, path, mutation):
    """A copy of `doc` with `mutation` applied at the node `path`; None
    where it does not apply (dropping the whole document, or an unknown key
    in a node that is not an object)."""
    holder, parent, key = _copy_at(doc, path)
    if mutation == "drop":
        if not path:
            return None
        del parent[key]
    elif mutation == "unknown":
        if not isinstance(parent[key], dict):
            return None
        parent[key][UNKNOWN_KEY] = 1
    else:
        parent[key] = REPLACEMENTS[mutation]
    return holder[0]


def _run(workdir, command, documents, flags=()) -> tuple[int, list[str]]:
    """`cli_dispatch`'s return code and stderr lines for `command` on
    `documents`, with any extra `flags`."""
    files = {"out": workdir / "out"}
    for name in _inputs(command):
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(documents[name]))
    argv = [arg.format(**files) for arg in COMMANDS[command]] + ["--config", str(files["config"])]
    argv += flags
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli_dispatch(argv)
    return code, stderr.getvalue().splitlines()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_the_unmutated_inputs_succeed(workdir, documents, command):
    assert _run(workdir, command, documents) == (0, [])


@pytest.mark.parametrize("command", list(COMMANDS))
@given(data=st.data())
def test_one_node_mutation_is_success_or_one_json_error(workdir, documents, command, data):
    name = data.draw(st.sampled_from(_inputs(command)), label="document")
    path = data.draw(st.sampled_from(list(_nodes(documents[name]))), label="node")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mutated = _mutate(documents[name], path, mutation)
    assume(mutated is not None)
    code, lines = _run(workdir, command, {**documents, name: mutated})
    if code == 0:
        assert mutation not in NON_FINITE, f"{command} succeeded on a {mutation} input"
    else:
        _assert_one_json_error(code, lines)


def _assert_one_json_error(code, lines):
    assert code == 1 and len(lines) == 1, (code, lines)
    assert json.loads(lines[0])["error"] in ERRORS, lines[0]


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=20)
@given(data=st.data())
def test_number_replaced_by_a_non_number_is_one_json_error(workdir, documents, command, data):
    name = data.draw(st.sampled_from(_inputs(command)), label="document")
    numbers = {}
    for path in _nodes(documents[name]):
        value = functools.reduce(operator.getitem, path, documents[name])
        if type(value) in (int, float):
            numbers[path] = value
    assume(numbers)
    path = data.draw(st.sampled_from(sorted(numbers, key=str)), label="node")
    value = numbers[path]
    fraction = [value + 0.5] if type(value) is int else []
    replacement = data.draw(st.sampled_from([True, False, str(value), *fraction]),
                            label="replacement")
    holder, parent, key = _copy_at(documents[name], path)
    parent[key] = replacement
    _assert_one_json_error(*_run(workdir, command, {**documents, name: holder[0]}))


# flag -> (the subcommands that take it, the type argparse reads it with)
FLAGS = {"--seed": (list(COMMANDS), int)}
FLAG_VALUES = ["0", "1", "-1", "0.5", "1e300", "1e999", "nan", "inf", "-inf", "x", "", "True"]


@given(data=st.data())
def test_numeric_flag_is_success_one_json_error_or_usage(workdir, documents, data):
    flag = data.draw(st.sampled_from(list(FLAGS)), label="flag")
    commands, kind = FLAGS[flag]
    command = data.draw(st.sampled_from(commands), label="command")
    extra = [str(10**30)] if flag == "--seed" else []
    value = data.draw(st.sampled_from(FLAG_VALUES + extra), label="value")
    code, lines = _run(workdir, command, documents, [f"{flag}={value}"])
    try:
        number = kind(value)
    except ValueError:
        assert code == 2, (code, lines)   # argparse's usage error
        return
    if code == 0:
        assert math.isfinite(number), f"{command} succeeded on {flag}={value}"
    else:
        _assert_one_json_error(code, lines)
