"""JSON file formats: motion clips, feature arrays, normalization stats.

All artifacts are strict JSON with a `format_version` field.  Floats
serialize via Python's shortest round-trip repr, so a save/load cycle
reproduces every double bit-exactly; the writers reject NaN and inf with
`NonFiniteError` instead of writing tokens their loaders refuse.

Every artifact is columnar: one top-level key per array, holding one row
per frame.  A motion clip (format_version 2) has the keys of
`motion.FIELDS`, and each row is that frame's values flattened row-major
(`body_pos` is 30 x 3 = 90 numbers, `body_rot` 30 row-major 3x3 matrices =
270).  Units are SI and quaternions are [w, x, y, z].  The velocity keys
may be omitted, in which case they are rebuilt with central finite
differences (one-sided at the clip ends).  Feature files and norm stats
keep format_version 1.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    FileFormatError,
    check_finite,
    check_numbers,
    check_object,
)
from .features import FEATURE_DIM, NormStats, normalized_dim_mask, validate_features
from .motion import FIELDS, NUM_BODIES, NUM_JOINTS, MotionSequence, Skeleton, finite_difference

FORMAT_VERSION = 1          # feature arrays and norm stats
MOTION_FORMAT_VERSION = 2   # columnar motion clips

# Velocity fields a file may omit, rebuilt from the clip's other fields; the
# rest of `FIELDS` is required.
_REBUILT = {
    "joint_vel": lambda arrays, fps: finite_difference(arrays["joint_pos"], fps),
    "body_lin_vel": lambda arrays, fps: finite_difference(arrays["body_pos"], fps),
    "body_ang_vel": lambda arrays, fps: np.zeros_like(arrays["body_pos"]),
}
_MOTION_REQUIRED = ("fps", "joint_names", "body_names", *(n for n in FIELDS if n not in _REBUILT))


def parse_json(text: str, where: str, error=FileFormatError, parse_number=None):
    """The JSON document `text`; `error` naming `where` when it is not valid
    JSON or one of its objects repeats a key.  `parse_number`, when given,
    reads every number with a fraction or an exponent and the NaN and
    Infinity literals."""
    def unique_keys(pairs):
        data = dict(pairs)
        if len(data) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise error(f"{where} repeats the key {key!r} in one object")
        return data

    try:
        return json.loads(text, parse_float=parse_number, parse_constant=parse_number,
                          object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from exc


def read_json(path, noun: str, error=FileFormatError, parse_number=None):
    """The JSON document in file `path` (see `parse_json`); `error` naming
    the `noun` and the path when the file cannot be read or parsed."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {noun} {path}: {exc}") from exc
    return parse_json(text, f"{noun} {path}", error, parse_number)


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n")


def _check_header(data, path, version: int, required, optional=()) -> None:
    """The object rule for a versioned document with the `required` and
    `optional` keys.  Its version is checked before its keys, so a document
    of another version reports the version."""
    found = check_object(data, path, data, ("format_version",), FileFormatError)["format_version"]
    if check_numbers(found, f"{path}: format_version", (), True, FileFormatError) != version:
        raise FileFormatError(
            f"{path}: unsupported format_version {found!r} (this reader expects {version})"
        )
    check_object(data, path, ("format_version", *required, *optional), required, FileFormatError)


def _check_finite(path, **fields) -> None:
    """One whole-array check per field before every save (loading checks
    through the number rule)."""
    for name, value in fields.items():
        check_finite(value, f"{path}: field '{name}'")


def _fps(data: dict, path) -> float:
    """The document's 'fps', a positive number, so every rate derived from it is finite."""
    fps = float(check_numbers(data["fps"], f"{path}: 'fps'", (), error=FileFormatError))
    if fps <= 0:
        raise FileFormatError(f"{path}: 'fps' must be > 0, got {fps!r}")
    return fps


def _names(data: dict, key: str, count: int, path) -> list[str]:
    names = data[key]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FileFormatError(f"{path}: '{key}' must be a list of strings")
    if len(names) != count:
        raise DimensionMismatchError(f"{path}: expected {count} {key}, got {len(names)}")
    return names


def _array(value, shape: tuple, what: str, path, booleans: bool = False) -> np.ndarray:
    """`value` as an array of `shape` holding only booleans, or else numbers
    by the number rule (as float64); a typed error naming `what`:
    DimensionMismatchError for the shape, FileFormatError for the rest."""
    try:
        array = np.asarray(value)
    except ValueError:   # ragged nested lists
        array = None
    if array is None or array.shape != shape:
        raise DimensionMismatchError(f"{path}: {what} must have shape {shape}")
    if not booleans:
        return check_numbers(value, f"{path}: {what}", error=FileFormatError)
    if array.dtype.kind != "b":
        raise FileFormatError(f"{path}: {what} must hold only booleans")
    return array


def _rows(data: dict, name: str, width: int, t: int, path) -> np.ndarray:
    """Field `name` as one (t, width) float array.

    The whole field goes through the number rule at once; only when that
    fails does a pass over the rows find the first bad one (a row count that
    differs from `root_pos`, a row of the wrong width, a non-number) and
    name its frame.
    """
    rows = data[name]
    try:
        return check_numbers(rows, f"{path}: field '{name}'", (t, width), error=FileFormatError)
    except FileFormatError:
        pass
    if not isinstance(rows, list):
        raise FileFormatError(f"{path}: field '{name}' must be a list of rows, one per frame")
    if len(rows) != t:
        where = f"no row for frame {len(rows)}" if len(rows) < t else f"a row past frame {t - 1}"
        raise FileFormatError(
            f"{path}: field '{name}' has {len(rows)} rows, 'root_pos' has {t}: {where}"
        )
    for i, row in enumerate(rows):
        _array(row, (width,), f"frame {i} field '{name}'", path)
    raise FileFormatError(f"{path}: field '{name}' does not convert to a ({t}, {width}) array")


def load_motion(path, skel: Skeleton | None = None) -> MotionSequence:
    """Read and parse a motion clip file (see `parse_motion`)."""
    return parse_motion(read_json(path, "motion clip"), path, skel)


def parse_motion(data, path, skel: Skeleton | None = None) -> MotionSequence:
    """A motion clip from the parsed JSON document of file `path`; name lists
    are validated against the skeleton.

    The optional velocity arrays are read when the file has their key, and
    then they need a row for every frame.
    """
    _check_header(data, path, MOTION_FORMAT_VERSION, _MOTION_REQUIRED, _REBUILT)
    fps = _fps(data, path)
    joint_names = _names(data, "joint_names", NUM_JOINTS, path)
    body_names = _names(data, "body_names", NUM_BODIES, path)
    if skel is not None:
        if tuple(joint_names) != skel.joint_names:
            raise DimensionMismatchError(f"{path}: joint names do not match the skeleton")
        if tuple(body_names) != skel.body_names:
            raise DimensionMismatchError(f"{path}: body names do not match the skeleton")
    if not isinstance(data["root_pos"], list) or len(data["root_pos"]) < 2:
        raise FileFormatError(f"{path}: 'root_pos' must list at least 2 frames")

    t = len(data["root_pos"])
    arrays = {
        name: _rows(data, name, prod(field.shape), t, path).reshape((t, *field.shape))
        for name, field in FIELDS.items() if name in data
    }
    for name, rebuild in _REBUILT.items():
        if name not in arrays:
            arrays[name] = rebuild(arrays, fps)
    return MotionSequence(fps=fps, **arrays)


def save_motion(seq: MotionSequence, path, skel: Skeleton) -> None:
    t = seq.num_frames
    arrays = {name: getattr(seq, name).reshape(t, -1) for name in FIELDS}
    _check_finite(path, fps=seq.fps, **arrays)
    doc = {
        "format_version": MOTION_FORMAT_VERSION,
        "fps": seq.fps,
        "joint_names": list(skel.joint_names),
        "body_names": list(skel.body_names),
        **{name: array.tolist() for name, array in arrays.items()},
    }
    _write_json(doc, path)


def load_features(path) -> tuple[np.ndarray, float]:
    """Read and parse a feature file (see `parse_features`)."""
    return parse_features(read_json(path, "feature file"), path)


def parse_features(data, path) -> tuple[np.ndarray, float]:
    """(features (T, 262), fps) from the parsed JSON document of file `path`."""
    _check_header(data, path, FORMAT_VERSION, ("fps", "features"))
    fps = _fps(data, path)
    rows = data["features"]
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'features' must list at least 1 frame")
    return _rows(data, "features", FEATURE_DIM, len(rows), path), fps


def save_features(frames: np.ndarray, fps: float, path) -> None:
    frames = validate_features(frames)
    _check_finite(path, fps=fps, features=frames)
    _fps({"fps": fps}, path)   # the loader's rule, so every file written here loads
    _write_json({"format_version": FORMAT_VERSION, "fps": fps, "features": frames.tolist()}, path)


def load_norm_stats(path) -> NormStats:
    data = read_json(path, "norm stats")
    _check_header(data, path, FORMAT_VERSION, ("mean", "std"), ("mask", "clamped"))
    shape = (FEATURE_DIM,)
    mean = _array(data["mean"], shape, "field 'mean'", path)
    std = _array(data["std"], shape, "field 'std'", path)
    mask = _array(data.get("mask", normalized_dim_mask()), shape, "field 'mask'", path, True)
    clamped = data.get("clamped", False)
    if not isinstance(clamped, bool):
        raise FileFormatError(f"{path}: field 'clamped' must be a boolean")
    return NormStats(mean=mean, std=std, mask=mask, clamped=clamped)


def save_norm_stats(stats: NormStats, path) -> None:
    _check_finite(path, mean=stats.mean, std=stats.std)
    _write_json({
        "format_version": FORMAT_VERSION,
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
        "mask": stats.mask.tolist(),
        "clamped": stats.clamped,
    }, path)
