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

from .errors import DimensionMismatchError, FileFormatError, NonFiniteError
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
_MOTION_KEYS = {"format_version", "fps", "joint_names", "body_names", *FIELDS}


def _read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n")


def _check_header(data, path, version: int, keys) -> None:
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object at the top level")
    found = data.get("format_version")
    if found is None:
        raise FileFormatError(f"{path}: missing required field 'format_version'")
    if found != version:
        raise FileFormatError(
            f"{path}: unsupported format_version {found!r} (this reader expects {version})"
        )
    unknown = set(data) - set(keys)
    if unknown:
        raise FileFormatError(f"{path}: unknown fields {sorted(unknown)}")


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise FileFormatError(f"{path}: missing required field '{key}'")
    return data[key]


def _check_finite(path, **fields) -> None:
    """One whole-array check per field, on load and before every save."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"{path}: field '{name}' holds NaN or infinite values")


def _fps(data: dict, path) -> float:
    fps = _require(data, "fps", path)
    if isinstance(fps, bool) or not isinstance(fps, (int, float)):
        raise FileFormatError(f"{path}: 'fps' must be a number")
    return float(fps)


def _names(data: dict, key: str, count: int, path) -> list[str]:
    names = _require(data, key, path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FileFormatError(f"{path}: '{key}' must be a list of strings")
    if len(names) != count:
        raise DimensionMismatchError(f"{path}: expected {count} {key}, got {len(names)}")
    return names


_KINDS = {"numbers": "iuf", "booleans": "b"}


def _array(value, shape: tuple, what: str, path, holds: str = "numbers") -> np.ndarray:
    """`value` as an array of `shape` holding only `holds` (numbers become
    float64), or a typed error naming `what`."""
    try:
        array = np.array(value)
    except ValueError:   # ragged nested lists
        array = None
    if array is None or array.shape != shape:
        raise DimensionMismatchError(f"{path}: {what} must have shape {shape}")
    if array.dtype.kind not in _KINDS[holds]:
        raise FileFormatError(f"{path}: {what} must hold only {holds}")
    return array.astype(np.float64, copy=False) if holds == "numbers" else array


def _rows(data: dict, name: str, width: int, t: int, path) -> np.ndarray:
    """Field `name` as one (t, width) float array.

    The whole field converts at once; only when that fails does a pass over
    the rows find the first bad one (a row count that differs from
    `root_pos`, a row of the wrong width, a non-number) and name its frame.
    """
    rows = data[name]
    try:
        array = np.array(rows)
    except ValueError:   # ragged rows
        array = None
    if array is not None and array.shape == (t, width) and array.dtype.kind in "iuf":
        return array.astype(np.float64, copy=False)
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
    return parse_motion(_read_json(path), path, skel)


def parse_motion(data, path, skel: Skeleton | None = None) -> MotionSequence:
    """A motion clip from the parsed JSON document of file `path`; name lists
    are validated against the skeleton.

    The optional velocity arrays are read when the file has their key, and
    then they need a row for every frame.
    """
    _check_header(data, path, MOTION_FORMAT_VERSION, _MOTION_KEYS)
    fps = _fps(data, path)
    joint_names = _names(data, "joint_names", NUM_JOINTS, path)
    body_names = _names(data, "body_names", NUM_BODIES, path)
    if skel is not None:
        if tuple(joint_names) != skel.joint_names:
            raise DimensionMismatchError(f"{path}: joint names do not match the skeleton")
        if tuple(body_names) != skel.body_names:
            raise DimensionMismatchError(f"{path}: body names do not match the skeleton")
    for name in FIELDS:
        if name not in _REBUILT:
            _require(data, name, path)
    if not isinstance(data["root_pos"], list) or len(data["root_pos"]) < 2:
        raise FileFormatError(f"{path}: 'root_pos' must list at least 2 frames")

    t = len(data["root_pos"])
    arrays = {
        name: _rows(data, name, prod(field.shape), t, path).reshape((t, *field.shape))
        for name, field in FIELDS.items() if name in data
    }
    _check_finite(path, fps=fps, **arrays)
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
    return parse_features(_read_json(path), path)


def parse_features(data, path) -> tuple[np.ndarray, float]:
    """(features (T, 262), fps) from the parsed JSON document of file `path`."""
    _check_header(data, path, FORMAT_VERSION, ("format_version", "fps", "features"))
    fps = _fps(data, path)
    rows = _require(data, "features", path)
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{path}: 'features' must list at least 1 frame")
    feats = _rows(data, "features", FEATURE_DIM, len(rows), path)
    _check_finite(path, fps=fps, features=feats)
    return feats, fps


def save_features(frames: np.ndarray, fps: float, path) -> None:
    frames = validate_features(frames)
    _check_finite(path, fps=fps, features=frames)
    _write_json({"format_version": FORMAT_VERSION, "fps": fps, "features": frames.tolist()}, path)


def load_norm_stats(path) -> NormStats:
    data = _read_json(path)
    _check_header(data, path, FORMAT_VERSION,
                  ("format_version", "mean", "std", "mask", "clamped"))
    shape = (FEATURE_DIM,)
    mean = _array(_require(data, "mean", path), shape, "field 'mean'", path)
    std = _array(_require(data, "std", path), shape, "field 'std'", path)
    _check_finite(path, mean=mean, std=std)
    mask = _array(data.get("mask", normalized_dim_mask()), shape, "field 'mask'", path,
                  holds="booleans")
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
