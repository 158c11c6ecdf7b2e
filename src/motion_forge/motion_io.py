"""JSON file formats: motion clips, feature arrays, normalization stats.

All artifacts are JSON with a `format_version` field.  Floats serialize via
Python's shortest round-trip repr, so a save/load cycle reproduces every
double bit-exactly.  Motion frames are objects of row-major arrays in SI
units; quaternions are [w, x, y, z]; body rotations are 9-element row-major
matrices.  Velocity arrays may be omitted, in which case they are rebuilt
with central finite differences (one-sided at the clip ends).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FileFormatError, NonFiniteError
from .features import FEATURE_DIM, NormStats, normalized_dim_mask, validate_features
from .motion import NUM_BODIES, NUM_JOINTS, MotionSequence, Skeleton, finite_difference

FORMAT_VERSION = 1

_MOTION_KEYS = {"format_version", "fps", "joint_names", "body_names", "frames"}
# Per-frame arrays and their shapes in the file; body_rot is row-major 3x3.
_FRAME_SHAPES = {
    "joint_pos": (NUM_JOINTS,),
    "joint_vel": (NUM_JOINTS,),
    "root_pos": (3,),
    "root_quat": (4,),
    "body_pos": (NUM_BODIES, 3),
    "body_rot": (NUM_BODIES, 9),
    "body_lin_vel": (NUM_BODIES, 3),
    "body_ang_vel": (NUM_BODIES, 3),
}
_FRAME_REQUIRED = {"joint_pos", "root_pos", "root_quat", "body_pos", "body_rot"}


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object at the top level")
    return data


def _check_version(data: dict, path) -> None:
    version = data.get("format_version")
    if version is None:
        raise FileFormatError(f"{path}: missing required field 'format_version'")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {version!r}")


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise FileFormatError(f"{path}: missing required field '{key}'")
    return data[key]


def _check_finite(path, **fields) -> None:
    """One whole-array check per loaded field."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"{path}: field '{name}' holds NaN or infinite values")


def _names(data: dict, key: str, count: int, path) -> list[str]:
    names = _require(data, key, path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FileFormatError(f"{path}: '{key}' must be a list of strings")
    if len(names) != count:
        raise DimensionMismatchError(f"{path}: expected {count} {key}, got {len(names)}")
    return names


def _frame_field(frames: list[dict], name: str, path) -> np.ndarray:
    """Field `name` of every frame as one (T, ...) float array.

    The whole field converts at once; only when that fails does a pass over
    the frames find the first one whose value is not numbers of the
    field's shape, and name it.
    """
    shape = (len(frames),) + _FRAME_SHAPES[name]
    try:
        value = np.asarray([frame[name] for frame in frames])
        if value.dtype.kind in "iuf" and value.shape == shape:
            return value.astype(np.float64, copy=False)
    except ValueError:   # ragged nested lists
        pass
    for i, frame in enumerate(frames):
        try:
            value = np.asarray(frame[name])
        except ValueError:
            value = None
        if value is None or value.shape != shape[1:]:
            raise DimensionMismatchError(
                f"{path}: frame {i} field '{name}' must have shape {shape[1:]}"
            )
        if value.dtype.kind not in "iuf":
            raise FileFormatError(f"{path}: frame {i} field '{name}' must hold only numbers")
    raise DimensionMismatchError(f"{path}: field '{name}' does not stack to shape {shape}")


def load_motion(path, skel: Skeleton | None = None) -> MotionSequence:
    """Parse a motion clip; name lists are validated against the skeleton.

    The optional velocity arrays are read when frame 0 has them, and then
    every frame must have them.
    """
    data = _read_json(path)
    _check_version(data, path)
    unknown = set(data) - _MOTION_KEYS
    if unknown:
        raise FileFormatError(f"{path}: unknown fields {sorted(unknown)}")
    fps = _require(data, "fps", path)
    if isinstance(fps, bool) or not isinstance(fps, (int, float)):
        raise FileFormatError(f"{path}: 'fps' must be a number")
    joint_names = _names(data, "joint_names", NUM_JOINTS, path)
    body_names = _names(data, "body_names", NUM_BODIES, path)
    frames = _require(data, "frames", path)
    if skel is not None:
        if tuple(joint_names) != skel.joint_names:
            raise DimensionMismatchError(f"{path}: joint names do not match the skeleton")
        if tuple(body_names) != skel.body_names:
            raise DimensionMismatchError(f"{path}: body names do not match the skeleton")
    if not isinstance(frames, list) or len(frames) < 2:
        raise FileFormatError(f"{path}: 'frames' must list at least 2 frames")
    if not all(isinstance(frame, dict) for frame in frames):
        raise FileFormatError(f"{path}: every frame must be a JSON object")

    t = len(frames)
    fields = [name for name in _FRAME_SHAPES if name in _FRAME_REQUIRED or name in frames[0]]
    for i, frame in enumerate(frames):
        missing = set(fields) - frame.keys()
        if missing:
            raise FileFormatError(f"{path}: frame {i} missing fields {sorted(missing)}")
    arrays = {name: _frame_field(frames, name, path) for name in fields}

    fps = float(fps)
    _check_finite(path, fps=fps, **arrays)
    if "joint_vel" not in arrays:
        arrays["joint_vel"] = finite_difference(arrays["joint_pos"], fps)
    if "body_lin_vel" not in arrays:
        arrays["body_lin_vel"] = finite_difference(arrays["body_pos"], fps)
    if "body_ang_vel" not in arrays:
        arrays["body_ang_vel"] = np.zeros((t, NUM_BODIES, 3))
    arrays["body_rot"] = arrays["body_rot"].reshape(t, NUM_BODIES, 3, 3)
    return MotionSequence(fps=fps, **arrays)


def save_motion(seq: MotionSequence, path, skel: Skeleton) -> None:
    frames = []
    for i in range(seq.num_frames):
        frames.append({
            "joint_pos": seq.joint_pos[i].tolist(),
            "joint_vel": seq.joint_vel[i].tolist(),
            "root_pos": seq.root_pos[i].tolist(),
            "root_quat": seq.root_quat[i].tolist(),
            "body_pos": seq.body_pos[i].tolist(),
            "body_rot": seq.body_rot[i].reshape(NUM_BODIES, 9).tolist(),
            "body_lin_vel": seq.body_lin_vel[i].tolist(),
            "body_ang_vel": seq.body_ang_vel[i].tolist(),
        })
    doc = {
        "format_version": FORMAT_VERSION,
        "fps": seq.fps,
        "joint_names": list(skel.joint_names),
        "body_names": list(skel.body_names),
        "frames": frames,
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def load_features(path) -> tuple[np.ndarray, float]:
    data = _read_json(path)
    _check_version(data, path)
    unknown = set(data) - {"format_version", "fps", "features"}
    if unknown:
        raise FileFormatError(f"{path}: unknown fields {sorted(unknown)}")
    fps = float(_require(data, "fps", path))
    feats = np.asarray(_require(data, "features", path), dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
        raise DimensionMismatchError(
            f"{path}: features must be (frames, {FEATURE_DIM}), got {feats.shape}"
        )
    _check_finite(path, fps=fps, features=feats)
    return feats, fps


def save_features(frames: np.ndarray, fps: float, path) -> None:
    frames = validate_features(frames)
    doc = {
        "format_version": FORMAT_VERSION,
        "fps": fps,
        "features": frames.tolist(),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def load_norm_stats(path) -> NormStats:
    data = _read_json(path)
    _check_version(data, path)
    mean = np.asarray(_require(data, "mean", path), dtype=np.float64)
    std = np.asarray(_require(data, "std", path), dtype=np.float64)
    _check_finite(path, mean=mean, std=std)
    mask = np.asarray(data.get("mask", normalized_dim_mask()), dtype=bool)
    return NormStats(mean=mean, std=std, mask=mask, clamped=bool(data.get("clamped", False)))


def save_norm_stats(stats: NormStats, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
        "mask": stats.mask.tolist(),
        "clamped": stats.clamped,
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
