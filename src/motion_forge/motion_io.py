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
    """One whole-array check per loaded field; absent fields are None."""
    for name, value in fields.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise NonFiniteError(f"{path}: field '{name}' holds NaN or infinite values")


def load_motion(path, skel: Skeleton | None = None) -> MotionSequence:
    """Parse a motion clip; name lists are validated against the skeleton."""
    data = _read_json(path)
    _check_version(data, path)
    unknown = set(data) - _MOTION_KEYS
    if unknown:
        raise FileFormatError(f"{path}: unknown fields {sorted(unknown)}")
    fps = _require(data, "fps", path)
    joint_names = list(_require(data, "joint_names", path))
    body_names = list(_require(data, "body_names", path))
    frames = _require(data, "frames", path)
    if len(joint_names) != NUM_JOINTS:
        raise DimensionMismatchError(
            f"{path}: expected {NUM_JOINTS} joint names, got {len(joint_names)}"
        )
    if len(body_names) != NUM_BODIES:
        raise DimensionMismatchError(
            f"{path}: expected {NUM_BODIES} body names, got {len(body_names)}"
        )
    if skel is not None:
        if tuple(joint_names) != skel.joint_names:
            raise DimensionMismatchError(f"{path}: joint names do not match the skeleton")
        if tuple(body_names) != skel.body_names:
            raise DimensionMismatchError(f"{path}: body names do not match the skeleton")
    if not isinstance(frames, list) or len(frames) < 2:
        raise FileFormatError(f"{path}: 'frames' must list at least 2 frames")

    t = len(frames)
    joint_pos = np.empty((t, NUM_JOINTS))
    root_pos = np.empty((t, 3))
    root_quat = np.empty((t, 4))
    body_pos = np.empty((t, NUM_BODIES, 3))
    body_rot = np.empty((t, NUM_BODIES, 3, 3))
    joint_vel = np.empty((t, NUM_JOINTS)) if "joint_vel" in frames[0] else None
    body_lin_vel = np.empty((t, NUM_BODIES, 3)) if "body_lin_vel" in frames[0] else None
    body_ang_vel = np.empty((t, NUM_BODIES, 3)) if "body_ang_vel" in frames[0] else None

    for i, frame in enumerate(frames):
        missing = _FRAME_REQUIRED - set(frame)
        if missing:
            raise FileFormatError(f"{path}: frame {i} missing fields {sorted(missing)}")
        jp = np.asarray(frame["joint_pos"], dtype=np.float64)
        if jp.shape != (NUM_JOINTS,):
            raise DimensionMismatchError(
                f"{path}: frame {i} has {jp.shape[0] if jp.ndim == 1 else '?'} joints, "
                f"expected {NUM_JOINTS}"
            )
        joint_pos[i] = jp
        root_pos[i] = np.asarray(frame["root_pos"], dtype=np.float64)
        root_quat[i] = np.asarray(frame["root_quat"], dtype=np.float64)
        bp = np.asarray(frame["body_pos"], dtype=np.float64)
        if bp.shape != (NUM_BODIES, 3):
            raise DimensionMismatchError(
                f"{path}: frame {i} body_pos must be {NUM_BODIES}x3, got {bp.shape}"
            )
        body_pos[i] = bp
        br = np.asarray(frame["body_rot"], dtype=np.float64)
        if br.shape != (NUM_BODIES, 9):
            raise DimensionMismatchError(
                f"{path}: frame {i} body_rot must be {NUM_BODIES}x9 row-major, got {br.shape}"
            )
        body_rot[i] = br.reshape(NUM_BODIES, 3, 3)
        if joint_vel is not None:
            joint_vel[i] = np.asarray(frame["joint_vel"], dtype=np.float64)
        if body_lin_vel is not None:
            body_lin_vel[i] = np.asarray(frame["body_lin_vel"], dtype=np.float64)
        if body_ang_vel is not None:
            body_ang_vel[i] = np.asarray(frame["body_ang_vel"], dtype=np.float64)

    fps = float(fps)
    _check_finite(path, fps=fps, joint_pos=joint_pos, root_pos=root_pos, root_quat=root_quat,
                  body_pos=body_pos, body_rot=body_rot, joint_vel=joint_vel,
                  body_lin_vel=body_lin_vel, body_ang_vel=body_ang_vel)
    if joint_vel is None:
        joint_vel = finite_difference(joint_pos, fps)
    if body_lin_vel is None:
        body_lin_vel = finite_difference(body_pos, fps)
    if body_ang_vel is None:
        body_ang_vel = np.zeros((t, NUM_BODIES, 3))

    return MotionSequence(
        fps=fps,
        joint_pos=joint_pos,
        joint_vel=joint_vel,
        root_pos=root_pos,
        root_quat=root_quat,
        body_pos=body_pos,
        body_rot=body_rot,
        body_lin_vel=body_lin_vel,
        body_ang_vel=body_ang_vel,
    )


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
