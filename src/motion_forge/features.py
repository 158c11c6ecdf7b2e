"""262-D per-frame motion descriptor: layout, codec, normalization.

Block layout (fixed offsets into each 262-vector):

    [  0,   3)  root angular velocity, heading-local frame
    [  3,   6)  root linear velocity, heading-local frame
    [  6,   7)  root height
    [  7,  43)  positions of 12 informative bodies, root-relative,
                heading-local (12 x 3)
    [ 43, 217)  6D rotations of 29 bodies (29 x 6)
    [217, 256)  linear velocities of 13 bodies (12 informative + root),
                heading-local (13 x 3)
    [256, 260)  foot contact bits
    [260, 262)  hand contact bits

"Heading-local" means rotated by the inverse of the frame's root yaw, so the
blocks are invariant to the clip's global heading.  Sequences are expected to
be heading-canonicalized (first frame at the origin facing +X) before
encoding; `canonicalize_heading` does that without touching pitch or roll.

Z-score normalization applies only to the velocity/position blocks
([0, 43) and [217, 256)).  6D rotations already lie in [-1, 1] and contact
bits are binary, so both pass through normalization untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .motion import (
    MIRROR_6D,
    MIRROR_PSEUDO,
    MIRROR_VECTOR,
    MotionSequence,
    Skeleton,
)
from .rotations import (
    quat_from_yaw,
    quat_multiply,
    rot_to_6d,
    rot_z,
    sixd_columns,
    yaw_from_quat,
)

FEATURE_DIM = 262

ROOT_ANG_VEL = slice(0, 3)
ROOT_LIN_VEL = slice(3, 6)
ROOT_HEIGHT = slice(6, 7)
RIC_POS = slice(7, 43)
ROT6D = slice(43, 217)
LOCAL_VEL = slice(217, 256)
FOOT_CONTACT = slice(256, 260)
HAND_CONTACT = slice(260, 262)

# Contact thresholds: feet need low height and near-zero horizontal speed,
# hands only a height test.
FOOT_HEIGHT_THRESHOLD = 0.05     # m
FOOT_SPEED_THRESHOLD = 0.01      # m/s, horizontal
HAND_HEIGHT_THRESHOLD = 0.10     # m

_NORM_STD_FLOOR = 1e-8


def normalized_dim_mask() -> np.ndarray:
    """Boolean (262,) mask of the dims that z-score normalization touches."""
    mask = np.zeros(FEATURE_DIM, dtype=bool)
    mask[ROOT_ANG_VEL.start:RIC_POS.stop] = True
    mask[LOCAL_VEL] = True
    return mask


def validate_features(frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != FEATURE_DIM:
        raise DimensionMismatchError(
            f"expected (T, {FEATURE_DIM}) feature array, got {frames.shape}"
        )
    return frames


def canonicalize_heading(seq: MotionSequence) -> MotionSequence:
    """Rigidly move a clip so frame 0 sits at the xy origin facing +X.

    The whole clip is rotated by the inverse of the first frame's root yaw
    and translated so the first root position has x = y = 0.  Heights, pitch,
    roll, and every frame-to-frame relative transform are unchanged.
    """
    yaw0 = float(yaw_from_quat(seq.root_quat[0]))
    undo = rot_z(-yaw0)
    undo_quat = quat_from_yaw(-yaw0)
    origin = np.array([seq.root_pos[0, 0], seq.root_pos[0, 1], 0.0])

    def move(points):
        return (points - origin) @ undo.T

    return MotionSequence(
        fps=seq.fps,
        joint_pos=seq.joint_pos.copy(),
        joint_vel=seq.joint_vel.copy(),
        root_pos=move(seq.root_pos),
        root_quat=quat_multiply(undo_quat, seq.root_quat),
        body_pos=move(seq.body_pos),
        body_rot=np.einsum("ij,tbjk->tbik", undo, seq.body_rot),
        body_lin_vel=seq.body_lin_vel @ undo.T,
        body_ang_vel=seq.body_ang_vel @ undo.T,
    )


def detect_contacts(seq: MotionSequence, skel: Skeleton) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame binary contacts: (T, 4) foot bits and (T, 2) hand bits."""
    foot_idx = list(skel.foot_body_indices)
    hand_idx = list(skel.hand_body_indices)
    foot_height = seq.body_pos[:, foot_idx, 2]
    foot_speed = np.linalg.norm(seq.body_lin_vel[:, foot_idx, :2], axis=-1)
    foot = (foot_height < FOOT_HEIGHT_THRESHOLD) & (foot_speed < FOOT_SPEED_THRESHOLD)
    hand = seq.body_pos[:, hand_idx, 2] < HAND_HEIGHT_THRESHOLD
    return foot.astype(np.float64), hand.astype(np.float64)


def encode_features(
    seq: MotionSequence,
    skel: Skeleton,
    contacts: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Encode a (canonicalized) sequence as a (T, 262) feature array."""
    t = seq.num_frames
    yaw = yaw_from_quat(seq.root_quat)
    heading_inv = rot_z(-yaw)                       # (T, 3, 3)

    out = np.zeros((t, FEATURE_DIM), dtype=np.float64)
    out[:, ROOT_ANG_VEL] = np.einsum("tij,tj->ti", heading_inv, seq.body_ang_vel[:, 0])
    out[:, ROOT_LIN_VEL] = np.einsum("tij,tj->ti", heading_inv, seq.body_lin_vel[:, 0])
    out[:, ROOT_HEIGHT] = seq.root_pos[:, 2:3]

    ric_idx = list(skel.ric_body_indices)
    rel = seq.body_pos[:, ric_idx] - seq.root_pos[:, None, :]
    out[:, RIC_POS] = np.einsum("tij,tbj->tbi", heading_inv, rel).reshape(t, -1)

    rot_idx = list(skel.rot6d_body_indices)
    out[:, ROT6D] = rot_to_6d(seq.body_rot[:, rot_idx]).reshape(t, -1)

    vel_idx = list(skel.vel_body_indices)
    local_vel = np.einsum("tij,tbj->tbi", heading_inv, seq.body_lin_vel[:, vel_idx])
    out[:, LOCAL_VEL] = local_vel.reshape(t, -1)

    if contacts is None:
        contacts = detect_contacts(seq, skel)
    foot, hand = contacts
    out[:, FOOT_CONTACT] = foot
    out[:, HAND_CONTACT] = hand
    return out


RootState = tuple[float, float, float]   # (x, y, yaw) of one frame's root


def decode_root_trajectory(
    frames: np.ndarray, fps: float, start: RootState = (0.0, 0.0, 0.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the root blocks back into (T, 3) positions and (T,) yaw.

    Explicit Euler at 1/fps: frame 0 sits at `start` (by default the origin
    facing +X), yaw integrates the heading-local angular velocity's z
    component, and xy integrates the heading-local linear velocity rotated
    into the world.  Heights are read directly from the height block.  The
    running sums are sequential, so decoding a tail of the frames from the
    root state of its first frame reproduces the full decode bit for bit.
    """
    frames = validate_features(frames)
    t = frames.shape[0]
    dt = 1.0 / fps
    yaw = np.empty(t, dtype=np.float64)
    yaw[:1] = start[2]
    yaw[1:] = dt * frames[:-1, 2]
    yaw = np.cumsum(yaw)
    c, s = np.cos(yaw[:-1]), np.sin(yaw[:-1])
    vx, vy = frames[:-1, 3], frames[:-1, 4]
    pos = np.empty((t, 3), dtype=np.float64)
    pos[:1, :2] = start[:2]
    pos[1:, 0] = dt * (c * vx - s * vy)
    pos[1:, 1] = dt * (s * vx + c * vy)
    pos[:, :2] = np.cumsum(pos[:, :2], axis=0)
    pos[:, 2] = frames[:, 6]
    return pos, yaw


@dataclass(frozen=True)
class NormStats:
    """Block-wise z-score statistics; non-normalized dims keep mean 0, std 1."""

    mean: np.ndarray
    std: np.ndarray
    mask: np.ndarray
    clamped: bool = False   # true if any masked dim had its std floored

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        for name in ("mean", "std", "mask"):
            if getattr(self, name).shape != (FEATURE_DIM,):
                raise DimensionMismatchError(f"NormStats.{name} must have shape ({FEATURE_DIM},)")
        if np.any(self.std[self.mask] <= 0.0):
            raise DimensionMismatchError("std must be positive on normalized dims")


def fit_norm_stats(frames: np.ndarray) -> NormStats:
    """Fit per-dim mean/std over a feature dataset; needs at least 2 frames."""
    frames = validate_features(frames)
    if frames.shape[0] < 2:
        raise DimensionMismatchError("need at least 2 frames to fit statistics")
    mask = normalized_dim_mask()
    mean = np.zeros(FEATURE_DIM)
    std = np.ones(FEATURE_DIM)
    mean[mask] = frames[:, mask].mean(axis=0)
    raw_std = frames[:, mask].std(axis=0)
    clamped = bool(np.any(raw_std < _NORM_STD_FLOOR))
    std[mask] = np.maximum(raw_std, _NORM_STD_FLOOR)
    return NormStats(mean=mean, std=std, mask=mask, clamped=clamped)


def normalize_features(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    out = frames.copy()
    m = stats.mask
    out[..., m] = (frames[..., m] - stats.mean[m]) / stats.std[m]
    return out


def denormalize_features(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    out = frames.copy()
    m = stats.mask
    out[..., m] = frames[..., m] * stats.std[m] + stats.mean[m]
    return out


# How each feature block mirrors: the skeleton index set its rows follow
# (None: the root, body 0, which maps to itself) and the sign of each row.
# The root height is unchanged; contact bits carry no direction.
_MIRROR_BLOCKS = (
    (ROOT_ANG_VEL, None, MIRROR_PSEUDO),
    (ROOT_LIN_VEL, None, MIRROR_VECTOR),
    (RIC_POS, "ric_body_indices", MIRROR_VECTOR),
    (ROT6D, "rot6d_body_indices", MIRROR_6D),
    (LOCAL_VEL, "vel_body_indices", MIRROR_VECTOR),
    (FOOT_CONTACT, "foot_body_indices", 1.0),
    (HAND_CONTACT, "hand_body_indices", 1.0),
)


def mirror_features(frames: np.ndarray, skel: Skeleton) -> np.ndarray:
    """Mirror feature frames left-right (same convention as mirror_sequence).

    Works directly in feature space: heading-local y components flip, angular
    velocity x/z flip, body blocks permute left-right, 6D rotations conjugate
    by the reflection, and foot/hand contact bits swap sides.
    """
    frames = validate_features(frames)
    t = frames.shape[0]
    perm = skel.mirror_map.body_perm
    out = frames.copy()
    for block, index_set, sign in _MIRROR_BLOCKS:
        bodies = list(getattr(skel, index_set)) if index_set else [0]
        order = [bodies.index(perm[b]) for b in bodies]
        rows = frames[:, block].reshape(t, len(bodies), -1)[:, order]
        out[:, block] = (rows * sign).reshape(t, -1)
    return out


def project_valid_rot6d(frames: np.ndarray) -> np.ndarray:
    """Re-orthonormalize every 6D rotation block (after noise or blending)."""
    frames = validate_features(frames)
    t = frames.shape[0]
    out = frames.copy()
    blocks = out[:, ROT6D].reshape(t, 29, 6)
    blocks[..., :3], blocks[..., 3:] = sixd_columns(blocks)
    return out
