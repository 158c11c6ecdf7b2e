"""Motion data model: skeleton configuration and per-frame robot state.

A MotionSequence stores one clip as struct-of-arrays in SI units:
29 joint positions/velocities, the root pose, and global transforms and
velocities for 30 bodies (root first).  All operations treat sequences as
immutable and return new instances.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, make_dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError

NUM_JOINTS = 29
NUM_BODIES = 30

# Reflection across the sagittal (xz) plane, used for left-right mirroring,
# as sign masks that all derive from the one vector sign.  Mirroring
# multiplies by them (conjugating a rotation by diag(1,-1,1) only flips
# entry signs), which keeps the double-mirror identity bit-exact.
MIRROR_VECTOR = np.array([1.0, -1.0, 1.0])              # positions, velocities: y flips
MIRROR_PSEUDO = -MIRROR_VECTOR                          # angular velocities: x and z flip
MIRROR_ROT = np.outer(MIRROR_VECTOR, MIRROR_VECTOR)     # M R M, M = diag(MIRROR_VECTOR)
MIRROR_QUAT = np.concatenate([[1.0], MIRROR_PSEUDO])    # wxyz
MIRROR_6D = MIRROR_ROT[:, :2].T.reshape(6)              # rot_to_6d's first two columns


class StateField(NamedTuple):
    """One per-frame array of the robot state and how it mirrors: its first
    axis follows the `MirrorMap` permutation named `perm` (None: no swap) and
    `sign` multiplies it (None: the map's per-joint signs)."""

    shape: tuple[int, ...]
    perm: str | None
    sign: np.ndarray | None


# The per-frame layout of a clip, in `MotionSequence` order: every per-field
# operation (`Frame`, validation, copies, mirroring, clip files) iterates it.
FIELDS = {
    "joint_pos": StateField((NUM_JOINTS,), "joint_perm", None),               # rad
    "joint_vel": StateField((NUM_JOINTS,), "joint_perm", None),               # rad/s
    "root_pos": StateField((3,), None, MIRROR_VECTOR),                        # m
    "root_quat": StateField((4,), None, MIRROR_QUAT),                         # wxyz, unit
    "body_pos": StateField((NUM_BODIES, 3), "body_perm", MIRROR_VECTOR),      # m, global
    "body_rot": StateField((NUM_BODIES, 3, 3), "body_perm", MIRROR_ROT),      # global
    "body_lin_vel": StateField((NUM_BODIES, 3), "body_perm", MIRROR_VECTOR),  # m/s
    "body_ang_vel": StateField((NUM_BODIES, 3), "body_perm", MIRROR_PSEUDO),  # rad/s
}


def check_body_indices(name: str, indices) -> None:
    """Raise ConfigError unless `indices`, one index or a sequence of them,
    names at least one body: whole numbers (not booleans) in 0..NUM_BODIES - 1."""
    items = list(indices) if isinstance(indices, (list, tuple, np.ndarray)) else [indices]
    if not items or not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < NUM_BODIES
        for i in items
    ):
        raise ConfigError(f"{name}: expected body indices in 0..{NUM_BODIES - 1}, got {indices!r}")


@dataclass(frozen=True)
class MirrorMap:
    """Left-right correspondence for joints and bodies.

    joint_perm/body_perm are involutive permutations (left and right indices
    swap, center indices map to themselves).  joint_sign flips joints whose
    positive direction reverses under mirroring (roll and yaw channels).
    """

    joint_perm: np.ndarray
    joint_sign: np.ndarray
    body_perm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint_perm", np.asarray(self.joint_perm, dtype=np.intp))
        object.__setattr__(self, "joint_sign", np.asarray(self.joint_sign, dtype=np.float64))
        object.__setattr__(self, "body_perm", np.asarray(self.body_perm, dtype=np.intp))
        for perm, n, name in (
            (self.joint_perm, NUM_JOINTS, "joint_perm"),
            (self.body_perm, NUM_BODIES, "body_perm"),
        ):
            if perm.shape != (n,):
                raise ConfigError(f"{name} must have shape ({n},), got {perm.shape}")
            if not np.array_equal(perm[perm], np.arange(n)):
                raise ConfigError(f"{name} is not an involution")
        if self.joint_sign.shape != (NUM_JOINTS,):
            raise ConfigError("joint_sign must have one entry per joint")
        if not np.all(np.abs(self.joint_sign) == 1.0):
            raise ConfigError("joint_sign entries must be +1 or -1")
        if not np.array_equal(self.joint_sign[self.joint_perm], self.joint_sign):
            raise ConfigError("joint_sign must match across mirrored pairs")


def _mirror_perm(names: tuple[str, ...]) -> np.ndarray:
    index = {name: i for i, name in enumerate(names)}
    perm = np.arange(len(names), dtype=np.intp)
    for i, name in enumerate(names):
        if name.startswith("left_"):
            partner = "right_" + name[len("left_"):]
        elif name.startswith("right_"):
            partner = "left_" + name[len("right_"):]
        else:
            continue
        if partner not in index:
            raise ConfigError(f"missing mirror partner for '{name}'")
        perm[i] = index[partner]
    return perm


@dataclass(frozen=True)
class Skeleton:
    """Static robot description: orderings, feature index sets, limits."""

    joint_names: tuple[str, ...]
    body_names: tuple[str, ...]
    ric_body_indices: tuple[int, ...]
    vel_body_indices: tuple[int, ...]
    rot6d_body_indices: tuple[int, ...]
    foot_body_indices: tuple[int, ...]
    hand_body_indices: tuple[int, ...]
    joint_limits: np.ndarray
    mirror_map: MirrorMap
    # the reward terms' stock tracked bodies: root, trunk ("torso_link") and
    # the 12 informative bodies, as a read-only index array
    key_body_indices: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.joint_names) != NUM_JOINTS:
            raise ConfigError(f"expected {NUM_JOINTS} joints, got {len(self.joint_names)}")
        if len(self.body_names) != NUM_BODIES:
            raise ConfigError(f"expected {NUM_BODIES} bodies, got {len(self.body_names)}")
        if len(self.ric_body_indices) != 12:
            raise ConfigError("ric_body_indices must list 12 bodies")
        if len(self.vel_body_indices) != 13:
            raise ConfigError("vel_body_indices must list 13 bodies")
        if len(self.rot6d_body_indices) != 29:
            raise ConfigError("rot6d_body_indices must list 29 bodies")
        if not all(1 <= i < NUM_BODIES for i in self.ric_body_indices):
            raise ConfigError("ric_body_indices must lie in [1, 30)")
        for name, idx in (("foot_body_indices", 4), ("hand_body_indices", 2)):
            if len(getattr(self, name)) != idx:
                raise ConfigError(f"{name} must list {idx} bodies")
        limits = np.asarray(self.joint_limits, dtype=np.float64)
        object.__setattr__(self, "joint_limits", limits)
        if limits.shape != (NUM_JOINTS, 2):
            raise ConfigError(f"joint_limits must have shape ({NUM_JOINTS}, 2)")
        if not np.all(limits[:, 0] < limits[:, 1]):
            raise ConfigError("every joint limit must satisfy min < max")
        key_bodies = np.array([0, self.body_index("torso_link"), *self.ric_body_indices])
        key_bodies.flags.writeable = False
        object.__setattr__(self, "key_body_indices", key_bodies)

    def body_index(self, name: str) -> int:
        try:
            return self.body_names.index(name)
        except ValueError:
            raise ConfigError(f"unknown body '{name}'") from None


_DEFAULT_JOINT_LIMITS = {
    "waist_yaw": (-2.6, 2.6),
    "waist_roll": (-0.52, 0.52),
    "waist_pitch": (-0.52, 0.52),
    "shoulder_pitch": (-3.0, 3.0),
    "shoulder_roll": (-2.2, 2.2),
    "shoulder_yaw": (-2.6, 2.6),
    "elbow": (-1.0, 2.1),
    "wrist_roll": (-1.9, 1.9),
    "wrist_pitch": (-1.6, 1.6),
    "wrist_yaw": (-1.6, 1.6),
    "hip_pitch": (-2.5, 2.5),
    "hip_roll": (-2.0, 2.0),
    "hip_yaw": (-2.7, 2.7),
    "knee": (-0.1, 2.9),
    "ankle_pitch": (-0.87, 0.87),
    "ankle_roll": (-0.26, 0.26),
}

_ARM_JOINTS = ("shoulder_pitch", "shoulder_roll", "shoulder_yaw", "elbow",
               "wrist_roll", "wrist_pitch", "wrist_yaw")
_LEG_JOINTS = ("hip_pitch", "hip_roll", "hip_yaw", "knee", "ankle_pitch", "ankle_roll")


def default_skeleton() -> Skeleton:
    """29-DoF humanoid with the stock body ordering used by the file format.

    The body order places the informative bodies (elbows, wrist rolls, knees,
    ankles, palms) at the index set consumed by the 262-D feature layout.
    """
    joint_names = (
        ["waist_yaw", "waist_roll", "waist_pitch"]
        + [f"left_{j}" for j in _ARM_JOINTS]
        + [f"right_{j}" for j in _ARM_JOINTS]
        + [f"left_{j}" for j in _LEG_JOINTS]
        + [f"right_{j}" for j in _LEG_JOINTS]
    )
    body_names = (
        ["pelvis", "waist_yaw_link", "waist_roll_link", "torso_link"]
        + [f"left_{j}_link" for j in _ARM_JOINTS[:5]]
        + [f"right_{j}_link" for j in _ARM_JOINTS[:5]]
        + [f"left_{j}_link" for j in _LEG_JOINTS]
        + [f"right_{j}_link" for j in _LEG_JOINTS]
        + ["left_wrist_pitch_link", "right_wrist_pitch_link",
           "left_palm_link", "right_palm_link"]
    )
    limits = np.array(
        [_DEFAULT_JOINT_LIMITS[n.replace("left_", "").replace("right_", "")] for n in joint_names]
    )
    joint_sign = np.array(
        [-1.0 if ("roll" in n or "yaw" in n) else 1.0 for n in joint_names]
    )
    names_j = tuple(joint_names)
    names_b = tuple(body_names)
    mirror = MirrorMap(
        joint_perm=_mirror_perm(names_j),
        joint_sign=joint_sign,
        body_perm=_mirror_perm(names_b),
    )
    return Skeleton(
        joint_names=names_j,
        body_names=names_b,
        ric_body_indices=(7, 8, 12, 13, 17, 18, 19, 23, 24, 25, 28, 29),
        vel_body_indices=(7, 8, 12, 13, 17, 18, 19, 23, 24, 25, 28, 29, 0),
        rot6d_body_indices=tuple(range(1, NUM_BODIES)),
        foot_body_indices=(18, 19, 24, 25),
        hand_body_indices=(28, 29),
        joint_limits=limits,
        mirror_map=mirror,
    )


Frame = make_dataclass(
    "Frame", [(name, np.ndarray) for name in FIELDS], frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "One frame of robot state (views into the owning sequence)."},
)


@dataclass(frozen=True)
class MotionSequence:
    """A motion clip: (T, ...) arrays over frames, root body first; the
    attributes after `fps` are the `FIELDS` table, each (T, *shape)."""

    fps: float
    joint_pos: np.ndarray
    joint_vel: np.ndarray
    root_pos: np.ndarray
    root_quat: np.ndarray
    body_pos: np.ndarray
    body_rot: np.ndarray
    body_lin_vel: np.ndarray
    body_ang_vel: np.ndarray

    def __post_init__(self):
        for name in FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.validate()

    def validate(self):
        t = self.joint_pos.shape[0]
        if t < 2:
            raise DimensionMismatchError("a motion sequence needs at least 2 frames")
        if self.fps <= 0:
            raise DimensionMismatchError("fps must be positive")
        for name, field in FIELDS.items():
            got = getattr(self, name).shape
            if got != (t, *field.shape):
                raise DimensionMismatchError(
                    f"{name}: expected shape {(t, *field.shape)}, got {got}")
        norms = np.sqrt(np.add.reduce(self.root_quat * self.root_quat, axis=-1))
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise DimensionMismatchError("root quaternions must be unit norm within 1e-6")

    @property
    def num_frames(self) -> int:
        return self.joint_pos.shape[0]

    @property
    def duration(self) -> float:
        return (self.num_frames - 1) / self.fps

    def frame(self, i: int) -> Frame:
        return Frame(*(getattr(self, name)[i] for name in FIELDS))

    def copy(self) -> "MotionSequence":
        return replace(self, **{name: getattr(self, name).copy() for name in FIELDS})


def finite_difference(values: np.ndarray, fps: float) -> np.ndarray:
    """Central differences over the frame axis, one-sided at the ends."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) * (0.5 * fps)
    out[0] = (values[1] - values[0]) * fps
    out[-1] = (values[-1] - values[-2]) * fps
    return out


def mirror_sequence(seq: MotionSequence, skel: Skeleton) -> MotionSequence:
    """Reflect a clip across the robot's sagittal (xz) plane.

    Each field follows its `FIELDS` rule: left/right joints or bodies swap,
    and its sign mask flips y of positions and linear velocities, x and z of
    angular velocities (pseudovectors), and conjugates rotations by the
    reflection.  Applying twice is a bit-exact identity.
    """
    mm = skel.mirror_map
    arrays = {}
    for name, field in FIELDS.items():
        values = getattr(seq, name)
        if field.perm is not None:
            values = values[:, getattr(mm, field.perm)]
        arrays[name] = values * (mm.joint_sign if field.sign is None else field.sign)
    return MotionSequence(fps=seq.fps, **arrays)
