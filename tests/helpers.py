"""Synthetic motion builders shared by the test suite, and the whole-array
oracles that kernels built for speed are checked against."""

from __future__ import annotations

import math

import numpy as np

from motion_forge.curriculum import introduction_ratio
from motion_forge.errors import DimensionMismatchError
from motion_forge.kernels import gelu
from motion_forge.motion import NUM_BODIES, NUM_JOINTS, MotionSequence, Skeleton
from motion_forge.rewards import (
    CRITIC_LAYOUT,
    POLICY_LAYOUT,
    POLICY_OBS_DIM,
    TASK_TERMS,
    RewardConfig,
)
from motion_forge.rotations import (
    matrix_to_quat,
    quat_normalize,
    quat_to_matrix,
    rot_z,
)

ROOT_HEIGHT = 0.8

# Standing-pose body offsets relative to the root, left side; right side
# mirrors y. Ankles sit below the foot contact height, palms well above the
# hand contact height.
_CENTER_OFFSETS = {
    "pelvis": (0.0, 0.0, 0.0),
    "waist_yaw_link": (0.0, 0.0, 0.10),
    "waist_roll_link": (0.0, 0.0, 0.15),
    "torso_link": (0.0, 0.0, 0.25),
}
_SIDE_OFFSETS = {
    "shoulder_pitch_link": (0.0, 0.15, 0.35),
    "shoulder_roll_link": (0.0, 0.20, 0.33),
    "shoulder_yaw_link": (0.0, 0.22, 0.25),
    "elbow_link": (0.0, 0.24, 0.12),
    "wrist_roll_link": (0.02, 0.25, 0.00),
    "wrist_pitch_link": (0.03, 0.25, -0.06),
    "palm_link": (0.05, 0.26, -0.12),
    "hip_pitch_link": (0.0, 0.08, -0.05),
    "hip_roll_link": (0.0, 0.09, -0.10),
    "hip_yaw_link": (0.0, 0.09, -0.20),
    "knee_link": (0.0, 0.09, -0.40),
    "ankle_pitch_link": (0.0, 0.09, -0.76),
    "ankle_roll_link": (0.02, 0.09, -0.77),
}


def body_offsets(skel: Skeleton) -> np.ndarray:
    out = np.zeros((NUM_BODIES, 3))
    for i, name in enumerate(skel.body_names):
        if name in _CENTER_OFFSETS:
            out[i] = _CENTER_OFFSETS[name]
        elif name.startswith("left_"):
            out[i] = _SIDE_OFFSETS[name[len("left_"):]]
        elif name.startswith("right_"):
            dx, dy, dz = _SIDE_OFFSETS[name[len("right_"):]]
            out[i] = (dx, -dy, dz)
        else:
            raise KeyError(name)
    return out


def rigid_sequence(
    skel: Skeleton,
    root_pos: np.ndarray,
    yaw: np.ndarray,
    fps: float,
    root_lin_vel: np.ndarray | None = None,
    yaw_rate: np.ndarray | None = None,
    joint_pos: np.ndarray | None = None,
) -> MotionSequence:
    """Clip where all bodies ride rigidly on the root at fixed offsets.

    Velocities are analytic: v_b = v_root + omega x (R offset).
    """
    root_pos = np.asarray(root_pos, dtype=np.float64)
    yaw = np.asarray(yaw, dtype=np.float64)
    t = root_pos.shape[0]
    if root_lin_vel is None:
        root_lin_vel = np.zeros((t, 3))
    if yaw_rate is None:
        yaw_rate = np.zeros(t)
    offsets = body_offsets(skel)
    heading = rot_z(yaw)                                   # (T, 3, 3)
    world_off = np.einsum("tij,bj->tbi", heading, offsets)  # (T, 30, 3)
    body_pos = root_pos[:, None, :] + world_off
    omega = np.zeros((t, 3))
    omega[:, 2] = yaw_rate
    body_lin_vel = root_lin_vel[:, None, :] + np.cross(omega[:, None, :], world_off)
    body_rot = np.broadcast_to(heading[:, None], (t, NUM_BODIES, 3, 3)).copy()
    body_ang_vel = np.broadcast_to(omega[:, None, :], (t, NUM_BODIES, 3)).copy()
    quat = matrix_to_quat(heading)
    if joint_pos is None:
        joint_pos = np.zeros((t, NUM_JOINTS))
    return MotionSequence(
        fps=fps,
        joint_pos=joint_pos,
        joint_vel=np.zeros((t, NUM_JOINTS)),
        root_pos=body_pos[:, 0],
        root_quat=quat,
        body_pos=body_pos,
        body_rot=body_rot,
        body_lin_vel=body_lin_vel,
        body_ang_vel=body_ang_vel,
    )


def make_standing_sequence(skel: Skeleton, num_frames: int = 10, fps: float = 30.0) -> MotionSequence:
    root = np.zeros((num_frames, 3))
    root[:, 2] = ROOT_HEIGHT
    return rigid_sequence(skel, root, np.zeros(num_frames), fps)


def make_walk_sequence(
    skel: Skeleton,
    speed: float,
    yaw_rate: float,
    num_frames: int,
    fps: float,
    start_yaw: float = 0.0,
    height: float = ROOT_HEIGHT,
) -> MotionSequence:
    """Constant-speed walk along a line (yaw_rate 0) or circular arc."""
    times = np.arange(num_frames) / fps
    yaw = start_yaw + yaw_rate * times
    pos = np.zeros((num_frames, 3))
    pos[:, 2] = height
    if abs(yaw_rate) < 1e-12:
        pos[:, 0] = speed * times * np.cos(start_yaw)
        pos[:, 1] = speed * times * np.sin(start_yaw)
    else:
        radius = speed / yaw_rate
        pos[:, 0] = radius * (np.sin(yaw) - np.sin(start_yaw))
        pos[:, 1] = radius * (np.cos(start_yaw) - np.cos(yaw))
    vel = np.stack([speed * np.cos(yaw), speed * np.sin(yaw), np.zeros(num_frames)], axis=-1)
    return rigid_sequence(
        skel, pos, yaw, fps,
        root_lin_vel=vel,
        yaw_rate=np.full(num_frames, yaw_rate),
    )


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion of a rotation by `angle` about `axis`."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def random_quaternions(rng: np.random.Generator, shape=()) -> np.ndarray:
    q = rng.standard_normal(shape + (4,))
    q = quat_normalize(q)
    q[..., 0] = np.abs(q[..., 0])
    return q


def random_rotations(rng: np.random.Generator, shape=()) -> np.ndarray:
    return quat_to_matrix(random_quaternions(rng, shape))


def make_random_sequence(skel: Skeleton, rng: np.random.Generator,
                         num_frames: int = 8, fps: float = 30.0) -> MotionSequence:
    """Valid but arbitrary sequence for round-trip and invariance tests."""
    t = num_frames
    quat = random_quaternions(rng, (t,))
    root_pos = rng.uniform(-1.0, 1.0, (t, 3)) + np.array([0.0, 0.0, 1.5])
    body_pos = rng.uniform(-1.0, 1.0, (t, NUM_BODIES, 3)) + np.array([0.0, 0.0, 1.5])
    body_rot = random_rotations(rng, (t, NUM_BODIES))
    body_pos[:, 0] = root_pos
    body_rot[:, 0] = quat_to_matrix(quat)
    return MotionSequence(
        fps=fps,
        joint_pos=rng.uniform(-1.0, 1.0, (t, NUM_JOINTS)),
        joint_vel=rng.uniform(-2.0, 2.0, (t, NUM_JOINTS)),
        root_pos=root_pos,
        root_quat=quat,
        body_pos=body_pos,
        body_rot=body_rot,
        body_lin_vel=rng.uniform(-2.0, 2.0, (t, NUM_BODIES, 3)),
        body_ang_vel=rng.uniform(-3.0, 3.0, (t, NUM_BODIES, 3)),
    )


def neutral_features(num_frames: int, height: float = 0.8) -> np.ndarray:
    """Feature frames of a standing pose: identity rotations, planted feet."""
    from motion_forge.features import FEATURE_DIM, FOOT_CONTACT, ROOT_HEIGHT as RH, ROT6D

    frames = np.zeros((num_frames, FEATURE_DIM))
    frames[:, RH] = height
    frames[:, ROT6D] = np.tile([1.0, 0, 0, 0, 1, 0], 29)
    frames[:, FOOT_CONTACT] = 1.0
    return frames


def _drop_joint_vel_from_frame_5(doc):
    del doc["joint_vel"][5:]


def _extra_joint_vel_row(doc):
    doc["joint_vel"].append(doc["joint_vel"][0])


def _short_root_pos(doc):
    doc["root_pos"][3] = [0.0, 0.0]


def _short_joint_vel(doc):
    doc["joint_vel"][2] = doc["joint_vel"][2][:28]


def _string_in_root_pos(doc):
    doc["root_pos"][4][1] = "up"


def _null_body_rot_row(doc):
    doc["body_rot"][6] = None


def _drop_body_pos(doc):
    del doc["body_pos"]


def _string_fps(doc):
    doc["fps"] = "thirty"


def _zero_fps(doc):
    doc["fps"] = 0


def _numeric_joint_names(doc):
    doc["joint_names"] = 5


# Malformed motion files: (edit of a saved clip's columnar JSON document, the
# error load_motion must raise, a pattern its message must match).  Every
# message names the file, and a per-frame defect also names the frame and the
# field.
MALFORMED_MOTION_CASES = {
    "frame_missing_joint_vel": (_drop_joint_vel_from_frame_5, "FileFormatError",
                                r"clip\.json: field 'joint_vel' has 5 rows, 'root_pos' has \d+: "
                                r"no row for frame 5"),
    "extra_joint_vel_row": (_extra_joint_vel_row, "FileFormatError",
                            r"clip\.json: field 'joint_vel' has \d+ rows, 'root_pos' has \d+: "
                            r"a row past frame \d+"),
    "short_root_pos": (_short_root_pos, "DimensionMismatchError",
                       r"clip\.json: frame 3 field 'root_pos' must have shape \(3,\)"),
    "short_joint_vel": (_short_joint_vel, "DimensionMismatchError",
                        r"clip\.json: frame 2 field 'joint_vel' must have shape \(29,\)"),
    "string_in_root_pos": (_string_in_root_pos, "FileFormatError",
                           r"clip\.json: frame 4 field 'root_pos' must hold only numbers"),
    "null_body_rot_row": (_null_body_rot_row, "DimensionMismatchError",
                          r"clip\.json: frame 6 field 'body_rot' must have shape \(270,\)"),
    "missing_body_pos": (_drop_body_pos, "FileFormatError",
                         r"clip\.json: missing required field 'body_pos'"),
    "string_fps": (_string_fps, "FileFormatError", r"clip\.json: 'fps' must be a number"),
    "zero_fps": (_zero_fps, "FileFormatError", r"clip\.json: 'fps' must be > 0"),
    "numeric_joint_names": (_numeric_joint_names, "FileFormatError",
                            r"clip\.json: 'joint_names' must be a list of strings"),
}


def ffn_apply(params, x: np.ndarray) -> np.ndarray:
    """GELU FFN over the frames of x (T, D), the oracle of `tpmoe_apply`.
    params is ((w1, b1), (w2, b2)); parameters stacked along leading axes
    (w1 (..., H, D), b1 (..., H), ...) give one output per stacked expert,
    shape (..., T, D)."""
    (w1, b1), (w2, b2) = params
    h = gelu(np.asarray(x, dtype=np.float64) @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    return h @ np.swapaxes(w2, -1, -2) + b2[..., None, :]


def make_oracle_denoiser(target: np.ndarray):
    """Denoiser that always predicts a fixed clean window (ground truth)."""
    target = np.asarray(target, dtype=np.float64)

    def denoiser(noisy, step, condition):
        return np.broadcast_to(target, np.shape(noisy)).copy()

    return denoiser


def zero_denoiser(noisy, step, condition) -> np.ndarray:
    """Denoiser that always predicts an all-zero clean window."""
    return np.zeros_like(np.asarray(noisy, dtype=np.float64))


def introduced_rows(orders, unlock_iters, iteration: int, cfg) -> np.ndarray:
    """Rows introduced by `iteration`, level by level in introduction order,
    the oracle of `ReplaySet`: level k + 1, unlocked at `unlock_iters[k]`,
    introduces none of `orders[k]` before its unlock, then the leading
    ceil(introduction_ratio * size)."""
    return np.concatenate([
        order[:0 if iteration < unlock
              else math.ceil(introduction_ratio(iteration, unlock, lv, cfg) * order.size)]
        for lv, (order, unlock) in enumerate(zip(orders, unlock_iters), start=1)
    ])


def reference_task_rewards(ref, sim, cfg: RewardConfig | None = None, skel: Skeleton | None = None):
    """The six task terms one at a time, each through its own exp-kernel
    call, with the geodesic angles written out with `np.clip`: the oracle of
    `task_rewards`, which stacks the six squared errors through one kernel."""
    cfg = cfg or RewardConfig()
    if cfg.tracked_bodies is not None:
        bodies = np.array(cfg.tracked_bodies)
    elif skel is not None:
        bodies = np.array((0, skel.body_index("torso_link"), *skel.ric_body_indices))
    else:
        bodies = np.arange(ref.body_pos.shape[-2])
    a = cfg.anchor_body

    def rel_pos(state):   # row-vector form of R_a^T (p_b - p_a)
        offsets = state.body_pos.take(bodies, axis=-2) - state.body_pos[..., a, None, :]
        return offsets @ state.body_rot[..., a, :, :]

    def rel_rot(state):   # R_a^T R_b
        return np.einsum("...ji,...bjk->...bik", state.body_rot[..., a, :, :],
                         state.body_rot.take(bodies, axis=-3))

    def sq_dist(x, y):
        return np.add.reduce((x - y) ** 2, axis=-1)

    def body_mean(values):
        return np.add.reduce(values, axis=-1) / values.shape[-1]

    def vel_err(name):
        return body_mean(sq_dist(getattr(ref, name).take(bodies, axis=-2),
                                 getattr(sim, name).take(bodies, axis=-2)))

    def quat_angle(q1, q2):
        return 2.0 * np.arccos(np.clip(np.abs(np.sum(q1 * q2, axis=-1)), -1.0, 1.0))

    def matrix_angle(r1, r2):
        rel = np.einsum("...ji,...jk->...ik", r1, r2)
        trace = rel[..., 0, 0] + rel[..., 1, 1] + rel[..., 2, 2]
        return np.arccos(np.clip((trace - 1.0) * 0.5, -1.0, 1.0))

    errors = {
        "anchor_pos": sq_dist(ref.body_pos[..., a, :], sim.body_pos[..., a, :]),
        "anchor_ori": quat_angle(ref.root_quat, sim.root_quat) ** 2,
        "rel_body_pos": body_mean(sq_dist(rel_pos(ref), rel_pos(sim))),
        "rel_body_ori": body_mean(matrix_angle(rel_rot(ref), rel_rot(sim)) ** 2),
        "body_lin_vel": vel_err("body_lin_vel"),
        "body_ang_vel": vel_err("body_ang_vel"),
    }
    terms = {}
    for name in TASK_TERMS:
        sigma = getattr(cfg, name).sigma
        terms[name] = np.exp(-np.asarray(errors[name], dtype=np.float64) / (sigma * sigma))
    total = sum(getattr(cfg, name).weight * terms[name] for name in TASK_TERMS)
    return terms, total


def _flat_concat(layout: dict[str, int], blocks: dict) -> np.ndarray:
    flat = []
    for name, width in layout.items():
        value = np.asarray(blocks[name], dtype=np.float64).reshape(-1)
        if value.shape[0] != width:
            raise DimensionMismatchError(f"{name}: expected {width} dims, got {value.shape[0]}")
        flat.append(value)
    return np.concatenate(flat)


def reference_policy_obs(command, anchor_ori_6d, ang_vel, joint_pos, joint_vel, prev_actions):
    """One frame's 616-dim policy observation, each block flattened and
    concatenated in `POLICY_LAYOUT` order: the oracle of
    `assemble_obs(POLICY_LAYOUT, ...)` for one frame."""
    return _flat_concat(POLICY_LAYOUT, locals())


def reference_critic_obs(command, anchor_pos_err, anchor_ori_6d, key_body_pos, key_body_ori_6d,
                         lin_vel, ang_vel, joint_pos, joint_vel, prev_actions):
    """One frame's 748-dim critic observation, the same way in `CRITIC_LAYOUT`
    order: the oracle of `assemble_obs(CRITIC_LAYOUT, ...)` for one frame."""
    return _flat_concat(CRITIC_LAYOUT, locals())


# noise field -> the policy-observation columns it perturbs, in draw order
_NOISY_COLUMNS = (("root_ori", 520, 526), ("ang_vel", 526, 529),
                  ("joint_pos", 529, 558), ("joint_vel", 558, 587))


def reference_obs_noise(obs, noise_cfg, rng: np.random.Generator) -> np.ndarray:
    """One (616,) observation plus one uniform draw of each noisy block's
    width, in draw order: the oracle of `inject_obs_noise` for one frame."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (POLICY_OBS_DIM,):
        raise DimensionMismatchError(f"expected ({POLICY_OBS_DIM},) observation")
    out = obs.copy()
    for name, start, stop in _NOISY_COLUMNS:
        bound = getattr(noise_cfg, name)
        if bound > 0:
            out[start:stop] += rng.uniform(-bound, bound, stop - start)
    return out
