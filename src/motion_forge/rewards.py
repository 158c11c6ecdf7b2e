"""Tracker training interface: rewards, command/observation assembly, noise.

Task rewards all use the exponential kernel exp(-e / sigma^2) on a squared
error e, so each term lives in (0, 1] and is 1 exactly at zero error.  The
per-term weights and sigmas below are the stock training configuration:

    term                weight  sigma
    anchor position      0.8    0.2
    anchor orientation   0.5    0.4
    relative body pos    1.0    0.3
    relative body ori    1.0    0.4
    body linear vel      1.0    1.0
    body angular vel     1.0    3.14

Regularization penalties: action rate L2 (-0.1), joint-limit violations
(-10.0 per out-of-range joint), undesired contacts above 1 N (-0.1 per body,
end-effector bodies excluded).

The motion command is an 8-frame window of 65-dim frame descriptors
(joint pos 29 + joint vel 29 + root pos 3 + root quat 4): the current frame,
the next two frames, and five long-horizon frames at stride 20.  Policy
observations are 616-dim, critic observations 748-dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .motion import NUM_JOINTS, Frame, MotionSequence, Skeleton
from .rotations import (
    matrix_geodesic_angle,
    quat_geodesic_angle,
    quat_to_matrix,
    rot_to_6d,
)

COMMAND_DIM = 520
POLICY_OBS_DIM = 616
CRITIC_OBS_DIM = 748
NUM_KEY_BODIES = 14

SHORT_HORIZON_OFFSETS = (1, 2)
LONG_HORIZON_STRIDE = 20
LONG_HORIZON_FRAMES = 5

# Policy observation block layout (start, length).
POLICY_BLOCKS = {
    "command": (0, COMMAND_DIM),
    "anchor_ori": (520, 6),
    "ang_vel": (526, 3),
    "joint_pos": (529, NUM_JOINTS),
    "joint_vel": (558, NUM_JOINTS),
    "actions": (587, NUM_JOINTS),
}


@dataclass(frozen=True)
class RewardTerm:
    weight: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class RewardConfig:
    anchor_pos: RewardTerm = RewardTerm(0.8, 0.2)
    anchor_ori: RewardTerm = RewardTerm(0.5, 0.4)
    rel_body_pos: RewardTerm = RewardTerm(1.0, 0.3)
    rel_body_ori: RewardTerm = RewardTerm(1.0, 0.4)
    body_lin_vel: RewardTerm = RewardTerm(1.0, 1.0)
    body_ang_vel: RewardTerm = RewardTerm(1.0, 3.14)
    action_rate_weight: float = -0.1
    joint_limit_weight: float = -10.0
    undesired_contact_weight: float = -0.1
    contact_force_threshold: float = 1.0   # N
    excluded_contact_bodies: tuple[str, ...] = (
        "left_ankle_roll_link",
        "right_ankle_roll_link",
        "left_palm_link",
        "right_palm_link",
    )
    anchor_body: int = 0
    # bodies entering the relative/velocity terms; None selects the stock
    # 14 key bodies (the 12 informative bodies plus root and trunk)
    tracked_bodies: tuple[int, ...] | None = None

    def total_task_weight(self) -> float:
        return (self.anchor_pos.weight + self.anchor_ori.weight
                + self.rel_body_pos.weight + self.rel_body_ori.weight
                + self.body_lin_vel.weight + self.body_ang_vel.weight)


def default_key_bodies(skel: Skeleton) -> tuple[int, ...]:
    trunk = skel.body_index("torso_link")
    return tuple([0, trunk] + list(skel.ric_body_indices))


def exp_kernel_reward(error_sq: float, sigma: float) -> float:
    """exp(-e / sigma^2) for a squared error e >= 0."""
    if error_sq < 0:
        raise ValueError("squared error must be non-negative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(np.exp(-error_sq / (sigma * sigma)))


def task_rewards(
    ref: Frame,
    sim: Frame,
    cfg: RewardConfig | None = None,
    skel: Skeleton | None = None,
) -> tuple[dict[str, float], float]:
    """Per-term task rewards for one aligned frame pair, plus weighted sum.

    Relative terms are expressed in the anchor (pelvis) frame; body terms
    average squared errors over the tracked body set before the kernel.
    """
    cfg = cfg or RewardConfig()
    if cfg.tracked_bodies is not None:
        bodies = list(cfg.tracked_bodies)
    elif skel is not None:
        bodies = list(default_key_bodies(skel))
    else:
        bodies = list(range(ref.body_pos.shape[0]))
    if ref.body_pos.shape != sim.body_pos.shape:
        raise DimensionMismatchError("frames have different body sets")
    a = cfg.anchor_body

    anchor_pos_err = float(np.sum((ref.body_pos[a] - sim.body_pos[a]) ** 2))
    anchor_ori_err = float(quat_geodesic_angle(ref.root_quat, sim.root_quat) ** 2)

    def in_anchor(frame: Frame, values: np.ndarray) -> np.ndarray:
        return values @ frame.body_rot[a]   # row-vector form of R^T v

    rel_ref = in_anchor(ref, ref.body_pos[bodies] - ref.body_pos[a])
    rel_sim = in_anchor(sim, sim.body_pos[bodies] - sim.body_pos[a])
    rel_pos_err = float(np.mean(np.sum((rel_ref - rel_sim) ** 2, axis=-1)))

    rel_rot_ref = np.einsum("ji,bjk->bik", ref.body_rot[a], ref.body_rot[bodies])
    rel_rot_sim = np.einsum("ji,bjk->bik", sim.body_rot[a], sim.body_rot[bodies])
    rel_ori_err = float(np.mean(matrix_geodesic_angle(rel_rot_ref, rel_rot_sim) ** 2))

    lin_err = float(np.mean(np.sum((ref.body_lin_vel[bodies] - sim.body_lin_vel[bodies]) ** 2, axis=-1)))
    ang_err = float(np.mean(np.sum((ref.body_ang_vel[bodies] - sim.body_ang_vel[bodies]) ** 2, axis=-1)))

    terms = {
        "anchor_pos": exp_kernel_reward(anchor_pos_err, cfg.anchor_pos.sigma),
        "anchor_ori": exp_kernel_reward(anchor_ori_err, cfg.anchor_ori.sigma),
        "rel_body_pos": exp_kernel_reward(rel_pos_err, cfg.rel_body_pos.sigma),
        "rel_body_ori": exp_kernel_reward(rel_ori_err, cfg.rel_body_ori.sigma),
        "body_lin_vel": exp_kernel_reward(lin_err, cfg.body_lin_vel.sigma),
        "body_ang_vel": exp_kernel_reward(ang_err, cfg.body_ang_vel.sigma),
    }
    total = (
        cfg.anchor_pos.weight * terms["anchor_pos"]
        + cfg.anchor_ori.weight * terms["anchor_ori"]
        + cfg.rel_body_pos.weight * terms["rel_body_pos"]
        + cfg.rel_body_ori.weight * terms["rel_body_ori"]
        + cfg.body_lin_vel.weight * terms["body_lin_vel"]
        + cfg.body_ang_vel.weight * terms["body_ang_vel"]
    )
    return terms, float(total)


def regularization_rewards(
    actions: np.ndarray,
    prev_actions: np.ndarray,
    joint_pos: np.ndarray,
    contact_forces: np.ndarray,
    skel: Skeleton,
    cfg: RewardConfig | None = None,
) -> dict[str, float]:
    """Smoothness/safety penalties; all values are <= 0."""
    cfg = cfg or RewardConfig()
    actions = np.asarray(actions, dtype=np.float64)
    prev_actions = np.asarray(prev_actions, dtype=np.float64)
    if actions.shape != (NUM_JOINTS,) or prev_actions.shape != (NUM_JOINTS,):
        raise DimensionMismatchError(f"actions must have shape ({NUM_JOINTS},)")
    action_rate = cfg.action_rate_weight * float(np.sum((actions - prev_actions) ** 2))

    joint_pos = np.asarray(joint_pos, dtype=np.float64)
    low, high = skel.joint_limits[:, 0], skel.joint_limits[:, 1]
    out_of_range = int(np.sum((joint_pos < low) | (joint_pos > high)))
    joint_limit = cfg.joint_limit_weight * out_of_range

    contact_forces = np.asarray(contact_forces, dtype=np.float64)
    excluded = {skel.body_index(n) for n in cfg.excluded_contact_bodies}
    counted = [
        i for i in range(len(contact_forces))
        if i not in excluded and contact_forces[i] > cfg.contact_force_threshold
    ]
    undesired = cfg.undesired_contact_weight * len(counted)
    return {
        "action_rate": action_rate,
        "joint_limit": joint_limit,
        "undesired_contact": undesired,
    }


def command_frame(motion: MotionSequence, idx: int) -> np.ndarray:
    """65-dim frame descriptor; out-of-range indices clamp to the last frame."""
    idx = min(idx, motion.num_frames - 1)
    return np.concatenate([
        motion.joint_pos[idx],
        motion.joint_vel[idx],
        motion.root_pos[idx],
        motion.root_quat[idx],
    ])


def assemble_command(motion: MotionSequence, frame_idx: int) -> np.ndarray:
    """520-dim motion command: current, short-horizon, strided long-horizon."""
    offsets = [0, *SHORT_HORIZON_OFFSETS]
    offsets += [LONG_HORIZON_STRIDE * (j + 1) for j in range(LONG_HORIZON_FRAMES)]
    parts = [command_frame(motion, frame_idx + off) for off in offsets]
    out = np.concatenate(parts)
    assert out.shape == (COMMAND_DIM,)
    return out


def orientation_error_6d(ref_quat: np.ndarray, sim_quat: np.ndarray) -> np.ndarray:
    """Relative rotation sim^-1 * ref as a 6D vector; identity when equal."""
    rel = quat_to_matrix(sim_quat).T @ quat_to_matrix(ref_quat)
    return rot_to_6d(rel)


def assemble_policy_obs(
    command: np.ndarray,
    anchor_ori_6d: np.ndarray,
    ang_vel: np.ndarray,
    joint_pos: np.ndarray,
    joint_vel: np.ndarray,
    prev_actions: np.ndarray,
) -> np.ndarray:
    """616-dim policy observation, blocks in the fixed layout order."""
    parts = [
        ("command", command, COMMAND_DIM),
        ("anchor_ori_6d", anchor_ori_6d, 6),
        ("ang_vel", ang_vel, 3),
        ("joint_pos", joint_pos, NUM_JOINTS),
        ("joint_vel", joint_vel, NUM_JOINTS),
        ("prev_actions", prev_actions, NUM_JOINTS),
    ]
    return _concat_checked(parts, POLICY_OBS_DIM)


def assemble_critic_obs(
    command: np.ndarray,
    anchor_pos_err: np.ndarray,
    anchor_ori_6d: np.ndarray,
    key_body_pos: np.ndarray,
    key_body_ori_6d: np.ndarray,
    lin_vel: np.ndarray,
    ang_vel: np.ndarray,
    joint_pos: np.ndarray,
    joint_vel: np.ndarray,
    prev_actions: np.ndarray,
) -> np.ndarray:
    """748-dim privileged critic observation."""
    parts = [
        ("command", command, COMMAND_DIM),
        ("anchor_pos_err", anchor_pos_err, 3),
        ("anchor_ori_6d", anchor_ori_6d, 6),
        ("key_body_pos", key_body_pos, NUM_KEY_BODIES * 3),
        ("key_body_ori_6d", key_body_ori_6d, NUM_KEY_BODIES * 6),
        ("lin_vel", lin_vel, 3),
        ("ang_vel", ang_vel, 3),
        ("joint_pos", joint_pos, NUM_JOINTS),
        ("joint_vel", joint_vel, NUM_JOINTS),
        ("prev_actions", prev_actions, NUM_JOINTS),
    ]
    return _concat_checked(parts, CRITIC_OBS_DIM)


def _concat_checked(parts, expected_total: int) -> np.ndarray:
    flat = []
    for name, value, dim in parts:
        value = np.asarray(value, dtype=np.float64).reshape(-1)
        if value.shape[0] != dim:
            raise DimensionMismatchError(f"{name}: expected {dim} dims, got {value.shape[0]}")
        flat.append(value)
    out = np.concatenate(flat)
    assert out.shape == (expected_total,)
    return out


@dataclass(frozen=True)
class ObservationNoiseConfig:
    """Half-widths of the additive uniform noise per observed quantity."""

    root_ori: float = 0.05
    ang_vel: float = 0.2
    joint_pos: float = 0.01
    joint_vel: float = 0.5

    def __post_init__(self):
        for name in ("root_ori", "ang_vel", "joint_pos", "joint_vel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} noise bound must be >= 0")


def inject_obs_noise(
    obs: np.ndarray,
    noise_cfg: ObservationNoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add uniform noise to the noisy policy-obs blocks; command and previous
    actions pass through untouched."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (POLICY_OBS_DIM,):
        raise DimensionMismatchError(f"expected ({POLICY_OBS_DIM},) observation")
    out = obs.copy()
    for block, bound in (
        ("anchor_ori", noise_cfg.root_ori),
        ("ang_vel", noise_cfg.ang_vel),
        ("joint_pos", noise_cfg.joint_pos),
        ("joint_vel", noise_cfg.joint_vel),
    ):
        start, length = POLICY_BLOCKS[block]
        if bound > 0:
            out[start:start + length] += rng.uniform(-bound, bound, length)
    return out
