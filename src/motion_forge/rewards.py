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

from .errors import DimensionMismatchError, check_fields
from .motion import NUM_BODIES, NUM_JOINTS, Frame, MotionSequence, Skeleton, check_body_indices
from .rotations import (
    matrix_geodesic_angle,
    quat_geodesic_angle,
    quat_to_matrix,
    rot_to_6d,
)

COMMAND_DIM = 520
NUM_KEY_BODIES = 14

# Frame offsets of the command window: the current frame, two short-horizon
# frames, and five long-horizon frames at stride 20.
COMMAND_OFFSETS = np.array([0, 1, 2, 20, 40, 60, 80, 100])

# Observation layouts: block name -> width, in the order the blocks are
# concatenated.  The assemblers take their blocks under these names.
POLICY_LAYOUT = {
    "command": COMMAND_DIM,
    "anchor_ori_6d": 6,
    "ang_vel": 3,
    "joint_pos": NUM_JOINTS,
    "joint_vel": NUM_JOINTS,
    "prev_actions": NUM_JOINTS,
}
CRITIC_LAYOUT = {
    "command": COMMAND_DIM,
    "anchor_pos_err": 3,
    "anchor_ori_6d": 6,
    "key_body_pos": NUM_KEY_BODIES * 3,
    "key_body_ori_6d": NUM_KEY_BODIES * 6,
    "lin_vel": 3,
    "ang_vel": 3,
    "joint_pos": NUM_JOINTS,
    "joint_vel": NUM_JOINTS,
    "prev_actions": NUM_JOINTS,
}

_starts = np.cumsum([0, *POLICY_LAYOUT.values()]).tolist()
POLICY_BLOCKS = {name: slice(start, start + width)
                 for (name, width), start in zip(POLICY_LAYOUT.items(), _starts)}
POLICY_OBS_DIM = sum(POLICY_LAYOUT.values())
CRITIC_OBS_DIM = sum(CRITIC_LAYOUT.values())

# The six exponential-kernel task terms, in CSV and summation order.
TASK_TERMS = ("anchor_pos", "anchor_ori", "rel_body_pos",
              "rel_body_ori", "body_lin_vel", "body_ang_vel")


@dataclass(frozen=True)
class RewardTerm:
    weight: float
    sigma: float

    def __post_init__(self):
        check_fields(self, positive=("sigma",), signed=("weight",))


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

    def __post_init__(self):
        check_body_indices("anchor_body", self.anchor_body)
        if self.tracked_bodies is not None:
            check_body_indices("tracked_bodies", self.tracked_bodies)
        check_fields(self, signed=("action_rate_weight", "joint_limit_weight",
                                   "undesired_contact_weight"))

    def total_task_weight(self) -> float:
        return sum(getattr(self, name).weight for name in TASK_TERMS)


def default_key_bodies(skel: Skeleton) -> tuple[int, ...]:
    trunk = skel.body_index("torso_link")
    return tuple([0, trunk] + list(skel.ric_body_indices))


def exp_kernel_reward(error_sq, sigma: float):
    """exp(-e / sigma^2) for squared errors e >= 0, a scalar or an array."""
    error_sq = np.asarray(error_sq, dtype=np.float64)
    if (error_sq < 0).any():
        raise ValueError("squared error must be non-negative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return np.exp(-error_sq / (sigma * sigma))


def task_rewards(
    ref: Frame | MotionSequence,
    sim: Frame | MotionSequence,
    cfg: RewardConfig | None = None,
    skel: Skeleton | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-term task rewards of an aligned ref/sim pair, plus weighted sum.

    Broadcasts over leading axes: a pair of clips gives a (T,) array per
    term and for the total, a pair of `Frame`s gives scalars.  Relative
    terms are expressed in the anchor (pelvis) frame; body terms average
    squared errors over the tracked body set before the kernel.
    """
    cfg = cfg or RewardConfig()
    for name in ("root_quat", "body_pos", "body_rot", "body_lin_vel", "body_ang_vel"):
        if getattr(ref, name).shape != getattr(sim, name).shape:
            raise DimensionMismatchError(f"{name}: reference shape {getattr(ref, name).shape}"
                                         f" != executed shape {getattr(sim, name).shape}")
    if cfg.tracked_bodies is not None:
        bodies = np.array(cfg.tracked_bodies)
    elif skel is not None:
        bodies = np.array(default_key_bodies(skel))
    else:
        bodies = np.arange(ref.body_pos.shape[-2])
    a = cfg.anchor_body

    # Gathering with `take` keeps each body set frame-major in memory, so the
    # body means reduce in the same order for one frame and for a whole clip.
    def rel_pos(state):   # row-vector form of R_a^T (p_b - p_a)
        offsets = state.body_pos.take(bodies, axis=-2) - state.body_pos[..., a, None, :]
        return offsets @ state.body_rot[..., a, :, :]

    def rel_rot(state):   # R_a^T R_b
        return np.einsum("...ji,...bjk->...bik", state.body_rot[..., a, :, :],
                         state.body_rot.take(bodies, axis=-3))

    def sq_dist(x, y):
        return np.add.reduce((x - y) ** 2, axis=-1)

    def body_mean(values):   # np.mean's sum and divide, without its overhead
        return np.add.reduce(values, axis=-1) / values.shape[-1]

    def vel_err(name):
        return body_mean(sq_dist(getattr(ref, name).take(bodies, axis=-2),
                                 getattr(sim, name).take(bodies, axis=-2)))

    errors = {
        "anchor_pos": sq_dist(ref.body_pos[..., a, :], sim.body_pos[..., a, :]),
        "anchor_ori": quat_geodesic_angle(ref.root_quat, sim.root_quat) ** 2,
        "rel_body_pos": body_mean(sq_dist(rel_pos(ref), rel_pos(sim))),
        "rel_body_ori": body_mean(matrix_geodesic_angle(rel_rot(ref), rel_rot(sim)) ** 2),
        "body_lin_vel": vel_err("body_lin_vel"),
        "body_ang_vel": vel_err("body_ang_vel"),
    }
    terms = {name: exp_kernel_reward(errors[name], getattr(cfg, name).sigma)
             for name in TASK_TERMS}
    total = sum(getattr(cfg, name).weight * terms[name] for name in TASK_TERMS)
    return terms, total


def regularization_rewards(
    actions: np.ndarray,
    prev_actions: np.ndarray,
    joint_pos: np.ndarray,
    contact_forces: np.ndarray,
    skel: Skeleton,
    cfg: RewardConfig | None = None,
) -> dict[str, np.ndarray]:
    """Smoothness/safety penalties; all values are <= 0.  Broadcasts over
    leading axes like `task_rewards`."""
    cfg = cfg or RewardConfig()
    actions = np.asarray(actions, dtype=np.float64)
    prev_actions = np.asarray(prev_actions, dtype=np.float64)
    if actions.shape[-1:] != (NUM_JOINTS,) or prev_actions.shape != actions.shape:
        raise DimensionMismatchError(f"actions must have shape (..., {NUM_JOINTS})")
    action_rate = cfg.action_rate_weight * np.sum((actions - prev_actions) ** 2, axis=-1)

    joint_pos = np.asarray(joint_pos, dtype=np.float64)
    low, high = skel.joint_limits[:, 0], skel.joint_limits[:, 1]
    out_of_range = np.count_nonzero((joint_pos < low) | (joint_pos > high), axis=-1)
    joint_limit = cfg.joint_limit_weight * out_of_range

    contact_forces = np.asarray(contact_forces, dtype=np.float64)
    if contact_forces.shape[-1:] != (NUM_BODIES,):
        raise DimensionMismatchError(f"contact_forces must have shape (..., {NUM_BODIES})")
    counted = contact_forces > cfg.contact_force_threshold
    counted[..., [skel.body_index(n) for n in cfg.excluded_contact_bodies]] = False
    undesired = cfg.undesired_contact_weight * np.count_nonzero(counted, axis=-1)
    return {"action_rate": action_rate, "joint_limit": joint_limit, "undesired_contact": undesired}


def assemble_command(motion: MotionSequence, frame_idx) -> np.ndarray:
    """520-dim motion command: current, short-horizon, strided long-horizon.

    Each of the 8 frames contributes its 65-dim descriptor (joint pos, joint
    vel, root pos, root quat); indices past the clip clamp to the last
    frame.  An array of frame indices gives one command per index.
    """
    idx = np.minimum(np.asarray(frame_idx)[..., None] + COMMAND_OFFSETS, motion.num_frames - 1)
    frames = np.concatenate([motion.joint_pos[idx], motion.joint_vel[idx],
                             motion.root_pos[idx], motion.root_quat[idx]], axis=-1)
    return frames.reshape(idx.shape[:-1] + (COMMAND_DIM,))


def orientation_error_6d(ref_quat: np.ndarray, sim_quat: np.ndarray) -> np.ndarray:
    """Relative rotation sim^-1 * ref as a 6D vector; identity when equal."""
    rel = np.swapaxes(quat_to_matrix(sim_quat), -1, -2) @ quat_to_matrix(ref_quat)
    return rot_to_6d(rel)


def _assemble(layout: dict[str, int], blocks: dict) -> np.ndarray:
    """Concatenate `blocks` flattened in `layout` order, checking widths."""
    flat = []
    for name, width in layout.items():
        value = np.asarray(blocks[name], dtype=np.float64).reshape(-1)
        if value.shape[0] != width:
            raise DimensionMismatchError(f"{name}: expected {width} dims, got {value.shape[0]}")
        flat.append(value)
    return np.concatenate(flat)


def assemble_policy_obs(command, anchor_ori_6d, ang_vel, joint_pos, joint_vel,
                        prev_actions) -> np.ndarray:
    """616-dim policy observation in the `POLICY_LAYOUT` order."""
    return _assemble(POLICY_LAYOUT, locals())


def assemble_critic_obs(command, anchor_pos_err, anchor_ori_6d, key_body_pos, key_body_ori_6d,
                        lin_vel, ang_vel, joint_pos, joint_vel, prev_actions) -> np.ndarray:
    """748-dim privileged critic observation in the `CRITIC_LAYOUT` order."""
    return _assemble(CRITIC_LAYOUT, locals())


# ObservationNoiseConfig field -> the policy-observation block it perturbs,
# in draw order.
_NOISY_BLOCKS = {
    "root_ori": "anchor_ori_6d",
    "ang_vel": "ang_vel",
    "joint_pos": "joint_pos",
    "joint_vel": "joint_vel",
}


@dataclass(frozen=True)
class ObservationNoiseConfig:
    """Half-widths of the additive uniform noise per observed quantity."""

    root_ori: float = 0.05
    ang_vel: float = 0.2
    joint_pos: float = 0.01
    joint_vel: float = 0.5

    def __post_init__(self):
        check_fields(self)


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
    for name, block in _NOISY_BLOCKS.items():
        bound = getattr(noise_cfg, name)
        if bound > 0:
            out[POLICY_BLOCKS[block]] += rng.uniform(-bound, bound, POLICY_LAYOUT[block])
    return out
