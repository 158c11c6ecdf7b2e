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
observations are 616-dim, critic observations 748-dim, both from named blocks
by `assemble_obs`.  It and `inject_obs_noise` work over leading axes; the noise
for T frames is one (T, width) uniform draw per noisy block, in `_NOISY_BLOCKS`
order (root orientation, angular velocity, joint positions, joint velocities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    check_fields,
    check_finite,
    check_numbers,
    check_object,
)
from .motion import (
    NUM_BODIES,
    NUM_JOINTS,
    Frame,
    MotionSequence,
    Skeleton,
    check_body_indices,
    check_same_rate,
)
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
# concatenated.  `assemble_obs` takes its blocks under these names.
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


def exp_kernel_reward(error_sq, sigma):
    """exp(-e / sigma^2) for squared errors e >= 0, a scalar or an array;
    sigma > 0 broadcasts against e (one sigma per row of stacked errors)."""
    error_sq = np.asarray(error_sq, dtype=np.float64)
    if not (error_sq >= 0).all():   # the one check: false for NaN as for e < 0
        if np.isnan(error_sq).any():
            raise NonFiniteError("squared error holds NaN")
        raise ValueError("squared error must be non-negative")
    if not (np.asarray(sigma) > 0).all():
        raise ValueError("sigma must be positive")
    return np.exp(-error_sq / (sigma * sigma))


def task_rewards(
    ref: Frame | MotionSequence,
    sim: Frame | MotionSequence,
    cfg: RewardConfig = RewardConfig(),
    skel: Skeleton | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-term task rewards of an aligned ref/sim pair, plus weighted sum.

    Broadcasts over leading axes: a pair of clips gives a (T,) array per
    term and for the total, a pair of `Frame`s gives scalars.  Relative
    terms are expressed in the anchor (pelvis) frame; body terms average
    squared errors over the tracked body set before the kernel.  The six
    squared errors go through `exp_kernel_reward` as one stack.  Two clips
    at different frame rates raise AlignmentError.
    """
    check_same_rate(ref, sim)
    for name in ("root_quat", "body_pos", "body_rot", "body_lin_vel", "body_ang_vel"):
        if getattr(ref, name).shape != getattr(sim, name).shape:
            raise DimensionMismatchError(f"{name}: reference shape {getattr(ref, name).shape}"
                                         f" != executed shape {getattr(sim, name).shape}")
    if cfg.tracked_bodies is not None:
        bodies = np.array(cfg.tracked_bodies)
    elif skel is not None:
        bodies = skel.key_body_indices
    else:
        bodies = np.arange(ref.body_pos.shape[-2])
    a = cfg.anchor_body

    # Gathering with `take` keeps each body set frame-major in memory, so the
    # body means reduce in the same order for one frame and for a whole clip.
    def anchored(state):   # p_a, then R_a^T (p_b - p_a) in row-vector form and R_a^T R_b
        anchor_pos = state.body_pos[..., a, :]
        anchor_rot = state.body_rot[..., a, :, :]
        offsets = state.body_pos.take(bodies, axis=-2) - anchor_pos[..., None, :]
        return (anchor_pos, offsets @ anchor_rot,
                np.einsum("...ji,...bjk->...bik", anchor_rot, state.body_rot.take(bodies, axis=-3)))

    ref_anchor, ref_pos, ref_rot = anchored(ref)
    sim_anchor, sim_pos, sim_rot = anchored(sim)
    # one squared-distance reduction for the three per-body vector errors,
    # then one body mean for the four per-body terms
    diffs = np.array([ref_pos - sim_pos,
                      (ref.body_lin_vel - sim.body_lin_vel).take(bodies, axis=-2),
                      (ref.body_ang_vel - sim.body_ang_vel).take(bodies, axis=-2)])
    pos_sq, lin_sq, ang_sq = np.add.reduce(diffs ** 2, axis=-1)
    per_body = np.array([pos_sq, matrix_geodesic_angle(ref_rot, sim_rot) ** 2, lin_sq, ang_sq])
    errors = np.array([   # (6, ...) in TASK_TERMS order
        np.add.reduce((ref_anchor - sim_anchor) ** 2, axis=-1),
        quat_geodesic_angle(ref.root_quat, sim.root_quat) ** 2,
        *(np.add.reduce(per_body, axis=-1) / per_body.shape[-1]),
    ])
    specs = [getattr(cfg, name) for name in TASK_TERMS]
    sigma = np.array([spec.sigma for spec in specs]).reshape((-1,) + (1,) * (errors.ndim - 1))
    rewards = exp_kernel_reward(errors, sigma)
    total = sum(spec.weight * reward for spec, reward in zip(specs, rewards))
    return dict(zip(TASK_TERMS, rewards)), total


def regularization_rewards(
    actions: np.ndarray,
    prev_actions: np.ndarray,
    joint_pos: np.ndarray,
    contact_forces: np.ndarray,
    skel: Skeleton,
    cfg: RewardConfig = RewardConfig(),
) -> dict[str, np.ndarray]:
    """Smoothness/safety penalties; all values are <= 0.  Works over leading
    axes like `task_rewards`: every input has the actions' leading axes.  A
    NaN or infinite input raises NonFiniteError, an input of the wrong width
    or other leading axes DimensionMismatchError."""
    actions = check_finite(actions, "actions")
    prev_actions = check_finite(prev_actions, "prev_actions")
    joint_pos = check_finite(joint_pos, "joint_pos")
    contact_forces = check_finite(contact_forces, "contact_forces")
    if actions.shape[-1:] != (NUM_JOINTS,) or prev_actions.shape != actions.shape:
        raise DimensionMismatchError(f"actions must have shape (..., {NUM_JOINTS})")
    if joint_pos.shape[-1:] != (NUM_JOINTS,):
        raise DimensionMismatchError(f"joint_pos must have shape (..., {NUM_JOINTS})")
    if contact_forces.shape[-1:] != (NUM_BODIES,):
        raise DimensionMismatchError(f"contact_forces must have shape (..., {NUM_BODIES})")
    if not joint_pos.shape[:-1] == contact_forces.shape[:-1] == actions.shape[:-1]:
        raise DimensionMismatchError(
            f"leading axes differ: actions {actions.shape}, joint_pos {joint_pos.shape}, "
            f"contact_forces {contact_forces.shape}")
    action_rate = cfg.action_rate_weight * np.sum((actions - prev_actions) ** 2, axis=-1)

    low, high = skel.joint_limits[:, 0], skel.joint_limits[:, 1]
    out_of_range = np.count_nonzero((joint_pos < low) | (joint_pos > high), axis=-1)
    joint_limit = cfg.joint_limit_weight * out_of_range

    counted = contact_forces > cfg.contact_force_threshold
    counted[..., [skel.body_index(n) for n in cfg.excluded_contact_bodies]] = False
    undesired = cfg.undesired_contact_weight * np.count_nonzero(counted, axis=-1)
    return {"action_rate": action_rate, "joint_limit": joint_limit, "undesired_contact": undesired}


def assemble_command(motion: MotionSequence, frame_idx) -> np.ndarray:
    """520-dim motion command: current, short-horizon, strided long-horizon.

    Each of the 8 frames contributes its 65-dim descriptor (joint pos, joint
    vel, root pos, root quat); indices past the clip clamp to the last
    frame.  The indices follow the number rule for integers (2.0 is frame 2,
    2.5 or a bool is refused) and must be non-negative, else ConfigError.
    An array of frame indices gives one command per index.
    """
    frame_idx = check_numbers(frame_idx, "frame indices", whole=True)
    if (frame_idx < 0).any():
        raise ConfigError(f"frame indices must be non-negative, got {frame_idx.min()}")
    last = motion.num_frames - 1   # clamped before the offsets, which could overflow int64
    idx = np.minimum(np.minimum(frame_idx, last)[..., None] + COMMAND_OFFSETS, last)
    frames = np.concatenate([motion.joint_pos[idx], motion.joint_vel[idx],
                             motion.root_pos[idx], motion.root_quat[idx]], axis=-1)
    return frames.reshape(idx.shape[:-1] + (COMMAND_DIM,))


def orientation_error_6d(ref_quat: np.ndarray, sim_quat: np.ndarray) -> np.ndarray:
    """Relative rotation sim^-1 * ref as a 6D vector; identity when equal."""
    rel = np.swapaxes(quat_to_matrix(sim_quat), -1, -2) @ quat_to_matrix(ref_quat)
    return rot_to_6d(rel)


def assemble_obs(layout: dict[str, int], **blocks) -> np.ndarray:
    """Concatenate the named `blocks` along the last axis in `layout` order:
    `POLICY_LAYOUT` gives (..., 616) policy observations, `CRITIC_LAYOUT`
    (..., 748) critic ones.  Each block is (..., width) with its layout width
    and the first block's leading axes; a constant block is broadcast by the
    caller."""
    check_object(blocks, "observation blocks", layout, layout, DimensionMismatchError)
    arrays = [np.asarray(blocks[name], dtype=np.float64) for name in layout]
    for (name, width), array in zip(layout.items(), arrays):
        if array.shape != arrays[0].shape[:-1] + (width,):
            raise DimensionMismatchError(
                f"{name}: expected {arrays[0].shape[:-1] + (width,)}, got {array.shape}")
    return np.concatenate(arrays, axis=-1)


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
    """Add uniform noise to the noisy blocks of (..., 616) policy observations;
    command and previous actions pass through untouched.  One (..., width)
    draw per noisy block, in `_NOISY_BLOCKS` order."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape[-1:] != (POLICY_OBS_DIM,):
        raise DimensionMismatchError(f"expected (..., {POLICY_OBS_DIM}) observations")
    out = obs.copy()
    for name, block in _NOISY_BLOCKS.items():
        bound = getattr(noise_cfg, name)
        if bound > 0:
            out[..., POLICY_BLOCKS[block]] += rng.uniform(
                -bound, bound, obs.shape[:-1] + (POLICY_LAYOUT[block],))
    return out
