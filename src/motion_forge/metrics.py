"""Physical-plausibility and tracking metrics between motion clips.

Plausibility metrics (penetration, floating, skating) are properties of a
single clip against a flat ground plane.  Tracking metrics (mpjpe, mpjae,
mpjve, success) compare an executed clip against its reference frame by
frame.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .motion import MotionSequence, Skeleton
from .rotations import wrap_angle

MM_PER_M = 1000.0

FAILURE_NONE = "none"
FAILURE_PELVIS_Z = "pelvis_z"
FAILURE_TRUNK_GRAVITY = "trunk_gravity"
FAILURE_EE_Z = "ee_z"
FAILURE_NON_FINITE = "non_finite"


@dataclass(frozen=True)
class GroundModel:
    """Flat ground plane and the thresholds tied to it."""

    ground_z: float = 0.0
    contact_height_eps: float = 0.005          # m, tolerated hover above ground
    skate_disp_threshold: float = 0.0025       # m per frame (2.5 mm)
    floating_gate_height: float = 0.3          # m, both feet below this counts
                                               # as locomotion-like

    def __post_init__(self):
        if self.contact_height_eps <= 0 or self.skate_disp_threshold <= 0:
            raise ValueError("ground thresholds must be positive")


@dataclass(frozen=True)
class SuccessConfig:
    """Terminal-failure thresholds for the episode success predicate."""

    pelvis_z_threshold: float = 0.3        # m
    trunk_gravity_threshold: float = 0.8   # norm of gravity-direction mismatch
    ee_z_threshold: float = 0.3            # m
    trunk_body: str = "torso_link"
    # end effectors default to feet plus hands
    ee_bodies: tuple[str, ...] | None = None


@dataclass
class MetricReport:
    penetration_mm: float
    floating_mm: float
    skating_ratio: float
    mpjpe_m: float
    mpjae_rad: float
    mpjve_rad_s: float
    success: bool
    failure_reason: str = FAILURE_NONE

    def to_dict(self) -> dict:
        return {
            "penetration_mm": self.penetration_mm,
            "floating_mm": self.floating_mm,
            "skating_ratio": self.skating_ratio,
            "mpjpe_m": self.mpjpe_m,
            "mpjae_rad": self.mpjae_rad,
            "mpjve_rad_s": self.mpjve_rad_s,
            "success": self.success,
            "failure_reason": self.failure_reason,
        }


def penetration(seq: MotionSequence, ground: GroundModel) -> float:
    """Mean over frames of the deepest below-ground excursion, in mm."""
    lowest = seq.body_pos[..., 2].min(axis=1)
    depth = np.maximum(0.0, ground.ground_z - lowest)
    return float(depth.mean() * MM_PER_M)


def _foot_sides(skel: Skeleton) -> tuple[list[int], list[int]]:
    left = [i for i in skel.foot_body_indices if skel.body_names[i].startswith("left_")]
    right = [i for i in skel.foot_body_indices if skel.body_names[i].startswith("right_")]
    if not left or not right:
        # fall back to an even split when names carry no side prefix
        feet = list(skel.foot_body_indices)
        half = len(feet) // 2
        left, right = feet[:half], feet[half:]
    return left, right


def floating(
    seq: MotionSequence,
    ground: GroundModel,
    foot_contacts: np.ndarray,
    skel: Skeleton,
) -> float:
    """Mean unintended hover of the lowest foot point, in mm.

    Only frames with no foot contact bit set and both feet below the gate
    height contribute, so deliberate jumps and climbs do not count.
    Returns 0 when no frame qualifies.
    """
    foot_z = seq.body_pos[:, list(skel.foot_body_indices), 2]
    left, right = _foot_sides(skel)
    left_min = seq.body_pos[:, left, 2].min(axis=1)
    right_min = seq.body_pos[:, right, 2].min(axis=1)
    no_contact = np.asarray(foot_contacts).sum(axis=1) == 0
    gate = (left_min < ground.floating_gate_height) & (right_min < ground.floating_gate_height)
    qualifying = no_contact & gate
    if not np.any(qualifying):
        return 0.0
    clearance = foot_z.min(axis=1) - ground.ground_z - ground.contact_height_eps
    clearance = np.maximum(0.0, clearance[qualifying])
    return float(clearance.mean() * MM_PER_M)


def skating(
    seq: MotionSequence,
    foot_contacts: np.ndarray,
    skel: Skeleton,
    ground: GroundModel,
) -> float:
    """Fraction of planted-contact frames with tangential foot slip.

    A foot is planted at frame t when its contact bit is set at t and t-1;
    the frame counts as skating when any planted foot moved more than the
    per-frame displacement threshold in the ground plane.
    """
    contacts = np.asarray(foot_contacts).astype(bool)
    planted = contacts[1:] & contacts[:-1]                       # (T-1, 4)
    if not np.any(planted):
        return 0.0
    feet = list(skel.foot_body_indices)
    xy = seq.body_pos[:, feet, :2]
    disp = np.linalg.norm(xy[1:] - xy[:-1], axis=-1)             # (T-1, 4)
    slipping = planted & (disp > ground.skate_disp_threshold)
    frame_planted = planted.any(axis=1)
    frame_slipping = slipping.any(axis=1)
    return float(frame_slipping.sum() / frame_planted.sum())


def _check_aligned(ref: MotionSequence, sim: MotionSequence):
    if ref.num_frames != sim.num_frames:
        raise AlignmentError(
            f"frame counts differ: {ref.num_frames} vs {sim.num_frames}"
        )
    if ref.body_pos.shape != sim.body_pos.shape:
        raise AlignmentError("body sets differ between sequences")


def mpjpe(ref: MotionSequence, sim: MotionSequence, body_indices=None) -> float:
    """Mean per-body position error in meters."""
    _check_aligned(ref, sim)
    idx = slice(None) if body_indices is None else list(body_indices)
    err = np.linalg.norm(ref.body_pos[:, idx] - sim.body_pos[:, idx], axis=-1)
    return float(err.mean())


def mpjae(ref: MotionSequence, sim: MotionSequence) -> float:
    """Mean per-joint angle error in radians, wrap-aware within +-pi."""
    _check_aligned(ref, sim)
    diff = wrap_angle(ref.joint_pos - sim.joint_pos)
    return float(np.abs(diff).mean())


def mpjve(ref: MotionSequence, sim: MotionSequence) -> float:
    """Mean per-joint velocity error in rad/s."""
    _check_aligned(ref, sim)
    return float(np.abs(ref.joint_vel - sim.joint_vel).mean())


def _gravity_in_body(rot: np.ndarray) -> np.ndarray:
    # gravity direction expressed in the body frame: R^T (0, 0, -1)
    return -rot[..., 2, :]


def success(
    ref: MotionSequence,
    sim: MotionSequence,
    skel: Skeleton,
    cfg: SuccessConfig | None = None,
) -> tuple[bool, str]:
    """Episode success: no frame crosses a terminal-failure threshold.

    Returns (False, reason) for the first violating frame; the reason is the
    first violated check in the order pelvis_z, trunk_gravity, ee_z.  A NaN
    or infinite value anywhere in the sim arrays these checks read fails as
    non_finite before any threshold is looked at (NaN compares False, so it
    would otherwise pass every threshold).
    """
    cfg = cfg or SuccessConfig()
    _check_aligned(ref, sim)
    if not all(np.all(np.isfinite(a)) for a in (sim.root_pos, sim.body_rot, sim.body_pos)):
        return False, FAILURE_NON_FINITE

    pelvis_bad = np.abs(ref.root_pos[:, 2] - sim.root_pos[:, 2]) > cfg.pelvis_z_threshold

    trunk = skel.body_index(cfg.trunk_body)
    g_ref = _gravity_in_body(ref.body_rot[:, trunk])
    g_sim = _gravity_in_body(sim.body_rot[:, trunk])
    trunk_bad = np.linalg.norm(g_ref - g_sim, axis=-1) > cfg.trunk_gravity_threshold

    if cfg.ee_bodies is None:
        ee_idx = list(skel.foot_body_indices) + list(skel.hand_body_indices)
    else:
        ee_idx = [skel.body_index(n) for n in cfg.ee_bodies]
    ee_err = np.abs(ref.body_pos[:, ee_idx, 2] - sim.body_pos[:, ee_idx, 2])
    ee_bad = (ee_err > cfg.ee_z_threshold).any(axis=1)

    any_bad = pelvis_bad | trunk_bad | ee_bad
    if not np.any(any_bad):
        return True, FAILURE_NONE
    first = int(np.argmax(any_bad))
    if pelvis_bad[first]:
        return False, FAILURE_PELVIS_Z
    if trunk_bad[first]:
        return False, FAILURE_TRUNK_GRAVITY
    return False, FAILURE_EE_Z


def evaluate(
    ref: MotionSequence,
    sim: MotionSequence,
    skel: Skeleton,
    ground: GroundModel | None = None,
    success_cfg: SuccessConfig | None = None,
    foot_contacts: np.ndarray | None = None,
) -> MetricReport:
    """Full metric report: plausibility of `sim`, tracking of `sim` vs `ref`."""
    from .features import detect_contacts

    ground = ground or GroundModel()
    if foot_contacts is None:
        foot_contacts, _ = detect_contacts(sim, skel)
    ok, reason = success(ref, sim, skel, success_cfg)
    return MetricReport(
        penetration_mm=penetration(sim, ground),
        floating_mm=floating(sim, ground, foot_contacts, skel),
        skating_ratio=skating(sim, foot_contacts, skel, ground),
        mpjpe_m=mpjpe(ref, sim),
        mpjae_rad=mpjae(ref, sim),
        mpjve_rad_s=mpjve(ref, sim),
        success=ok,
        failure_reason=reason,
    )
