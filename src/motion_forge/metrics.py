"""Physical-plausibility and tracking metrics between motion clips.

Plausibility metrics (penetration, floating, skating) are properties of a
single clip against a flat ground plane.  Tracking metrics (mpjpe, mpjae,
mpjve, success) compare an executed clip against its reference frame by
frame: a pair that `motion.check_aligned` refuses raises AlignmentError,
and mpjpe takes their body positions.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionMismatchError, check_fields, check_finite
from .features import detect_contacts
from .motion import FIELDS, MotionSequence, Skeleton, check_aligned, check_body_indices
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
        check_fields(self, positive=("contact_height_eps", "skate_disp_threshold"),
                     signed=("ground_z",))


@dataclass(frozen=True)
class SuccessConfig:
    """Terminal-failure thresholds for the episode success predicate."""

    pelvis_z_threshold: float = 0.3        # m
    trunk_gravity_threshold: float = 0.8   # norm of gravity-direction mismatch
    ee_z_threshold: float = 0.3            # m
    trunk_body: str = "torso_link"
    # end effectors default to feet plus hands
    ee_bodies: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if self.ee_bodies is not None and not self.ee_bodies:
            raise ConfigError(f"ee_bodies: expected at least one body name, got {self.ee_bodies!r}")


@dataclass
class MetricReport:
    """Metric values are None (JSON null) for a clip that fails as non_finite."""

    penetration_mm: float | None
    floating_mm: float | None
    skating_ratio: float | None
    mpjpe_m: float | None
    mpjae_rad: float | None
    mpjve_rad_s: float | None
    success: bool
    failure_reason: str = FAILURE_NONE

    def to_dict(self) -> dict:
        return asdict(self)


def penetration(seq: MotionSequence, ground: GroundModel) -> float:
    """Mean over frames of the deepest below-ground excursion, in mm."""
    lowest = seq.body_pos[..., 2].min(axis=1)
    depth = np.maximum(0.0, ground.ground_z - lowest)
    return float(depth.mean() * MM_PER_M)


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
    feet = skel.foot_body_indices
    foot_z = seq.body_pos[:, feet, 2]
    # the Skeleton holds every foot to a side, with its mirror partner
    left = [i for i in feet if skel.body_names[i].startswith("left_")]
    right = [i for i in feet if skel.body_names[i].startswith("right_")]
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
    xy = seq.body_pos[:, skel.foot_body_indices, :2]
    disp = np.linalg.norm(xy[1:] - xy[:-1], axis=-1)             # (T-1, 4)
    slipping = planted & (disp > ground.skate_disp_threshold)
    frame_planted = planted.any(axis=1)
    frame_slipping = slipping.any(axis=1)
    return float(frame_slipping.sum() / frame_planted.sum())


def mpjpe(ref_pos, sim_pos, body_indices=None) -> float:
    """Mean per-body position error in meters between two (T, B, 3) arrays,
    such as two clips' `body_pos`: any other rank or last axis (a clip among
    them) raises DimensionMismatchError, two different shapes AlignmentError.
    `body_indices`, if given, must name at least one of the B bodies and
    none twice (`motion.check_body_indices`), else ConfigError.
    """
    ref_pos, sim_pos = np.asarray(ref_pos), np.asarray(sim_pos)
    for pos in (ref_pos, sim_pos):
        if pos.ndim != 3 or pos.shape[-1] != 3:
            raise DimensionMismatchError(f"expected (T, B, 3) body positions, got {pos.shape}")
    if ref_pos.shape != sim_pos.shape:
        raise AlignmentError(f"body positions: shapes differ: {ref_pos.shape} vs {sim_pos.shape}")
    idx = slice(None)
    if body_indices is not None:
        idx = check_body_indices("body_indices", body_indices)
        if idx.max() >= ref_pos.shape[1]:
            raise ConfigError(f"body_indices: expected body indices in 0..{ref_pos.shape[1] - 1}, "
                              f"got {body_indices!r}")
    sq = ref_pos[:, idx] - sim_pos[:, idx]
    sq *= sq
    # np.linalg.norm's arithmetic: its add.reduce over three terms sums left
    # to right; written out, it skips the conj copy and a loop call per row
    return float(np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2]).mean())


def mpjae(ref: MotionSequence, sim: MotionSequence) -> float:
    """Mean per-joint angle error in radians, wrap-aware within +-pi."""
    check_aligned(ref, sim)
    diff = wrap_angle(ref.joint_pos - sim.joint_pos)
    return float(np.abs(diff).mean())


def mpjve(ref: MotionSequence, sim: MotionSequence) -> float:
    """Mean per-joint velocity error in rad/s."""
    check_aligned(ref, sim)
    return float(np.abs(ref.joint_vel - sim.joint_vel).mean())


def _gravity_in_body(rot: np.ndarray) -> np.ndarray:
    # gravity direction expressed in the body frame: R^T (0, 0, -1)
    return -rot[..., 2, :]


def success(
    ref: MotionSequence,
    sim: MotionSequence,
    skel: Skeleton,
    cfg: SuccessConfig = SuccessConfig(),
) -> tuple[bool, str]:
    """Episode success: no frame crosses a terminal-failure threshold.

    Returns (False, reason) for the first violating frame; the reason is the
    first violated check in the order pelvis_z, trunk_gravity, ee_z.  Every
    `FIELDS` array of both clips is checked before any threshold is looked
    at (NaN compares False, so it would otherwise pass every threshold): a
    NaN or infinite reference value raises NonFiniteError naming the field,
    and one in the sim fails as non_finite.
    """
    check_aligned(ref, sim)
    sim_finite = True
    for name in FIELDS:
        check_finite(getattr(ref, name), f"reference {name!r}")
        sim_finite = sim_finite and np.isfinite(getattr(sim, name)).all()
    if not sim_finite:
        return False, FAILURE_NON_FINITE

    pelvis_bad = np.abs(ref.root_pos[:, 2] - sim.root_pos[:, 2]) > cfg.pelvis_z_threshold

    trunk = skel.body_index(cfg.trunk_body)
    g_ref = _gravity_in_body(ref.body_rot[:, trunk])
    g_sim = _gravity_in_body(sim.body_rot[:, trunk])
    trunk_bad = np.linalg.norm(g_ref - g_sim, axis=-1) > cfg.trunk_gravity_threshold

    if cfg.ee_bodies is None:
        ee_idx = np.concatenate([skel.foot_body_indices, skel.hand_body_indices])
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
    ground: GroundModel = GroundModel(),
    success_cfg: SuccessConfig = SuccessConfig(),
) -> MetricReport:
    """Full metric report: plausibility of `sim`, tracking of `sim` vs `ref`.

    A clip that fails as non_finite is not measured: its six metric values
    are None, since NaN frames would make them NaN or skew them unseen.
    """
    ok, reason = success(ref, sim, skel, success_cfg)
    if reason == FAILURE_NON_FINITE:
        return MetricReport(None, None, None, None, None, None, success=ok, failure_reason=reason)
    foot_contacts, _ = detect_contacts(sim, skel)
    return MetricReport(
        penetration_mm=penetration(sim, ground),
        floating_mm=floating(sim, ground, foot_contacts, skel),
        skating_ratio=skating(sim, foot_contacts, skel, ground),
        mpjpe_m=mpjpe(ref.body_pos, sim.body_pos),
        mpjae_rad=mpjae(ref, sim),
        mpjve_rad_s=mpjve(ref, sim),
        success=ok,
        failure_reason=reason,
    )
