"""Receding-horizon generate/simulate/select loop.

Starting from a physically trusted prefix (feature frames), each round asks
the generator for a one-second continuation conditioned on the current
prefix and the terminal target, replays the *entire* concatenated window
through the tracker, and accepts the continuation only when the tracked
motion stays within the mean per-joint position tolerance.  Rejected
segments are resampled with a fresh random stream (one child generator per
attempt) up to the resample budget; acceptance appends the segment and the
loop re-conditions on the grown prefix until the horizon is reached.

Trackers and generators are plug-ins.  The reference tracker lifts the
window by a z offset from a set frame onward and adds seeded noise; with
neither it is the identity tracker (perfect execution).  The reference
generator eases from the last prefix frame toward the target pose with
seeded low-amplitude noise; real runs plug a diffusion sampler with the
same callback signature:

    generator(prefix: (P, 262), target: (262,), condition, rng) -> (S, 262)
    tracker(reference: MotionSequence) -> MotionSequence, same frame count and fps

The tracker gets the whole window as a fresh MotionSequence it may mutate.
Non-finite generator frames or tracked positions raise NonFiniteError, and
a tracker output that `motion.check_aligned` refuses AlignmentError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, check_fields, check_finite
from .features import (
    FEATURE_DIM,
    FOOT_CONTACT,
    HAND_CONTACT,
    RIC_POS,
    ROOT_ANG_VEL,
    ROT6D,
    RootState,
    decode_root_trajectory,
    project_valid_rot6d,
    validate_features,
)
from .metrics import mpjpe
from .motion import (
    NUM_BODIES,
    NUM_JOINTS,
    MotionSequence,
    Skeleton,
    check_aligned,
    check_body_indices,
    finite_difference,
)
from .rotations import quat_from_yaw, rot_z, sixd_to_rot

Generator = Callable[[np.ndarray, np.ndarray, object, np.random.Generator], np.ndarray]
Tracker = Callable[[MotionSequence], MotionSequence]

TERMINATION_COMPLETED = "completed"
TERMINATION_EXHAUSTED = "exhausted_resamples"


def features_to_motion(
    frames: np.ndarray, fps: float, skel: Skeleton, start: RootState = (0.0, 0.0, 0.0)
) -> MotionSequence:
    """Rebuild a kinematic MotionSequence from feature frames.

    The root trajectory integrates the velocity blocks from the root state
    `start` of frame 0, body rotations come from the 6D blocks, and the
    informative bodies are placed from their root-relative positions.
    Bodies outside the informative set collapse to the root (features do not
    carry them), and joint angles are zero: the result is meant for tracker
    replay and position metrics, not joint-space analysis.  Velocities are
    finite differences.  Every array but `body_lin_vel` is computed frame by
    frame, so its rows do not depend on where the decode starts.
    """
    frames = validate_features(frames)
    t = frames.shape[0]
    pos, yaw = decode_root_trajectory(frames, fps, start)
    heading = rot_z(yaw)
    body_pos = np.repeat(pos[:, None, :], NUM_BODIES, axis=1)
    ric = frames[:, RIC_POS].reshape(t, 12, 3)
    world = np.einsum("tij,tbj->tbi", heading, ric) + pos[:, None, :]
    body_pos[:, skel.ric_body_indices] = world

    body_rot = np.repeat(heading[:, None], NUM_BODIES, axis=1)
    rots = sixd_to_rot(frames[:, ROT6D].reshape(t, 29, 6))
    body_rot[:, skel.rot6d_body_indices] = rots

    body_ang_vel = np.zeros((t, NUM_BODIES, 3))
    body_ang_vel[:, 0] = np.einsum("tij,tj->ti", heading, frames[:, ROOT_ANG_VEL])

    return _motion(
        fps,
        root_pos=pos,
        root_quat=quat_from_yaw(yaw),
        body_pos=body_pos,
        body_rot=body_rot,
        body_lin_vel=finite_difference(body_pos, fps),
        body_ang_vel=body_ang_vel,
    )


def _motion(fps: float, **decoded: np.ndarray) -> MotionSequence:
    """A decoded MotionSequence: the given arrays and zero joints."""
    t = decoded["root_pos"].shape[0]
    return MotionSequence(
        fps=fps,
        joint_pos=np.zeros((t, NUM_JOINTS)),
        joint_vel=np.zeros((t, NUM_JOINTS)),
        **decoded,
    )


# --------------------------------------------------------------------------
# Reference trackers


def identity_tracker(reference: MotionSequence) -> MotionSequence:
    return reference


@dataclass(frozen=True)
class TrackerConfig:
    noise_scale: float = 0.0
    offset: float = 0.0             # m, z lift from row offset_from_frame on
    offset_from_frame: int = 0

    def __post_init__(self):
        check_fields(self, signed=("offset",))


def make_perturbation_tracker(seed, cfg: TrackerConfig = TrackerConfig()) -> Tracker:
    """Tracker lifting `body_pos` and `root_pos` by `cfg.offset` in z from
    row `cfg.offset_from_frame` on, then adding seeded noise of
    `cfg.noise_scale` to `body_pos`; with neither it is `identity_tracker`.
    `seed` is anything `numpy.random.default_rng` takes."""
    if not cfg.noise_scale and not cfg.offset:
        return identity_tracker
    rng = np.random.default_rng(seed)

    def tracker(reference: MotionSequence) -> MotionSequence:
        out = reference.copy()
        if cfg.offset:
            out.body_pos[cfg.offset_from_frame:, :, 2] += cfg.offset
            out.root_pos[cfg.offset_from_frame:, 2] += cfg.offset
        if cfg.noise_scale:
            out.body_pos[:] += rng.normal(0.0, cfg.noise_scale, out.body_pos.shape)
        return out

    return tracker


# --------------------------------------------------------------------------
# Validation and the loop


@dataclass(frozen=True)
class PrefixLoopConfig:
    fps: float = 30.0
    mpjpe_tolerance: float = 0.15    # m
    max_resamples: int = 4
    segment_seconds: float = 1.0
    horizon_seconds: float = 10.0
    seed: int = 0
    tracked_bodies: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.tracked_bodies is not None:
            check_body_indices("tracked_bodies", self.tracked_bodies)
        check_fields(self, positive=("fps", "mpjpe_tolerance", "max_resamples",
                                     "segment_seconds", "horizon_seconds"))
        segment = float(self.segment_seconds)   # int * int could pass float64's range
        if not (math.isfinite(self.fps * segment) and math.isfinite(self.horizon_seconds / segment)):
            raise ConfigError("PrefixLoopConfig: fps * segment_seconds and "
                              "horizon_seconds / segment_seconds must be finite")
        if self.segment_frames < 1 or self.num_segments < 1:
            raise ConfigError("PrefixLoopConfig: the horizon needs a segment of at least one frame")

    @property
    def segment_frames(self) -> int:
        return int(round(self.fps * self.segment_seconds))

    @property
    def num_segments(self) -> int:
        return int(round(self.horizon_seconds / self.segment_seconds))


@dataclass
class AttemptRecord:
    mpjpe: float
    accepted: bool


@dataclass
class SegmentTrace:
    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].accepted


@dataclass
class LoopTrace:
    segments: list[SegmentTrace] = field(default_factory=list)
    termination: str = TERMINATION_COMPLETED
    features: np.ndarray | None = None

    @property
    def total_attempts(self) -> int:
        return sum(len(s.attempts) for s in self.segments)

    def to_dict(self) -> dict:
        return {
            "termination": self.termination,
            "total_attempts": self.total_attempts,
            "segments": [
                {
                    "attempts": [
                        {"mpjpe": a.mpjpe, "accepted": a.accepted} for a in s.attempts
                    ],
                    "accepted": s.accepted,
                }
                for s in self.segments
            ],
        }


def validate_segment(
    reference: MotionSequence,
    tracker: Tracker,
    tolerance: float,
    tracked_bodies: tuple[int, ...] | None = None,
) -> tuple[bool, float]:
    """Replay a reference through the tracker; accept iff mpjpe <= tolerance.

    The error is measured against a copy of the positions the tracker was
    given, so a tracker that mutates its input cannot shrink it.  An output
    that `motion.check_aligned` refuses raises AlignmentError.
    """
    given = reference.body_pos.copy()
    executed = tracker(reference)
    check_aligned(reference, executed)
    check_finite(executed.body_pos, "tracker output 'body_pos'")
    check_finite(executed.root_pos, "tracker output 'root_pos'")
    err = mpjpe(given, executed.body_pos, tracked_bodies)
    return err <= tolerance, err


# Decoded arrays stored per frame of the horizon (joints are zero, so not
# stored).
_CACHED = ("root_pos", "root_quat", "body_pos", "body_rot", "body_ang_vel", "body_lin_vel")


def _end_state(frames: np.ndarray, fps: float, start: RootState = (0.0, 0.0, 0.0)) -> RootState:
    """Root state of the last frame, exactly as a full decode reaches it."""
    pos, yaw = decode_root_trajectory(frames, fps, start)
    return pos[-1, 0], pos[-1, 1], yaw[-1]


def run_prefix_loop(
    initial_prefix: np.ndarray,
    target: np.ndarray,
    generator: Generator,
    tracker: Tracker,
    cfg: PrefixLoopConfig,
    skel: Skeleton,
    condition: object = None,
) -> tuple[MotionSequence, LoopTrace]:
    """Grow a trusted prefix to the full horizon via validated 1 s segments.

    Every attempt generates a candidate continuation, validates the whole
    concatenated window, and either appends it or resamples with a fresh
    child random stream.  The input prefix rows are carried through
    bit-exactly.  Stops early with termination "exhausted_resamples" when a
    segment uses up its attempts.

    One horizon store holds the decoded rows.  Only the candidate is decoded
    per attempt: the last accepted frame plus the candidate, from the stored
    root state of that frame, into the rows just past the accepted ones.
    Velocities from the last accepted frame on come from `finite_difference`.
    The window handed to the tracker is one copy of the store, equal bit for
    bit to decoding the whole window, and the tracker may mutate it.  The
    generator sees the accepted frames as a read-only view, so they cannot
    drift from their stored decode.
    """
    initial_prefix = validate_features(initial_prefix)
    rows = initial_prefix.shape[0]
    if rows < 2:
        raise ConfigError("the initial prefix needs at least 2 frames")
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if target.shape[0] != FEATURE_DIM:
        raise ConfigError(f"target pose must have {FEATURE_DIM} dims")
    root = np.random.default_rng(cfg.seed)
    trace = LoopTrace()
    # The accepted frames, the decoded rows (accepted ones, then the current
    # candidate's) and the root state of the last accepted frame.  The
    # buffers are allocated once for the horizon, so no long-lived arrays
    # pile up between the large per-attempt ones.
    horizon = rows + cfg.num_segments * cfg.segment_frames
    try:
        features = np.empty((horizon, FEATURE_DIM))
    except (ValueError, MemoryError) as exc:   # numpy refuses the shape before it allocates
        raise ConfigError(f"PrefixLoopConfig: horizon_seconds={cfg.horizon_seconds!r} at "
                          f"fps={cfg.fps!r} is more frames than can be allocated") from exc
    features[:rows] = initial_prefix
    decoded = features_to_motion(initial_prefix, cfg.fps, skel)
    cache = {name: np.empty((horizon,) + getattr(decoded, name).shape[1:]) for name in _CACHED}
    for name in _CACHED:
        cache[name][:rows] = getattr(decoded, name)
    pos, vel = cache["body_pos"], cache["body_lin_vel"]
    start = _end_state(initial_prefix, cfg.fps)

    for _segment in range(cfg.num_segments):
        seg_trace = SegmentTrace()
        trace.segments.append(seg_trace)
        prefix = features[:rows]
        prefix.flags.writeable = False
        for _attempt in range(cfg.max_resamples):
            attempt_rng = root.spawn(1)[0]
            candidate = check_finite(generator(prefix, target, condition, attempt_rng),
                                     "generator candidate")
            if candidate.shape != (cfg.segment_frames, FEATURE_DIM):
                raise ConfigError(
                    f"generator must return ({cfg.segment_frames}, {FEATURE_DIM}) frames"
                )
            segment = np.vstack([prefix[-1:], candidate])
            decoded = features_to_motion(segment, cfg.fps, skel, start)
            end = rows + cfg.segment_frames
            for name in _CACHED:
                cache[name][rows:end] = getattr(decoded, name)[1:]
            vel[rows - 1:end] = finite_difference(pos[rows - 2:end], cfg.fps)[1:]
            reference = _motion(cfg.fps, **{name: cache[name][:end].copy() for name in _CACHED})
            ok, err = validate_segment(
                reference, tracker, cfg.mpjpe_tolerance, cfg.tracked_bodies
            )
            seg_trace.attempts.append(AttemptRecord(mpjpe=err, accepted=ok))
            if ok:
                features[rows:end] = candidate
                rows = end
                start = _end_state(segment, cfg.fps, start)
                break
        if not seg_trace.accepted:
            trace.termination = TERMINATION_EXHAUSTED
            break

    # A rejected attempt leaves a central difference in the last accepted row.
    vel[rows - 1] = finite_difference(pos[rows - 2:rows], cfg.fps)[1]
    trace.features = features[:rows].copy()
    return _motion(cfg.fps, **{name: cache[name][:rows] for name in _CACHED}), trace


# --------------------------------------------------------------------------
# Reference generator


def smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


@dataclass(frozen=True)
class GeneratorConfig:
    noise_scale: float = 0.005

    def __post_init__(self):
        check_fields(self)


def make_interpolation_generator(segment_frames: int,
                                 cfg: GeneratorConfig = GeneratorConfig()) -> Generator:
    """Cubic-ease interpolation from the prefix end toward the target pose.

    Seeded noise of `cfg.noise_scale` perturbs the continuous blocks; 6D
    rotation blocks are re-orthonormalized afterward and contact bits snap
    back to {0, 1}, so the output always satisfies the feature-frame
    invariants.
    """

    def generator(prefix, target, condition, rng) -> np.ndarray:
        prefix = validate_features(prefix)
        last = prefix[-1]
        target_vec = np.asarray(target, dtype=np.float64).reshape(-1)
        u = np.arange(1, segment_frames + 1) / segment_frames
        ease = smoothstep(u)[:, None]
        frames = last + ease * (target_vec - last)
        if cfg.noise_scale > 0.0:
            noise = rng.normal(0.0, cfg.noise_scale, frames.shape)
            # fade noise out toward the endpoint so the target is honored
            frames = frames + noise * (1.0 - ease)
        frames[:, FOOT_CONTACT] = (frames[:, FOOT_CONTACT] > 0.5).astype(float)
        frames[:, HAND_CONTACT] = (frames[:, HAND_CONTACT] > 0.5).astype(float)
        return project_valid_rot6d(frames)

    return generator
