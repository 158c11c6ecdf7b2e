"""The four benchmark workloads: seeded inputs, one timed pass, checks.

Each workload builds its inputs from the seed alone (the library only ever
sees the generated arrays and files), runs one pass of a fixed number of
ops, and checks the pass's outputs against properties that hold for any
correct implementation plus, for seeds in `reference.json`, the stored
counts and float summaries.

A pass returns its own timed wall time, so untimed per-pass preparation
(fresh mutable state) stays out of the figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple
from statistics import median
from time import perf_counter

import numpy as np

from motion_forge import curriculum as C
from motion_forge import features as F
from motion_forge import generation as G
from motion_forge import metrics as M
from motion_forge import motion as MO
from motion_forge import motion_io as IO
from motion_forge import prefix_loop as PL
from motion_forge import rewards as R
from motion_forge import rotations as ROT
from motion_forge import router as RT

import layers

REFERENCE_PATH = Path(__file__).with_name("reference.json")
FPS = 30.0


@dataclass
class PassResult:
    seconds: float                 # timed wall time of the pass
    ops: int                       # fixed op count of the pass
    latencies: list[float]         # seconds per op, one entry per timed unit
    outputs: dict                  # layer counts read off the outputs
    summary: dict                  # counts and floats compared with the reference
    digest: str                    # sha256 over the pass's outputs
    failures: list[str] = field(default_factory=list)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else str(p).encode())
    return h.hexdigest()


def _no_hooks(key, fn):
    return fn


# ---------------------------------------------------------------------------
# Synthetic walking clips


_CENTER = {"pelvis": (0.0, 0.0, 0.0), "waist_yaw_link": (0.0, 0.0, 0.11),
           "waist_roll_link": (0.0, 0.0, 0.16), "torso_link": (0.0, 0.0, 0.27)}
_SIDE = {  # standing pose, left side; the right side mirrors y
    "shoulder_pitch_link": (0.0, 0.16, 0.36), "shoulder_roll_link": (0.0, 0.19, 0.34),
    "shoulder_yaw_link": (0.0, 0.21, 0.26), "elbow_link": (0.01, 0.23, 0.13),
    "wrist_roll_link": (0.03, 0.24, 0.01), "wrist_pitch_link": (0.04, 0.24, -0.05),
    "palm_link": (0.06, 0.25, -0.11), "hip_pitch_link": (0.0, 0.08, -0.06),
    "hip_roll_link": (0.0, 0.09, -0.11), "hip_yaw_link": (0.0, 0.09, -0.21),
    "knee_link": (0.01, 0.09, -0.41), "ankle_pitch_link": (0.0, 0.09, -0.765),
    "ankle_roll_link": (0.02, 0.09, -0.775),
}
ROOT_HEIGHT = 0.8


def _body_offsets(skel) -> np.ndarray:
    out = np.zeros((MO.NUM_BODIES, 3))
    for i, name in enumerate(skel.body_names):
        side, _, rest = name.partition("_")
        if name in _CENTER:
            out[i] = _CENTER[name]
        elif side == "left":
            out[i] = _SIDE[rest]
        else:
            dx, dy, dz = _SIDE[rest]
            out[i] = (dx, -dy, dz)
    return out


def walk_clip(skel, rng: np.random.Generator, num_frames: int) -> MO.MotionSequence:
    """Rigid stop-and-go walk on an arc: speed pulses with the gait period,
    so the feet plant (contacts fire) near each pulse's zero."""
    t = np.arange(num_frames) / FPS
    top_speed = rng.uniform(0.6, 1.4)
    yaw_rate = rng.uniform(-0.4, 0.4)
    period = rng.uniform(0.8, 1.4)
    yaw = rng.uniform(-np.pi, np.pi) + yaw_rate * t
    speed = top_speed * (0.5 - 0.5 * np.cos(2.0 * np.pi * t / period))
    vel = np.stack([speed * np.cos(yaw), speed * np.sin(yaw), np.zeros(num_frames)], axis=-1)
    pos = np.empty((num_frames, 3))
    pos[0] = (*rng.uniform(-2.0, 2.0, 2), ROOT_HEIGHT)
    pos[1:] = pos[0] + np.cumsum(vel[:-1], axis=0) / FPS
    heading = ROT.rot_z(yaw)
    offsets = np.einsum("tij,bj->tbi", heading, _body_offsets(skel))
    omega = np.zeros((num_frames, 3))
    omega[:, 2] = yaw_rate
    phase = rng.uniform(0.0, 2.0 * np.pi, MO.NUM_JOINTS)
    amp = rng.uniform(0.0, 0.3, MO.NUM_JOINTS)
    w = 2.0 * np.pi / period
    return MO.MotionSequence(
        fps=FPS,
        joint_pos=amp * np.sin(w * t[:, None] + phase),
        joint_vel=amp * w * np.cos(w * t[:, None] + phase),
        root_pos=pos,
        root_quat=ROT.quat_from_yaw(yaw),
        body_pos=pos[:, None, :] + offsets,
        body_rot=np.repeat(heading[:, None], MO.NUM_BODIES, axis=1),
        body_lin_vel=vel[:, None, :] + np.cross(omega[:, None, :], offsets),
        body_ang_vel=np.repeat(omega[:, None, :], MO.NUM_BODIES, axis=1),
    )


def encoded_walk(skel, rng, num_frames: int) -> np.ndarray:
    seq = F.canonicalize_heading(walk_clip(skel, rng, num_frames))
    return F.encode_features(seq, skel)


# ---------------------------------------------------------------------------
# prefix-long: the receding-horizon loop over a long horizon


PREFIX_TOLERANCE = 0.15
PREFIX_REJECT_RATE = 0.25
PREFIX_REJECT_OFFSET = 1.0       # m, far beyond the tolerance
PREFIX_TRACK_NOISE = 0.01        # m per coordinate, mpjpe ~ 0.016 m
PREFIX_MAX_RESAMPLES = 16        # exhaustion needs 16 rejections in a row


class PrefixLong:
    host_ref = "mixed"
    name = "prefix-long"
    op = "segment attempt"

    def __init__(self, seed: int, horizon_s: float = 60.0):
        self.seed = seed
        self.skel = MO.default_skeleton()
        rng = np.random.default_rng([seed, 0])
        self.prefix = encoded_walk(self.skel, rng, int(FPS))
        self.target = encoded_walk(self.skel, rng, 8)[-1]
        self.cfg = PL.PrefixLoopConfig(
            fps=FPS, mpjpe_tolerance=PREFIX_TOLERANCE, max_resamples=PREFIX_MAX_RESAMPLES,
            segment_seconds=1.0, horizon_seconds=horizon_s, seed=seed,
        )
        self.verdicts, self.exhausts = self._reference_verdicts()

    @property
    def ops_per_pass(self) -> int:
        return len(self.verdicts)

    def _reject_stream(self):
        return np.random.default_rng([self.seed, 1])

    def _reference_verdicts(self) -> tuple[list[bool], bool]:
        """Accept/reject of every attempt from the tracker's stream alone,
        and whether some segment exhausts its resamples."""
        stream = self._reject_stream()
        verdicts = []
        for _ in range(self.cfg.num_segments):
            for _ in range(self.cfg.max_resamples):
                ok = not stream.random() < PREFIX_REJECT_RATE
                verdicts.append(ok)
                if ok:
                    break
            else:
                return verdicts, True
        return verdicts, False

    def make_tracker(self):
        """Stand-in tracker: seeded noise on every body, and a seeded ~25%
        of calls lifted far off the reference whatever the window length."""
        rejects = self._reject_stream()
        noise = np.random.default_rng([self.seed, 2])

        def tracker(reference):
            out = reference.copy()
            out.body_pos[:] += noise.normal(0.0, PREFIX_TRACK_NOISE, out.body_pos.shape)
            if rejects.random() < PREFIX_REJECT_RATE:
                out.body_pos[..., 2] += PREFIX_REJECT_OFFSET
                out.root_pos[..., 2] += PREFIX_REJECT_OFFSET
            return out

        return tracker

    def warm_up(self) -> None:
        cfg = dataclasses.replace(self.cfg, horizon_seconds=2.0)
        gen = PL.make_interpolation_generator(cfg.segment_frames)
        PL.run_prefix_loop(self.prefix, self.target, gen, self.make_tracker(), cfg, self.skel)

    def run_pass(self, hooks=_no_hooks) -> PassResult:
        library_gen = PL.make_interpolation_generator(self.cfg.segment_frames)
        entries: list[float] = []

        def generator(prefix, target, condition, rng):
            entries.append(perf_counter())
            return library_gen(prefix, target, condition, rng)

        gen = hooks(layers.PLUGIN_GENERATOR, generator)
        tracker = hooks(layers.PLUGIN_TRACKER, self.make_tracker())
        start = perf_counter()
        motion, trace = PL.run_prefix_loop(self.prefix, self.target, gen, tracker, self.cfg, self.skel)
        end = perf_counter()
        marks = entries + [end]
        attempts = [a for s in trace.segments for a in s.attempts]
        feats = trace.features
        accepted = (feats.shape[0] - self.prefix.shape[0]) // self.cfg.segment_frames
        result = PassResult(
            seconds=end - start,
            ops=len(entries),
            latencies=[b - a for a, b in zip(marks[:-1], marks[1:])],
            outputs={"prefix_accepted": accepted, "prefix_output_frames": feats.shape[0]},
            summary={
                "attempts": len(entries),
                "termination": trace.termination,
                "features_sum": float(feats.sum()),
                "mean_accepted_mpjpe": float(np.mean([a.mpjpe for a in attempts if a.accepted])),
                "motion_body_pos_sum": float(motion.body_pos.sum()),
                "motion_body_lin_vel_sum": float(motion.body_lin_vel.sum()),
            },
            digest=_sha(feats, motion.body_pos, motion.body_lin_vel, motion.body_rot,
                        [(a.mpjpe, a.accepted) for a in attempts]),
        )
        result.failures = self.check(motion, trace, attempts, len(entries))
        return result

    def check(self, motion, trace, attempts, generator_calls) -> list[str]:
        fail = []
        feats = trace.features
        p, s = self.prefix.shape[0], self.cfg.segment_frames
        if self.exhausts:
            return ["the tracker stream exhausts a segment's resamples for this seed"]
        if trace.termination != PL.TERMINATION_COMPLETED:
            fail.append(f"loop ended with {trace.termination}")
        if generator_calls != len(self.verdicts) or len(attempts) != len(self.verdicts):
            fail.append(f"{generator_calls} attempts, the tracker stream implies {len(self.verdicts)}")
        if feats.shape != (p + s * self.cfg.num_segments, F.FEATURE_DIM):
            fail.append(f"output features have shape {feats.shape}")
            return fail
        if not np.array_equal(feats[:p], self.prefix):
            fail.append("prefix rows are not carried bit-exactly")
        if [a.accepted for a in attempts] != self.verdicts:
            fail.append("accept/reject verdicts differ from the tracker stream")
        if any(a.accepted and not a.mpjpe <= PREFIX_TOLERANCE for a in attempts):
            fail.append("an accepted attempt exceeds the mpjpe tolerance")
        # the reference generator eases every segment onto the target pose
        ends = feats[p + s - 1::s]
        if not np.allclose(ends, self.target, rtol=0.0, atol=1e-9):
            fail.append("segment end frames miss the target pose (atol 1e-9)")
        if not np.allclose(motion.root_pos, euler_root_positions(feats), rtol=0.0, atol=1e-9):
            fail.append("decoded root trajectory differs from Euler integration (atol 1e-9)")
        return fail


def euler_root_positions(frames: np.ndarray) -> np.ndarray:
    """Reference decode of the root: explicit Euler over the velocity blocks."""
    dt = 1.0 / FPS
    pos = np.zeros((frames.shape[0], 3))
    pos[:, 2] = frames[:, 6]
    x = y = yaw = 0.0
    for i in range(frames.shape[0] - 1):
        vx, vy = frames[i, 3], frames[i, 4]
        c, s = math.cos(yaw), math.sin(yaw)
        x, y, yaw = x + dt * (c * vx - s * vy), y + dt * (s * vx + c * vy), yaw + dt * frames[i, 2]
        pos[i + 1, :2] = x, y
    return pos


# ---------------------------------------------------------------------------
# curriculum-2k: the scheduler alone


CURRICULUM_FILES = 2000
CURRICULUM_LEVELS = 10


class Curriculum2k:
    host_ref = "mixed"
    name = "curriculum-2k"
    op = "scheduler iteration"

    def __init__(self, seed: int, files: int = CURRICULUM_FILES, iters: int = 3000):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        per_level = files // CURRICULUM_LEVELS
        self.files = [
            C.SyntheticFile(
                file_id=f"f{lv:02d}_{i:04d}",
                level=lv,
                start_error=float(rng.uniform(0.15, 0.5)),
                error_floor=float(rng.uniform(0.01, 0.14)),
                improve_rate=float(10.0 ** rng.uniform(-3.5, -2.0)),
                success_scale=float(rng.uniform(0.06, 0.2)),
            )
            for lv in range(1, CURRICULUM_LEVELS + 1)
            for i in range(per_level)
        ]
        # thresholds scaled to desk size so freezes, drops and promotions
        # all fire within a few thousand iterations
        self.cfg = C.SamplerConfig(
            n_min=200, check_interval=100, freeze_duration=300, success_warmup_iters=600,
            intro_base_iters=300, intro_extra_iters=200, promote_min_iters=300,
        )
        self.sim = C.SimConfig(total_iters=iters, rollouts_per_iter=64,
                               eval_interval=100, trace_interval=100, seed=seed)

    @property
    def ops_per_pass(self) -> int:
        return self.sim.total_iters

    def warm_up(self) -> None:
        sim = dataclasses.replace(self.sim, total_iters=200)
        C.run_curriculum_sim(self.files, self.cfg, sim, C.default_error_process)

    def run_pass(self, hooks=_no_hooks) -> PassResult:
        marks: list[float] = []
        per_iter = self.sim.rollouts_per_iter
        drawn = [0]

        def error_process(spec, exposures, rollouts, rng):
            out = C.default_error_process(spec, exposures, rollouts, rng)
            # one iteration's draws sum to exactly rollouts_per_iter
            drawn[0] += rollouts
            if drawn[0] % per_iter == 0:
                marks.append(perf_counter())
            return out

        start = perf_counter()
        trace = C.run_curriculum_sim(self.files, self.cfg, self.sim, error_process)
        end = perf_counter()
        bounds = [start] + marks
        kinds = [e.kind for e in trace.events]
        counts = {k: kinds.count(k) for k in ("freeze", "drop", "promote")}
        csv = trace.to_csv()
        result = PassResult(
            seconds=end - start,
            ops=self.sim.total_iters,
            latencies=[b - a for a, b in zip(bounds[:-1], bounds[1:])],
            outputs={
                "curriculum_freezes": counts["freeze"],
                "curriculum_drops": counts["drop"],
                "curriculum_promotions": counts["promote"],
            },
            summary={
                "freezes": counts["freeze"], "drops": counts["drop"],
                "promotions": counts["promote"], "final_level": trace.final_level,
                "mass_by_level": [
                    float(sum(r.level_mass.get(lv, 0.0) for r in trace.rows))
                    for lv in range(1, C.MAX_TRAINABLE_LEVEL + 1)
                ],
            },
            digest=_sha(csv),
        )
        result.failures = self.check(trace)
        return result

    def check(self, trace) -> list[str]:
        fail = []
        expected_rows = self.sim.total_iters // self.sim.trace_interval
        if len(trace.rows) != expected_rows:
            fail.append(f"{len(trace.rows)} trace rows, expected {expected_rows}")
        for row in trace.rows:
            masses = list(row.level_mass.values())
            if row.active_files and abs(sum(masses) - 1.0) > 1e-9:
                fail.append(f"sampling masses at iteration {row.iteration} sum to {sum(masses)!r}")
                break
            if any(m < 0.0 for m in masses):
                fail.append(f"negative sampling mass at iteration {row.iteration}")
                break
        freezes: dict[str, int] = {}
        level = 1
        for ev in trace.events:
            if ev.kind == "freeze":
                freezes[ev.target] = freezes.get(ev.target, 0) + 1
                if freezes[ev.target] > self.cfg.max_freezes:
                    fail.append(f"{ev.target} froze more than max_freezes times")
            elif ev.kind == "drop":
                if freezes.get(ev.target, 0) != self.cfg.max_freezes:
                    fail.append(f"{ev.target} dropped after {freezes.get(ev.target, 0)} freezes")
                freezes[ev.target] = -1
            elif ev.kind == "promote":
                level += 1
                if ev.target != f"level:{level}":
                    fail.append(f"promotion to {ev.target} out of order")
        if trace.final_level != level:
            fail.append(f"final level {trace.final_level}, promotions imply {level}")
        return fail


# ---------------------------------------------------------------------------
# dataset-pass: ASFO plan, clip loading, encoding, reward evaluation


CATALOG_SAMPLES = 20000
CATALOG_TAGS = 60
CLIP_SECONDS = (5.0, 8.5, 12.0, 15.5, 19.0, 22.5, 26.0, 29.5)   # fixed total, any seed
EXEC_NOISE = 0.01        # m, executed-copy body position noise
EXEC_YAW_JITTER = 0.02   # rad, executed-copy heading jitter


def tag_name(i: int) -> str:
    side = ("left", "right", "both")[i % 3]
    return f"motion{i:02d} {side}"


def asfo_spec_multipliers(sample_tags: dict) -> dict[str, int]:
    """Per-sample multiplier straight from the ASFO definition: a tag's is
    round-half-up(median tag count / its count) clamped to [1, 8], and a
    sample takes the max over its tags (1 when untagged)."""
    counts: dict[str, int] = {}
    for tags in sample_tags.values():
        for tag in tags:
            counts[tag] = counts.get(tag, 0) + 1
    tau = median(counts.values())
    rho = {t: max(1, min(int(math.floor(tau / c + 0.5)), 8)) for t, c in counts.items()}
    return {s: max((rho[t] for t in tags), default=1) for s, tags in sample_tags.items()}


class ClipResult(NamedTuple):
    mirrored: bool
    seq: MO.MotionSequence       # after mirroring and canonicalization
    feats: np.ndarray
    rewards: np.ndarray          # per-frame total task reward
    report: M.MetricReport


class DatasetPass:
    host_ref = "mixed"
    name = "dataset-pass"
    op = "clip frame"

    def __init__(self, seed: int, workdir: Path, clip_seconds=CLIP_SECONDS,
                 samples: int = CATALOG_SAMPLES):
        self.seed = seed
        self.skel = MO.default_skeleton()
        rng = np.random.default_rng([seed, 0])
        weights = 0.9 ** np.arange(CATALOG_TAGS)     # long tail of rare tags
        weights /= weights.sum()
        sample_tags = {}
        for i in range(samples):
            k = int(rng.integers(0, 4))
            picks = rng.choice(CATALOG_TAGS, size=k, replace=False, p=weights)
            sample_tags[f"s{i:05d}"] = tuple(tag_name(int(j)) for j in sorted(picks))
        self.catalog = G.TagCatalog.from_samples(sample_tags)
        self.multipliers = asfo_spec_multipliers(sample_tags)
        # half the clips come from rare-tag samples, which ASFO mirrors
        ids = sorted(sample_tags)
        rare = [s for s in ids if self.multipliers[s] >= 5]
        common = [s for s in ids if self.multipliers[s] == 1]
        n = len(clip_seconds)
        picked = list(rng.choice(rare, n - n // 2, replace=False)) + list(
            rng.choice(common, n // 2, replace=False))
        lengths = rng.permutation([int(round(sec * FPS)) for sec in clip_seconds])
        workdir.mkdir(parents=True, exist_ok=True)
        self.clips = []
        for i, (sample_id, frames) in enumerate(zip(picked, lengths)):
            path = workdir / f"clip{i:02d}.json"
            IO.save_motion(walk_clip(self.skel, rng, int(frames)), path, self.skel)
            self.clips.append((str(sample_id), path, int(frames)))
        self.reward_cfg = R.RewardConfig()

    @property
    def ops_per_pass(self) -> int:
        return sum(n for _, _, n in self.clips)

    def executed_copy(self, ref, rng):
        """Stand-in for a tracked rollout: seeded position noise and a small
        per-frame heading jitter on every body."""
        t = ref.num_frames
        jitter = ROT.rot_z(rng.normal(0.0, EXEC_YAW_JITTER, t))
        body_rot = np.einsum("tij,tbjk->tbik", jitter, ref.body_rot)
        body_pos = ref.body_pos + rng.normal(0.0, EXEC_NOISE, ref.body_pos.shape)
        return MO.MotionSequence(
            fps=ref.fps, joint_pos=ref.joint_pos, joint_vel=ref.joint_vel,
            root_pos=body_pos[:, 0], root_quat=ROT.matrix_to_quat(body_rot[:, 0]),
            body_pos=body_pos, body_rot=body_rot,
            body_lin_vel=ref.body_lin_vel, body_ang_vel=ref.body_ang_vel,
        )

    def process_clip(self, path, mirrored: bool, rng) -> ClipResult:
        seq = IO.load_motion(path, self.skel)
        if mirrored:
            seq = MO.mirror_sequence(seq, self.skel)
        seq = F.canonicalize_heading(seq)
        contacts = F.detect_contacts(seq, self.skel)
        feats = F.encode_features(seq, self.skel, contacts)
        sim = self.executed_copy(seq, rng)
        rewards = np.array([
            R.task_rewards(seq.frame(i), sim.frame(i), self.reward_cfg, self.skel)[1]
            for i in range(seq.num_frames)
        ])
        return ClipResult(mirrored, seq, feats, rewards, M.evaluate(seq, sim, self.skel))

    def warm_up(self) -> None:
        _, path, _ = min(self.clips, key=lambda c: c[2])
        self.process_clip(path, True, np.random.default_rng(0))

    def run_pass(self, hooks=_no_hooks) -> PassResult:
        rng = np.random.default_rng([self.seed, 3])
        latencies, done = [], []
        start = perf_counter()
        plan = G.build_epoch_plan(self.catalog, np.random.default_rng([self.seed, 4]))
        first = {}
        for entry in plan:
            first.setdefault(entry.sample_id, entry)
        for sample_id, path, frames in self.clips:
            t0 = perf_counter()
            done.append(self.process_clip(path, first[sample_id].mirrored, rng))
            latencies.append((perf_counter() - t0) / frames)
        feats_all = np.vstack([d.feats for d in done])
        stats = F.fit_norm_stats(feats_all)
        normed = F.normalize_features(feats_all, stats)
        end = perf_counter()

        rewards = np.concatenate([d.rewards for d in done])
        reports = [d.report for d in done]
        result = PassResult(
            seconds=end - start,
            ops=self.ops_per_pass,
            latencies=latencies,
            outputs={"plan_entries": len(plan)},
            summary={
                "plan_entries": len(plan),
                "mirrored_clips": sum(d.mirrored for d in done),
                "features_sum": float(feats_all.sum()),
                "normed_abs_sum": float(np.abs(normed).sum()),
                "reward_sum": float(rewards.sum()),
                "mpjpe": [r.mpjpe_m for r in reports],
            },
            digest=_sha(normed, rewards, [r.to_dict() for r in reports]),
        )
        result.failures = self.check(plan, done, feats_all, normed, stats, rewards)
        return result

    def check(self, plan, done, feats_all, normed, stats, rewards) -> list[str]:
        fail = []
        if len(plan) != sum(self.multipliers.values()):
            fail.append(f"plan has {len(plan)} entries, ASFO implies {sum(self.multipliers.values())}")
        for (sample_id, _, _), d in zip(self.clips, done):
            twice = MO.mirror_sequence(MO.mirror_sequence(d.seq, self.skel), self.skel)
            if not all(np.array_equal(getattr(d.seq, k), getattr(twice, k)) for k in (
                    "joint_pos", "joint_vel", "root_pos", "root_quat",
                    "body_pos", "body_rot", "body_lin_vel", "body_ang_vel")):
                fail.append(f"mirroring {sample_id} twice is not the identity")
            if d.mirrored and self.multipliers[sample_id] < 2:
                fail.append(f"{sample_id} mirrored with multiplier 1")
        back = F.denormalize_features(normed, stats)
        if not np.allclose(back, feats_all, rtol=1e-12, atol=1e-12):
            fail.append("normalize then denormalize does not round-trip (rtol/atol 1e-12)")
        if not (np.all(np.isfinite(rewards)) and np.all(rewards >= 0.0)):
            fail.append("task rewards are not finite and non-negative")
        if not all(d.report.success for d in done):
            fail.append("evaluate() reports a failure on a lightly perturbed copy")
        return fail


# ---------------------------------------------------------------------------
# moe-gen: TP-MoE denoising with prefix anchoring, and router replay


MOE_FRAMES = 48
MOE_PREFIX = 12
MOE_TOKENS = 4
MOE_STEPS = 8
ROUTER_RECORDS = 2000
ROUTER_EXPERTS = 4


class MoeGen:
    host_ref = "memory"
    name = "moe-gen"
    op = "MoE forward"

    def __init__(self, seed: int, steps: int = MOE_STEPS, records: int = ROUTER_RECORDS,
                 frames: int = MOE_FRAMES, tokens: int = MOE_TOKENS):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.params = G.init_tpmoe(rng)
        self.tokens = rng.normal(0.0, 1.0, (tokens, G.TOKEN_DIM))
        self.negative = rng.normal(0.0, 1.0, (tokens, G.TOKEN_DIM))
        logits = rng.normal(0.0, 2.0, (frames, tokens))
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        self.attention = attn / attn.sum(axis=1, keepdims=True)
        self.prefix = rng.normal(0.0, 1.0, (MOE_PREFIX, G.MODEL_DIM))
        self.shape = (frames, G.MODEL_DIM)
        self.schedule = G.make_schedule(num_steps=steps)
        self.z = rng.normal(0.0, 1.0, (records, RT.LATENT_DIM))
        # the hardest level is over-represented so stage-I bypasses happen
        self.levels = rng.choice(np.arange(1, ROUTER_EXPERTS + 1), records, p=[0.2, 0.2, 0.2, 0.4])
        self.pool_seed = [seed, 5]

    @property
    def ops_per_pass(self) -> int:
        return 2 * self.schedule.num_steps + len(self.z)

    def fresh_router(self):
        rng = np.random.default_rng(self.pool_seed)
        pool = RT.make_random_pool(rng, ROUTER_EXPERTS, RT.LATENT_DIM, (256, 128), 29, capacity=8)
        return pool, RT.make_router(rng, pool.capacity)

    def denoiser(self, latencies):
        def denoise(noisy, step, condition):
            t0 = perf_counter()
            cond = G.tpmoe_apply(noisy, self.tokens, self.attention, self.params)[1]
            t1 = perf_counter()
            neg = G.tpmoe_apply(noisy, self.negative, self.attention, self.params)[1]
            latencies.extend((t1 - t0, perf_counter() - t1))
            return G.cfg_negative(cond, neg, self.schedule.guidance_scale)

        return denoise

    def warm_up(self) -> None:
        self.denoiser([])(np.zeros(self.shape), 1, None)
        pool, state = self.fresh_router()
        self.replay(pool, state, self.z[:50], self.levels[:50], [])

    def replay(self, pool, state, zs, levels, latencies):
        """Stage I (hard-bias routing) for the first half, stage II
        (gated mixture) after, with one expert added mid-way through it."""
        rng = np.random.default_rng([self.seed, 6])
        n = len(zs)
        l_max = pool.unlocked_count
        weights, hard = np.zeros((n, pool.capacity)), np.zeros(n, dtype=bool)
        for i in range(n):
            t0 = perf_counter()
            if i == (3 * n) // 4:
                RT.add_expert(pool, state)
            logits = RT.gate_logits(zs[i], state, pool)
            RT.refresh_candidates(state, logits)
            if i < n // 2:
                _, w, hard[i] = RT.hard_bias_route(zs[i], int(levels[i]), l_max, rng, state, pool)
            else:
                _, w = RT.mixture_action(zs[i], state, pool)
            weights[i, : w.shape[0]] = w
            latencies.append(perf_counter() - t0)
        return weights, hard

    def expected_hard_routes(self) -> int:
        """Stage-I bypasses implied by the rng alone: one uniform draw per
        hardest-level record, taken when it falls below rho_hard."""
        rng = np.random.default_rng([self.seed, 6])
        stage1 = self.levels[: len(self.levels) // 2]
        return sum(1 for lv in stage1 if lv == ROUTER_EXPERTS and rng.uniform() < RT.RHO_HARD)

    def run_pass(self, hooks=_no_hooks) -> PassResult:
        pool, state = self.fresh_router()
        latencies: list[float] = []
        denoise = hooks(layers.PLUGIN_DENOISER, self.denoiser(latencies))
        start = perf_counter()
        sample = G.ddpm_sample(self.schedule, denoise, None, self.shape,
                               np.random.default_rng([self.seed, 7]), prefix=self.prefix)
        weights, hard = self.replay(pool, state, self.z, self.levels, latencies)
        end = perf_counter()
        stage1 = len(self.z) // 2
        result = PassResult(
            seconds=end - start,
            ops=len(latencies),
            latencies=latencies,
            outputs={"router_stage1_steps": stage1, "router_hard_routed": int(hard.sum())},
            summary={
                "tpmoe_calls": 2 * self.schedule.num_steps,
                "hard_routed": int(hard.sum()),
                "sample_sum": float(sample.sum()),
                "sample_abs_sum": float(np.abs(sample).sum()),
                "weights_by_expert": weights.sum(axis=0).tolist(),
            },
            digest=_sha(sample, weights),
        )
        result.failures = self.check(sample, weights, hard)
        return result

    def check(self, sample, weights, hard) -> list[str]:
        fail = []
        if not np.array_equal(sample[: self.prefix.shape[0]], self.prefix):
            fail.append("ddpm_sample does not carry the prefix rows bit-exactly")
        if not np.all(np.isfinite(sample)):
            fail.append("ddpm_sample output is not finite")
        if np.any(weights < 0.0) or np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-12):
            fail.append("router weights leave the simplex (tolerance 1e-12)")
        if np.any(weights[hard].max(axis=1) != 1.0):
            fail.append("a hard-routed step is not one-hot")
        if int(hard.sum()) != self.expected_hard_routes():
            fail.append(f"{int(hard.sum())} hard routes, the rng implies {self.expected_hard_routes()}")
        return fail


# ---------------------------------------------------------------------------
# Registry and reference comparison


WORKLOADS = {w.name: w for w in (PrefixLong, Curriculum2k, DatasetPass, MoeGen)}

FLOAT_RTOL = 1e-9


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def compare_reference(expected, got, path="") -> list[str]:
    """Counts and strings must match exactly, floats within FLOAT_RTOL."""
    if isinstance(expected, dict):
        out = []
        for k, v in expected.items():
            if k not in got:
                out.append(f"{path}{k}: missing from the output")
            else:
                out += compare_reference(v, got[k], f"{path}{k}.")
        return out
    if isinstance(expected, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)}, reference {len(expected)}"]
        return [m for i, (a, b) in enumerate(zip(expected, got))
                for m in compare_reference(a, b, f"{path}{i}.")]
    if isinstance(expected, float):
        if not math.isclose(got, expected, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL):
            return [f"{path.rstrip('.')}: {got!r}, reference {expected!r} (rtol {FLOAT_RTOL})"]
        return []
    if got != expected:
        return [f"{path.rstrip('.')}: {got!r}, reference {expected!r}"]
    return []
