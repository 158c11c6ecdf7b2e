import hashlib
import json

import numpy as np
import pytest

from helpers import make_walk_sequence, neutral_features
from motion_forge.errors import AlignmentError, ConfigError, NonFiniteError
from motion_forge.features import FEATURE_DIM, ROT6D, encode_features
from motion_forge.metrics import mpjpe
from motion_forge.motion import FIELDS, default_skeleton
from motion_forge.prefix_loop import (
    TERMINATION_COMPLETED,
    TERMINATION_EXHAUSTED,
    PrefixLoopConfig,
    features_to_motion,
    identity_tracker,
    make_interpolation_generator,
    make_perturbation_tracker,
    run_prefix_loop,
    validate_segment,
)
from motion_forge.rotations import sixd_to_rot


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


def standing_target(height=0.9):
    target = neutral_features(1, height=height)[0]
    return target


class TestFeaturesToMotion:
    def test_round_trip_from_encoded_walk(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.1, 60, 30.0)
        feats = encode_features(seq, skel)
        rebuilt = features_to_motion(feats, 30.0, skel)
        assert rebuilt.num_frames == 60
        # root trajectory matches the decoder within integration error
        err = np.linalg.norm(rebuilt.root_pos[:, :2] - seq.root_pos[:, :2], axis=1)
        assert err.max() < 0.02
        # informative bodies sit near their true positions
        ric = list(skel.ric_body_indices)
        body_err = np.linalg.norm(
            rebuilt.body_pos[:, ric] - seq.body_pos[:, ric], axis=-1
        )
        assert body_err.max() < 0.03

    def test_rotations_recovered(self, skel):
        frames = neutral_features(5)
        seq = features_to_motion(frames, 30.0, skel)
        assert np.allclose(seq.body_rot, np.eye(3), atol=1e-12)


def parent_perturbation_tracker(seed, noise_scale=0.0, offset=0.0):
    """Oracle: the perturbation tracker as it was before the failure tracker
    was folded into it."""
    rng = np.random.default_rng(seed)

    def tracker(reference):
        out = reference.copy()
        if offset:
            out.body_pos[..., 2] += offset
            out.root_pos[..., 2] += offset
        if noise_scale:
            out.body_pos[:] += rng.normal(0.0, noise_scale, out.body_pos.shape)
        return out

    return tracker


def parent_failure_tracker(fail_after_frame, offset=10.0):
    """Oracle: the failure tracker that diverged from `fail_after_frame` on."""

    def tracker(reference):
        out = reference.copy()
        if fail_after_frame < out.num_frames:
            out.body_pos[fail_after_frame:, :, 2] += offset
            out.root_pos[fail_after_frame:, 2] += offset
        return out

    return tracker


def assert_same_windows(tracker, oracle, window, calls=3):
    """`tracker` and `oracle` execute `calls` windows in turn to the same bytes."""
    for _ in range(calls):
        got, want = tracker(window.copy()), oracle(window.copy())
        for name in FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestTrackers:
    def test_identity(self, skel):
        frames = neutral_features(8)
        seq = features_to_motion(frames, 30.0, skel)
        assert identity_tracker(seq) is seq

    def test_no_noise_and_no_offset_is_the_identity_tracker(self):
        assert make_perturbation_tracker(seed=4) is identity_tracker
        assert make_perturbation_tracker(seed=4, offset_from_frame=7) is identity_tracker

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_the_parent_perturbation_tracker(self, skel, seed):
        window = make_walk_sequence(skel, 1.0, 0.1, 20, 30.0)
        for noise_scale in (0.0, 0.01, 0.3):
            for offset in (0.0, 0.125, -0.4):
                assert_same_windows(make_perturbation_tracker(seed, noise_scale, offset),
                                    parent_perturbation_tracker(seed, noise_scale, offset),
                                    window)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_the_parent_failure_tracker(self, skel, seed):
        window = make_walk_sequence(skel, 1.0, 0.1, 20, 30.0)
        for fail_after_frame in (0, 1, 10, 19, 20, 45):
            for offset in (10.0, 0.5, -2.0):
                tracker = make_perturbation_tracker(seed, offset=offset,
                                                    offset_from_frame=fail_after_frame)
                assert_same_windows(tracker, parent_failure_tracker(fail_after_frame, offset),
                                    window)

    def test_perturbation_offset_gives_exact_mpjpe(self, skel):
        frames = neutral_features(8)
        seq = features_to_motion(frames, 30.0, skel)
        tracker = make_perturbation_tracker(seed=0, offset=0.125)
        accepted, err = validate_segment(seq, tracker, tolerance=0.2)
        assert accepted and err == 0.125

    def test_tolerance_boundary_is_inclusive(self, skel):
        frames = neutral_features(8)
        seq = features_to_motion(frames, 30.0, skel)
        tracker = make_perturbation_tracker(seed=0, offset=0.125)
        accepted, err = validate_segment(seq, tracker, tolerance=0.125)
        assert accepted and err == 0.125
        accepted, _ = validate_segment(seq, tracker, tolerance=0.1249)
        assert not accepted

    def test_failure_tracker_diverges_after_frame(self, skel):
        frames = neutral_features(20)
        seq = features_to_motion(frames, 30.0, skel)
        tracker = make_perturbation_tracker(seed=0, offset=10.0, offset_from_frame=10)
        out = tracker(seq)
        assert np.array_equal(out.body_pos[:10], seq.body_pos[:10])
        assert np.all(out.body_pos[10:, :, 2] > 9.0)


class TestInterpolationGenerator:
    def test_constant_when_target_is_last_frame(self):
        frames = neutral_features(5)
        gen = make_interpolation_generator(segment_frames=30, noise_scale=0.0)
        out = gen(frames, frames[-1], None, np.random.default_rng(0))
        assert out.shape == (30, FEATURE_DIM)
        assert np.allclose(out, frames[-1], atol=1e-12)

    def test_endpoint_honored(self):
        frames = neutral_features(5)
        target = standing_target(height=1.1)
        gen = make_interpolation_generator(segment_frames=30, noise_scale=0.003)
        out = gen(frames, target, None, np.random.default_rng(1))
        assert np.allclose(out[-1, :43], target[:43], atol=1e-9)

    def test_rot6d_blocks_stay_valid_under_noise(self):
        frames = neutral_features(5)
        target = standing_target()
        gen = make_interpolation_generator(segment_frames=30, noise_scale=0.05)
        out = gen(frames, target, None, np.random.default_rng(2))
        rots = sixd_to_rot(out[:, ROT6D].reshape(30, 29, 6))
        assert np.allclose(np.linalg.det(rots), 1.0, atol=1e-9)

    def test_contacts_binary(self):
        frames = neutral_features(5)
        target = standing_target()
        target[256:262] = 0.0
        gen = make_interpolation_generator(segment_frames=30, noise_scale=0.02)
        out = gen(frames, target, None, np.random.default_rng(3))
        assert set(np.unique(out[:, 256:262])) <= {0.0, 1.0}


class TestRunPrefixLoop:
    def cfg(self, **kw):
        defaults = dict(fps=30.0, mpjpe_tolerance=0.15, max_resamples=3,
                        segment_seconds=1.0, horizon_seconds=4.0, seed=5)
        defaults.update(kw)
        return PrefixLoopConfig(**defaults)

    def test_identity_tracker_every_first_attempt_accepts(self, skel):
        cfg = self.cfg()
        prefix = neutral_features(30)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.002)
        motion, trace = run_prefix_loop(
            prefix, standing_target(), gen, identity_tracker, cfg, skel
        )
        assert trace.termination == TERMINATION_COMPLETED
        assert len(trace.segments) == 4
        assert all(len(s.attempts) == 1 and s.accepted for s in trace.segments)
        assert motion.num_frames == 30 + 4 * 30
        assert trace.features.shape == (150, FEATURE_DIM)

    def test_prefix_carried_bit_exact(self, skel):
        cfg = self.cfg(horizon_seconds=2.0)
        prefix = neutral_features(30)
        prefix[:, 6] += np.linspace(0.0, 0.01, 30)  # make it distinctive
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.001)
        _, trace = run_prefix_loop(
            prefix, standing_target(), gen, identity_tracker, cfg, skel
        )
        assert np.array_equal(trace.features[:30], prefix)

    def test_one_frame_segments_run_to_completion(self, skel):
        cfg = self.cfg(segment_seconds=1 / 30, horizon_seconds=5 / 30)
        assert (cfg.segment_frames, cfg.num_segments) == (1, 5)
        prefix = neutral_features(30)
        prefix[:, 6] += np.linspace(0.0, 0.01, 30)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.001)
        motion, trace = run_prefix_loop(
            prefix, standing_target(), gen, identity_tracker, cfg, skel
        )
        assert trace.termination == TERMINATION_COMPLETED
        assert motion.num_frames == 35 and trace.features.shape == (35, FEATURE_DIM)
        assert np.array_equal(trace.features[:30], prefix)

    def test_failure_in_third_segment_exhausts(self, skel):
        cfg = self.cfg(horizon_seconds=5.0, max_resamples=3)
        prefix = neutral_features(30)
        # diverge once the window reaches into the third generated second
        tracker = make_perturbation_tracker(seed=0, offset=10.0, offset_from_frame=30 + 2 * 30 + 5)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.002)
        _, trace = run_prefix_loop(
            prefix, standing_target(), gen, tracker, cfg, skel
        )
        assert trace.termination == TERMINATION_EXHAUSTED
        assert len(trace.segments) == 3
        assert [len(s.attempts) for s in trace.segments] == [1, 1, 3]
        assert not trace.segments[2].accepted
        assert all(not a.accepted for a in trace.segments[2].attempts)

    def test_accepted_segments_within_tolerance(self, skel):
        cfg = self.cfg(horizon_seconds=3.0)
        prefix = neutral_features(30)
        tracker = make_perturbation_tracker(seed=1, noise_scale=0.01)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.002)
        _, trace = run_prefix_loop(
            prefix, standing_target(), gen, tracker, cfg, skel
        )
        for seg in trace.segments:
            for attempt in seg.attempts:
                if attempt.accepted:
                    assert attempt.mpjpe <= cfg.mpjpe_tolerance

    def test_total_attempts_bounded(self, skel):
        cfg = self.cfg(horizon_seconds=5.0, max_resamples=2)
        prefix = neutral_features(30)
        tracker = make_perturbation_tracker(seed=0, offset=10.0, offset_from_frame=0)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.002)
        _, trace = run_prefix_loop(
            prefix, standing_target(), gen, tracker, cfg, skel
        )
        assert trace.total_attempts <= cfg.num_segments * cfg.max_resamples
        assert trace.termination == TERMINATION_EXHAUSTED

    def test_deterministic_under_seed(self, skel):
        cfg = self.cfg(horizon_seconds=3.0, seed=42)
        prefix = neutral_features(30)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.01)
        tracker = make_perturbation_tracker(seed=2, noise_scale=0.02)

        def run():
            tr = make_perturbation_tracker(seed=2, noise_scale=0.02)
            _, trace = run_prefix_loop(prefix, standing_target(), gen, tr, cfg, skel)
            return trace

        t1, t2 = run(), run()
        assert np.array_equal(t1.features, t2.features)
        assert t1.to_dict() == t2.to_dict()

    def test_trace_dict_shape(self, skel):
        cfg = self.cfg(horizon_seconds=2.0)
        prefix = neutral_features(30)
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.0)
        _, trace = run_prefix_loop(
            prefix, standing_target(), gen, identity_tracker, cfg, skel
        )
        d = trace.to_dict()
        assert d["termination"] == TERMINATION_COMPLETED
        assert len(d["segments"]) == 2
        assert d["total_attempts"] == 2

    def test_bad_target_rejected(self, skel):
        cfg = self.cfg()
        gen = make_interpolation_generator(cfg.segment_frames)
        with pytest.raises(ConfigError):
            run_prefix_loop(neutral_features(10), np.zeros(7), gen,
                            identity_tracker, cfg, skel)

    @pytest.mark.parametrize("bodies", [(31,), (-1,), ()])
    def test_bad_tracked_bodies_rejected_by_the_config(self, bodies):
        with pytest.raises(ConfigError, match="tracked_bodies: expected body indices"):
            self.cfg(tracked_bodies=bodies)

    def test_unallocatable_horizon_is_a_config_error(self, skel):
        # numpy refuses a 1e300-frame store without allocating; no attempt runs
        cfg = self.cfg(horizon_seconds=1e300)
        calls = []

        def generator(*args):
            calls.append(args)
            return neutral_features(cfg.segment_frames)

        with pytest.raises(ConfigError, match=r"horizon_seconds=1e\+300 at fps=30.0"):
            run_prefix_loop(neutral_features(30), standing_target(), generator,
                            identity_tracker, cfg, skel)
        assert calls == []


def assert_same_motion(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestIncrementalDecode:
    """The loop decodes only each candidate, yet hands the tracker exactly
    what decoding the whole window from scratch would give."""

    def cfg(self, **kw):
        defaults = dict(fps=30.0, mpjpe_tolerance=0.15, max_resamples=4,
                        segment_seconds=1.0, horizon_seconds=6.0, seed=9)
        defaults.update(kw)
        return PrefixLoopConfig(**defaults)

    def walk_prefix(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.4, 30, 30.0)
        return encode_features(seq, skel)

    def recording_run(self, skel, cfg, tracker_body):
        """Run the loop, keeping each window's features and reference."""
        gen = make_interpolation_generator(cfg.segment_frames, noise_scale=0.01)
        windows, references = [], []

        def generator(prefix, target, condition, rng):
            candidate = gen(prefix, target, condition, rng)
            windows.append(np.vstack([prefix, candidate]))
            return candidate

        def tracker(reference):
            references.append(reference.copy())
            return tracker_body(reference)

        motion, trace = run_prefix_loop(
            self.walk_prefix(skel), standing_target(), generator, tracker, cfg, skel
        )
        return motion, trace, windows, references

    def test_every_reference_equals_a_full_window_decode(self, skel):
        cfg = self.cfg()
        verdicts = np.random.default_rng(3).random(64) < 0.35
        calls = iter(verdicts)

        def tracker_body(reference):
            out = reference.copy()
            if next(calls):
                out.body_pos[..., 2] += 1.0
            return out

        motion, trace, windows, references = self.recording_run(skel, cfg, tracker_body)
        attempts = [a for seg in trace.segments for a in seg.attempts]
        assert trace.termination == TERMINATION_COMPLETED
        assert any(not a.accepted for a in attempts)
        assert len(references) == len(windows) == len(attempts)
        for window, reference in zip(windows, references):
            assert_same_motion(reference, features_to_motion(window, cfg.fps, skel))

    def test_returned_motion_equals_decode_of_trace_features(self, skel):
        cfg = self.cfg(horizon_seconds=4.0)
        tracker = make_perturbation_tracker(seed=3, noise_scale=0.01)
        motion, trace, _, _ = self.recording_run(skel, cfg, tracker)
        assert motion.num_frames == 30 + 4 * 30
        assert_same_motion(motion, features_to_motion(trace.features, cfg.fps, skel))

    def test_exhausted_run_returns_the_accepted_prefix(self, skel):
        cfg = self.cfg(max_resamples=2)
        # a tracker failing from frame 0 rejects every attempt on the first
        # segment, and each rejected one rewrites the initial decode's last
        # velocity row as a central difference
        for offset_from_frame, accepted_frames in [(30 + 30 + 10, 60), (0, 30)]:
            tracker = make_perturbation_tracker(seed=0, offset=10.0,
                                                offset_from_frame=offset_from_frame)
            motion, trace, _, _ = self.recording_run(skel, cfg, tracker)
            assert trace.termination == TERMINATION_EXHAUSTED
            assert trace.features.shape[0] == accepted_frames
            assert_same_motion(motion, features_to_motion(trace.features, cfg.fps, skel))

    def test_tracker_mutating_its_input_cannot_corrupt_the_loop(self, skel):
        cfg = self.cfg()

        def mutate(reference):
            reference.body_pos[:] += 0.01
            reference.body_rot[:] *= -1.0
            reference.root_pos[:] -= 5.0
            reference.root_quat[:] = [1.0, 0.0, 0.0, 0.0]
            reference.body_ang_vel[:] = 7.0
            return reference

        def copy_then_mutate(reference):
            return mutate(reference.copy())

        motion_a, trace_a, _, _ = self.recording_run(skel, cfg, mutate)
        motion_b, trace_b, _, _ = self.recording_run(skel, cfg, copy_then_mutate)
        assert trace_a.to_dict() == trace_b.to_dict()
        assert np.array_equal(trace_a.features, trace_b.features)
        assert_same_motion(motion_a, motion_b)
        assert_same_motion(motion_a, features_to_motion(trace_a.features, cfg.fps, skel))

    def test_tracker_overwriting_velocities_and_joints_in_place(self, skel):
        # the window's velocity rows up to the last accepted frame come from
        # the loop's cache, so the tracker's writes must never reach it
        cfg = self.cfg()
        lifts = iter(np.random.default_rng(5).random(64) < 0.35)

        def overwrite(reference):
            reference.body_lin_vel[:] = 3.0
            reference.joint_pos[:] = 1.0
            reference.joint_vel[:] = -2.0
            if next(lifts):
                reference.body_pos[..., 2] += 1.0
            return reference

        motion, trace, windows, references = self.recording_run(skel, cfg, overwrite)
        attempts = [a for seg in trace.segments for a in seg.attempts]
        assert trace.termination == TERMINATION_COMPLETED
        assert any(not a.accepted for a in attempts)
        assert len(references) == len(windows) == len(attempts)
        for window, reference in zip(windows, references):
            assert_same_motion(reference, features_to_motion(window, cfg.fps, skel))
        assert_same_motion(motion, features_to_motion(trace.features, cfg.fps, skel))

    def test_seeded_run_with_rejections_matches_golden_digest(self, skel):
        # sha256 over the features, every array of the returned motion and
        # the trace, recorded with whole-window finite differences, the
        # np.cross decode and np.linalg.norm in mpjpe; the lean attempt path
        # must reproduce it bit for bit
        cfg = self.cfg()
        lifts = iter(np.random.default_rng(3).random(64) < 0.35)
        noise = np.random.default_rng(4)

        def tracker(reference):
            out = reference.copy()
            out.body_pos[:] += noise.normal(0.0, 0.01, out.body_pos.shape)
            if next(lifts):
                out.body_pos[..., 2] += 1.0
            return out

        motion, trace, _, _ = self.recording_run(skel, cfg, tracker)
        assert [len(s.attempts) for s in trace.segments] == [3, 1, 2, 1, 2, 2]
        digest = hashlib.sha256(trace.features.tobytes())
        for name in FIELDS:
            digest.update(getattr(motion, name).tobytes())
        digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "b0ddff3d50206dad12308f2a08e6660b022f55862718dd55bfc3ee52f2ad18d9"
        )

    def test_generator_cannot_rewrite_accepted_frames(self, skel):
        cfg = self.cfg()

        def generator(prefix, target, condition, rng):
            prefix[-1, 6] += 1.0
            return np.repeat(prefix[-1:], cfg.segment_frames, axis=0)

        with pytest.raises(ValueError, match="read-only"):
            run_prefix_loop(self.walk_prefix(skel), standing_target(), generator,
                            identity_tracker, cfg, skel)

    def test_short_initial_prefix_rejected(self, skel):
        cfg = self.cfg()
        gen = make_interpolation_generator(cfg.segment_frames)
        with pytest.raises(ConfigError, match="at least 2 frames"):
            run_prefix_loop(neutral_features(1), standing_target(), gen,
                            identity_tracker, cfg, skel)


class TestNonFiniteValues:
    def cfg(self):
        return PrefixLoopConfig(horizon_seconds=2.0, max_resamples=2, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generator_output_rejected(self, skel, bad):
        cfg = self.cfg()

        def generator(prefix, target, condition, rng):
            frames = np.repeat(prefix[-1:], cfg.segment_frames, axis=0)
            frames[5, 3] = bad
            return frames

        with pytest.raises(NonFiniteError, match="generator"):
            run_prefix_loop(neutral_features(30), standing_target(), generator,
                            identity_tracker, cfg, skel)

    @pytest.mark.parametrize("field", ["body_pos", "root_pos"])
    def test_tracker_output_rejected_before_mpjpe(self, skel, field):
        seq = features_to_motion(neutral_features(8), 30.0, skel)

        def tracker(reference):
            out = reference.copy()
            getattr(out, field)[3, 0] = np.nan
            return out

        with pytest.raises(NonFiniteError, match="tracker"):
            validate_segment(seq, tracker, tolerance=0.15)

    def test_loop_raises_on_nan_tracker(self, skel):
        cfg = self.cfg()
        gen = make_interpolation_generator(cfg.segment_frames)
        tracker = make_perturbation_tracker(seed=0, offset=float("nan"))
        with pytest.raises(NonFiniteError):
            run_prefix_loop(neutral_features(30), standing_target(), gen, tracker, cfg, skel)


class TestMpjpe:
    def test_equals_linalg_norm_reference_bit_exact(self, skel):
        rng = np.random.default_rng(6)
        ref = features_to_motion(neutral_features(400), 30.0, skel)
        sim = ref.copy()
        sim.body_pos[:] += rng.normal(0.0, 0.05, sim.body_pos.shape)
        diff = ref.body_pos - sim.body_pos
        assert mpjpe(ref, sim) == float(np.linalg.norm(diff, axis=-1).mean())
        bodies = (0, 7, 8, 19, 28)
        expected = float(np.linalg.norm(diff[:, list(bodies)], axis=-1).mean())
        assert mpjpe(ref, sim, bodies) == expected
        for scale in (1e-9, 1e-3, 1.0, 1e3, 1e9):
            a, b = rng.normal(0.0, scale, (2, 97, 30, 3))
            assert mpjpe(a, b) == float(np.linalg.norm(a - b, axis=-1).mean())

    def test_accepts_position_arrays(self, skel):
        # validate_segment measures against a bare copy of the positions
        ref = features_to_motion(neutral_features(8), 30.0, skel)
        sim = make_perturbation_tracker(seed=0, offset=0.125)(ref)
        assert mpjpe(ref.body_pos.copy(), sim) == mpjpe(ref, sim) == 0.125
        with pytest.raises(AlignmentError, match="frame counts"):
            mpjpe(ref.body_pos[:7], sim)
