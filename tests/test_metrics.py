import dataclasses
import json

import numpy as np
import pytest

from helpers import make_random_sequence, make_standing_sequence, make_walk_sequence
from motion_forge.errors import AlignmentError, ConfigError, NonFiniteError
from motion_forge.features import detect_contacts
from motion_forge.metrics import (
    FAILURE_EE_Z,
    FAILURE_NON_FINITE,
    FAILURE_NONE,
    FAILURE_PELVIS_Z,
    FAILURE_TRUNK_GRAVITY,
    GroundModel,
    MetricReport,
    SuccessConfig,
    evaluate,
    floating,
    mpjae,
    mpjpe,
    mpjve,
    penetration,
    skating,
    success,
)
from motion_forge.motion import MotionSequence, default_skeleton
from motion_forge.rotations import rot_z


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


def with_body_pos(seq, body_pos):
    return MotionSequence(
        fps=seq.fps, joint_pos=seq.joint_pos, joint_vel=seq.joint_vel,
        root_pos=body_pos[:, 0], root_quat=seq.root_quat, body_pos=body_pos,
        body_rot=seq.body_rot, body_lin_vel=seq.body_lin_vel,
        body_ang_vel=seq.body_ang_vel,
    )


class TestPenetration:
    def test_above_ground_is_zero(self, skel):
        seq = make_standing_sequence(skel)
        assert penetration(seq, GroundModel()) == 0.0

    def test_single_dipping_frame_hand_value(self, skel):
        seq = make_standing_sequence(skel, num_frames=10)
        body_pos = seq.body_pos.copy()
        # one frame dips its lowest point 5 mm below ground
        lowest = body_pos[3, :, 2].argmin()
        body_pos[3, lowest, 2] = -0.005
        seq = with_body_pos(seq, body_pos)
        assert penetration(seq, GroundModel()) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_depth(self, skel):
        seq = make_standing_sequence(skel)
        values = []
        for depth in (0.0, 0.002, 0.01, 0.05):
            body_pos = seq.body_pos.copy()
            body_pos[:, 19, 2] = -depth
            values.append(penetration(with_body_pos(seq, body_pos), GroundModel()))
        assert values == sorted(values)


class TestFloating:
    def test_grounded_clip_is_zero(self, skel):
        seq = make_standing_sequence(skel)
        foot, _ = detect_contacts(seq, skel)
        assert floating(seq, GroundModel(), foot, skel) == 0.0

    def test_hovering_clip_measures_clearance(self, skel):
        seq = make_standing_sequence(skel)
        body_pos = seq.body_pos.copy()
        body_pos[..., 2] += 0.02  # hover 2 cm; feet still below gate height
        seq = with_body_pos(seq, body_pos)
        foot, _ = detect_contacts(seq, skel)
        assert not foot.any()
        ground = GroundModel()
        # lowest foot point was at 0.03, now 0.05: clearance above eps
        expected = (0.05 - ground.contact_height_eps) * 1000.0
        assert floating(seq, ground, foot, skel) == pytest.approx(expected, abs=1e-9)

    def test_jump_counts_only_low_flight_frames(self, skel):
        seq = make_standing_sequence(skel, num_frames=12)
        body_pos = seq.body_pos.copy()
        # frames 4-7 airborne: two low, two far above the gate
        body_pos[4:6, :, 2] += 0.10
        body_pos[6:8, :, 2] += 1.00
        seq = with_body_pos(seq, body_pos)
        foot, _ = detect_contacts(seq, skel)
        ground = GroundModel()
        got = floating(seq, ground, foot, skel)
        expected = (0.03 + 0.10 - ground.contact_height_eps) * 1000.0
        assert got == pytest.approx(expected, abs=1e-9)


class TestSkating:
    def test_stationary_planted_feet(self, skel):
        seq = make_standing_sequence(skel)
        foot, _ = detect_contacts(seq, skel)
        assert skating(seq, foot, skel, GroundModel()) == 0.0

    def test_sliding_planted_feet_all_frames(self, skel):
        seq = make_standing_sequence(skel, num_frames=10)
        body_pos = seq.body_pos.copy()
        slide = np.arange(10) * 0.05
        body_pos[:, list(skel.foot_body_indices), 0] += slide[:, None]
        seq = with_body_pos(seq, body_pos)
        foot = np.ones((10, 4))  # contact flags asserted by the tracker
        assert skating(seq, foot, skel, GroundModel()) == 1.0

    def test_no_planted_frames_is_zero(self, skel):
        seq = make_standing_sequence(skel)
        foot = np.zeros((seq.num_frames, 4))
        assert skating(seq, foot, skel, GroundModel()) == 0.0


class TestTrackingErrors:
    def test_identical_sequences_zero(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.2, 30, 30.0)
        assert mpjpe(seq, seq) == 0.0
        assert mpjae(seq, seq) == 0.0
        assert mpjve(seq, seq) == 0.0

    def test_constant_offset_mpjpe(self, skel):
        seq = make_standing_sequence(skel)
        body_pos = seq.body_pos + np.array([0.03, 0.04, 0.0])  # |d| = 0.05
        sim = with_body_pos(seq, body_pos)
        assert mpjpe(seq, sim) == pytest.approx(0.05, abs=1e-12)

    def test_uniform_joint_offset_mpjae(self, skel):
        ref = make_standing_sequence(skel)
        sim = ref.copy()
        sim.joint_pos[:] += 0.1
        assert mpjae(ref, sim) == pytest.approx(0.1, abs=1e-9)

    def test_wrap_aware_angle_error(self, skel):
        ref = make_standing_sequence(skel)
        sim = ref.copy()
        ref2 = ref.copy()
        ref2.joint_pos[:, 0] = 3.1
        sim.joint_pos[:, 0] = -3.1
        expected = (2 * np.pi - 6.2) / 29.0
        assert mpjae(ref2, sim) == pytest.approx(expected, abs=1e-9)

    def test_mpjpe_monte_carlo_oracle(self, skel):
        # gaussian perturbation: mean distance is sigma * E||N(0,I3)||
        rng = np.random.default_rng(0)
        seq = make_standing_sequence(skel, num_frames=400)
        sigma = 0.02
        body_pos = seq.body_pos + rng.normal(0.0, sigma, seq.body_pos.shape)
        sim = with_body_pos(seq, body_pos)
        noise = rng.normal(0.0, sigma, (200000, 3))
        oracle = np.linalg.norm(noise, axis=1).mean()
        assert mpjpe(seq, sim) == pytest.approx(oracle, rel=0.02)

    def test_misaligned_lengths_raise(self, skel):
        a = make_standing_sequence(skel, num_frames=10)
        b = make_standing_sequence(skel, num_frames=12)
        with pytest.raises(AlignmentError):
            mpjpe(a, b)

    # none, past the last body, a bool, and a negative index that would
    # quietly measure the last body
    @pytest.mark.parametrize("bodies", [[], [40], [True], [-1]], ids=["empty", "40", "True", "-1"])
    def test_body_indices_outside_the_skeleton_are_a_config_error(self, skel, bodies):
        seq = make_standing_sequence(skel, num_frames=4)
        with pytest.raises(ConfigError, match="body_indices"):
            mpjpe(seq, seq, bodies)

    def test_body_indices_past_the_arrays_body_axis_are_a_config_error(self):
        # 7 is a body of the robot, but not one of these five
        ref, sim = np.zeros((2, 5, 3)), np.ones((2, 5, 3))
        with pytest.raises(ConfigError, match=r"body_indices: expected body indices in 0\.\.4"):
            mpjpe(ref, sim, [7])
        assert mpjpe(ref, sim, [4]) == pytest.approx(np.sqrt(3.0), abs=1e-15)

    def test_body_indices_as_list_tuple_array_or_one_index_agree(self, skel):
        rng = np.random.default_rng(7)
        ref = make_random_sequence(skel, rng)
        sim = make_random_sequence(skel, rng)
        want = float(np.linalg.norm(ref.body_pos[:, [5]] - sim.body_pos[:, [5]], axis=-1).mean())
        assert mpjpe(ref, sim, [5]) == mpjpe(ref, sim, (5,)) == want
        assert mpjpe(ref, sim, np.array([5])) == mpjpe(ref, sim, 5) == want

    def test_translation_and_yaw_invariance(self, skel):
        rng = np.random.default_rng(5)
        ref = make_random_sequence(skel, rng)
        sim = make_random_sequence(skel, rng)
        base = mpjpe(ref, sim)

        def shift_rotate(seq):
            rot = rot_z(0.9)
            body_pos = seq.body_pos @ rot.T + np.array([2.0, -1.0, 0.0])
            return with_body_pos(seq, body_pos)

        assert mpjpe(shift_rotate(ref), shift_rotate(sim)) == pytest.approx(base, abs=1e-12)


class TestSuccess:
    def test_identical_success(self, skel):
        seq = make_standing_sequence(skel)
        ok, reason = success(seq, seq, skel)
        assert ok and reason == FAILURE_NONE

    def test_pelvis_z_flips_around_threshold(self, skel):
        ref = make_standing_sequence(skel, num_frames=8)
        for offset, expected in ((0.299, True), (0.301, False)):
            sim = ref.copy()
            sim.root_pos[4:, 2] += offset
            ok, reason = success(ref, sim, skel)
            assert bool(ok) is expected
            if not ok:
                assert reason == FAILURE_PELVIS_Z

    def test_pelvis_z_threshold_is_inclusive(self, skel):
        # deviation exactly at the threshold is still a success
        ref = make_standing_sequence(skel, num_frames=8)
        sim = ref.copy()
        sim.root_pos[4:, 2] += 0.25
        cfg = SuccessConfig(pelvis_z_threshold=0.25)  # exactly representable
        ok, _ = success(ref, sim, skel, cfg)
        assert ok

    def test_trunk_gravity_threshold(self, skel):
        ref = make_standing_sequence(skel, num_frames=6)
        trunk = skel.body_index("torso_link")
        # tilt angle theta gives gravity mismatch 2 sin(theta/2); 0.8 sits at
        # theta = 2 asin(0.4) ~ 0.823 rad
        for theta, expected in ((0.75, True), (0.95, False)):
            sim = ref.copy()
            c, s = np.cos(theta), np.sin(theta)
            tilt = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
            sim.body_rot[3:, trunk] = tilt
            ok, reason = success(ref, sim, skel)
            assert bool(ok) is expected
            if not ok:
                assert reason == FAILURE_TRUNK_GRAVITY

    def test_ee_z_threshold(self, skel):
        ref = make_standing_sequence(skel, num_frames=6)
        sim = ref.copy()
        sim.body_pos[2:, skel.hand_body_indices[0], 2] += 0.35
        ok, reason = success(ref, sim, skel)
        assert not ok and reason == FAILURE_EE_Z

    def test_reason_is_first_violation(self, skel):
        ref = make_standing_sequence(skel, num_frames=10)
        sim = ref.copy()
        sim.body_pos[7:, skel.foot_body_indices[0], 2] += 0.5  # ee at frame 7
        sim.root_pos[3:, 2] += 0.4                             # pelvis at frame 3
        ok, reason = success(ref, sim, skel)
        assert not ok and reason == FAILURE_PELVIS_Z

    def test_non_finite_clip_fails_before_thresholds(self, skel):
        # NaN compares False against every threshold, so without the explicit
        # check this clip would be reported as a success
        ref = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
        sim = ref.copy()
        sim.body_pos[10:] = np.nan
        sim.root_pos[10:] = np.nan
        ok, reason = success(ref, sim, skel)
        assert not ok and reason == FAILURE_NON_FINITE
        report = evaluate(ref, sim, skel)
        assert report.success is False
        assert report.failure_reason == FAILURE_NON_FINITE

    def test_non_finite_clip_reports_no_metric_values(self, skel):
        # measured over NaN frames, penetration and mpjpe came out NaN (which
        # strict JSON rejects) and floating/skating read as real values
        ref = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
        sim = ref.copy()
        sim.body_pos[10:] = np.nan
        sim.root_pos[10:] = np.nan
        d = evaluate(ref, sim, skel).to_dict()
        metric_keys = ("penetration_mm", "floating_mm", "skating_ratio",
                       "mpjpe_m", "mpjae_rad", "mpjve_rad_s")
        assert {k: d[k] for k in metric_keys} == dict.fromkeys(metric_keys)
        assert d["success"] is False and d["failure_reason"] == FAILURE_NON_FINITE
        text = json.dumps(d, allow_nan=False)
        assert json.loads(text)["mpjpe_m"] is None

    # one NaN in an array the thresholds never read: it made a metric NaN
    # beside a success, or passed unseen
    @pytest.mark.parametrize("side, field", [("sim", "joint_pos"), ("sim", "joint_vel"),
                                             ("reference", "body_pos"),
                                             ("reference", "root_pos")])
    def test_one_nan_in_any_field_is_caught(self, skel, side, field):
        ref = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
        values = getattr(ref, field).copy()
        values[7, 0] = np.nan
        poisoned = dataclasses.replace(ref, **{field: values})
        if side == "sim":
            d = evaluate(ref, poisoned, skel).to_dict()
            assert d["success"] is False and d["failure_reason"] == FAILURE_NON_FINITE
            assert d["mpjae_rad"] is None and d["mpjve_rad_s"] is None
        else:
            with pytest.raises(NonFiniteError, match=f"reference '{field}'"):
                evaluate(poisoned, ref, skel)


def test_clips_at_different_frame_rates_raise(skel):
    # compared frame by frame, a 60 fps copy of a 30 fps clip read as a perfect track
    ref = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
    with pytest.raises(AlignmentError, match="30.0 vs 60.0"):
        evaluate(ref, dataclasses.replace(ref, fps=60.0), skel)


def test_evaluate_report_roundtrip(skel):
    ref = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
    report = evaluate(ref, ref, skel)
    assert isinstance(report, MetricReport)
    d = report.to_dict()
    assert d["success"] is True
    assert d["mpjpe_m"] == 0.0
    assert 0.0 <= d["skating_ratio"] <= 1.0


class TestMonotonicity:
    def test_floating_monotone_in_hover_height(self, skel):
        base = make_standing_sequence(skel)
        values = []
        for hover in (0.0, 0.03, 0.06, 0.1):
            body_pos = base.body_pos.copy()
            body_pos[..., 2] += hover
            seq = with_body_pos(base, body_pos)
            foot, _ = detect_contacts(seq, skel)
            values.append(floating(seq, GroundModel(), foot, skel))
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] > 0.0

    def test_skating_monotone_in_slip_fraction(self, skel):
        base = make_standing_sequence(skel, num_frames=11)
        values = []
        for slipping_frames in (0, 3, 6, 10):
            body_pos = base.body_pos.copy()
            for t in range(1, slipping_frames + 1):
                body_pos[t:, list(skel.foot_body_indices), 0] += 0.05
            seq = with_body_pos(base, body_pos)
            foot = np.ones((11, 4))
            values.append(skating(seq, foot, skel, GroundModel()))
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] == 1.0
