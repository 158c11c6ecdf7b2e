import numpy as np
import pytest

from helpers import (
    make_random_sequence,
    make_standing_sequence,
    make_walk_sequence,
)
from motion_forge.errors import DimensionMismatchError
from motion_forge.features import (
    FEATURE_DIM,
    FOOT_CONTACT,
    HAND_CONTACT,
    LOCAL_VEL,
    RIC_POS,
    ROOT_ANG_VEL,
    ROOT_HEIGHT,
    ROOT_LIN_VEL,
    ROT6D,
    NormStats,
    canonicalize_heading,
    decode_root_trajectory,
    denormalize_features,
    detect_contacts,
    encode_features,
    fit_norm_stats,
    mirror_features,
    normalize_features,
    normalized_dim_mask,
    project_valid_rot6d,
)
from motion_forge.motion import mirror_sequence, default_skeleton
from motion_forge.rotations import quat_from_yaw, quat_to_matrix, yaw_from_quat


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


def relative_root_transforms(seq):
    """Frame-to-frame relative rigid transforms of the root."""
    rots = quat_to_matrix(seq.root_quat)
    rel_r = np.einsum("tji,tjk->tik", rots[:-1], rots[1:])
    rel_p = np.einsum("tji,tj->ti", rots[:-1], seq.root_pos[1:] - seq.root_pos[:-1])
    return rel_r, rel_p


class TestCanonicalize:
    def test_already_canonical_is_fixed_point(self, skel):
        seq = make_standing_sequence(skel)
        out = canonicalize_heading(seq)
        assert np.allclose(out.root_pos, seq.root_pos, atol=1e-12)
        assert np.allclose(out.body_rot, seq.body_rot, atol=1e-12)

    def test_yaw_90_removed_and_relative_transforms_kept(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.3, 60, 30.0, start_yaw=np.pi / 2)
        out = canonicalize_heading(seq)
        assert abs(yaw_from_quat(out.root_quat[0])) < 1e-6
        assert np.allclose(out.root_pos[0, :2], 0.0, atol=1e-12)
        rel_before = relative_root_transforms(seq)
        rel_after = relative_root_transforms(out)
        assert np.allclose(rel_before[0], rel_after[0], atol=1e-9)
        assert np.allclose(rel_before[1], rel_after[1], atol=1e-9)

    def test_idempotent(self, skel):
        seq = make_walk_sequence(skel, 0.8, -0.4, 40, 30.0, start_yaw=1.1)
        once = canonicalize_heading(seq)
        twice = canonicalize_heading(once)
        assert np.allclose(once.root_pos, twice.root_pos, atol=1e-12)
        assert np.allclose(once.root_quat, twice.root_quat, atol=1e-12)

    def test_prone_pose_keeps_pitch_roll(self, skel):
        # a rolling clip: root pitched 60 degrees, heading 0.8
        pitch = np.array([np.cos(np.pi / 6), 0.0, np.sin(np.pi / 6), 0.0])
        from motion_forge.rotations import quat_multiply

        quat = quat_multiply(quat_from_yaw(0.8), np.tile(pitch, (5, 1)))
        seq = make_standing_sequence(skel, num_frames=5).copy()
        seq.root_quat[:] = quat
        seq.body_rot[:, 0] = quat_to_matrix(quat)
        out = canonicalize_heading(seq)
        # residual after removing yaw must still be the pitch rotation
        res = quat_multiply(quat_from_yaw(-yaw_from_quat(out.root_quat[0])), out.root_quat[0])
        assert np.abs(np.sum(res * pitch)) > 1.0 - 1e-9


class TestContacts:
    def test_planted_foot_bit(self, skel):
        seq = make_standing_sequence(skel)
        foot, hand = detect_contacts(seq, skel)
        assert np.all(foot == 1.0)
        assert np.all(hand == 0.0)

    def test_fast_foot_not_in_contact(self, skel):
        seq = make_standing_sequence(skel)
        seq = seq.copy()
        seq.body_lin_vel[:, list(skel.foot_body_indices)] = [0.5, 0.0, 0.0]
        foot, _ = detect_contacts(seq, skel)
        assert np.all(foot == 0.0)

    def test_slow_low_foot_in_contact(self, skel):
        seq = make_standing_sequence(skel)
        seq = seq.copy()
        seq.body_lin_vel[:, list(skel.foot_body_indices)] = [0.005, 0.0, 0.0]
        foot, _ = detect_contacts(seq, skel)
        assert np.all(foot == 1.0)

    def test_airborne_clears_all_bits(self, skel):
        seq = make_standing_sequence(skel)
        seq = seq.copy()
        seq.body_pos[..., 2] = 1.0
        foot, hand = detect_contacts(seq, skel)
        assert not np.any(foot)
        assert not np.any(hand)

    def test_low_hand_sets_bit(self, skel):
        seq = make_standing_sequence(skel)
        seq = seq.copy()
        seq.body_pos[:, list(skel.hand_body_indices), 2] = 0.08
        _, hand = detect_contacts(seq, skel)
        assert np.all(hand == 1.0)


class TestEncode:
    def test_layout_and_static_blocks(self, skel):
        seq = make_standing_sequence(skel, num_frames=12)
        feats = encode_features(seq, skel)
        assert feats.shape == (12, FEATURE_DIM)
        assert np.allclose(feats[:, ROOT_LIN_VEL], 0.0)
        assert np.allclose(feats[:, ROOT_ANG_VEL], 0.0)
        assert np.allclose(feats[:, ROOT_HEIGHT], 0.8)
        assert np.all(feats[:, FOOT_CONTACT] == 1.0)
        assert np.all(feats[:, HAND_CONTACT] == 0.0)
        # identity body rotations encode as [1,0,0,0,1,0] per body
        rot = feats[:, ROT6D].reshape(12, 29, 6)
        assert np.allclose(rot, [1, 0, 0, 0, 1, 0])

    def test_rot6d_bounded_on_random_motion(self, skel):
        rng = np.random.default_rng(11)
        seq = make_random_sequence(skel, rng)
        feats = encode_features(seq, skel)
        assert np.all(np.abs(feats[:, ROT6D]) <= 1.0 + 1e-9)

    def test_constant_velocity_walk_block(self, skel):
        seq = make_walk_sequence(skel, 1.3, 0.0, 30, 30.0)
        feats = encode_features(seq, skel)
        assert np.allclose(feats[:, ROOT_LIN_VEL], [1.3, 0.0, 0.0], atol=1e-6)

    def test_heading_local_velocity_is_heading_invariant(self, skel):
        # same walk, rotated start: heading-local velocity blocks match
        a = encode_features(canonicalize_heading(make_walk_sequence(skel, 1.0, 0.5, 30, 30.0)), skel)
        b = encode_features(
            canonicalize_heading(make_walk_sequence(skel, 1.0, 0.5, 30, 30.0, start_yaw=2.0)), skel
        )
        assert np.allclose(a[:, ROOT_LIN_VEL], b[:, ROOT_LIN_VEL], atol=1e-9)
        assert np.allclose(a[:, RIC_POS], b[:, RIC_POS], atol=1e-9)
        assert np.allclose(a[:, LOCAL_VEL], b[:, LOCAL_VEL], atol=1e-9)


class TestDecode:
    def test_zero_velocity_constant_height(self):
        feats = np.zeros((8, FEATURE_DIM))
        feats[:, 6] = 0.7
        pos, yaw = decode_root_trajectory(feats, 30.0)
        assert np.allclose(pos[:, :2], 0.0)
        assert np.allclose(pos[:, 2], 0.7)
        assert np.allclose(yaw, 0.0)

    def test_constant_forward_velocity(self):
        fps, v, t = 30.0, 1.5, 20
        feats = np.zeros((t, FEATURE_DIM))
        feats[:, 3] = v
        pos, _ = decode_root_trajectory(feats, fps)
        assert pos[-1, 0] == pytest.approx(v * (t - 1) / fps, abs=1e-9)

    def test_encode_decode_round_trip_on_arc(self, skel):
        fps = 50.0
        frames = int(5 * fps)
        seq = make_walk_sequence(skel, 1.0, 0.3, frames, fps)
        feats = encode_features(seq, skel)
        pos, yaw = decode_root_trajectory(feats, fps)
        path_len = np.sum(np.linalg.norm(np.diff(seq.root_pos[:, :2], axis=0), axis=1))
        err = np.linalg.norm(pos[:, :2] - seq.root_pos[:, :2], axis=1).max()
        assert err < 0.005 * path_len
        assert np.allclose(pos[:, 2], seq.root_pos[:, 2])

    def test_straight_walk_round_trip_exact(self, skel):
        fps = 30.0
        seq = make_walk_sequence(skel, 1.2, 0.0, 90, fps)
        feats = encode_features(seq, skel)
        pos, yaw = decode_root_trajectory(feats, fps)
        assert np.allclose(pos[:, :2], seq.root_pos[:, :2], atol=1e-9)
        assert np.allclose(yaw, 0.0, atol=1e-12)

    @staticmethod
    def euler_reference(frames, fps, start=(0.0, 0.0, 0.0)):
        """The per-frame explicit Euler loop the decoder must reproduce."""
        t = frames.shape[0]
        dt = 1.0 / fps
        yaw = np.zeros(t)
        pos = np.zeros((t, 3))
        pos[0, 0], pos[0, 1], yaw[0] = start
        pos[:, 2] = frames[:, 6]
        lin = frames[:, ROOT_LIN_VEL]
        ang_z = frames[:, 2]
        for i in range(t - 1):
            c, s = np.cos(yaw[i]), np.sin(yaw[i])
            pos[i + 1, 0] = pos[i, 0] + dt * (c * lin[i, 0] - s * lin[i, 1])
            pos[i + 1, 1] = pos[i, 1] + dt * (s * lin[i, 0] + c * lin[i, 1])
            yaw[i + 1] = yaw[i] + dt * ang_z[i]
        return pos, yaw

    @pytest.mark.parametrize("start", [(0.0, 0.0, 0.0), (1.25, -3.5, 2.7)])
    def test_equals_euler_loop_bit_for_bit(self, start):
        frames = np.random.default_rng(7).normal(0.0, 2.0, (500, FEATURE_DIM))
        pos, yaw = decode_root_trajectory(frames, 30.0, start)
        ref_pos, ref_yaw = self.euler_reference(frames, 30.0, start)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(yaw, ref_yaw)

    def test_tail_from_its_start_state_matches_full_decode(self):
        frames = np.random.default_rng(8).normal(0.0, 2.0, (300, FEATURE_DIM))
        pos, yaw = decode_root_trajectory(frames, 25.0)
        k = 137
        tail_pos, tail_yaw = decode_root_trajectory(
            frames[k:], 25.0, (pos[k, 0], pos[k, 1], yaw[k])
        )
        assert np.array_equal(tail_pos, pos[k:])
        assert np.array_equal(tail_yaw, yaw[k:])

    def test_single_frame_sits_at_start(self):
        frames = np.zeros((1, FEATURE_DIM))
        frames[0, 6] = 0.8
        pos, yaw = decode_root_trajectory(frames, 30.0, (2.0, 3.0, 0.5))
        assert pos.tolist() == [[2.0, 3.0, 0.8]]
        assert yaw.tolist() == [0.5]


class TestNormalization:
    def test_mask_layout(self):
        mask = normalized_dim_mask()
        assert mask[:43].all()
        assert not mask[43:217].any()
        assert mask[217:256].all()
        assert not mask[256:].any()

    def test_constant_dataset_normalizes_to_zero(self):
        frames = np.tile(np.arange(FEATURE_DIM, dtype=float), (5, 1))
        stats = fit_norm_stats(frames)
        assert stats.clamped
        normed = normalize_features(frames, stats)
        assert np.allclose(normed[:, stats.mask], 0.0)

    def test_round_trip_identity_and_untouched_blocks(self, skel):
        rng = np.random.default_rng(21)
        seq = make_random_sequence(skel, rng, num_frames=40)
        frames = encode_features(seq, skel)
        stats = fit_norm_stats(frames)
        normed = normalize_features(frames, stats)
        assert np.array_equal(normed[:, 43:217], frames[:, 43:217])
        assert np.array_equal(normed[:, 256:262], frames[:, 256:262])
        back = denormalize_features(normed, stats)
        assert np.max(np.abs(back - frames)) < 1e-9
        assert np.array_equal(back[:, 43:217], frames[:, 43:217])

    def test_random_dataset_reaches_unit_stats(self):
        rng = np.random.default_rng(22)
        frames = rng.normal(3.0, 2.5, size=(500, FEATURE_DIM))
        stats = fit_norm_stats(frames)
        normed = normalize_features(frames, stats)
        m = stats.mask
        assert np.max(np.abs(normed[:, m].mean(axis=0))) < 1e-9
        assert np.max(np.abs(normed[:, m].std(axis=0) - 1.0)) < 1e-6

    def test_stats_validation(self):
        with pytest.raises(DimensionMismatchError):
            NormStats(mean=np.zeros(10), std=np.ones(10), mask=np.zeros(10, bool))
        mask = normalized_dim_mask()
        std = np.ones(FEATURE_DIM)
        std[0] = 0.0
        with pytest.raises(DimensionMismatchError):
            NormStats(mean=np.zeros(FEATURE_DIM), std=std, mask=mask)


class TestMirrorFeatures:
    def test_matches_sequence_mirror(self, skel):
        rng = np.random.default_rng(31)
        seq = make_random_sequence(skel, rng, num_frames=6)
        via_seq = encode_features(mirror_sequence(seq, skel), skel)
        via_feat = mirror_features(encode_features(seq, skel), skel)
        assert np.allclose(via_feat, via_seq, atol=1e-9)

    def test_involution_bit_exact(self, skel):
        rng = np.random.default_rng(32)
        seq = make_random_sequence(skel, rng)
        feats = encode_features(seq, skel)
        assert np.array_equal(mirror_features(mirror_features(feats, skel), skel), feats)

    def test_contact_bits_swap(self, skel):
        feats = np.zeros((3, FEATURE_DIM))
        feats[:, ROT6D] = np.tile([1, 0, 0, 0, 1, 0], 29)
        feats[:, 256] = 1.0  # left ankle pitch contact
        out = mirror_features(feats, skel)
        assert np.all(out[:, 258] == 1.0)
        assert np.all(out[:, 256] == 0.0)


def test_project_valid_rot6d_recovers_rotations(skel):
    rng = np.random.default_rng(41)
    seq = make_random_sequence(skel, rng)
    feats = encode_features(seq, skel)
    noisy = feats.copy()
    noisy[:, ROT6D] += rng.normal(0.0, 0.05, noisy[:, ROT6D].shape)
    fixed = project_valid_rot6d(noisy)
    from motion_forge.rotations import sixd_to_rot

    rots = sixd_to_rot(fixed[:, ROT6D].reshape(len(fixed), 29, 6))
    assert np.allclose(np.linalg.det(rots), 1.0, atol=1e-9)


def test_mirrored_sequence_contacts_are_swapped_originals(skel):
    rng = np.random.default_rng(55)
    seq = make_random_sequence(skel, rng, num_frames=12)
    foot, hand = detect_contacts(seq, skel)
    foot_m, hand_m = detect_contacts(mirror_sequence(seq, skel), skel)
    perm = skel.mirror_map.body_perm
    foot_idx = list(skel.foot_body_indices)
    foot_order = [foot_idx.index(perm[i]) for i in foot_idx]
    hand_idx = list(skel.hand_body_indices)
    hand_order = [hand_idx.index(perm[i]) for i in hand_idx]
    assert np.array_equal(foot_m, foot[:, foot_order])
    assert np.array_equal(hand_m, hand[:, hand_order])
