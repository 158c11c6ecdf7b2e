import dataclasses

import numpy as np
import pytest

from helpers import make_random_sequence, make_standing_sequence
from motion_forge.errors import ConfigError, DimensionMismatchError
from motion_forge.motion import (
    FIELDS,
    MIRROR_6D,
    MIRROR_PSEUDO,
    MIRROR_QUAT,
    MIRROR_ROT,
    MIRROR_VECTOR,
    Frame,
    MotionSequence,
    Skeleton,
    default_skeleton,
    finite_difference,
    mirror_sequence,
)


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


def test_default_skeleton_counts(skel):
    assert len(skel.joint_names) == 29
    assert len(skel.body_names) == 30
    assert skel.body_names[0] == "pelvis"
    assert skel.ric_body_indices == (7, 8, 12, 13, 17, 18, 19, 23, 24, 25, 28, 29)
    assert len(set(skel.vel_body_indices)) == 13
    assert 0 in skel.vel_body_indices


def test_default_skeleton_informative_bodies(skel):
    names = [skel.body_names[i] for i in skel.ric_body_indices]
    for part in ("elbow", "wrist_roll", "knee", "ankle_pitch", "ankle_roll", "palm"):
        matches = [n for n in names if part in n]
        assert len(matches) == 2, part


def test_mirror_map_is_involution(skel):
    mm = skel.mirror_map
    assert np.array_equal(mm.joint_perm[mm.joint_perm], np.arange(29))
    assert np.array_equal(mm.body_perm[mm.body_perm], np.arange(30))
    left_elbow = skel.joint_names.index("left_elbow")
    right_elbow = skel.joint_names.index("right_elbow")
    assert mm.joint_perm[left_elbow] == right_elbow


# the default skeleton's mirror map, as its names derive it
_JOINT_PERM = [0, 1, 2, 10, 11, 12, 13, 14, 15, 16, 3, 4, 5, 6, 7, 8, 9,
               23, 24, 25, 26, 27, 28, 17, 18, 19, 20, 21, 22]
_BODY_PERM = [0, 1, 2, 3, 9, 10, 11, 12, 13, 4, 5, 6, 7, 8, 20, 21, 22, 23, 24, 25,
              14, 15, 16, 17, 18, 19, 27, 26, 29, 28]
_JOINT_SIGN = [-1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1,
               1, -1, -1, 1, 1, -1, 1, -1, -1, 1, 1, -1]


def test_default_skeleton_derived_values(skel):
    mm = skel.mirror_map
    assert mm.joint_perm.dtype == np.intp and mm.joint_perm.tolist() == _JOINT_PERM
    assert mm.body_perm.dtype == np.intp and mm.body_perm.tolist() == _BODY_PERM
    assert mm.joint_sign.dtype == np.float64 and mm.joint_sign.tolist() == _JOINT_SIGN
    assert skel.vel_body_indices == (*skel.ric_body_indices, 0)
    assert skel.rot6d_body_indices == tuple(range(1, 30))


def _skeleton(skel, **changes):
    """`skel`'s inputs with `changes`, as a new Skeleton."""
    inputs = {f.name: getattr(skel, f.name) for f in dataclasses.fields(Skeleton) if f.init}
    return Skeleton(**{**inputs, **changes})


def test_skeleton_rejects_missing_mirror_partner(skel):
    body_names = tuple("right_hand_link" if n == "right_palm_link" else n
                       for n in skel.body_names)
    with pytest.raises(ConfigError, match="missing mirror partner for 'left_palm_link'"):
        _skeleton(skel, body_names=body_names)


def test_skeleton_rejects_duplicate_joint_name(skel):
    joint_names = ("waist_yaw", "waist_yaw", *skel.joint_names[2:])
    with pytest.raises(ConfigError, match="^duplicate name 'waist_yaw'$"):
        _skeleton(skel, joint_names=joint_names)


def test_skeleton_rejects_bad_limits(skel):
    limits = skel.joint_limits.copy()
    limits[3] = [1.0, -1.0]
    with pytest.raises(ConfigError):
        Skeleton(
            joint_names=skel.joint_names,
            body_names=skel.body_names,
            ric_body_indices=skel.ric_body_indices,
            foot_body_indices=skel.foot_body_indices,
            hand_body_indices=skel.hand_body_indices,
            joint_limits=limits,
        )


def test_fields_table_is_the_sequence_layout(skel):
    names = ("joint_pos", "joint_vel", "root_pos", "root_quat",
             "body_pos", "body_rot", "body_lin_vel", "body_ang_vel")
    assert tuple(FIELDS) == names
    assert tuple(f.name for f in dataclasses.fields(MotionSequence)[1:]) == names
    assert tuple(f.name for f in dataclasses.fields(Frame)) == names
    seq = make_random_sequence(skel, np.random.default_rng(3), num_frames=4)
    frame = seq.frame(2)
    for name, field in FIELDS.items():
        assert getattr(seq, name).shape == (4, *field.shape), name
        assert np.shares_memory(getattr(frame, name), getattr(seq, name)), name
        assert np.array_equal(getattr(frame, name), getattr(seq, name)[2]), name


def test_reflection_signs_derive_from_the_vector_sign():
    assert MIRROR_VECTOR.tolist() == [1.0, -1.0, 1.0]
    assert MIRROR_PSEUDO.tolist() == [-1.0, 1.0, -1.0]
    assert MIRROR_QUAT.tolist() == [1.0, -1.0, 1.0, -1.0]
    # conjugating by diag(1, -1, 1) flips the entries off the y row and column
    assert MIRROR_ROT.tolist() == [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]]
    # 6D = first column then second: y of the first and x, z of the second flip
    assert MIRROR_6D.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]


def test_copy_owns_every_field(skel):
    seq = make_random_sequence(skel, np.random.default_rng(4), num_frames=3)
    dup = seq.copy()
    for name in FIELDS:
        assert np.array_equal(getattr(dup, name), getattr(seq, name)), name
        assert not np.shares_memory(getattr(dup, name), getattr(seq, name)), name


def test_sequence_validation(skel):
    seq = make_standing_sequence(skel)
    with pytest.raises(DimensionMismatchError):
        MotionSequence(
            fps=seq.fps,
            joint_pos=seq.joint_pos[:, :28],
            joint_vel=seq.joint_vel,
            root_pos=seq.root_pos,
            root_quat=seq.root_quat,
            body_pos=seq.body_pos,
            body_rot=seq.body_rot,
            body_lin_vel=seq.body_lin_vel,
            body_ang_vel=seq.body_ang_vel,
        )
    with pytest.raises(DimensionMismatchError):
        MotionSequence(
            fps=seq.fps,
            joint_pos=seq.joint_pos[:1],
            joint_vel=seq.joint_vel[:1],
            root_pos=seq.root_pos[:1],
            root_quat=seq.root_quat[:1],
            body_pos=seq.body_pos[:1],
            body_rot=seq.body_rot[:1],
            body_lin_vel=seq.body_lin_vel[:1],
            body_ang_vel=seq.body_ang_vel[:1],
        )


def test_finite_difference_linear_ramp():
    fps = 30.0
    values = np.arange(10.0)[:, None] * 0.5 / fps
    vel = finite_difference(values, fps)
    assert np.allclose(vel, 0.5)


def test_mirror_standing_pose_fixed_point(skel):
    seq = make_standing_sequence(skel)
    mirrored = mirror_sequence(seq, skel)
    assert np.allclose(mirrored.body_pos, seq.body_pos, atol=1e-12)
    assert np.allclose(mirrored.joint_pos, seq.joint_pos, atol=1e-12)


def test_mirror_left_arm_raise_swaps_to_right(skel):
    seq = make_standing_sequence(skel)
    jp = seq.joint_pos.copy()
    li = skel.joint_names.index("left_shoulder_pitch")
    ri = skel.joint_names.index("right_shoulder_pitch")
    jp[:, li] = 1.2
    seq = MotionSequence(
        fps=seq.fps, joint_pos=jp, joint_vel=seq.joint_vel,
        root_pos=seq.root_pos, root_quat=seq.root_quat, body_pos=seq.body_pos,
        body_rot=seq.body_rot, body_lin_vel=seq.body_lin_vel,
        body_ang_vel=seq.body_ang_vel,
    )
    mirrored = mirror_sequence(seq, skel)
    assert np.allclose(mirrored.joint_pos[:, ri], 1.2)
    assert np.allclose(mirrored.joint_pos[:, li], 0.0)
    assert np.allclose(np.abs(mirrored.joint_pos).sum(), np.abs(seq.joint_pos).sum())


def test_mirror_roll_joint_flips_sign(skel):
    seq = make_standing_sequence(skel)
    jp = seq.joint_pos.copy()
    li = skel.joint_names.index("left_shoulder_roll")
    ri = skel.joint_names.index("right_shoulder_roll")
    jp[:, li] = 0.4
    seq = MotionSequence(
        fps=seq.fps, joint_pos=jp, joint_vel=seq.joint_vel,
        root_pos=seq.root_pos, root_quat=seq.root_quat, body_pos=seq.body_pos,
        body_rot=seq.body_rot, body_lin_vel=seq.body_lin_vel,
        body_ang_vel=seq.body_ang_vel,
    )
    mirrored = mirror_sequence(seq, skel)
    assert np.allclose(mirrored.joint_pos[:, ri], -0.4)


def test_double_mirror_bit_exact(skel):
    rng = np.random.default_rng(7)
    for _ in range(5):
        seq = make_random_sequence(skel, rng)
        back = mirror_sequence(mirror_sequence(seq, skel), skel)
        for name in FIELDS:
            assert np.array_equal(getattr(back, name), getattr(seq, name)), name


def test_mirror_preserves_rotation_validity(skel):
    rng = np.random.default_rng(8)
    seq = make_random_sequence(skel, rng)
    mirrored = mirror_sequence(seq, skel)
    gram = np.einsum("tbji,tbjk->tbik", mirrored.body_rot, mirrored.body_rot)
    assert np.allclose(gram, np.eye(3), atol=1e-9)
    assert np.allclose(np.linalg.det(mirrored.body_rot), 1.0, atol=1e-9)
