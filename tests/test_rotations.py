import numpy as np
import pytest

from helpers import quat_from_axis_angle, random_quaternions, random_rotations
from motion_forge.features import FEATURE_DIM, ROT6D, project_valid_rot6d
from motion_forge.errors import DegenerateRotationError, InvalidRotationError
from motion_forge.rotations import (
    matrix_geodesic_angle,
    matrix_to_quat,
    quat_from_yaw,
    quat_geodesic_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    rot_to_6d,
    rot_z,
    sixd_to_rot,
    wrap_angle,
    yaw_from_quat,
)


def test_rot_to_6d_identity():
    assert np.allclose(rot_to_6d(np.eye(3)), [1, 0, 0, 0, 1, 0])


def test_rot_to_6d_yaw_90():
    got = rot_to_6d(rot_z(np.pi / 2))
    assert np.allclose(got, [0, 1, 0, -1, 0, 0], atol=1e-12)


def test_rot_to_6d_rejects_non_orthonormal():
    with pytest.raises(InvalidRotationError):
        rot_to_6d(np.eye(3) * 1.01)
    with pytest.raises(InvalidRotationError):
        rot_to_6d(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_sixd_identity_and_scale_invariance():
    assert np.allclose(sixd_to_rot([1, 0, 0, 0, 1, 0]), np.eye(3))
    assert np.allclose(sixd_to_rot([2, 0, 0, 0, 3, 0]), np.eye(3))


def test_sixd_rejects_degenerate():
    with pytest.raises(DegenerateRotationError):
        sixd_to_rot([0, 0, 0, 0, 1, 0])
    with pytest.raises(DegenerateRotationError):
        sixd_to_rot([1, 0, 0, 2, 0, 0])  # parallel columns


def test_6d_round_trip_1000_random():
    rng = np.random.default_rng(0)
    rots = random_rotations(rng, (1000,))
    back = sixd_to_rot(rot_to_6d(rots))
    assert np.max(np.abs(back - rots)) < 1e-9


def test_6d_entries_bounded():
    rng = np.random.default_rng(1)
    vec = rot_to_6d(random_rotations(rng, (200,)))
    assert np.all(np.abs(vec) <= 1.0 + 1e-12)


def test_quat_matrix_round_trip():
    rng = np.random.default_rng(2)
    q = random_quaternions(rng, (500,))
    back = matrix_to_quat(quat_to_matrix(q))
    dot = np.abs(np.sum(back * q, axis=-1))
    assert np.all(dot > 1.0 - 1e-12)


def test_quat_multiply_composes():
    rng = np.random.default_rng(4)
    q1 = random_quaternions(rng, (20,))
    q2 = random_quaternions(rng, (20,))
    lhs = quat_to_matrix(quat_multiply(q1, q2))
    rhs = quat_to_matrix(q1) @ quat_to_matrix(q2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_yaw_extraction():
    assert yaw_from_quat(quat_from_yaw(-1.2)) == pytest.approx(-1.2)
    # yaw of a pure pitch rotation is zero
    pitch = quat_from_axis_angle([0, 1, 0], 0.9)
    assert yaw_from_quat(pitch) == pytest.approx(0.0, abs=1e-12)


def test_yaw_removal_preserves_residual():
    # q = yaw * residual; removing yaw must leave the residual untouched
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = random_quaternions(rng)
        yaw = yaw_from_quat(q)
        residual = quat_multiply(quat_from_yaw(-yaw), q)
        assert yaw_from_quat(residual) == pytest.approx(0.0, abs=1e-9)
        rebuilt = quat_multiply(quat_from_yaw(yaw), residual)
        assert np.abs(np.sum(rebuilt * q)) > 1.0 - 1e-12


def test_wrap_angle():
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert np.allclose(wrap_angle(np.array([6.2, -6.2])), [6.2 - 2 * np.pi, 2 * np.pi - 6.2])


def test_geodesic_angles():
    q1 = quat_from_yaw(0.0)
    q2 = quat_from_yaw(0.5)
    assert quat_geodesic_angle(q1, q2) == pytest.approx(0.5)
    assert matrix_geodesic_angle(rot_z(0.0), rot_z(0.5)) == pytest.approx(0.5)
    # antipodal quaternions are the same rotation
    assert quat_geodesic_angle(q2, -np.asarray(q2)) == pytest.approx(0.0, abs=1e-7)


def matrix_to_quat_reference(r):
    """One matrix at a time: the scalar branch formulas."""
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
    elif r[1, 1] > r[2, 2]:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
    q = quat_normalize(np.array([q]))[0]
    return -q if q[0] < 0.0 else q


def test_matrix_to_quat_batch_covers_every_branch_bit_exact():
    # identity (trace branch), then half turns about x, y and z, each of
    # which has trace -1 and one dominant diagonal entry
    known = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    tilted = np.array([[0.1, 0.9, 0.3, 0.2], [0.05, 0.2, 0.95, 0.1], [0.1, 0.2, 0.3, 0.9]])
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    batch = np.concatenate([quat_to_matrix(known),
                            random_rotations(np.random.default_rng(3), (41,)),
                            quat_to_matrix(tilted)])
    diag = np.diagonal(batch, axis1=1, axis2=2)
    assert (diag.sum(axis=1)[-3:] < 0.0).all()
    assert diag[-3:].argmax(axis=1).tolist() == [0, 1, 2]
    got = matrix_to_quat(batch.reshape(2, -1, 3, 3)).reshape(-1, 4)
    expected = np.stack([matrix_to_quat_reference(r) for r in batch])
    assert np.array_equal(got, expected)
    assert np.array_equal(got[:4], known)


def sixd_to_rot_reference(vec):
    """The decode written with np.linalg.norm, np.cross and np.stack."""
    a, b = vec[..., :3], vec[..., 3:]
    e1 = a / np.linalg.norm(a, axis=-1, keepdims=True)
    u = b - np.sum(e1 * b, axis=-1, keepdims=True) * e1
    e2 = u / np.linalg.norm(u, axis=-1, keepdims=True)
    return np.stack([e1, e2, np.cross(e1, e2)], axis=-1)


def random_sixd(rng, shape):
    """Random 6D vectors whose two columns differ in scale by up to 1e4."""
    vec = rng.normal(size=shape + (6,))
    vec[..., :3] *= rng.uniform(0.01, 100.0, shape + (1,))
    vec[..., 3:] *= rng.uniform(0.01, 100.0, shape + (1,))
    return vec


def test_sixd_to_rot_equals_cross_product_reference_bit_exact():
    vec = random_sixd(np.random.default_rng(11), (2000, 29))
    assert np.array_equal(sixd_to_rot(vec), sixd_to_rot_reference(vec))
    one = vec[7, 3]
    assert np.array_equal(sixd_to_rot(one), sixd_to_rot_reference(one))


def test_project_valid_rot6d_equals_decode_encode_round_trip_bit_exact():
    rng = np.random.default_rng(12)
    frames = rng.normal(size=(1500, FEATURE_DIM))
    frames[:, ROT6D] = random_sixd(rng, (1500, 29)).reshape(1500, -1)
    expected = frames.copy()
    blocks = frames[:, ROT6D].reshape(1500, 29, 6)
    expected[:, ROT6D] = rot_to_6d(sixd_to_rot_reference(blocks)).reshape(1500, -1)
    got = project_valid_rot6d(frames)
    assert np.array_equal(got, expected)
    assert not np.shares_memory(got, frames)
