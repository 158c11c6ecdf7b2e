"""Rotation utilities: 6D codec, quaternions, yaw decomposition.

Conventions used throughout the library:
  - Quaternions are [w, x, y, z], unit norm, Hamilton product.
  - Rotation matrices are 3x3, world_from_body (columns are body axes in world).
  - The 6D encoding of a rotation is its first two columns, column-major:
    [R00, R10, R20, R01, R11, R21].  Decoding runs Gram-Schmidt on the two
    columns and completes the frame with a cross product, so any pair of
    non-parallel columns decodes to a valid rotation.
  - Yaw of a rotation is the heading of its rotated +X axis projected to the
    xy plane: atan2(R10, R00).  Removing yaw (left-multiplying by Rz(-yaw))
    leaves pitch and roll untouched, which stays well defined for prone and
    rolling poses.

All functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRotationError, InvalidRotationError

_ORTHO_TOL = 1e-6
_DEGENERATE_TOL = 1e-9


def rot_to_6d(rot: np.ndarray) -> np.ndarray:
    """Encode rotation matrices (..., 3, 3) as 6D vectors (..., 6)."""
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape[-2:] != (3, 3):
        raise InvalidRotationError(f"expected (..., 3, 3) matrix, got {rot.shape}")
    gram = np.einsum("...ji,...jk->...ik", rot, rot)
    eye = np.eye(3)
    if not np.all(np.abs(gram - eye) <= _ORTHO_TOL):
        raise InvalidRotationError("matrix is not orthonormal within 1e-6")
    # an orthonormal matrix has det +-1, the triple product c0 . (c1 x c2)
    c0, c1, c2 = rot[..., :, 0], rot[..., :, 1], rot[..., :, 2]
    det = (c0[..., 0] * (c1[..., 1] * c2[..., 2] - c1[..., 2] * c2[..., 1])
           + c0[..., 1] * (c1[..., 2] * c2[..., 0] - c1[..., 0] * c2[..., 2])
           + c0[..., 2] * (c1[..., 0] * c2[..., 1] - c1[..., 1] * c2[..., 0]))
    if not np.all(det > 0.0):
        raise InvalidRotationError("matrix has negative determinant")
    return np.concatenate([rot[..., :, 0], rot[..., :, 1]], axis=-1)


def sixd_columns(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt on 6D vectors (..., 6): the first two orthonormal
    columns (..., 3) of the rotation they encode."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape[-1] != 6:
        raise DegenerateRotationError(f"expected (..., 6) vector, got {vec.shape}")
    a = vec[..., :3]
    b = vec[..., 3:]
    # the arithmetic of np.linalg.norm on real input, without its conj copy
    norm_a = np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))
    if not np.all(norm_a > _DEGENERATE_TOL):
        raise DegenerateRotationError("first column is near zero")
    e1 = a / norm_a
    u = b - np.add.reduce(e1 * b, axis=-1, keepdims=True) * e1
    norm_u = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
    if not np.all(norm_u > _DEGENERATE_TOL):
        raise DegenerateRotationError("columns are parallel or second column is zero")
    return e1, u / norm_u


def sixd_to_rot(vec: np.ndarray) -> np.ndarray:
    """Decode 6D vectors (..., 6) back to rotation matrices (..., 3, 3).

    The third column is e1 x e2, written out term by term in np.cross's
    order of operations.
    """
    e1, e2 = sixd_columns(vec)
    rot = np.empty(e1.shape[:-1] + (3, 3))
    rot[..., 0] = e1
    rot[..., 1] = e2
    a0, a1, a2 = e1[..., 0], e1[..., 1], e1[..., 2]
    b0, b1, b2 = e2[..., 0], e2[..., 1], e2[..., 2]
    rot[..., 0, 2] = a1 * b2 - a2 * b1
    rot[..., 1, 2] = a2 * b0 - a0 * b2
    rot[..., 2, 2] = a0 * b1 - a1 * b0
    return rot


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2, broadcasting over leading axes."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q[..., i] for i in range(4))
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    rot = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    rot[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    rot[..., 0, 1] = 2.0 * (xy - wz)
    rot[..., 0, 2] = 2.0 * (xz + wy)
    rot[..., 1, 0] = 2.0 * (xy + wz)
    rot[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    rot[..., 1, 2] = 2.0 * (yz - wx)
    rot[..., 2, 0] = 2.0 * (xz - wy)
    rot[..., 2, 1] = 2.0 * (yz + wx)
    rot[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return rot


def matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    """Convert rotation matrices to quaternions with w >= 0.

    Each matrix takes one of four branches: positive trace, or else the
    largest diagonal entry, whose component is then computed first.
    """
    rot = np.asarray(rot, dtype=np.float64)
    shape = rot.shape[:-2]
    m = rot.reshape(-1, 3, 3)
    q = np.empty((m.shape[0], 4), dtype=np.float64)
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    by_trace = trace > 0.0
    by_x = ~by_trace & (m[:, 0, 0] > m[:, 1, 1]) & (m[:, 0, 0] > m[:, 2, 2])
    by_y = ~by_trace & ~by_x & (m[:, 1, 1] > m[:, 2, 2])
    by_z = ~(by_trace | by_x | by_y)

    r = m[by_trace]
    s = np.sqrt(trace[by_trace] + 1.0) * 2.0
    q[by_trace] = np.stack([0.25 * s, (r[:, 2, 1] - r[:, 1, 2]) / s,
                            (r[:, 0, 2] - r[:, 2, 0]) / s, (r[:, 1, 0] - r[:, 0, 1]) / s], axis=-1)
    r = m[by_x]
    s = np.sqrt(1.0 + r[:, 0, 0] - r[:, 1, 1] - r[:, 2, 2]) * 2.0
    q[by_x] = np.stack([(r[:, 2, 1] - r[:, 1, 2]) / s, 0.25 * s,
                        (r[:, 0, 1] + r[:, 1, 0]) / s, (r[:, 0, 2] + r[:, 2, 0]) / s], axis=-1)
    r = m[by_y]
    s = np.sqrt(1.0 + r[:, 1, 1] - r[:, 0, 0] - r[:, 2, 2]) * 2.0
    q[by_y] = np.stack([(r[:, 0, 2] - r[:, 2, 0]) / s, (r[:, 0, 1] + r[:, 1, 0]) / s,
                        0.25 * s, (r[:, 1, 2] + r[:, 2, 1]) / s], axis=-1)
    r = m[by_z]
    s = np.sqrt(1.0 + r[:, 2, 2] - r[:, 0, 0] - r[:, 1, 1]) * 2.0
    q[by_z] = np.stack([(r[:, 1, 0] - r[:, 0, 1]) / s, (r[:, 0, 2] + r[:, 2, 0]) / s,
                        (r[:, 1, 2] + r[:, 2, 1]) / s, 0.25 * s], axis=-1)
    q = quat_normalize(q)
    q[q[:, 0] < 0.0] *= -1.0
    return q.reshape(shape + (4,))


def quat_from_yaw(yaw) -> np.ndarray:
    """Pure z-axis rotation quaternion(s); yaw may be scalar or (...,)."""
    yaw = np.asarray(yaw, dtype=np.float64)
    half = 0.5 * yaw
    zeros = np.zeros_like(half)
    return np.stack([np.cos(half), zeros, zeros, np.sin(half)], axis=-1)


def yaw_from_quat(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q[..., i] for i in range(4))
    # xy components of the rotated +X axis
    return np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))


def rot_z(yaw) -> np.ndarray:
    """Rotation matrix/matrices about +Z; yaw may be scalar or (...,)."""
    yaw = np.asarray(yaw, dtype=np.float64)
    c, s = np.cos(yaw), np.sin(yaw)
    zero = np.zeros_like(c)
    one = np.ones_like(c)
    rot = np.stack(
        [
            np.stack([c, -s, zero], axis=-1),
            np.stack([s, c, zero], axis=-1),
            np.stack([zero, zero, one], axis=-1),
        ],
        axis=-2,
    )
    return rot


def wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    angle = np.asarray(angle, dtype=np.float64)
    wrapped = np.mod(angle + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def quat_geodesic_angle(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Geodesic angle between two unit quaternions, 2*acos(|<q1, q2>|)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    dot = np.abs(np.sum(q1 * q2, axis=-1))
    return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))


def matrix_geodesic_angle(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Geodesic angle between rotation matrices via the relative trace."""
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    rel = np.einsum("...ji,...jk->...ik", r1, r2)
    trace = rel[..., 0, 0] + rel[..., 1, 1] + rel[..., 2, 2]
    return np.arccos(np.clip((trace - 1.0) * 0.5, -1.0, 1.0))
