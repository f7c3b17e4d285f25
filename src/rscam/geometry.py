"""Pose algebra on SO(3)/SE(3) and the ideal perspective camera.

Conventions used throughout the package:

- A pose (R, T) maps world points to camera coordinates, x_cam = R @ x_world + T.
  The camera viewpoint in world coordinates is V = -R.T @ T.
- A camera matrix is P = K @ [R | T] with K upper triangular (pixel units).
- Motion is a constant camera-frame linear velocity v (m/s) and angular
  velocity omega (rad/s) about the camera axes, so that
  R(t) = exp(hat(omega) * t) @ R(0) and T(t) = T(0) + v * t.

All functions are pure; values are plain numpy arrays and frozen dataclasses,
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROTATION_ATOL = 1e-10


def hat(omega) -> np.ndarray:
    """Skew-symmetric matrices (..., 3, 3) of 3-vectors (..., 3): hat(w) @ u == cross(w, u)."""
    w = np.asarray(omega, dtype=float)
    x, y, z, zero = w[..., 0], w[..., 1], w[..., 2], np.zeros(w.shape[:-1])
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(w.shape + (3,))


def row_dot(a, b) -> np.ndarray:
    """a @ b over the last axis, broadcast, each with the arithmetic of one; a
    matrix m applies to vectors x in the same way as (m @ x[..., None])[..., 0]."""
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def rotation_exp(omega, t: float = 1.0) -> np.ndarray:
    """Rodrigues exponential: the rotations (..., 3, 3) reached after time t at
    the rates omega (..., 3)."""
    w = np.asarray(omega, dtype=float) * float(t)
    theta = np.sqrt(row_dot(w, w))[..., None, None]
    small = theta < 1e-12
    # Below 1e-12 the first-order term only; its error is O(theta^2) < 1e-24.
    k = hat(w / np.where(small, 1.0, theta)[..., 0])
    return np.where(small, np.eye(3) + hat(w),
                    np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k))


def rotation_left_jacobian(omega) -> np.ndarray:
    """Left Jacobians J (..., 3, 3) of SO(3) at omega (..., 3):
    exp(omega + d) ~ exp(J d) exp(omega) for small d."""
    theta = np.sqrt(row_dot(omega, omega))[..., None, None]
    series = theta < 1e-4       # the series is exact to O(theta^2)
    safe = np.where(series, 1.0, theta)
    a = np.where(series, 0.5, (1.0 - np.cos(safe)) / safe ** 2)
    b = np.where(series, 1.0 / 6.0, (safe - np.sin(safe)) / safe ** 3)
    k = hat(omega)
    return np.eye(3) + a * k + b * (k @ k)


def rotation_log(rotation) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse of rotation_exp at t=1).

    Angles near pi are recovered from the symmetric part R + I, whose columns
    are parallel to the rotation axis, avoiding division by sin(theta) ~ 0.
    """
    r = np.asarray(rotation, dtype=float)
    check_rotation(r)
    trace = float(np.trace(r))
    cos_theta = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    theta = math.acos(cos_theta)
    antisym = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-8:
        return 0.5 * antisym
    if theta <= 0.75 * math.pi:
        return (theta / (2.0 * math.sin(theta))) * antisym
    # Large angles: the trace-based theta and 1/sin(theta) lose precision
    # toward pi.  The symmetric part gives the axis exactly,
    #   R + R^T + (1 - trace) I = 2 (1 - cos(theta)) axis axis^T,
    # and the antisymmetric norm 2 sin(theta) gives a well-conditioned angle.
    m = r + r.T + (1.0 - trace) * np.eye(3)
    col = int(np.argmax(np.linalg.norm(m, axis=0)))
    axis = m[:, col] / np.linalg.norm(m[:, col])
    sin_theta = 0.5 * float(np.linalg.norm(antisym))
    theta = math.pi - math.asin(min(1.0, sin_theta))
    # Keep the sign consistent with the antisymmetric part when it is nonzero.
    if sin_theta > 1e-12 and float(axis @ antisym) < 0.0:
        axis = -axis
    return axis * theta


def check_rotation(r: np.ndarray, atol: float = ROTATION_ATOL) -> None:
    """Raise ValueError unless r is orthogonal with determinant +1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    # One bound on and off the diagonal (NaN and inf fail it).
    if not (np.abs(r @ r.T - np.eye(3)) <= max(atol, 1e-9)).all():
        raise ValueError("matrix is not orthogonal")
    if abs(float(np.linalg.det(r)) - 1.0) > max(atol, 1e-9):
        raise ValueError("matrix determinant is not +1")


@dataclass(frozen=True)
class Pose:
    """Rigid transform world -> camera: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))
        check_rotation(self.rotation)
        if not np.all(np.isfinite(self.translation)):
            raise ValueError("translation must be finite")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def viewpoint(self) -> np.ndarray:
        """Camera center in world coordinates, V = -R.T @ T."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Calibration matrix plus sensor geometry.

    pixel_size is the normalized length of one pixel (1/focal-length-in-pixels
    for square pixels); width and height are the sensor size in pixels.
    """

    K: np.ndarray
    pixel_size: float
    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))
        if self.K.shape != (3, 3):
            raise ValueError("K must be 3x3")
        if abs(self.K[1, 0]) > 1e-12 or abs(self.K[2, 0]) > 1e-12 or abs(self.K[2, 1]) > 1e-12:
            raise ValueError("K must be upper triangular")
        if np.any(np.diag(self.K) <= 0):
            raise ValueError("K diagonal must be positive")
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")

    @staticmethod
    def normalized(width: int = 1, height: int = 1) -> "CameraIntrinsics":
        """Identity-K camera: image coordinates are already normalized."""
        return CameraIntrinsics(np.eye(3), 1.0, width, height)

    @staticmethod
    def from_fov(fov_x_deg: float, width: int, height: int) -> "CameraIntrinsics":
        """Square-pixel camera with the given horizontal field of view."""
        focal = 0.5 * width / math.tan(math.radians(fov_x_deg) / 2.0)
        k = np.array([
            [focal, 0.0, width / 2.0],
            [0.0, focal, height / 2.0],
            [0.0, 0.0, 1.0],
        ])
        return CameraIntrinsics(k, 1.0 / focal, width, height)

    @property
    def focal_y(self) -> float:
        return float(self.K[1, 1])

    @property
    def center_y(self) -> float:
        return float(self.K[1, 2])


@dataclass(frozen=True)
class MotionState:
    """Pose at t=0 plus constant camera-frame linear and angular velocities."""

    pose0: Pose = field(default_factory=Pose.identity)
    linear_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "linear_velocity",
                           np.asarray(self.linear_velocity, dtype=float).reshape(3))
        object.__setattr__(self, "angular_velocity",
                           np.asarray(self.angular_velocity, dtype=float).reshape(3))
        if not (np.all(np.isfinite(self.linear_velocity))
                and np.all(np.isfinite(self.angular_velocity))):
            raise ValueError("velocities must be finite")

    @property
    def is_fronto_parallel(self) -> bool:
        """v_z = 0 and rotation only about the optical axis."""
        v, w = self.linear_velocity, self.angular_velocity
        return bool(v[2] == 0.0 and w[0] == 0.0 and w[1] == 0.0)


def project_perspective(point, camera_matrix: np.ndarray) -> np.ndarray:
    """Pin-hole projections (x/z, y/z) of points (N, 3) or (N, 4) by a 3x4 matrix.

    Raises ValueError when a transformed depth is within 1e-12 of zero
    (point on the camera plane); negative depths are projected as-is so the
    map stays homogeneous in the camera matrix.
    """
    x = np.asarray(point, dtype=float)
    x = np.insert(x, 3, 1.0, axis=-1) if x.shape[-1] == 3 else x
    p = (np.asarray(camera_matrix, dtype=float) @ x[..., None])[..., 0]
    if np.any(np.abs(p[..., 2]) < 1e-12):
        raise ValueError("point projects to the camera plane (depth ~ 0)")
    return p[..., :2] / p[..., 2:]
