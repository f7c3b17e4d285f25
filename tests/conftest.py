"""Shared oracles for the test suite.

The scan-time oracle here is deliberately independent of the solver under
test: it evaluates the scanline-crossing residual through the generic camera
matrix machinery and finds the root by dense scan plus plain bisection.  The
Jacobian oracle takes central differences of the bundle-adjustment residuals.
The single-point references write one point's arithmetic out with 1-D numpy
calls; the batched helpers must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from rscam.geometry import CameraIntrinsics, MotionState, camera_matrix_at, hat
from rscam.shutter import project_rolling_shutter


def scanline_residual(point, motion, intrinsics, shutter, t, linearized=True):
    """pi_y(P(t) X) - (r t - v0) built directly from camera matrices."""
    p = camera_matrix_at(motion, intrinsics, t, linearized=linearized)
    x = np.append(np.asarray(point, dtype=float), 1.0)
    q = p @ x
    return q[1] / q[2] - (shutter.scan_rate * t - shutter.first_row)


def bisect_scan_time(point, motion, intrinsics, shutter, linearized=True,
                     n_scan=4000, iterations=200):
    """Smallest in-window root of the scanline residual, by scan + bisection."""
    t_max = intrinsics.height / abs(shutter.scan_rate)
    ts = np.linspace(0.0, t_max, n_scan)
    values = [scanline_residual(point, motion, intrinsics, shutter, t, linearized)
              for t in ts]
    for i in range(n_scan - 1):
        f_lo, f_hi = values[i], values[i + 1]
        if f_lo == 0.0:
            return float(ts[i])
        if f_lo * f_hi > 0.0:
            continue
        lo, hi = float(ts[i]), float(ts[i + 1])
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            f_mid = scanline_residual(point, motion, intrinsics, shutter, mid,
                                      linearized)
            if f_mid == 0.0:
                return mid
            if f_lo * f_mid < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        return 0.5 * (lo + hi)
    raise AssertionError("oracle found no scan time in the frame window")


def grouped_jacobian(fun, x: np.ndarray, n_cam: int, point_cols: np.ndarray,
                     n_residuals: int, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian exploiting the point-block sparsity.

    Camera parameters are perturbed one at a time; all points share three
    grouped perturbations (one per coordinate) because each residual depends
    on a single point.  point_cols[k] is the parameter column of the point
    behind residual row k.
    """
    jac = np.zeros((n_residuals, len(x)))
    rows = np.arange(n_residuals)
    for j in range(n_cam):
        h = step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (fun(xp) - fun(xm)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(x[n_cam:]))) if len(x) > n_cam else 1.0)
    h = step * scale
    for c in range(3):
        xp, xm = x.copy(), x.copy()
        xp[n_cam + c::3] += h
        xm[n_cam + c::3] -= h
        delta = (fun(xp) - fun(xm)) / (2.0 * h)
        jac[rows, point_cols + c] = delta
    return jac


@pytest.fixture
def normalized_camera() -> CameraIntrinsics:
    return CameraIntrinsics.normalized(width=1, height=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240531)


def invert_one(pixel, depth, motion, intrinsics, shutter):
    """The world point at `depth` imaged at one pixel (invert_fronto_parallel)."""
    pose, w_hat = motion.pose0, hat(motion.angular_velocity)
    tau = (pixel[1] + shutter.first_row) / shutter.scan_rate
    ray = np.linalg.solve(intrinsics.K, np.array([pixel[0], pixel[1], 1.0]))
    v_eff = motion.linear_velocity - w_hat @ pose.translation
    y = np.linalg.solve(np.eye(3) + tau * w_hat, depth * ray / ray[2] - tau * v_eff)
    return pose.rotation.T @ (y - pose.translation)


def drift_one(point, motion, intrinsics, shutter):
    """Pixel drift per scanned row of one point (drift_per_row)."""
    pose = motion.pose0
    rx = np.asarray(point, dtype=float)[None] @ pose.rotation.T
    w = rx @ hat(motion.angular_velocity).T + motion.linear_velocity
    (y,), (w,) = rx + pose.translation + 0.0 * w, w
    kp, kw = intrinsics.K @ y, intrinsics.K @ w
    flow = (kw[:2] * kp[2] - kp[:2] * kw[2]) / (kp[2] * kp[2])
    return float(np.linalg.norm(flow)) / abs(shutter.scan_rate)


def flow_analytic_one(u, v, z, motion, shutter):
    """Analytic rolling-shutter flow (du, dv) of one image point."""
    vx, vy, _ = motion.linear_velocity
    wz, r = motion.angular_velocity[2], shutter.scan_rate
    du_p, dv_p = vx / z - wz * v, vy / z + wz * u
    factor = r * z / (v * vx * wz + r * z * (r - dv_p))
    return factor * (r * du_p + wz * v * dv_p), factor * (r * dv_p - wz * v * du_p)


def flow_difference_one(u, v, z, motion, shutter, h):
    """Central-difference flow (du, dv) of one image point across t0 = +/-h."""
    k = CameraIntrinsics.normalized()
    point = invert_one((u, v), z, motion, k, shutter)
    ahead, behind = (project_rolling_shutter(point, motion, k, shutter, frame_start=t0,
                                             enforce_window=False).pixel for t0 in (h, -h))
    return tuple((ahead - behind) / (2.0 * h))


def line_distance_one(point_a, direction_a, point_b, direction_b):
    """Distance between two lines given by points and unit directions."""
    cross = np.cross(direction_a, direction_b)
    offset = point_b - point_a
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        return float(np.linalg.norm(offset - (offset @ direction_a) * direction_a))
    return float(abs(offset @ cross) / norm)
