"""Shared oracles for the test suite.

The scan-time oracle here is deliberately independent of the solver under
test: it evaluates the scanline-crossing residual through camera matrices
K [R(t) | T(t)] of the moving camera and finds the root by dense scan plus
plain bisection.  `exact_scan_times` is the exact solver with brackets from
the residual itself on the sample grid, the oracle of the solver's brackets
from one product per block.  The Jacobian oracle takes central differences
of the bundle-adjustment residuals.
The single-point references write one point's arithmetic out with 1-D numpy
calls; the batched helpers must reproduce them bit for bit.  The per-problem
Levenberg-Marquardt loop and its normal equations (point sums by np.add.at,
3x3 point blocks by np.linalg.solve) are the oracle of the batched LM, and the
per-row checkerboard raster that of the block raster, and the line-by-line
board lattice that of the array-built one.  `hat_stack`, `rodrigues` and
`rotation_left_jacobian` write the pose algebra out one formula each, the
oracles of `geometry.hat` and of the fused `geometry.rotation_exp_and_jacobian`.
`load_problem` reads the snapshots that `sfm.save_problem` writes, and so
pins their format.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rscam import render, sfm
from rscam.geometry import CameraIntrinsics, Pose, hat, rotation_exp, row_dot
from rscam.shutter import (DEPTH_EPS, EXACT_BLOCK, EXACT_MAX_STEPS, EXACT_SAMPLES, IMAGED,
                           NEGATIVE_DEPTH, NO_SCAN_TIME, SINGULARITY, ShutterParams,
                           project_rolling_shutter, solve_scan_times)


def camera_matrix_at(motion, intrinsics, t, linearized=False):
    """3x4 camera matrix K [R(t) | T(t)] of the moving camera at time t;
    linearized replaces exp(hat(w) t) with I + t hat(w)."""
    r0, w = motion.pose0.rotation, motion.angular_velocity
    rt = ((np.eye(3) + t * hat(w)) if linearized else rotation_exp(w * t)) @ r0
    return intrinsics.K @ np.column_stack([rt, motion.pose0.translation
                                           + motion.linear_velocity * t])


def scanline_residual(point, motion, intrinsics, shutter, t, linearized=True,
                      frame_start=0.0):
    """pi_y(P(t0 + t) X) - (r t - v0) built directly from camera matrices, for
    the frame starting at t0 = frame_start."""
    p = camera_matrix_at(motion, intrinsics, frame_start + t, linearized=linearized)
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


def exact_scan_times(points, motion, intrinsics, shutter, frame_start=0.0):
    """(t, reason, caught_twice, capture) of `solve_scan_times(..., exact=True)`,
    bracketing on the residual's own signs over the sample grid, a block of
    points at a time, then refining every bracket by the Illinois method."""
    x = np.atleast_2d(np.asarray(points, dtype=float))[:, :3]
    n = len(x)
    rx = x @ motion.pose0.rotation.T
    base = rx + motion.pose0.translation
    v = motion.linear_velocity
    speed = float(np.linalg.norm(motion.angular_velocity))
    axis = hat(motion.angular_velocity / speed) if speed > 0.0 else np.zeros((3, 3))
    k1 = rx @ axis.T
    k2 = k1 @ axis.T

    def at(tau, rows=slice(None), cols=slice(None)):
        p = base[rows, cols] + tau * v[cols]
        if speed == 0.0:
            return p
        theta = speed * tau
        return (p + np.sin(theta) * k1[rows, cols]
                + (1.0 - np.cos(theta)) * k2[rows, cols])

    fy, cy = intrinsics.focal_y, intrinsics.center_y
    r, v0 = shutter.scan_rate, shutter.first_row
    t_max = shutter.scan_duration(intrinsics.height)

    def residual(t, rows):
        p = at((frame_start + t)[..., None], rows, slice(1, 3))
        front = p[..., 1] > DEPTH_EPS
        row = (fy * p[..., 0] + cy * p[..., 1]) / np.where(front, p[..., 1], 1.0)
        return row - (r * t - v0), front

    ts = t_max * np.linspace(0.0, 1.0, EXACT_SAMPLES)
    behind = np.zeros(n, dtype=bool)
    brackets = []
    for first in range(0, n, EXACT_BLOCK):
        rows = slice(first, first + EXACT_BLOCK)
        f, front = residual(ts[:, None], rows)
        behind[rows] = ~front.all(axis=0)
        f[~front] = np.nan
        s, k = np.nonzero(f == 0.0)
        brackets.append((first + k, ts[s], ts[s], f[s, k], f[s, k]))
        s, k = np.nonzero(f[:-1] * f[1:] < 0.0)
        brackets.append((first + k, ts[s], ts[s + 1], f[s, k], f[s + 1, k]))
    owner, a, b, f_a, f_b = (np.concatenate(parts) for parts in zip(*brackets))

    alive = np.ones(len(a), dtype=bool)
    active = f_b != 0.0
    for _ in range(EXACT_MAX_STEPS):
        k = np.flatnonzero(active)
        if k.size == 0:
            break
        ak, bk, fak, fbk = a[k], b[k], f_a[k], f_b[k]
        t = bk - fbk * (bk - ak) / (fbk - fak)
        t = np.where((t - ak) * (t - bk) < 0.0, t, 0.5 * (ak + bk))
        ft, alive[k] = residual(t, owner[k])
        swap = ft * fbk < 0.0
        a[k], f_a[k] = np.where(swap, bk, ak), np.where(swap, fbk, 0.5 * fak)
        b[k], f_b[k] = t, ft
        active[k] = alive[k] & (ft != 0.0) & (np.abs(t - a[k]) > 1e-14 * t_max)
    behind[owner[~alive]] = True

    earliest = np.full(n, np.inf)
    latest = np.full(n, -np.inf)
    np.minimum.at(earliest, owner[alive], b[alive])
    np.maximum.at(latest, owner[alive], b[alive])
    found = earliest < np.inf
    twice = found & (latest - earliest > 1e-9 * max(1.0, t_max))
    reason = np.where(found, IMAGED, np.where(behind, NEGATIVE_DEPTH, NO_SCAN_TIME))
    t = np.where(found, earliest, 0.0)
    return t, reason, twice, at((frame_start + t)[:, None])


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


def hat_stack(omega):
    """Skew-symmetric matrices (..., 3, 3) of omega (..., 3) from one np.stack of
    their nine entries."""
    w = np.asarray(omega, dtype=float)
    x, y, z, zero = w[..., 0], w[..., 1], w[..., 2], np.zeros(w.shape[:-1])
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(w.shape + (3,))


def rodrigues(omega):
    """Rotations (..., 3, 3) of omega (..., 3): I + sin(theta) k + (1 - cos(theta)) k^2,
    k the unit axis's skew matrix; I + hat(omega) below theta = 1e-12."""
    w = np.asarray(omega, dtype=float)
    theta = np.sqrt(row_dot(w, w))[..., None, None]
    small = theta < 1e-12
    k = hat_stack(w / np.where(small, 1.0, theta)[..., 0])
    rotation = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    return np.where(small, np.eye(3) + hat_stack(w), rotation) if small.any() else rotation


def rotation_left_jacobian(omega):
    """SO(3) left Jacobians (..., 3, 3) at omega (..., 3): I + a k + b k^2, k = hat(omega),
    a = (1 - cos(theta)) / theta^2 and b = (theta - sin(theta)) / theta^3, or their
    series limits 1/2 and 1/6 below theta = 1e-4."""
    theta = np.sqrt(row_dot(omega, omega))[..., None, None]
    series = theta < 1e-4
    safe = np.where(series, 1.0, theta)
    a = np.where(series, 0.5, (1.0 - np.cos(safe)) / safe ** 2)
    b = np.where(series, 1.0 / 6.0, (safe - np.sin(safe)) / safe ** 3)
    k = hat_stack(omega)
    return np.eye(3) + a * k + b * (k @ k)


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


def perspective_pixels(points, pose: Pose, intrinsics: CameraIntrinsics):
    """Pin-hole pixels (N, 2) of points (N, 3) and the mask of those in front."""
    p = points @ pose.rotation.T + pose.translation
    q = p @ intrinsics.K.T
    ok = p[:, 2] > 1e-9
    depth = np.where(ok, q[:, 2], 1.0)
    return q[:, :2] / depth[:, None], ok


def one_problem_residuals(batch, x):
    """sfm._residuals of a one-problem batch at x (camera parameters, then
    points), laid out per observation, camera 1's first: (residuals (2N,
    2)-raveled, camera blocks (2N, 2, n_cam), point blocks (2N, 2, 3))."""
    n_cam = sfm._N_CAM
    state = sfm._residuals(batch, x[None, :n_cam], x[n_cam:].reshape(-1, 3))
    r, cam_jac, point_jac = state[..., n_cam], state[..., :n_cam], state[..., n_cam + 1:]
    return (r.transpose(1, 0, 2).ravel(), cam_jac.transpose(1, 0, 2, 3).reshape(-1, 2, n_cam),
            point_jac.transpose(1, 0, 2, 3).reshape(-1, 2, 3))


class NormalEquations:
    """J^T J and J^T r in blocks: with Jc and Jp the camera and point columns
    of J, cam = Jc^T [Jc | r] = [U | g_c], and point[i] = [W_i^T | g_i | V_i]
    sums Jp^T [Jc | r | Jp] over point i's observations.
    """

    def __init__(self, cam_jac, point_jac, point_index, residual, n_points):
        n_cam = cam_jac.shape[2]
        rows = np.concatenate([cam_jac, residual.reshape(-1, 2, 1), point_jac], axis=2)
        flat = rows.reshape(-1, n_cam + 4)
        self.cam = flat[:, :n_cam].T @ flat[:, :n_cam + 1]
        self.point = np.zeros((n_points, 3, n_cam + 4))
        np.add.at(self.point, point_index, point_jac.transpose(0, 2, 1) @ rows)
        self.gradient = np.concatenate([self.cam[:, n_cam], self.point[:, :, n_cam].ravel()])
        self.diag = np.maximum(np.concatenate([
            np.diag(self.cam), np.einsum("nii->ni", self.point[:, :, n_cam + 1:]).ravel()]),
            1e-12)

    def step(self, lam: float) -> np.ndarray:
        """Solution of (J^T J + lam diag(J^T J)) delta = -g."""
        n_cam = len(self.cam)
        damping = lam * self.diag
        v = self.point[:, :, n_cam + 1:] + damping[n_cam:].reshape(-1, 3, 1) * np.eye(3)
        solved = np.linalg.solve(v, self.point[:, :, :n_cam + 1])   # V_i^-1 [W_i^T | g_i]
        reduced = self.cam - np.einsum("nji,njk->ik", self.point[:, :, :n_cam], solved)
        d_cam = np.linalg.solve(reduced[:, :n_cam] + np.diag(damping[:n_cam]),
                                -reduced[:, n_cam])
        d_point = -(solved[:, :, n_cam] + solved[:, :, :n_cam] @ d_cam)
        return np.concatenate([d_cam, d_point.ravel()])


def levenberg_marquardt(fun, x0, n_cam, point_index):
    """(x, residuals at x, iterations, termination, cost history) of one LM run.

    fun(x) gives the residuals and their blocks (see `one_problem_residuals`).
    Termination is "gradient", "cost", "lambda" or "limit".  The limits are
    the protocol's constants in `sfm`, read at call time.
    """
    x = x0.copy()
    r, *blocks = fun(x)
    cost = 0.5 * float(r @ r)
    history = [cost]
    lam, nu, termination, iterations = None, 2.0, "limit", 0
    n_points = (len(x) - n_cam) // 3
    for iterations in range(1, sfm.MAX_ITERATIONS + 1):
        system = NormalEquations(*blocks, point_index, r, n_points)
        g = system.gradient
        if float(np.max(np.abs(g))) < sfm.GRADIENT_TOLERANCE:
            termination = "gradient"
            break
        diag = system.diag
        if lam is None:
            lam = 1e-3 * float(diag.max())
        accepted = False
        while not accepted:
            try:
                delta = system.step(lam)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                x_new = x + delta
                r_new, *blocks_new = fun(x_new)
                cost_new = 0.5 * float(r_new @ r_new)
                predicted = 0.5 * float(delta @ (lam * diag * delta - g))
                rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
            else:
                rho = -1.0
            if rho > 0:
                accepted = True
                rel_decrease = (cost - cost_new) / max(cost, 1e-300)
                x, r, blocks, cost = x_new, r_new, blocks_new, cost_new
                history.append(cost)
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                if rel_decrease < sfm.COST_TOLERANCE:
                    termination = "cost"
            else:
                lam *= nu
                nu *= 2.0
                if lam > 1e16:
                    return x, r, iterations, "lambda", history
        if termination == "cost":
            break
    return x, r, iterations, termination, history


def render_checkerboard_rows(intrinsics, shutter, omega_z_rev_s, plane_depth, square_size):
    """render.render_checkerboard one pixel row at a time."""
    w, h = intrinsics.width, intrinsics.height
    k_inv = np.linalg.inv(intrinsics.K)
    us = np.arange(w) + 0.5
    vs = np.arange(h) + 0.5
    omega = 2.0 * math.pi * omega_z_rev_s
    image = np.empty((h, w))
    ray_row = np.column_stack([us, np.zeros(w), np.ones(w)])
    for row in range(h):
        ray_row[:, 1] = vs[row]
        d = ray_row @ k_inv.T
        t = (vs[row] + shutter.first_row) / shutter.scan_rate
        theta = omega * t
        c, s = math.cos(theta), math.sin(theta)
        # Rays of the rotated camera: R(t)^T applied to the pixel rays.
        x = c * d[:, 0] + s * d[:, 1]
        y = -s * d[:, 0] + c * d[:, 1]
        scale = plane_depth / d[:, 2]
        bx = np.floor(x * scale / square_size).astype(int)
        by = np.floor(y * scale / square_size).astype(int)
        image[row] = ((bx + by) % 2).astype(float)
    return image


def project_board_lattice_lines(intrinsics, shutter, omega_z_rev_s, plane_depth, square_size,
                                squares, samples_per_edge):
    """render.project_board_lattice from a point list built line by line, and
    each grid line's deflection in a loop over the lines."""
    half = 0.5 * squares * square_size
    coords = np.linspace(-half, half, squares + 1)
    ts = -half + 2 * half * np.linspace(0.0, 1.0, samples_per_edge)
    board = [(gx, gy) for gy in coords for gx in coords]
    lines = []
    for fixed in coords:
        for horizontal in (True, False):
            lines.append(range(len(board), len(board) + len(ts)))
            board.extend((t, fixed) if horizontal else (fixed, t) for t in ts)
    points = np.column_stack([np.array(board), np.full(len(board), plane_depth)])
    result = solve_scan_times(points, render.spin_motion(omega_z_rev_s), intrinsics, shutter,
                              exact=True)
    kept = ~np.isin(result.reason, (NO_SCAN_TIME, SINGULARITY))
    pixels = np.full((len(board), 2), np.nan)
    pixels[kept] = result.projection(kept, intrinsics).pixel
    corners = pixels[:len(coords) ** 2][kept[:len(coords) ** 2]]
    polylines = []
    max_deflection = 0.0
    for indices in lines:
        pts = pixels[indices][kept[indices]]
        if len(pts) < 3:
            continue
        polylines.append(pts)
        a, b = pts[0], pts[-1]
        chord = b - a
        norm = np.linalg.norm(chord)
        if norm < 1e-9:
            continue
        normal = np.array([-chord[1], chord[0]]) / norm
        deflection = float(np.max(np.abs((pts - a) @ normal)))
        max_deflection = max(max_deflection, deflection)
    return corners, polylines, max_deflection


def load_problem(path) -> sfm.SfmProblem:
    """The problem of a `sfm.save_problem` snapshot.  ValueError unless its
    views share one camera, neither spins, and each lists every point in order."""
    payload = json.loads(Path(path).read_text())
    cameras, observations = payload["cameras"], payload["observations"]
    shared = [{key: value for key, value in cam.items()
               if key not in ("rotation", "translation", "linear_velocity")} for cam in cameras]
    if shared[0] != shared[1]:
        raise ValueError("the views of a snapshot must share one camera")
    if any(any(cam["angular_velocity"]) for cam in cameras):
        raise ValueError("a snapshot's camera must not spin")
    if any(obs["indices"] != list(range(len(payload["points"]))) for obs in observations):
        raise ValueError("each view must list every point in order")
    cam = cameras[0]
    return sfm.SfmProblem(
        points=np.array(payload["points"], dtype=float),
        intrinsics=CameraIntrinsics(np.array(cam["K"]), cam["pixel_size"], cam["width"],
                                    cam["height"]),
        shutter=ShutterParams(scan_rate=cam["scan_rate"], first_row=cam["first_row"],
                              framerate=cam["framerate"]),
        poses=tuple(Pose(np.array(c["rotation"]), np.array(c["translation"])) for c in cameras),
        velocities=np.array([c["linear_velocity"] for c in cameras], dtype=float),
        pixels=np.stack([np.array(obs["pixels"], dtype=float) for obs in observations], axis=1),
        noise_sigma=payload["noise_sigma"],
        rng_seed=tuple(payload["rng_seed"]),
    )
