"""Two-view structure-from-motion benchmark under rolling-shutter imaging.

Synthetic scenes are imaged by two moving rolling-shutter cameras, pixel
noise is added, and bundle adjustment is run twice: once with a projection
model that accounts for the rolling shutter and once with a plain pin-hole
model.  Comparing the recovered motion against ground truth quantifies the
systematic bias a rolling shutter induces in standard structure-from-motion.

The default scene follows the benchmark protocol: 100 points in a 4 m cube
about 10 m away, a 40 degree field of view at 640x480, 15 frames/second with
the scan spanning the full frame period, camera row-velocity given in km/h,
and i.i.d. Gaussian pixel noise.  Bundle adjustment is Levenberg-Marquardt
on all reprojection residuals, camera 1 frozen and the baseline held (gauge,
so the translation metric is direction-only), with an analytic Jacobian and
steps from the 6x6 (18x18 with velocities) reduced camera system left after
eliminating the 3x3 point blocks.  One array-shaped LM runs every trial and
model of a grid cell, each problem at its own lambda with the iterates of a
run alone; `bundle_adjust` is a batch of one.

Every random quantity is drawn from a generator seeded by the caller, and
per-trial streams derive from (seed, cell, trial): results are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import (CameraIntrinsics, MotionState, Pose, rotation_exp,
                       rotation_left_jacobian, rotation_log, row_dot)
from .shutter import (DEPTH_EPS, ShutterParams, scan_time_gradient, solve_path_times,
                      solve_scan_times)

RS_MODEL = "rolling_shutter"
PERSPECTIVE_MODEL = "perspective"
MODELS = (RS_MODEL, PERSPECTIVE_MODEL)

KMH_TO_MS = 1.0 / 3.6


@dataclass(frozen=True)
class SceneConfig:
    """Scene, camera, and noise parameters for one synthetic problem."""

    n_points: int = 100
    cloud_distance: float = 10.0        # meters from camera 1 to cloud center
    cloud_side: float = 4.0             # cube side, meters
    fov_deg: float = 40.0
    width: int = 640
    height: int = 480
    framerate: float = 15.0
    velocity_kmh: float = 0.0           # camera-frame row velocity v_y
    noise_sigma: float = 0.0            # pixels, per coordinate
    view_cone_deg: float = 40.0         # camera-2 direction cone about camera 1's axis
    distance_jitter: float = 0.2        # camera-2 distance spread (fraction)
    attitude_noise_deg: float = 2.0     # extra random attitude error on camera 2
    scan_rate: float | None = None      # rows/s; default height * framerate
    first_row: float = 0.0

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.from_fov(self.fov_deg, self.width, self.height)

    def shutter(self) -> ShutterParams:
        rate = self.scan_rate if self.scan_rate is not None else self.height * self.framerate
        return ShutterParams(scan_rate=rate, first_row=self.first_row,
                             framerate=self.framerate)


@dataclass(frozen=True)
class SfmCamera:
    motion: MotionState
    intrinsics: CameraIntrinsics
    shutter: ShutterParams


@dataclass(frozen=True)
class SfmProblem:
    """Scene points, camera states, and (noisy) observations.

    observations[j] = (point_indices, pixels) for camera j; every index
    refers into `points`, and every listed point is imaged in-frame by the
    generating rolling-shutter model before noise.
    """

    points: np.ndarray
    cameras: tuple[SfmCamera, ...]
    observations: tuple[tuple[np.ndarray, np.ndarray], ...]
    noise_sigma: float
    rng_seed: tuple[int, ...]


@dataclass(frozen=True)
class SfmSolution:
    poses: tuple[Pose, ...]
    points: np.ndarray
    velocities: tuple[tuple[np.ndarray, np.ndarray], ...] | None
    reprojection_rms: float
    rotation_error_deg: float
    translation_direction_error_deg: float
    model_used: str
    iterations: int
    converged: bool
    cost_history: tuple[float, ...] = ()  # half sum-of-squares after each accepted step
    termination: str = ""   # one of TERMINATIONS; only "limit" is not converged


@dataclass(frozen=True)
class BundleOptions:
    max_iterations: int = 200
    cost_tolerance: float = 1e-10
    gradient_tolerance: float = 1e-8
    init_rotation_deg: float = 2.0
    init_translation_frac: float = 0.02
    estimate_velocities: bool = False


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at `center` aimed at `target`."""
    z_axis = target - center
    z_axis = z_axis / np.linalg.norm(z_axis)
    up = np.array([0.0, 1.0, 0.0])
    if abs(float(z_axis @ up)) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    x_axis = np.cross(up, z_axis)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    return np.vstack([x_axis, y_axis, z_axis])


def generate_problem(config: SceneConfig, seed) -> SfmProblem:
    """Random scene imaged by two moving rolling-shutter cameras.

    Camera 1 sits at the origin looking down +z at the point cloud; camera 2
    is placed at a random position on the order of the cloud distance (its
    viewing direction drawn inside a cone about camera 1's axis), aimed at
    the cloud center, with a small random attitude error.  Both cameras move
    with camera-frame velocity (0, v_y, 0).  Observations are the closed-form
    rolling-shutter projections of the points visible in-frame in BOTH views
    (at least 8 required), plus Gaussian pixel noise.
    """
    seed_t = _seed_tuple(seed)
    rng = np.random.default_rng(seed_t)
    points = rng.uniform(-0.5 * config.cloud_side, 0.5 * config.cloud_side,
                         size=(config.n_points, 3))
    points[:, 2] += config.cloud_distance

    intrinsics = config.intrinsics()
    shutter = config.shutter()
    v_ms = config.velocity_kmh * KMH_TO_MS
    velocity = np.array([0.0, v_ms, 0.0])

    pose1 = Pose.identity()
    cloud_center = np.array([0.0, 0.0, config.cloud_distance])
    # Viewing direction of camera 2, inside a cone about camera 1's axis.
    cone = math.radians(config.view_cone_deg)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    polar = math.acos(1.0 - rng.uniform(0.0, 1.0) * (1.0 - math.cos(cone)))
    view_dir = np.array([
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    ])
    distance2 = config.cloud_distance * (1.0 + config.distance_jitter * rng.uniform(-1.0, 1.0))
    center2 = cloud_center - distance2 * view_dir
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    wobble = rotation_exp(axis * math.radians(rng.uniform(0.0, config.attitude_noise_deg)))
    r2 = wobble @ _look_at(center2, cloud_center)
    pose2 = Pose(r2, -r2 @ center2)

    cameras = tuple(
        SfmCamera(MotionState(pose, velocity, np.zeros(3)), intrinsics, shutter)
        for pose in (pose1, pose2)
    )

    t_window = shutter.scan_duration(config.height)
    pixels, masks = [], []
    for cam in cameras:
        times = solve_scan_times(points, cam.motion, cam.intrinsics, cam.shutter, windowed=False)
        q = times.capture @ cam.intrinsics.K.T
        uv = q[:, :2] / np.where(times.ok, q[:, 2], 1.0)[:, None]
        ok = times.ok & (times.t >= 0.0) & (times.t <= t_window)
        ok &= (uv[:, 0] >= 0) & (uv[:, 0] <= config.width)
        ok &= (uv[:, 1] >= 0) & (uv[:, 1] <= config.height)
        pixels.append(uv)
        masks.append(ok)

    common = masks[0] & masks[1]
    if int(common.sum()) < 8:
        raise ConfigError(f"only {int(common.sum())} points visible in both views; "
                          "need at least 8 for two-view geometry")
    kept = np.flatnonzero(common)
    observations = []
    for uv in pixels:
        obs = uv[kept] + rng.normal(0.0, config.noise_sigma, size=(len(kept), 2)) \
            if config.noise_sigma > 0 else uv[kept].copy()
        observations.append((np.arange(len(kept)), obs))

    return SfmProblem(
        points=points[kept],
        cameras=cameras,
        observations=tuple(observations),
        noise_sigma=config.noise_sigma,
        rng_seed=seed_t,
    )


def _triangulate_midpoint(obs1: np.ndarray, obs2: np.ndarray, pose1: Pose,
                          pose2: Pose, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Midpoint triangulation of pixel correspondences from two poses."""
    k_inv = np.linalg.inv(intrinsics.K)

    def rays(obs, pose):
        h = np.column_stack([obs, np.ones(len(obs))])
        d = (k_inv @ h.T).T @ pose.rotation
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    c1, c2 = pose1.viewpoint(), pose2.viewpoint()
    d1, d2 = rays(obs1, pose1), rays(obs2, pose2)
    dd = np.einsum("ij,ij->i", d1, d2)
    rhs = c2 - c1
    b1 = d1 @ rhs
    b2 = d2 @ rhs
    det = np.maximum(1.0 - dd * dd, 1e-12)
    a = (b1 - dd * b2) / det
    b = (dd * b1 - b2) / det
    return 0.5 * (c1 + a[:, None] * d1 + c2 + b[:, None] * d2)


def _initial_points(obs1: np.ndarray, obs2: np.ndarray, pose1: Pose, pose2: Pose,
                    intrinsics: CameraIntrinsics) -> np.ndarray:
    """Triangulated starting points, regularized onto the camera-1 rays.

    Midpoint depths from a 20:1 depth-to-baseline scene are noisy; each point
    is placed on its camera-1 ray (camera 1 is the frozen gauge) at its
    midpoint depth clamped into a robust band around the median, keeping
    every start point in front of both cameras with smooth residuals.
    """
    mid = _triangulate_midpoint(obs1, obs2, pose1, pose2, intrinsics)
    depth1 = (mid @ pose1.rotation.T + pose1.translation)[:, 2]
    positive = depth1[depth1 > 0]
    z_med = float(np.median(positive)) if positive.size else 1.0
    depths = np.clip(depth1, 0.1 * z_med, 10.0 * z_med)
    h = np.column_stack([obs1, np.ones(len(obs1))])
    rays_cam = (np.linalg.inv(intrinsics.K) @ h.T).T
    p_cam = rays_cam * (depths / rays_cam[:, 2])[:, None]
    return (p_cam - pose1.translation) @ pose1.rotation


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, broadcast, in components (much cheaper)."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _translations(d: np.ndarray, baseline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Camera 2's translations b d / |d| (P, 3) from the directions d, and their
    derivatives b / |d| (I - n n^T).  Freezing the baseline b (scale gauge)
    removes the pin-hole model's scale null space and keeps the rolling-shutter
    model from inflating the scene until its corrections vanish; b = 0 frees d."""
    norm = np.sqrt(row_dot(d, d))[:, None]
    free, zero, b = (baseline < 1e-12)[:, None], norm < 1e-12, baseline[:, None]
    safe = np.where(free | zero, 1.0, norm)
    n = (d / safe)[:, :, None]
    translation = np.where(free, d, np.where(zero, b * [0.0, 0.0, 1.0], b * d / safe))
    jacobian = np.where(zero, 0.0, b / safe)[:, :, None] * (np.eye(3) - n * n.transpose(0, 2, 1))
    return translation, np.where(free[:, :, None], np.eye(3), jacobian)


@dataclass(eq=False)
class _Batch:
    """Constants of P bundle adjustments run together.  A row is one point of
    a problem, seen in both views (bundle_adjust requires the same points in
    the same order), so row arrays (M, 2, ...) carry the views on axis 1.
    """

    owner: np.ndarray         # (M,) problem of each row, nondecreasing
    observed: np.ndarray      # (M, 2, 2) pixels in views 1 and 2
    rotation1: np.ndarray     # (P, 3, 3) and (P, 3): the frozen camera 1
    translation1: np.ndarray
    baseline: np.ndarray      # (P,) gauge: camera 2's translation length
    velocity: np.ndarray      # (P, 2, 2, 3) known (v, omega) of each view
    rolling: np.ndarray       # (P,) rolling-shutter model, these first; pin-hole otherwise
    views: tuple[tuple[CameraIntrinsics, ShutterParams], ...]  # shared by all problems
    n_cam: int
    starts: np.ndarray = field(init=False)  # each problem's first row, for reduceat

    def __post_init__(self):
        self.starts = np.flatnonzero(np.diff(self.owner, prepend=-1))
        if np.any(self.rolling[1:] > self.rolling[:-1]):
            raise ValueError("rolling-shutter problems must come first in a batch")

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Sum of each problem's rows (M, ...) over its rows and trailing axes: (P,)."""
        return np.add.reduceat(rows.reshape(len(rows), -1).sum(axis=1), self.starts)

    def take(self, keep: np.ndarray) -> "_Batch":
        rows, owner = keep[self.owner], (np.cumsum(keep) - 1)[self.owner]
        per_problem = ("rotation1", "translation1", "baseline", "velocity", "rolling")
        return replace(self, owner=owner[rows], observed=self.observed[rows],
                       **{name: getattr(self, name)[keep] for name in per_problem})


def _residuals(batch: _Batch, cam: np.ndarray, points: np.ndarray):
    """Residuals (M, 2, 2) of every row and view at camera parameters cam (P,
    n_cam) and points (M, 3), and their Jacobian blocks by the camera (M, 2,
    2, n_cam) and by the point (M, 2, 2, 3).  Along p = y + t w, y = R x + T,
    w = omega x R x + v: dp = (I + w g^T)(dy + t dw), g = dt/dy from
    `scan_time_gradient`; the pin-hole model is this with t = 0 and g = 0.
    """
    own, n_cam = batch.owner, batch.n_cam
    rotation2, left = rotation_exp(cam[:, :3]), rotation_left_jacobian(cam[:, :3])
    translation2, d_translation = _translations(cam[:, 3:6], batch.baseline)
    rotation = np.stack([batch.rotation1, rotation2], axis=1)[own]      # (M, 2, 3, 3)
    translation = np.stack([batch.translation1, translation2], axis=1)[own]
    velocity = (cam[:, 6:].reshape(-1, 2, 2, 3) if n_cam > 6 else batch.velocity)[own]
    v, spin = velocity[:, :, 0], velocity[:, :, 1]
    rx = np.einsum("mvij,mj->mvi", rotation, points)
    y = rx + translation
    w = _cross(spin, rx) + v
    rs = np.count_nonzero(batch.rolling[own])    # the rolling-shutter rows, a prefix
    t, ok = np.zeros(y.shape[:2]), y[..., 2] > DEPTH_EPS
    grad, q = np.zeros_like(y), np.empty_like(y)
    for j, (intrinsics, shutter) in enumerate(batch.views):
        times = solve_path_times(y[:rs, j], w[:rs, j], intrinsics, shutter, windowed=False)
        t[:rs, j], ok[:rs, j] = times.t, times.ok
        grad[:rs, j] = scan_time_gradient(times, intrinsics, shutter)
        q[:, j] = (y[:, j] + t[:, j, None] * w[:, j]) @ intrinsics.K.T
    depth = np.where(ok, q[..., 2], 1.0)[..., None]
    uv = q[..., :2] / depth
    # A point that wandered behind a camera gets a large constant penalty
    # instead of NaN (so the optimizer can back out) and zero rows.
    residual = np.where(ok[..., None], uv - batch.observed, 1e4)
    k = np.stack([intrinsics.K for intrinsics, _ in batch.views])       # (2, 3, 3)
    pixel = (k[:, :2] - uv[..., None] * k[:, None, 2]) / depth[..., None]
    chained = pixel + np.sum(pixel * w[:, :, None], axis=-1)[..., None] * grad[:, :, None]
    a = np.where(ok[..., None, None], chained, 0.0)                     # dr / d(y + t w)
    b = a + t[..., None, None] * _cross(a, spin[:, :, None])            # dr / d(R x)
    cam_jac = np.zeros(a.shape[:3] + (n_cam,))
    # d(R x) = -hat(R x) J_l(phi) d(phi), J_l the SO(3) left Jacobian.
    cam_jac[:, 1, :, :3] = _cross(rx[:, 1, None], b[:, 1]) @ left[own]
    cam_jac[:, 1, :, 3:6] = a[:, 1] @ d_translation[own]
    if n_cam > 6:               # dw = dv - hat(R x) d(omega)
        velocity_jac = np.concatenate([a, _cross(rx[:, :, None], a)], axis=-1)
        cam_jac[:, 0, :, 6:12] = t[:, 0, None, None] * velocity_jac[:, 0]
        cam_jac[:, 1, :, 12:18] = t[:, 1, None, None] * velocity_jac[:, 1]
    return residual, cam_jac, b @ rotation


def _inverse_spd3(v: np.ndarray) -> np.ndarray:
    """Inverses of symmetric 3x3 matrices (M, 3, 3) by the adjugate; NaN where singular."""
    a, b, c = v[:, 0, 0], v[:, 0, 1], v[:, 0, 2]
    d, e, f = v[:, 1, 1], v[:, 1, 2], v[:, 2, 2]
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    det = a * c00 + b * c01 + c * c02
    return np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=1).reshape(
        -1, 3, 3) / np.where(det == 0.0, np.nan, det)[:, None, None]


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions of the systems a (P, n, n) x = b (P, n); a singular system's is NaN."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:   # one singular system must not stop the others
        return (np.concatenate([_solve_each(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])
                if len(a) > 1 else np.full(b.shape, np.nan))


class _NormalEquations:
    """J^T J and J^T r in blocks: with Jc and Jp the camera and point columns
    of J, cam[p] = Jc^T [Jc | r] = [U | g_c] sums problem p's rows, and
    point[m] = Jp^T [Jc | r | Jp] = [W_m^T | g_m | V_m] row m's two views.
    """

    def __init__(self, batch: _Batch, residual, cam_jac, point_jac):
        m, n = len(residual), batch.n_cam
        self.batch, self.n = batch, n
        rows = np.concatenate([cam_jac.reshape(m, 4, n), residual.reshape(m, 4, 1),
                               point_jac.reshape(m, 4, 3)], axis=2)
        self.cam = np.add.reduceat(rows[:, :, :n].transpose(0, 2, 1) @ rows[:, :, :n + 1],
                                   batch.starts, axis=0)
        self.point = rows[:, :, n + 1:].transpose(0, 2, 1) @ rows
        self.gradient = (self.cam[:, :, n], self.point[:, :, n])
        self.diag = (np.maximum(np.einsum("pii->pi", self.cam[:, :, :n]), 1e-12),
                     np.maximum(np.einsum("mii->mi", self.point[:, :, n + 1:]), 1e-12))

    def problem_max(self, parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Largest entry of each problem's camera (P, n) and point (M, 3) parts."""
        return np.maximum(parts[0].max(axis=1), np.maximum.reduceat(
            parts[1].max(axis=1), self.batch.starts))

    def step(self, lam: np.ndarray):
        """Each problem's solution of (J^T J + lam diag(J^T J)) delta = -g, in
        camera (P, n) and point (M, 3) parts (NaN if singular), and the cost
        decrease it predicts, delta (lam diag delta - g) / 2.  Eliminating the
        damped V_m leaves the reduced camera system (U - sum W_m V_m^-1 W_m^T)
        d_c = -(g_c - sum W_m V_m^-1 g_m), U damped; the points follow.
        """
        n, own, starts = self.n, self.batch.owner, self.batch.starts
        damping = (lam[:, None] * self.diag[0], lam[own, None] * self.diag[1])
        v = self.point[:, :, n + 1:] + damping[1][:, :, None] * np.eye(3)
        solved = _inverse_spd3(v) @ self.point[:, :, :n + 1]     # V_m^-1 [W_m^T | g_m]
        reduced = self.cam - np.add.reduceat(
            self.point[:, :, :n].transpose(0, 2, 1) @ solved, starts, axis=0)
        d_cam = _solve_each(reduced[:, :, :n] + damping[0][:, :, None] * np.eye(n),
                            -reduced[:, :, n])
        d_point = -(solved[:, :, n] + (solved[:, :, :n] @ d_cam[own][:, :, None])[:, :, 0])
        gain = [d * (damp * d - g) for d, damp, g in zip((d_cam, d_point), damping, self.gradient)]
        return d_cam, d_point, 0.5 * (gain[0].sum(axis=1) + self.batch.sums(gain[1]))


TERMINATIONS = ("gradient", "cost", "lambda", "limit")
_RUNNING, _GRADIENT, _COST, _LAMBDA, _LIMIT = -1, 0, 1, 2, 3


def _levenberg_marquardt(batch: _Batch, cam: np.ndarray, points: np.ndarray,
                         options: BundleOptions) -> list[tuple]:
    """(camera parameters, points, residuals, iterations, termination, cost
    history) of each problem's LM run, all run in lockstep.  In each round
    every running problem forms its normal equations, stops if its gradient
    is small, and takes a trial step at its own lambda, which it accepts or
    answers by raising lambda, as a loop over one problem would.  A trial
    point brings its Jacobian.  Finished problems leave the arrays.
    """
    state = _residuals(batch, cam, points)
    cost = 0.5 * batch.sums(state[0] ** 2)
    history = [[c] for c in cost.tolist()]
    lam, nu, iteration = np.zeros(len(cam)), np.full(len(cam), 2.0), np.ones(len(cam), int)
    ids, results = np.arange(len(cam)), [None] * len(cam)
    while len(ids):
        system = _NormalEquations(batch, *state)
        gradient = system.problem_max(tuple(np.abs(g) for g in system.gradient))
        stop = np.where(iteration > options.max_iterations, _LIMIT, np.where(
            gradient < options.gradient_tolerance, _GRADIENT, _RUNNING))
        lam = np.where(lam > 0.0, lam, 1e-3 * system.problem_max(system.diag))
        d_cam, d_point, predicted = system.step(lam)
        trial = _residuals(batch, cam + d_cam, points + d_point)
        cost_new = 0.5 * batch.sums(trial[0] ** 2)
        # A singular system's NaN step predicts NaN and is rejected.
        good = predicted > 0.0
        rho = np.where(good, (cost - cost_new) / np.where(good, predicted, 1.0), -1.0)
        accept, reject = (stop == _RUNNING) & (rho > 0.0), (stop == _RUNNING) & ~(rho > 0.0)
        rows = accept[batch.owner]
        cam[accept] += d_cam[accept]
        points[rows] += d_point[rows]
        for new, old in zip(trial, state):
            old[rows] = new[rows]
        del trial, system       # before the next round's arrays are made
        for i in np.flatnonzero(accept):
            history[ids[i]].append(float(cost_new[i]))
        decrease = (cost - cost_new) / np.maximum(cost, 1e-300)
        cost = np.where(accept, cost_new, cost)
        lam = np.where(accept, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                       np.where(reject, lam * nu, lam))
        nu = np.where(accept, 2.0, np.where(reject, 2.0 * nu, nu))
        # Too small a decrease ends the run, and so does lambda overflow: no step
        # of any length decreases the cost (the criterion met with zero decrease).
        stop = np.where(accept & (decrease < options.cost_tolerance), _COST,
                        np.where(reject & (lam > 1e16), _LAMBDA, stop))
        keep = stop == _RUNNING
        iteration += accept & keep
        if keep.all():
            continue
        for i in np.flatnonzero(~keep):
            own = batch.owner == i
            results[ids[i]] = (cam[i], points[own], state[0][own], iteration[i] - (
                stop[i] == _LIMIT), TERMINATIONS[stop[i]], tuple(history[ids[i]]))
        rows = keep[batch.owner]
        batch = batch.take(keep)
        cam, lam, nu, cost, iteration, ids = (a[keep] for a in (cam, lam, nu, cost, iteration, ids))
        points, state = points[rows], [a[rows] for a in state]
    return results


def _initial_batch(problems, models, options: BundleOptions):
    """The batch of the problems under their models, and LM's start: camera
    parameters (P, n_cam) and points (M, 3).  All problems must share each
    view's intrinsics and shutter, as the problems of one grid cell do, and
    the rolling-shutter problems must come first.
    """
    cams, points = [], []
    for problem, model in zip(problems, models):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
        rng = np.random.default_rng((*problem.rng_seed, 7919))     # the start's noise
        axis, t_dir = (v / np.linalg.norm(v) for v in (rng.normal(size=3), rng.normal(size=3)))
        pose1, pose2 = (cam.motion.pose0 for cam in problem.cameras)
        baseline = float(np.linalg.norm(pose2.translation))
        translation = pose2.translation + options.init_translation_frac * baseline * t_dir
        if baseline >= 1e-12:
            translation = translation / max(np.linalg.norm(translation), 1e-300)
        rotation = rotation_exp(axis * math.radians(options.init_rotation_deg)) @ pose2.rotation
        cams.append(np.concatenate([rotation_log(rotation), translation]))
        (idx1, obs1), (idx2, obs2) = problem.observations
        if not np.array_equal(idx1, idx2):
            raise ConfigError("bundle adjustment expects the same points in both views")
        # Structure is triangulated from the unperturbed relative geometry:
        # with a near-forward baseline, a 2-degree attitude error scatters
        # midpoint depths beyond recovery, while the pose parameters still
        # start from the perturbed values.
        points.append(_initial_points(obs1, obs2, pose1, pose2, problem.cameras[0].intrinsics))
    velocity = np.array([[[cam.motion.linear_velocity, cam.motion.angular_velocity]
                          for cam in problem.cameras] for problem in problems])
    batch = _Batch(owner=np.repeat(np.arange(len(points)), [len(p) for p in points]),
                   observed=np.concatenate([np.stack([obs for _, obs in problem.observations],
                                                     axis=1) for problem in problems]),
                   rotation1=np.array([p.cameras[0].motion.pose0.rotation for p in problems]),
                   translation1=np.array([p.cameras[0].motion.pose0.translation for p in problems]),
                   baseline=np.array([np.linalg.norm(p.cameras[1].motion.pose0.translation)
                                      for p in problems]),
                   velocity=velocity, rolling=np.array([m == RS_MODEL for m in models]),
                   views=tuple((cam.intrinsics, cam.shutter) for cam in problems[0].cameras),
                   n_cam=18 if options.estimate_velocities else 6)
    if options.estimate_velocities:
        cams = np.concatenate([cams, velocity.reshape(-1, 12)], axis=1)
    return batch, np.array(cams), np.concatenate(points)


def _bundle_adjust_batch(problems, models, options: BundleOptions | None = None
                         ) -> list[SfmSolution]:
    """`bundle_adjust` of each problem under its model, as one batched LM."""
    opts, solutions = options or BundleOptions(), []
    # Rolling-shutter problems first, so that their rows stay a prefix of the batch.
    order = sorted(range(len(problems)), key=lambda i: models[i] != RS_MODEL)
    problems, models = [problems[i] for i in order], [models[i] for i in order]
    runs = _levenberg_marquardt(*_initial_batch(problems, models, opts), opts) if problems else []
    for problem, model, (cam, points, residual, iterations, termination, history) in zip(
            problems, models, runs):
        pose2_true = problem.cameras[1].motion.pose0
        pose2 = Pose(rotation_exp(cam[:3]), _translations(cam[None, 3:6], np.array(
            [np.linalg.norm(pose2_true.translation)]))[0][0])
        rot_err, trans_err = _pose_errors(pose2_true, pose2)
        residual = residual.transpose(1, 0, 2).ravel()     # camera 1's observations first
        solutions.append(SfmSolution(
            poses=(problem.cameras[0].motion.pose0, pose2), points=points,
            velocities=tuple((cam[c:c + 3], cam[c + 3:c + 6]) for c in (6, 12))
            if opts.estimate_velocities else None,
            reprojection_rms=math.sqrt(float(residual @ residual) / (len(residual) // 2)),
            rotation_error_deg=rot_err, translation_direction_error_deg=trans_err,
            model_used=model, iterations=int(iterations), converged=termination != "limit",
            cost_history=history, termination=termination))
    return [solutions[i] for i in np.argsort(order)]


def bundle_adjust(problem: SfmProblem, model: str = RS_MODEL,
                  options: BundleOptions | None = None) -> SfmSolution:
    """Levenberg-Marquardt refinement of camera 2 and the scene points.

    Camera 1 is frozen (gauge).  The initial guess perturbs the true camera 2
    by the configured rotation/translation noise and triangulates points from
    the observations; velocities are known model inputs unless
    options.estimate_velocities is set.  Non-convergence is reported in the
    solution flags, never raised.  A batch of one for the grid's batched LM.
    """
    return _bundle_adjust_batch([problem], [model], options)[0]


def _pose_errors(pose_true: Pose, pose_est: Pose) -> tuple[float, float]:
    """(rotation error deg, translation direction error deg) of a camera-2 pose.

    The geodesic angle between the attitudes and the angle between the
    translations (camera 1 fixes the gauge); a near-zero translation makes
    the direction undefined and is reported as NaN.
    """
    rot = math.degrees(float(np.linalg.norm(
        rotation_log(pose_true.rotation.T @ pose_est.rotation))))
    t0, t1 = pose_true.translation, pose_est.translation
    n0, n1 = np.linalg.norm(t0), np.linalg.norm(t1)
    if n0 < 1e-12 or n1 < 1e-12:
        return rot, float("nan")
    cosine = float(np.clip(t0 @ t1 / (n0 * n1), -1.0, 1.0))
    return rot, math.degrees(math.acos(cosine))


GRID_CSV_COLUMNS = [
    "velocity_kmh", "sigma_px", "model", "trials",
    "mean_reproj_px", "se_reproj", "mean_rot_deg", "se_rot",
    "mean_trans_deg", "se_trans", "nonconverged_count",
]


def run_experiment_grid(velocities_kmh, sigmas_px, trials: int, seed,
                        config: SceneConfig | None = None,
                        models=MODELS,
                        options: BundleOptions | None = None) -> list[dict]:
    """Mean errors of each model over a (velocity x noise) grid of trials.

    Each trial generates a fresh scene from an rng stream derived from
    (seed, velocity index, sigma index, trial index) and runs bundle
    adjustment under every requested model on the same observations.
    Returns one row dict per (velocity, sigma, model) cell.
    """
    if not velocities_kmh or not sigmas_px:
        raise ConfigError("velocity and sigma lists must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    base = config or SceneConfig()
    seed_t = _seed_tuple(seed)
    rows = []
    for vi, velocity in enumerate(velocities_kmh):
        for si, sigma in enumerate(sigmas_px):
            cfg = replace(base, velocity_kmh=velocity, noise_sigma=sigma)
            problems = [problem for trial in range(trials) for problem in
                        [generate_problem(cfg, (*seed_t, vi, si, trial))] * len(models)]
            solutions = _bundle_adjust_batch(problems, list(models) * trials, options)
            for m in models:
                mine = [sol for sol in solutions if sol.model_used == m]
                row = {"velocity_kmh": velocity, "sigma_px": sigma, "model": m, "trials": trials,
                       "nonconverged_count": sum(not sol.converged for sol in mine)}
                for name, unit, error in (("reproj", "px", "reprojection_rms"),
                                          ("rot", "deg", "rotation_error_deg"),
                                          ("trans", "deg", "translation_direction_error_deg")):
                    vals = np.array([getattr(sol, error) for sol in mine], dtype=float)
                    row[f"mean_{name}_{unit}"] = float(np.mean(vals))
                    row[f"se_{name}"] = (float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                                         if len(vals) > 1 else 0.0)
                rows.append(row)
    return rows


def grid_to_csv(rows: list[dict], path, header_lines: list[str] | None = None) -> None:
    lines = [f"# {line}" for line in (header_lines or [])]
    lines.append(",".join(GRID_CSV_COLUMNS))
    for row in rows:
        cells = []
        for col in GRID_CSV_COLUMNS:
            value = row[col]
            cells.append(value if isinstance(value, str) else f"{value:.10g}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def save_problem(problem: SfmProblem, path) -> None:
    """JSON snapshot sufficient to re-run the problem exactly."""
    payload = {
        "rng_seed": list(problem.rng_seed),
        "noise_sigma": problem.noise_sigma,
        "points": problem.points.tolist(),
        "cameras": [
            {
                "rotation": cam.motion.pose0.rotation.tolist(),
                "translation": cam.motion.pose0.translation.tolist(),
                "linear_velocity": cam.motion.linear_velocity.tolist(),
                "angular_velocity": cam.motion.angular_velocity.tolist(),
                "K": cam.intrinsics.K.tolist(),
                "pixel_size": cam.intrinsics.pixel_size,
                "width": cam.intrinsics.width,
                "height": cam.intrinsics.height,
                "scan_rate": cam.shutter.scan_rate,
                "first_row": cam.shutter.first_row,
                "framerate": cam.shutter.framerate,
            }
            for cam in problem.cameras
        ],
        "observations": [
            {"indices": indices.tolist(), "pixels": pixels.tolist()}
            for indices, pixels in problem.observations
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
