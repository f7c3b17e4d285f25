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
on all reprojection residuals with camera 1 frozen and the baseline length
held at the problem's value (gauge); the translation metric is
direction-only, matching that gauge.  The Jacobian is analytic, and each
step solves the reduced camera system, 6x6 (18x18 with velocities), left
after eliminating the 3x3 point blocks, then back-substitutes the points.

Every random quantity is drawn from a generator seeded by the caller, and
per-trial streams in the experiment grid derive from (seed, cell, trial), so
results are reproducible and schedule-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import (CameraIntrinsics, MotionState, Pose, hat, rotation_exp,
                       rotation_left_jacobian, rotation_log)
from .shutter import ScanTimes, ShutterParams, scan_time_gradient, solve_scan_times

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


def _rs_pixels(points: np.ndarray, motion: MotionState, intrinsics: CameraIntrinsics,
               shutter: ShutterParams) -> tuple[np.ndarray, ScanTimes]:
    """Vectorized closed-form rolling-shutter projection (linearized motion).

    Returns (pixels (N,2), the `solve_scan_times` result without the frame
    window): callers that need in-frame visibility must test the window.
    """
    result = solve_scan_times(points, motion, intrinsics, shutter, windowed=False)
    q_px = result.capture @ intrinsics.K.T
    depth = np.where(result.ok, q_px[:, 2], 1.0)
    return q_px[:, :2] / depth[:, None], result


def _perspective_pixels(points: np.ndarray, pose: Pose,
                        intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    p = points @ pose.rotation.T + pose.translation
    q = p @ intrinsics.K.T
    ok = p[:, 2] > 1e-9
    depth = np.where(ok, q[:, 2], 1.0)
    return q[:, :2] / depth[:, None], ok


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
        uv, times = _rs_pixels(points, cam.motion, cam.intrinsics, cam.shutter)
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


class _Parametrization:
    """Packs camera-2 pose, optional velocities, and points into one vector.

    The translation is stored as a direction with the baseline length frozen
    (scale gauge).  Without this the perspective model has an exact scale
    null-space, and the rolling-shutter model can cheat by inflating the
    scene until the shutter corrections vanish.
    """

    def __init__(self, problem: SfmProblem, estimate_velocities: bool):
        self.problem = problem
        self.estimate_velocities = estimate_velocities
        self.n_points = len(problem.points)
        self.n_cam = 6 + (12 if estimate_velocities else 0)
        self.baseline_norm = float(np.linalg.norm(
            problem.cameras[1].motion.pose0.translation))

    def _translation(self, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Camera 2's translation and its derivative, b / |d| (I - n n^T), by d."""
        if self.baseline_norm < 1e-12:
            return direction, np.eye(3)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            return np.array([0.0, 0.0, self.baseline_norm]), np.zeros((3, 3))
        n = direction / norm
        return (self.baseline_norm * direction / norm,
                (self.baseline_norm / norm) * (np.eye(3) - np.outer(n, n)))

    def pack(self, pose2: Pose, points: np.ndarray, velocities=None) -> np.ndarray:
        translation = pose2.translation
        if self.baseline_norm >= 1e-12:
            translation = translation / max(np.linalg.norm(translation), 1e-300)
        head = [rotation_log(pose2.rotation), translation]
        if self.estimate_velocities:
            for v, w in velocities:
                head.extend([v, w])
        return np.concatenate([*head, points.ravel()])

    def unpack(self, x: np.ndarray):
        pose2 = Pose(rotation_exp(x[:3]), self._translation(x[3:6])[0])
        velocities = None
        if self.estimate_velocities:
            velocities = [(x[c:c + 3], x[c + 3:c + 6]) for c in (6, 12)]
        return pose2, x[self.n_cam:].reshape(self.n_points, 3), velocities


def _residuals(par: _Parametrization, model: str, x: np.ndarray):
    """Reprojection residuals at x and their blocks: (residuals, cam_jac, point_jac).

    cam_jac[k] (2 x n_cam) and point_jac[k] (2 x 3) differentiate pair k,
    observation k (camera 1's first).  Along p = y + t w, with y = R x + T and
    w = omega x R x + v, dp = (I + w g^T)(dy + t dw), g = dt/dy from
    `scan_time_gradient`; the pin-hole model has t = 0.
    """
    problem = par.problem
    pose2, points, velocities = par.unpack(x)
    poses = (problem.cameras[0].motion.pose0, pose2)
    chunks, cam_blocks, point_blocks = [], [], []
    for j, (cam, pose) in enumerate(zip(problem.cameras, poses)):
        indices, observed = problem.observations[j]
        pts = points[indices]
        if model == PERSPECTIVE_MODEL:
            uv, ok = _perspective_pixels(pts, pose, cam.intrinsics)
        else:
            v, w = velocities[j] if velocities else (cam.motion.linear_velocity,
                                                     cam.motion.angular_velocity)
            motion = MotionState(pose, v, w)
            uv, times = _rs_pixels(pts, motion, cam.intrinsics, cam.shutter)
            ok = times.ok
        residual = uv - observed
        # A point that wandered behind the camera gets a large constant
        # penalty instead of NaN (so the optimizer can back out) and zero rows.
        residual[~ok] = 1e4
        chunks.append(residual.ravel())
        rx = pts @ pose.rotation.T
        if model == PERSPECTIVE_MODEL:
            p, t, spin, chain = rx + pose.translation, np.zeros(len(pts)), np.zeros(3), np.eye(3)
        else:
            p, t, spin = times.capture, times.t, motion.angular_velocity
            grad = scan_time_gradient(times, cam.intrinsics, cam.shutter)
            chain = np.eye(3) + times.velocity[:, :, None] * grad[:, None, :]
        k = cam.intrinsics.K
        depth = np.where(ok, p @ k[2], 1.0)
        pixel = (k[:2] - uv[:, :, None] * k[2]) / depth[:, None, None]
        a = np.where(ok[:, None, None], pixel @ chain, 0.0)        # dr / d(y + t w)
        b = a + t[:, None, None] * (a @ hat(spin))                  # dr / d(R x)
        point_blocks.append(b @ pose.rotation)
        cam_jac = np.zeros((len(pts), 2, par.n_cam))
        if j == 1:
            # d(R x) = -hat(R x) J_l(phi) d(phi), J_l the SO(3) left Jacobian.
            cam_jac[:, :, :3] = np.cross(rx[:, None, :], b) @ rotation_left_jacobian(x[:3])
            cam_jac[:, :, 3:6] = a @ par._translation(x[3:6])[1]
        if par.estimate_velocities:
            col = 6 + 6 * j     # dw = dv - hat(R x) d(omega)
            cam_jac[:, :, col:col + 3] = t[:, None, None] * a
            cam_jac[:, :, col + 3:col + 6] = t[:, None, None] * np.cross(rx[:, None, :], a)
        cam_blocks.append(cam_jac)
    return np.concatenate(chunks), np.concatenate(cam_blocks), np.concatenate(point_blocks)


class _NormalEquations:
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
        """Solution of (J^T J + lam diag(J^T J)) delta = -g.

        Eliminating the damped V_i leaves the reduced camera system
        (U - sum W_i V_i^-1 W_i^T) d_c = -(g_c - sum W_i V_i^-1 g_i), with U
        damped; the points follow by back-substitution.
        """
        n_cam = len(self.cam)
        damping = lam * self.diag
        v = self.point[:, :, n_cam + 1:] + damping[n_cam:].reshape(-1, 3, 1) * np.eye(3)
        solved = np.linalg.solve(v, self.point[:, :, :n_cam + 1])   # V_i^-1 [W_i^T | g_i]
        reduced = self.cam - np.einsum("nji,njk->ik", self.point[:, :, :n_cam], solved)
        d_cam = np.linalg.solve(reduced[:, :n_cam] + np.diag(damping[:n_cam]),
                                -reduced[:, n_cam])
        d_point = -(solved[:, :, n_cam] + solved[:, :, :n_cam] @ d_cam)
        return np.concatenate([d_cam, d_point.ravel()])


def _levenberg_marquardt(fun, x0: np.ndarray, n_cam: int, point_index: np.ndarray,
                         options: BundleOptions):
    """(x, residuals at x, iterations, converged, cost history) of an LM run.

    fun(x) gives the residuals and their blocks (see `_residuals`), so that
    an accepted trial point brings its Jacobian; each step solves the reduced
    camera system.
    """
    x = x0.copy()
    r, *blocks = fun(x)
    cost = 0.5 * float(r @ r)
    history = [cost]
    lam, nu, converged, iterations = None, 2.0, False, 0
    n_points = (len(x) - n_cam) // 3
    for iterations in range(1, options.max_iterations + 1):
        system = _NormalEquations(*blocks, point_index, r, n_points)
        g = system.gradient
        if float(np.max(np.abs(g))) < options.gradient_tolerance:
            converged = True
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
                if rel_decrease < options.cost_tolerance:
                    converged = True
            else:
                lam *= nu
                nu *= 2.0
                if lam > 1e16:
                    # No step of any length decreases the cost: the relative
                    # decrease criterion is met with zero decrease.
                    return x, r, iterations, True, history
        if converged:
            break
    return x, r, iterations, converged, history


def bundle_adjust(problem: SfmProblem, model: str = RS_MODEL,
                  options: BundleOptions | None = None) -> SfmSolution:
    """Levenberg-Marquardt refinement of camera 2 and the scene points.

    Camera 1 is frozen (gauge).  The initial guess perturbs the true camera 2
    by the configured rotation/translation noise and triangulates points from
    the observations; velocities are known model inputs unless
    options.estimate_velocities is set.  Non-convergence is reported in the
    solution flags, never raised.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    opts = options or BundleOptions()
    rng = np.random.default_rng((*problem.rng_seed, 7919))

    cam2 = problem.cameras[1]
    pose2_true = cam2.motion.pose0
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    d_rot = rotation_exp(axis * math.radians(opts.init_rotation_deg))
    t_dir = rng.normal(size=3)
    t_dir /= np.linalg.norm(t_dir)
    t_mag = opts.init_translation_frac * float(np.linalg.norm(pose2_true.translation))
    pose2_init = Pose(d_rot @ pose2_true.rotation,
                      pose2_true.translation + t_mag * t_dir)

    idx1, obs1 = problem.observations[0]
    idx2, obs2 = problem.observations[1]
    if not np.array_equal(idx1, idx2):
        raise ConfigError("bundle adjustment expects the same points in both views")
    # Structure is triangulated from the unperturbed relative geometry: with
    # a near-forward baseline, a 2-degree attitude error scatters midpoint
    # depths beyond recovery, while the pose parameters still start from the
    # perturbed values.
    points_init = _initial_points(obs1, obs2, problem.cameras[0].motion.pose0,
                                  pose2_true, problem.cameras[0].intrinsics)

    par = _Parametrization(problem, opts.estimate_velocities)
    velocities0 = None
    if opts.estimate_velocities:
        velocities0 = [(cam.motion.linear_velocity.copy(),
                        cam.motion.angular_velocity.copy())
                       for cam in problem.cameras]
    x0 = par.pack(pose2_init, points_init, velocities0)

    def fun(x):
        return _residuals(par, model, x)

    point_index = np.concatenate([indices for indices, _ in problem.observations])
    x_opt, residual, iterations, converged, history = _levenberg_marquardt(
        fun, x0, par.n_cam, point_index, opts)

    pose2, points, velocities = par.unpack(x_opt)
    rms = math.sqrt(float(residual @ residual) / len(point_index))

    rot_err, trans_err = _pose_errors(pose2_true, pose2)
    return SfmSolution(
        poses=(problem.cameras[0].motion.pose0, pose2),
        points=points,
        velocities=tuple((v.copy(), w.copy()) for v, w in velocities) if velocities else None,
        reprojection_rms=rms,
        rotation_error_deg=rot_err,
        translation_direction_error_deg=trans_err,
        model_used=model,
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
    )


def _pose_errors(pose_true: Pose, pose_est: Pose) -> tuple[float, float]:
    rot = math.degrees(float(np.linalg.norm(
        rotation_log(pose_true.rotation.T @ pose_est.rotation))))
    t0, t1 = pose_true.translation, pose_est.translation
    n0, n1 = np.linalg.norm(t0), np.linalg.norm(t1)
    if n0 < 1e-12 or n1 < 1e-12:
        return rot, float("nan")
    cosine = float(np.clip(t0 @ t1 / (n0 * n1), -1.0, 1.0))
    return rot, math.degrees(math.acos(cosine))


def error_metrics(truth: SfmProblem, estimate: SfmSolution) -> tuple[float, float, float]:
    """(rotation error deg, translation direction error deg, reprojection RMS px).

    Rotation error is the geodesic angle between the true and estimated
    camera-2 attitudes; translation error is the angle between the two
    translation vectors (camera 1 fixes the gauge).  A near-zero estimated
    translation makes the direction undefined and is reported as NaN.
    """
    rot, trans = _pose_errors(truth.cameras[1].motion.pose0, estimate.poses[1])
    return rot, trans, estimate.reprojection_rms


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
    base = config or SceneConfig()
    seed_t = _seed_tuple(seed)
    rows = []
    for vi, velocity in enumerate(velocities_kmh):
        for si, sigma in enumerate(sigmas_px):
            samples = {m: {"rot": [], "trans": [], "reproj": [], "bad": 0} for m in models}
            for trial in range(trials):
                cfg = replace(base, velocity_kmh=velocity, noise_sigma=sigma)
                problem = generate_problem(cfg, (*seed_t, vi, si, trial))
                for m in models:
                    sol = bundle_adjust(problem, m, options)
                    rot, trans, reproj = error_metrics(problem, sol)
                    samples[m]["rot"].append(rot)
                    samples[m]["trans"].append(trans)
                    samples[m]["reproj"].append(reproj)
                    samples[m]["bad"] += 0 if sol.converged else 1
            for m in models:
                data = samples[m]
                row = {"velocity_kmh": velocity, "sigma_px": sigma, "model": m,
                       "trials": trials, "nonconverged_count": data["bad"]}
                for key, name in (("reproj", "reproj"), ("rot", "rot"), ("trans", "trans")):
                    vals = np.array(data[key], dtype=float)
                    row[f"mean_{name}" + ("_px" if name == "reproj" else "_deg")] = float(np.mean(vals))
                    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
                    row[f"se_{name}"] = se
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
                "frame_delay": cam.shutter.frame_delay,
                "framerate": cam.shutter.framerate,
                "row_exposure": cam.shutter.row_exposure,
            }
            for cam in problem.cameras
        ],
        "observations": [
            {"indices": indices.tolist(), "pixels": pixels.tolist()}
            for indices, pixels in problem.observations
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_problem(path) -> SfmProblem:
    payload = json.loads(Path(path).read_text())
    cameras = []
    for cam in payload["cameras"]:
        pose = Pose(np.array(cam["rotation"]), np.array(cam["translation"]))
        motion = MotionState(pose, np.array(cam["linear_velocity"]),
                             np.array(cam["angular_velocity"]))
        intrinsics = CameraIntrinsics(np.array(cam["K"]), cam["pixel_size"],
                                      cam["width"], cam["height"])
        shutter = ShutterParams(scan_rate=cam["scan_rate"], first_row=cam["first_row"],
                                frame_delay=cam["frame_delay"], framerate=cam["framerate"],
                                row_exposure=cam["row_exposure"])
        cameras.append(SfmCamera(motion, intrinsics, shutter))
    observations = tuple(
        (np.array(obs["indices"], dtype=int), np.array(obs["pixels"], dtype=float))
        for obs in payload["observations"]
    )
    return SfmProblem(
        points=np.array(payload["points"], dtype=float),
        cameras=tuple(cameras),
        observations=observations,
        noise_sigma=payload["noise_sigma"],
        rng_seed=tuple(payload["rng_seed"]),
    )
