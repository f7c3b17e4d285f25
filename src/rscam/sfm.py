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
direction-only, matching that gauge.

Every random quantity is drawn from a generator seeded by the caller, and
per-trial streams in the experiment grid derive from (seed, cell, trial), so
results are reproducible and schedule-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import (CameraIntrinsics, MotionState, Pose, rotation_exp,
                       rotation_log)
from .shutter import ShutterParams, solve_scan_times

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
               shutter: ShutterParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized closed-form rolling-shutter projection (linearized motion).

    Returns (pixels (N,2), scan times (N,), imaged mask).  Scan times come
    from `solve_scan_times` without the frame window: callers that need
    in-frame visibility must test the window themselves.
    """
    result = solve_scan_times(points, motion, intrinsics, shutter, windowed=False)
    ok = result.ok
    q_px = result.capture @ intrinsics.K.T
    depth = np.where(ok, q_px[:, 2], 1.0)
    return q_px[:, :2] / depth[:, None], result.t, ok


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
        uv, t_c, ok = _rs_pixels(points, cam.motion, cam.intrinsics, cam.shutter)
        ok &= (t_c >= 0.0) & (t_c <= t_window)
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

    def _translation(self, direction: np.ndarray) -> np.ndarray:
        if self.baseline_norm < 1e-12:
            return direction
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            return np.array([0.0, 0.0, self.baseline_norm])
        return self.baseline_norm * direction / norm

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
        pose2 = Pose(rotation_exp(x[:3]), self._translation(x[3:6]))
        cursor = 6
        velocities = None
        if self.estimate_velocities:
            velocities = []
            for _ in range(2):
                velocities.append((x[cursor:cursor + 3], x[cursor + 3:cursor + 6]))
                cursor += 6
        points = x[cursor:].reshape(self.n_points, 3)
        return pose2, points, velocities


def _residuals(problem: SfmProblem, model: str, pose2: Pose, points: np.ndarray,
               velocities=None) -> np.ndarray:
    poses = (problem.cameras[0].motion.pose0, pose2)
    chunks = []
    for j, cam in enumerate(problem.cameras):
        indices, observed = problem.observations[j]
        pts = points[indices]
        if model == PERSPECTIVE_MODEL:
            uv, ok = _perspective_pixels(pts, poses[j], cam.intrinsics)
        else:
            if velocities is not None:
                v, w = velocities[j]
                motion = MotionState(poses[j], v, w)
            else:
                motion = MotionState(poses[j], cam.motion.linear_velocity,
                                     cam.motion.angular_velocity)
            uv, _, ok = _rs_pixels(pts, motion, cam.intrinsics, cam.shutter)
        residual = uv - observed
        # A point that wandered behind the camera contributes a large finite
        # penalty instead of NaN so the optimizer can back out.
        residual[~ok] = 1e4
        chunks.append(residual.ravel())
    return np.concatenate(chunks)


def _grouped_jacobian(fun, x: np.ndarray, n_cam: int, point_cols: np.ndarray,
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


def _levenberg_marquardt(fun, x0: np.ndarray, n_cam: int, point_cols: np.ndarray,
                         options: BundleOptions) -> tuple[np.ndarray, int, bool, list[float]]:
    x = x0.copy()
    r = fun(x)
    cost = 0.5 * float(r @ r)
    history = [cost]
    lam = None
    nu = 2.0
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        jac = _grouped_jacobian(fun, x, n_cam, point_cols, len(r))
        jtj = jac.T @ jac
        g = jac.T @ r
        if float(np.max(np.abs(g))) < options.gradient_tolerance:
            converged = True
            break
        diag = np.maximum(np.diag(jtj), 1e-12)
        if lam is None:
            lam = 1e-3 * float(diag.max())
        accepted = False
        while not accepted:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                x_new = x + delta
                r_new = fun(x_new)
                cost_new = 0.5 * float(r_new @ r_new)
                predicted = 0.5 * float(delta @ (lam * diag * delta - g))
                rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
            else:
                rho = -1.0
            if rho > 0:
                accepted = True
                rel_decrease = (cost - cost_new) / max(cost, 1e-300)
                x, r, cost = x_new, r_new, cost_new
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
                    return x, iterations, True, history
        if converged:
            break
    return x, iterations, converged, history


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
        pose2, points, velocities = par.unpack(x)
        return _residuals(problem, model, pose2, points, velocities)

    point_cols = np.concatenate([
        par.n_cam + 3 * np.repeat(indices, 2)
        for indices, _ in problem.observations
    ])
    x_opt, iterations, converged, history = _levenberg_marquardt(
        fun, x0, par.n_cam, point_cols, opts)

    pose2, points, velocities = par.unpack(x_opt)
    residual = fun(x_opt)
    n_obs = sum(len(indices) for indices, _ in problem.observations)
    rms = math.sqrt(float(residual @ residual) / n_obs)

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
