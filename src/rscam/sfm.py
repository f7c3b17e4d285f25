"""Two-view structure-from-motion benchmark under rolling-shutter imaging.

Synthetic scenes are imaged in two views of one translating rolling-shutter
camera, pixel noise is added, and bundle adjustment is run twice: once with a
projection model that accounts for the rolling shutter and once with a plain
pin-hole model.  Comparing the recovered motion against ground truth quantifies the
systematic bias a rolling shutter induces in standard structure-from-motion.

The default scene follows the benchmark protocol: 100 points in a 4 m cube
about 10 m away, a 40 degree field of view at 640x480, 15 frames/second with
the scan spanning the full frame period, camera row-velocity given in km/h,
and i.i.d. Gaussian pixel noise.  Bundle adjustment is Levenberg-Marquardt
on all reprojection residuals, camera 1 the identity and the baseline held
(gauge, so the translation metric is direction-only), with an analytic
Jacobian and steps from the 6x6 reduced camera system left after eliminating
the 3x3 point blocks.  One array-shaped LM runs every trial and model of a
grid cell, each problem at its own lambda with the iterates of a run alone;
`bundle_adjust` is a batch of one, and a round keeps all rows' residuals and
Jacobian blocks in one array.

Every random quantity is drawn from a generator seeded by the caller, and
per-trial streams derive from (seed, cell, trial): results are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import (CameraIntrinsics, MotionState, Pose, rotation_exp,
                       rotation_exp_and_jacobian, rotation_log, row_dot)
from .shutter import (DEPTH_EPS, ShutterParams, scan_time_gradient, solve_path_times,
                      solve_scan_times)

RS_MODEL = "rolling_shutter"
PERSPECTIVE_MODEL = "perspective"
MODELS = (RS_MODEL, PERSPECTIVE_MODEL)

KMH_TO_MS = 1.0 / 3.6
DISTANCE_JITTER = 0.2           # camera-2 distance spread about the cloud distance (fraction)

# The protocol's LM limits and the start's perturbation of camera 2, read at call time.
MAX_ITERATIONS = 200
COST_TOLERANCE = 1e-10
GRADIENT_TOLERANCE = 1e-8
INIT_ROTATION_DEG = 2.0
INIT_TRANSLATION_FRAC = 0.02


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
    attitude_noise_deg: float = 2.0     # extra random attitude error on camera 2

    def __post_init__(self):
        if bad := [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]:
            raise ValueError(f"SceneConfig.{bad[0]} must be finite, got {getattr(self, bad[0])}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"SceneConfig.noise_sigma must be nonnegative, got {self.noise_sigma}")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.from_fov(self.fov_deg, self.width, self.height)


@dataclass(frozen=True)
class SfmProblem:
    """Scene points seen in two views of one rolling-shutter camera, and their
    (noisy) pixels.

    View j starts its frame at the world-to-camera pose poses[j] (poses[0] is
    the identity, the gauge that `bundle_adjust` requires) and translates with
    the camera-frame velocity velocities[j] (2, 3), without spinning.
    pixels[i, j] (N, 2, 2) is point i in view j; every point is imaged in-frame
    in both views by the generating rolling-shutter model before noise.
    """

    points: np.ndarray
    intrinsics: CameraIntrinsics
    shutter: ShutterParams
    poses: tuple[Pose, Pose]
    velocities: np.ndarray
    pixels: np.ndarray
    noise_sigma: float
    rng_seed: tuple[int, ...]


@dataclass(frozen=True)
class SfmSolution:
    poses: tuple[Pose, ...]
    points: np.ndarray
    reprojection_rms: float
    rotation_error_deg: float
    translation_direction_error_deg: float
    model_used: str
    iterations: int
    cost_history: tuple[float, ...]     # half sum-of-squares after each accepted step
    termination: str                    # one of TERMINATIONS

    @property
    def converged(self) -> bool:
        return self.termination != "limit"


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
    """Random scene imaged in two views of one moving rolling-shutter camera.

    Camera 1 sits at the origin looking down +z at the point cloud; camera 2
    is placed at a random position on the order of the cloud distance (its
    viewing direction drawn inside a cone about camera 1's axis), aimed at
    the cloud center, with a small random attitude error.  Both views move
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
    shutter = ShutterParams.ideal(config.framerate, config.height)
    velocity = np.array([0.0, config.velocity_kmh * KMH_TO_MS, 0.0])

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
    distance2 = config.cloud_distance * (1.0 + DISTANCE_JITTER * rng.uniform(-1.0, 1.0))
    center2 = cloud_center - distance2 * view_dir
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    wobble = rotation_exp(axis * math.radians(rng.uniform(0.0, config.attitude_noise_deg)))
    r2 = wobble @ _look_at(center2, cloud_center)
    poses = (Pose.identity(), Pose(r2, -r2 @ center2))     # camera 1 is the gauge

    views, seen = [], np.ones(len(points), dtype=bool)
    for pose in poses:
        times = solve_scan_times(points, MotionState(pose, velocity), intrinsics, shutter)
        q = times.capture @ intrinsics.K.T
        uv = q[:, :2] / np.where(times.ok, q[:, 2], 1.0)[:, None]
        seen &= times.ok & (uv[:, 0] >= 0) & (uv[:, 0] <= config.width)
        seen &= (uv[:, 1] >= 0) & (uv[:, 1] <= config.height)
        views.append(uv)

    kept = np.flatnonzero(seen)
    if len(kept) < 8:
        raise ConfigError(f"only {len(kept)} points visible in both views; "
                          "need at least 8 for two-view geometry")
    pixels = np.stack([uv[kept] + rng.normal(0.0, config.noise_sigma, size=(len(kept), 2))
                       if config.noise_sigma > 0 else uv[kept] for uv in views], axis=1)
    return SfmProblem(points=points[kept], intrinsics=intrinsics, shutter=shutter, poses=poses,
                      velocities=np.array([velocity, velocity]), pixels=pixels,
                      noise_sigma=config.noise_sigma, rng_seed=seed_t)


def _initial_points(obs1: np.ndarray, obs2: np.ndarray, pose2: Pose,
                    intrinsics: CameraIntrinsics) -> np.ndarray:
    """Starting points from pixel correspondences, regularized onto the camera-1 rays.

    Midpoint triangulation gives depths that are noisy in a 20:1
    depth-to-baseline scene; each point is placed on its camera-1 ray (camera
    1 is the identity gauge, so its rays are in world coordinates) at its
    midpoint depth clamped into a robust band around the median, keeping every
    start point in front of both cameras with smooth residuals.
    """
    k_inv = np.linalg.inv(intrinsics.K)
    ray1, ray2 = ((k_inv @ np.column_stack([obs, np.ones(len(obs))]).T).T for obs in (obs1, obs2))
    ray1 = np.ascontiguousarray(ray1)   # C order: einsum adds a transpose's rows in another order
    d1, d2 = (d / np.linalg.norm(d, axis=1, keepdims=True) for d in (ray1, ray2 @ pose2.rotation))
    c2 = pose2.viewpoint()
    dd = np.einsum("ij,ij->i", d1, d2)
    b1, b2 = d1 @ c2, d2 @ c2
    det = np.maximum(1.0 - dd * dd, 1e-12)
    a, b = (b1 - dd * b2) / det, (dd * b1 - b2) / det
    depth1 = (0.5 * (a[:, None] * d1 + c2 + b[:, None] * d2))[:, 2]
    positive = depth1[depth1 > 0]
    z_med = float(np.median(positive)) if positive.size else 1.0
    depths = np.clip(depth1, 0.1 * z_med, 10.0 * z_med)
    return ray1 * (depths / ray1[:, 2])[:, None]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, broadcast, in components (much cheaper)."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0], out[..., 1], out[..., 2] = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return out


def _translations(d: np.ndarray, baseline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Camera 2's translations b d / |d| (P, 3) from directions d and baselines b,
    and their derivatives b / |d| (I - n n^T), n = d / |d|.  Freezing the baseline
    (scale gauge) removes the pin-hole model's scale null space and keeps the
    rolling-shutter model from inflating the scene until its corrections vanish."""
    norm, b = np.sqrt(row_dot(d, d))[:, None], baseline[:, None]
    n = (d / norm)[:, :, None]
    return b * d / norm, (b / norm)[:, :, None] * (np.eye(3) - n * n.transpose(0, 2, 1))


_N_CAM = 6      # camera parameters: camera 2's rotation vector and translation direction


@dataclass(eq=False)
class _Batch:
    """Constants of P bundle adjustments run together, imaged by one camera.  A
    row is one point of a problem, seen in both views, so row arrays (M, 2, ...)
    carry the views.  Camera 1 is the identity gauge of every problem, so the
    batch holds no camera.
    """

    owner: np.ndarray         # (M,) problem of each row, nondecreasing
    observed: np.ndarray      # (M, 2, 2) pixels in views 1 and 2
    velocity: np.ndarray      # (M, 2, 3) known linear velocity of each row's views
    baseline: np.ndarray      # (P,) gauge: camera 2's translation length
    rolling: np.ndarray       # (P,) rolling-shutter model, these first; pin-hole otherwise
    camera: tuple[CameraIntrinsics, ShutterParams]  # of both views of every problem
    starts: np.ndarray = field(init=False)  # each problem's first row, for reduceat
    n_rolling: int = field(init=False)      # the rolling-shutter rows, a prefix

    def __post_init__(self):
        if np.any(self.rolling[1:] > self.rolling[:-1]):
            raise ValueError("rolling-shutter problems must come first in a batch")
        self.starts = np.searchsorted(self.owner, np.arange(len(self.baseline)))
        self.n_rolling = int(np.count_nonzero(self.rolling[self.owner]))

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Sum of each problem's rows (M, ...) over its rows and trailing axes: (P,).
        A row's entries are added column by column, the order in which ndarray.sum adds so few."""
        return np.add.reduceat(sum(rows.reshape(len(rows), -1).T), self.starts)

    def take(self, keep: np.ndarray) -> "_Batch":
        rows, owner = keep[self.owner], (np.cumsum(keep) - 1)[self.owner]
        return replace(self, owner=owner[rows], **{
            name: getattr(self, name)[rows] for name in ("observed", "velocity")},
            **{name: getattr(self, name)[keep] for name in ("baseline", "rolling")})


def _residuals(batch: _Batch, cam: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Residuals of every row, view and pixel coordinate at camera parameters
    cam (P, _N_CAM) and points (M, 3), with their Jacobian blocks, in one array
    (M, 2, 2, _N_CAM + 4): by the camera [..., :_N_CAM], the residual
    [..., _N_CAM] and by the point [..., _N_CAM + 1:].  Along p = y + t v,
    y = R x + T: dp = (I + v g^T) dy, g = dt/dy from `scan_time_gradient`; the
    pin-hole model is this with t = 0, g = 0.  Camera 1 is the identity, so in
    view 1 y = x and dy/dx = I.  Nothing is written into the batch.
    """
    own, n, rs, v = batch.owner, _N_CAM, batch.n_rolling, batch.velocity
    intrinsics, shutter = batch.camera
    rotation2, left = rotation_exp_and_jacobian(cam[:, :3])
    translation2, d_translation = _translations(cam[:, 3:6], batch.baseline)
    rotation2 = rotation2.take(own, axis=0)
    rx2 = np.einsum("mij,mj->mi", rotation2, points)
    y = np.stack([points, rx2 + translation2.take(own, axis=0)], axis=1)
    ok = y[..., 2] > DEPTH_EPS
    if rs:      # both views of the rolling-shutter rows, as 2 rs paths
        times = solve_path_times(y[:rs].reshape(-1, 3), v[:rs].reshape(-1, 3), intrinsics,
                                 shutter, windowed=False)
        ok[:rs] = times.ok.reshape(rs, 2)
        grad = scan_time_gradient(times, intrinsics, shutter).reshape(rs, 2, 1, 3)
        y[:rs] = times.capture.reshape(rs, 2, 3)      # y + t v; t = 0 on pin-hole rows
    k = intrinsics.K
    q = (y.reshape(-1, 3) @ k.T).reshape(y.shape)
    depth = np.where(ok, q[..., 2], 1.0)[..., None]
    uv = q[..., :2] / depth
    out = np.zeros(y.shape[:2] + (2, n + 4))
    residual = np.subtract(uv, batch.observed, out=out[..., n])
    a = (k[:2] - uv[..., None] * k[2]) / depth[..., None]        # dr / d(y + t v)
    if rs:      # the scan time's terms, dr / dy; g = 0 on pin-hole rows
        a[:rs] += np.einsum("mvcj,mvj->mvc", a[:rs], v[:rs])[..., None] * grad
    # A point that wandered behind a camera gets a large constant penalty
    # instead of NaN (so the optimizer can back out) and zero rows.
    if not ok.all():
        residual[~ok], a[~ok] = 1e4, 0.0
    # d(R x) = -hat(R x) J_l(phi) d(phi), J_l the SO(3) left Jacobian (operands contiguous).
    np.matmul(_cross(rx2[:, None].repeat(2, axis=1), a[:, 1].copy()),
              left.take(own, axis=0), out=out[:, 1, :, :3])
    np.matmul(a[:, 1], d_translation.take(own, axis=0), out=out[:, 1, :, 3:6])
    out[:, 0, :, n + 1:] = a[:, 0]
    np.matmul(a[:, 1], rotation2, out=out[:, 1, :, n + 1:])
    return out


def _inverse_spd3(v: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Adjugate inverses of v (M, 3, 3) + diag(damping (M, 3)), v symmetric; NaN where singular."""
    a, d, f = (v[:, i, i] + damping[:, i] for i in range(3))
    b, c, e = v[:, 0, 1], v[:, 0, 2], v[:, 1, 2]
    inv = np.empty((len(v), 3, 3))
    inv[:, 0, 0], inv[:, 0, 1], inv[:, 0, 2] = d * f - e * e, c * e - b * f, b * e - c * d
    inv[:, 1, 1], inv[:, 1, 2], inv[:, 2, 2] = a * f - c * c, b * c - a * e, a * d - b * b
    inv[:, 1, 0], inv[:, 2, 0], inv[:, 2, 1] = inv[:, 0, 1], inv[:, 0, 2], inv[:, 1, 2]
    det = a * inv[:, 0, 0] + b * inv[:, 0, 1] + c * inv[:, 0, 2]
    inv /= np.where(det == 0.0, np.nan, det)[:, None, None]
    return inv


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

    def __init__(self, batch: _Batch, state: np.ndarray):
        n = _N_CAM
        self.batch = batch
        rows = state.reshape(len(state), 4, n + 4)      # the layout of `_residuals`
        self.cam = np.add.reduceat(rows[:, :, :n].transpose(0, 2, 1) @ rows[:, :, :n + 1],
                                   batch.starts, axis=0)
        self.point = rows[:, :, n + 1:].transpose(0, 2, 1) @ rows
        self.gradient = (self.cam[:, :, n], self.point[:, :, n])
        self.diag = tuple(np.maximum(part.diagonal(axis1=1, axis2=2), 1e-12)
                          for part in (self.cam[:, :, :n], self.point[:, :, n + 1:]))

    def problem_max(self, parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Largest entry of each problem's camera (P, n) and point (M, 3) parts."""
        return np.maximum(parts[0].max(axis=1), np.maximum.reduceat(
            parts[1], self.batch.starts).max(axis=1))

    def step(self, lam: np.ndarray):
        """Each problem's solution of (J^T J + lam diag(J^T J)) delta = -g, in
        camera (P, n) and point (M, 3) parts (NaN if singular), and the cost
        decrease it predicts, delta (lam diag delta - g) / 2.  Eliminating the
        damped V_m leaves the reduced camera system (U - sum W_m V_m^-1 W_m^T)
        d_c = -(g_c - sum W_m V_m^-1 g_m), U damped; the points follow.
        """
        n, own, starts = _N_CAM, self.batch.owner, self.batch.starts
        damping = (lam[:, None] * self.diag[0], lam[own, None] * self.diag[1])
        # V_m^-1 [W_m^T | g_m], V_m damped
        solved = _inverse_spd3(self.point[:, :, n + 1:], damping[1]) @ self.point[:, :, :n + 1]
        reduced = self.cam - np.add.reduceat(
            self.point[:, :, :n].transpose(0, 2, 1) @ solved, starts, axis=0)
        u = reduced[:, :, :n].copy()
        u.reshape(-1, n * n)[:, ::n + 1] += damping[0]
        d_cam = _solve_each(u, -reduced[:, :, n])
        d_point = -(solved[:, :, n] + (solved[:, :, :n] @ d_cam.take(own, 0)[:, :, None])[:, :, 0])
        gain = [d * (damp * d - g) for d, damp, g in zip((d_cam, d_point), damping, self.gradient)]
        return d_cam, d_point, 0.5 * (gain[0].sum(axis=1) + self.batch.sums(gain[1]))


TERMINATIONS = ("gradient", "cost", "lambda", "limit")
_RUNNING, _GRADIENT, _COST, _LAMBDA, _LIMIT = -1, 0, 1, 2, 3


def _levenberg_marquardt(batch: _Batch, cam: np.ndarray, points: np.ndarray) -> list[tuple]:
    """(camera parameters, points, residuals, iterations, termination, cost
    history) of each problem's LM run, all run in lockstep.  In each round
    every running problem forms its normal equations, stops if its gradient
    is small, and takes a trial step at its own lambda, which it accepts or
    answers by raising lambda, as a loop over one problem would.  A trial
    point brings its Jacobian.  Finished problems leave the arrays.
    """
    state = _residuals(batch, cam, points)
    cost = 0.5 * batch.sums(state[..., _N_CAM] ** 2)
    history = [[c] for c in cost.tolist()]
    lam, nu, iteration = np.zeros(len(cam)), np.full(len(cam), 2.0), np.ones(len(cam), int)
    ids, results = np.arange(len(cam)), [None] * len(cam)
    while len(ids):
        system = _NormalEquations(batch, state)
        gradient = system.problem_max(tuple(np.abs(g) for g in system.gradient))
        stop = np.where(iteration > MAX_ITERATIONS, _LIMIT, np.where(
            gradient < GRADIENT_TOLERANCE, _GRADIENT, _RUNNING))
        if not (lam > 0.0).all():       # some problem's first round
            lam = np.where(lam > 0.0, lam, 1e-3 * system.problem_max(system.diag))
        d_cam, d_point, predicted = system.step(lam)
        cam_new, points_new = cam + d_cam, points + d_point
        trial = _residuals(batch, cam_new, points_new)
        cost_new = 0.5 * batch.sums(trial[..., _N_CAM] ** 2)
        # A singular system's NaN step predicts NaN and is rejected.
        good = predicted > 0.0
        rho = np.where(good, (cost - cost_new) / np.where(good, predicted, 1.0), -1.0)
        running = stop == _RUNNING
        accept, reject = running & (rho > 0.0), running & ~(rho > 0.0)
        if accept.all():        # every problem steps: the trial is the new state
            cam, points, state = cam_new, points_new, trial
        else:
            rows = accept[batch.owner]
            cam[accept], points[rows], state[rows] = cam_new[accept], points_new[rows], trial[rows]
        del trial, system       # before the next round's arrays are made
        for i, c in zip(ids[accept].tolist(), cost_new[accept].tolist()):
            history[i].append(c)
        decrease = (cost - cost_new) / np.maximum(cost, 1e-300)
        cost = np.where(accept, cost_new, cost)
        lam = np.where(accept, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                       np.where(reject, lam * nu, lam))
        nu = np.where(accept, 2.0, np.where(reject, 2.0 * nu, nu))
        # Too small a decrease ends the run, and so does lambda overflow (or NaN): no
        # step of any length decreases the cost (the criterion met with zero decrease).
        stop = np.where(accept & (decrease < COST_TOLERANCE), _COST,
                        np.where(reject & ~(lam <= 1e16), _LAMBDA, stop))
        keep = stop == _RUNNING
        iteration += accept & keep
        if keep.all():
            continue
        for i in np.flatnonzero(~keep):
            own = slice(*np.append(batch.starts, len(points))[i:i + 2])
            results[ids[i]] = (cam[i], points[own].copy(), state[own, ..., _N_CAM].copy(),
                               iteration[i] - (stop[i] == _LIMIT), TERMINATIONS[stop[i]],
                               tuple(history[ids[i]]))
        rows = keep[batch.owner]
        batch = batch.take(keep)
        cam, lam, nu, cost, iteration, ids = (a[keep] for a in (cam, lam, nu, cost, iteration, ids))
        points, state = points[rows], state[rows]
    return results


def _initial_batch(problems, models):
    """The batch of the problems under their models, and LM's start: camera
    parameters (P, _N_CAM) and points (M, 3).  The problems share one camera,
    as a grid cell's do, and the rolling-shutter problems must come first.  A
    problem listed once per model gets its start computed once.  ValueError if
    a problem's camera 1 is not exactly the identity pose (the gauge).
    """
    starts = {}
    for problem, model in zip(problems, models):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
        if id(problem) in starts:
            continue
        rng = np.random.default_rng((*problem.rng_seed, 7919))     # the start's noise
        axis, t_dir = (v / np.linalg.norm(v) for v in (rng.normal(size=3), rng.normal(size=3)))
        pose1, pose2 = problem.poses
        if not (np.array_equal(pose1.rotation, np.eye(3)) and np.all(pose1.translation == 0.0)):
            raise ValueError("camera 1 must be the identity pose, the gauge of bundle adjustment")
        baseline = float(np.linalg.norm(pose2.translation))
        if baseline < 1e-12:
            raise ConfigError("zero baseline: camera 2 sits at camera 1 (under-constrained)")
        translation = pose2.translation + INIT_TRANSLATION_FRAC * baseline * t_dir
        translation = translation / np.linalg.norm(translation)
        rotation = rotation_exp(axis * math.radians(INIT_ROTATION_DEG)) @ pose2.rotation
        # Structure is triangulated from the unperturbed relative geometry:
        # with a near-forward baseline, a 2-degree attitude error scatters
        # midpoint depths beyond recovery, while the pose parameters still
        # start from the perturbed values.
        starts[id(problem)] = (np.concatenate([rotation_log(rotation), translation]),
                               _initial_points(problem.pixels[:, 0], problem.pixels[:, 1],
                                               pose2, problem.intrinsics))
    cams, points = zip(*(starts[id(problem)] for problem in problems))
    owner = np.repeat(np.arange(len(points)), [len(p) for p in points])
    batch = _Batch(owner=owner, observed=np.concatenate([p.pixels for p in problems]),
                   velocity=np.array([p.velocities for p in problems])[owner],
                   baseline=np.array([np.linalg.norm(p.poses[1].translation) for p in problems]),
                   rolling=np.array([m == RS_MODEL for m in models]),
                   camera=(problems[0].intrinsics, problems[0].shutter))
    return batch, np.array(cams), np.concatenate(points)


def _bundle_adjust_batch(problems, models) -> list[SfmSolution]:
    """`bundle_adjust` of each problem under its model, as one batched LM."""
    solutions = []
    # Rolling-shutter problems first, so that their rows stay a prefix of the batch.
    order = sorted(range(len(problems)), key=lambda i: models[i] != RS_MODEL)
    problems, models = [problems[i] for i in order], [models[i] for i in order]
    batch, *start = _initial_batch(problems, models)
    runs = _levenberg_marquardt(batch, *start)
    cams = np.array([run[0] for run in runs])
    translations = _translations(cams[:, 3:6], batch.baseline)[0]
    for problem, model, rotation, translation, (
            _, points, residual, iterations, termination, history) in zip(
            problems, models, rotation_exp(cams[:, :3]), translations, runs):
        pose2 = Pose(rotation, translation)
        rot_err, trans_err = _pose_errors(problem.poses[1], pose2)
        residual = residual.transpose(1, 0, 2).ravel()     # camera 1's observations first
        solutions.append(SfmSolution(
            poses=(problem.poses[0], pose2), points=points,
            reprojection_rms=math.sqrt(float(residual @ residual) / (len(residual) // 2)),
            rotation_error_deg=rot_err, translation_direction_error_deg=trans_err,
            model_used=model, iterations=int(iterations), cost_history=history,
            termination=termination))
    return [solutions[i] for i in np.argsort(order)]


def bundle_adjust(problem: SfmProblem, model: str = RS_MODEL) -> SfmSolution:
    """Levenberg-Marquardt refinement of camera 2 and the scene points.

    Camera 1 is the gauge, exactly the identity pose (ValueError otherwise).
    The initial guess turns the true camera 2 by INIT_ROTATION_DEG about a
    random axis, moves its translation by INIT_TRANSLATION_FRAC of the
    baseline in a random direction, and triangulates points from the
    observations; velocities are known model inputs.  LM stops after
    MAX_ITERATIONS steps or on COST_TOLERANCE or GRADIENT_TOLERANCE.
    ConfigError if camera 2 sits at camera 1 (a zero baseline is
    under-constrained).  Non-convergence is reported in the solution flags,
    never raised.  A batch of one for the grid's batched LM.
    """
    return _bundle_adjust_batch([problem], [model])[0]


def _pose_errors(pose_true: Pose, pose_est: Pose) -> tuple[float, float]:
    """(rotation error deg, translation direction error deg) of a camera-2 pose.

    The geodesic angle between the attitudes and the angle between the
    translations (camera 1 fixes the gauge; both have the nonzero baseline's
    length).
    """
    rot = math.degrees(float(np.linalg.norm(
        rotation_log(pose_true.rotation.T @ pose_est.rotation))))
    t0, t1 = pose_true.translation, pose_est.translation
    cosine = float(np.clip(t0 @ t1 / (np.linalg.norm(t0) * np.linalg.norm(t1)), -1.0, 1.0))
    return rot, math.degrees(math.acos(cosine))


GRID_CSV_COLUMNS = [
    "velocity_kmh", "sigma_px", "model", "trials",
    "mean_reproj_px", "se_reproj", "mean_rot_deg", "se_rot",
    "mean_trans_deg", "se_trans", "nonconverged_count",
]


def grid_cells(velocities_kmh, sigmas_px, trials: int, seed, config: SceneConfig | None = None):
    """((vi, si), scene, problems) of each grid cell in order: the scene is `config`
    at that velocity and noise, and trial k is drawn from rng stream (seed, vi, si, k)."""
    base, seed_t = config or SceneConfig(), _seed_tuple(seed)
    for vi, velocity in enumerate(velocities_kmh):
        for si, sigma in enumerate(sigmas_px):
            cfg = replace(base, velocity_kmh=velocity, noise_sigma=sigma)
            yield (vi, si), cfg, [generate_problem(cfg, (*seed_t, vi, si, trial))
                                  for trial in range(trials)]


def run_experiment_grid(velocities_kmh, sigmas_px, trials: int, seed,
                        config: SceneConfig | None = None) -> list[dict]:
    """Mean errors of each model over a (velocity x noise) grid of trials.

    Each trial generates a fresh scene (`grid_cells`) and runs bundle
    adjustment under both MODELS on the same observations.
    Returns one row dict per (velocity, sigma, model) cell.
    """
    if not velocities_kmh or not sigmas_px:
        raise ConfigError("velocity and sigma lists must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    rows = []
    for _, cfg, cell in grid_cells(velocities_kmh, sigmas_px, trials, seed, config):
        problems = [problem for problem in cell for _ in MODELS]
        solutions = _bundle_adjust_batch(problems, list(MODELS) * trials)
        for m in MODELS:
            mine = [sol for sol in solutions if sol.model_used == m]
            row = {"velocity_kmh": cfg.velocity_kmh, "sigma_px": cfg.noise_sigma, "model": m,
                   "trials": trials, "nonconverged_count": sum(not sol.converged for sol in mine)}
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
    """JSON snapshot of the problem's fields, enough to re-run it exactly."""
    text = json.dumps(asdict(problem), default=lambda array: array.tolist(), indent=2,
                      sort_keys=True)
    Path(path).write_text(text + "\n")
