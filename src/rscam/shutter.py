"""Rolling-shutter projection: the scan-time constraint and its one solver.

A rolling-shutter sensor exposes one pixel row at a time.  For a frame whose
exposure starts at t0, the row being scanned at frame-local time t is

    v_cam(t0 + t) = r * t - v0        (pixel rows)

with r the signed scan rate (rows/second) and v0 the first-row offset.  A
static world point X is captured when the moving camera's projection crosses
the scanline, i.e. at the scan time t_c solving

    pi_y( P(t0 + t_c) X ) = r * t_c - v0

where P(t) = K [R(t) | T(t)].  Depending on the motion and on whether P(t) is
linearized in t, this constraint is linear, quadratic, or fully nonlinear in
t_c (`classify_case`).  One batched kernel, `solve_scan_times`, solves it for
N points: linearized, in closed form; exact, on a certified grid.  In front of
the camera the constraint is g = fy p_y + (cy + v0 - r t) p_z = 0, and with
|g''| <= M an interval of width h holds no root where g keeps one sign beyond
M h^2 / 8, and exactly one where it changes sign with a secant slope above
M h.  From 9 samples, intervals are halved until so certified, with the depth
in front by the same bound on p_z, or until M h^2 / 8 reaches g's rounding,
where samples in front with opposite signs bracket a root; the Illinois method
refines the brackets together until g is within its rounding.  The scalar
`project_rolling_shutter` is a batch of one.

For fronto-parallel motion (v_z = 0, omega about the optical axis only) the
constraint is linear and the captured image point has a closed form equal to
the pin-hole projection at frame start plus a correction term proportional to
the perspective optical flow.  When omega = 0 that closed form is exact; with
omega_z != 0 it is the first-order approximation of the true projection.

Scan rate and first-row offset live in pixel-row units; functions convert to
normalized (calibrated) units internally via the row focal length, so an
identity K makes all quantities normalized and unit-free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeDepth, NoScanTime, Singularity
from .geometry import CameraIntrinsics, MotionState, hat, row_dot

DEPTH_EPS = 1e-9            # depth at or below which a point is behind the camera
SINGULARITY_EPS = 1e-9      # |b| / f_y at or below which a linear constraint is singular
EXACT_MAX_STEPS = 100       # Illinois steps per bracket

# Reason codes of ScanTimes.reason; REASONS gives each failure's error type.
IMAGED, NO_SCAN_TIME, NEGATIVE_DEPTH, SINGULARITY = range(4)
REASONS = (None, NoScanTime, NegativeDepth, Singularity)


@dataclass(frozen=True)
class ShutterParams:
    """Scanline timing of a rolling-shutter sensor.

    scan_rate is signed: positive scans top-to-bottom, negative bottom-to-top.
    The geometric model treats within-row exposure as instantaneous.
    """

    scan_rate: float            # rows / second, nonzero
    first_row: float = 0.0      # row offset v0 (pixels)
    framerate: float = 30.0     # frames / second

    def __post_init__(self):
        if self.scan_rate == 0.0 or not math.isfinite(self.scan_rate):
            raise ValueError("scan_rate must be finite and nonzero")
        if not self.framerate > 0.0:
            raise ValueError("framerate must be positive")

    @staticmethod
    def ideal(framerate: float, n_rows: int) -> "ShutterParams":
        """Sensor whose scan spans the whole frame period."""
        return ShutterParams(scan_rate=n_rows * framerate, framerate=framerate)

    def scan_duration(self, n_rows: int) -> float:
        """Time to sweep n_rows rows (the frame window length)."""
        return n_rows / abs(self.scan_rate)


def validate_frame_timing(shutter: ShutterParams, n_rows: int) -> None:
    """Raise ValueError when the scan of n_rows rows overruns the frame period."""
    if shutter.scan_duration(n_rows) > 1.0 / shutter.framerate + 1e-12:
        raise ValueError(
            f"scanning {n_rows} rows at {shutter.scan_rate} rows/s exceeds the "
            f"frame period of {1.0 / shutter.framerate} s"
        )


class ScanTimeCase(enum.Enum):
    """Structure of the scan-time constraint for a given motion."""

    FRONTO_PARALLEL_LINEAR = "fronto_parallel_linear"
    AXIAL_QUADRATIC = "axial_quadratic"
    GENERAL_QUADRATIC = "general_quadratic"


@dataclass(frozen=True)
class RsProjection:
    """Result of projecting a point (or N, as arrays) through the rolling-shutter model.

    pixel - correction is the pin-hole projection at the frame's start time.
    caught_twice flags a second in-window intersection of the point path and
    the scanline.
    """

    pixel: np.ndarray
    scan_time: float
    correction: np.ndarray
    caught_twice: bool = False


def normalized_scan(shutter: ShutterParams, intrinsics: CameraIntrinsics) -> tuple[float, float]:
    """(scan rate, first-row offset) in normalized image units.

    The pixel-row sweep v(t) = r t - v0 maps through the row of K to the
    normalized sweep w(t) = r_n t - v0_n with r_n = r / f_y and
    v0_n = (v0 + c_y) / f_y.
    """
    fy = intrinsics.focal_y
    return shutter.scan_rate / fy, (shutter.first_row + intrinsics.center_y) / fy


def classify_case(motion: MotionState) -> ScanTimeCase:
    """Pick the linearized scan-time solution branch for a motion state.

    Fronto-parallel motion (v_z = 0, rotation only about the optical axis)
    gives a linear constraint; translation along the axis alone gives a
    quadratic; any other linearized motion is quadratic as well.
    """
    if motion.is_fronto_parallel:
        return ScanTimeCase.FRONTO_PARALLEL_LINEAR
    v = motion.linear_velocity
    w = motion.angular_velocity
    if v[0] == 0.0 and v[1] == 0.0 and np.all(w == 0.0):
        return ScanTimeCase.AXIAL_QUADRATIC
    return ScanTimeCase.GENERAL_QUADRATIC


def _linear_path(x: np.ndarray, motion: MotionState,
                 frame_start: float) -> tuple[np.ndarray, np.ndarray]:
    """Linearized camera-frame path y + t w of points (N, 3), y at frame_start."""
    pose = motion.pose0
    rx = x @ pose.rotation.T
    w = rx @ hat(motion.angular_velocity).T + motion.linear_velocity
    return rx + pose.translation + frame_start * w, w


def _exact_path(x: np.ndarray, motion: MotionState):
    """(coef, speed): exact camera-frame paths of static points (N, 3).

    The camera turns about a fixed axis n, so R(tau) R0 x = rx + sin(theta) k1
    + (1 - cos theta) k2 with theta = speed tau, k1 = n x rx, k2 = n x k1, and
    p(tau) = [1, tau, sin theta, 1 - cos theta] @ coef (4, 3, N), as `_path_at` sums it.
    """
    rx = x @ motion.pose0.rotation.T
    speed = float(np.linalg.norm(motion.angular_velocity))
    axis = hat(motion.angular_velocity / speed) if speed > 0.0 else np.zeros((3, 3))
    k1 = rx @ axis.T
    coef = np.array([rx + motion.pose0.translation, rx, k1, k1 @ axis.T])
    coef[1] = motion.linear_velocity
    return np.ascontiguousarray(coef.transpose(0, 2, 1)), speed


def _path_at(tau, terms, speed):
    """Positions on exact paths of terms (4, ...) at times tau broadcasting against terms[0]."""
    p = terms[0] + tau * terms[1]
    if speed == 0.0:
        return p
    theta = speed * tau
    return p + np.sin(theta) * terms[2] + (1.0 - np.cos(theta)) * terms[3]


def _points(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))[:, :3]


def _require_depth(p: np.ndarray) -> None:
    """Raise NegativeDepth for the first point (..., 3) at or behind the camera."""
    depth = np.ravel(p[..., 2])
    if np.any(behind := depth <= DEPTH_EPS):
        raise NegativeDepth(f"depth {depth[behind.argmax()]:.3e} is not positive")


def _project(p: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    _require_depth(p)
    q = (intrinsics.K @ p[..., None])[..., 0]
    return q[..., :2] / q[..., 2:]


@dataclass(frozen=True)
class ScanTimes:
    """Per-point result of `solve_scan_times` for N points.

    reason[i] indexes REASONS, the error a scalar call raises for point i
    (IMAGED: none; t[i] is 0 otherwise).  start and capture are camera-frame
    positions (N, 3) at the frame start and at the scan time.
    """

    t: np.ndarray
    reason: np.ndarray
    caught_twice: np.ndarray
    start: np.ndarray
    capture: np.ndarray
    velocity: np.ndarray | None = None  # w of the closed form's paths start + t w

    @property
    def ok(self) -> np.ndarray:
        return self.reason == IMAGED

    def check(self, i) -> None:
        """Raise the documented error of the first of the points i not imaged."""
        if (reason := np.ravel(self.reason[i])).any():
            error = REASONS[reason[reason != IMAGED][0]]
            raise error(error.__doc__)

    def projection(self, i, intrinsics: CameraIntrinsics) -> RsProjection:
        """Image of point i (or of an index array's points), or the first error;
        the correction is NaN where the point is behind the camera at frame start."""
        self.check(i)
        pixel = _project(self.capture[i], intrinsics)
        front = (start := self.start[i])[..., 2:] > DEPTH_EPS
        return RsProjection(pixel=pixel, scan_time=self.t[i], correction=np.where(
            front, pixel - _project(np.where(front, start, 1.0), intrinsics), np.nan),
            caught_twice=self.caught_twice[i])


def solve_scan_times(points, motion: MotionState, intrinsics: CameraIntrinsics,
                     shutter: ShutterParams, exact: bool = False,
                     frame_start: float = 0.0, windowed: bool = True) -> ScanTimes:
    """Scan times of N world points (N, 3) in the frame starting at frame_start.

    The one scan-time kernel: the smallest root inside the frame window
    [0, n_rows/|r|] at which the point is in front of the camera, from the
    linearized constraint in closed form or, with exact=True, from the exact
    one.  windowed=False (closed form only) drops the window's upper end and
    asks that the point be in front of the camera at the frame start; a
    linear root then counts wherever it falls, since the zero-offset row
    convention of the flow equations scans rows above the principal point at
    negative times.
    """
    x = _points(points)
    if not exact:
        return solve_path_times(*_linear_path(x, motion, frame_start), intrinsics,
                                shutter, windowed)
    coef, speed = _exact_path(x, motion)
    t, reason, twice = _exact_roots(coef, speed, intrinsics, shutter, frame_start,
                                    shutter.scan_duration(intrinsics.height))
    return ScanTimes(t, reason, twice, _path_at(frame_start, coef, speed).T,
                     _path_at(frame_start + t, coef, speed).T)


def solve_path_times(start: np.ndarray, velocity: np.ndarray, intrinsics: CameraIntrinsics,
                     shutter: ShutterParams, windowed: bool = True) -> ScanTimes:
    """`solve_scan_times`'s closed form on camera-frame paths start + t velocity (N, 3)
    formed by the caller, such as points seen from one pose each."""
    t, reason, twice = _closed_form_roots(start, velocity, intrinsics, shutter,
                                          shutter.scan_duration(intrinsics.height), windowed)
    return ScanTimes(t, reason, twice, start, start + t[:, None] * velocity, velocity)


def scan_time_gradient(times: ScanTimes, intrinsics: CameraIntrinsics,
                       shutter: ShutterParams) -> np.ndarray:
    """Gradient (N, 3) of closed-form scan times by the path starts y; t times
    it is the gradient by the path velocities w.  It is 0 where not imaged or
    at a double root (zero slope), where t has no derivative.

    `_closed_form_roots` solves n(t) . (y + t w) = 0 as a t^2 + b t + c = 0,
    with n(t) = (0, fy, cy + v0 - r t) normal to the scanline's plane, so
    dt = -(t^2 da + t db + dc) / (2 a t + b) = n . (dy + t dw) / (r p_z - n . w).
    """
    normal = np.zeros(times.velocity.shape)
    normal[:, 1] = intrinsics.focal_y
    normal[:, 2] = intrinsics.center_y + shutter.first_row - shutter.scan_rate * times.t
    slope = (shutter.scan_rate * times.capture[:, 2]
             - np.einsum("ij,ij->i", normal, times.velocity))
    return normal / np.where(times.ok & (slope != 0.0), slope, np.inf)[:, None]


def _closed_form_roots(y, w, intrinsics, shutter, t_max, windowed):
    """Scan times of the linearized paths y + t w: (t, reason, caught_twice)."""
    fy, cy = intrinsics.focal_y, intrinsics.center_y
    r, v0 = shutter.scan_rate, shutter.first_row
    # The row (fy p_y + cy p_z) / p_z of p = y + t w meets r t - v0 where
    # a t^2 + b t + c = 0.
    a = r * w[:, 2]
    b = r * y[:, 2] - v0 * w[:, 2] - (fy * w[:, 1] + cy * w[:, 2])
    c = -(v0 * y[:, 2] + fy * y[:, 1] + cy * y[:, 2])
    linear = a == 0.0
    singular = linear & (np.abs(b) <= SINGULARITY_EPS * fy)
    # A root that does not exist (singular, or complex) is NaN.
    t_lin = -c / np.where(singular, np.nan, b)
    if linear.all():
        lo = hi = t_lin
    else:
        disc = b * b - 4.0 * a * c
        # Cancellation-free roots; a linear constraint has its one root twice.
        q = -0.5 * (b + np.copysign(np.sqrt(np.where(disc >= 0.0, disc, np.nan)),
                                    np.where(b != 0.0, b, 1.0)))
        with np.errstate(over="ignore"):    # q / a of a subnormal a: a far root, inf
            r1 = np.where(linear, t_lin, q / np.where(linear, 1.0, a))
        r2 = np.where(linear | (q == 0.0), r1, c / np.where(q == 0.0, 1.0, q))
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)

    # Without the window a linear root counts wherever it falls, a quadratic
    # one from the frame start on.
    slack = 1e-12 * max(1.0, t_max)
    lower = -slack if windowed else np.where(linear, -np.inf, -slack)
    upper = t_max + slack if windowed else np.inf

    def usable(t):
        inside = (t >= lower) & (t <= upper)
        return inside, inside & (y[:, 2] + t * w[:, 2] > DEPTH_EPS)

    in_any, found = usable(lo)
    t, twice = lo, np.zeros_like(found)
    if hi is not lo:
        in_hi, ok_hi = usable(hi)
        twice = found & ok_hi & (hi - lo > 1e-12 * max(1.0, t_max))
        t = np.where(found, lo, hi)
        in_any, found = in_any | in_hi, found | ok_hi
    front = y[:, 2] > DEPTH_EPS
    if windowed:
        front &= y[:, 2] + t_max * w[:, 2] > DEPTH_EPS
        t = np.clip(t, 0.0, t_max)
    else:
        found &= front
    reason = np.where(found, IMAGED, np.where(
        singular, SINGULARITY, np.where(in_any | ~front, NEGATIVE_DEPTH, NO_SCAN_TIME)))
    return np.where(found, t, 0.0), reason, twice


def _exact_roots(coef, speed, intrinsics, shutter, frame_start, t_max):
    """Scan times of the exact paths of terms coef (4, 3, N): (t, reason, caught_twice); past
    64 intervals of a point, as where M h^2 / 8 is within `size`, the samples decide."""
    fy, cy, r, v0 = intrinsics.focal_y, intrinsics.center_y, shutter.scan_rate, shutter.first_row
    n, terms = coef.shape[2], coef[:, 1:3]     # (4, 2, N) of p_y, p_z

    def constraint(t, path):    # g and p_z on paths (4, 2, ...) at t broadcasting against them
        p_y, p_z = _path_at(frame_start + t, path, speed)
        return fy * p_y + (cy + v0 - r * t) * p_z, p_z

    # g rounds within ~1e-15 of its terms, and its sign is sure above `size`, 1e-12 of them.
    size = 1e-12 * (np.abs(terms).T @ [1.0, abs(frame_start) + t_max, 1.0, 2.0]
                    @ [abs(fy), abs(cy) + abs(v0) + abs(r) * t_max])
    # M h^2 / 8 and Mz h^2 / 8 at h = t_max / 8, from p'' = speed^2 (cos c3 - sin c2),
    # p' = c1 + speed (cos c2 + sin c3) and g'' = fy p_y'' + (cy + v0 - r t) p_z'' - 2 r p_z'.
    (turn_y, turn_z), q = np.abs(terms[2]) + np.abs(terms[3]), (t_max / 8.0) * (t_max / 64.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that overflows certifies nothing
        curve_z = speed * speed * turn_z * q
        curve = max(abs(cy + v0), abs(cy + v0 - r * t_max)) * curve_z + q * (
            abs(fy) * speed * speed * turn_y + 2 * abs(r) * (np.abs(terms[1, 1]) + speed * turn_z))
    tau = frame_start + (ts := t_max * (np.arange(9) / 8.0))
    basis = np.column_stack([np.ones(9), tau, np.sin(speed * tau), 1.0 - np.cos(speed * tau)])
    z, g = basis @ coef[:, 2], (fy * basis) @ coef[:, 1]
    g += (cy + v0 - r * ts)[:, None] * z
    z -= DEPTH_EPS
    behind = ~(z > 0.0).all(axis=0)
    # z = p_z - DEPTH_EPS; intervals free of roots in front of the camera, or wholly behind, drop.
    clear, low = z > curve_z, np.maximum(size, curve)
    up, down, gone = (g > low) & clear, (g < -low) & clear, z < -curve_z
    s, k = np.nonzero(~(up[:-1] & up[1:] | down[:-1] & down[1:] | gone[:-1] & gone[1:]))
    ends, brackets, scale = np.array([ts[s], ts[s + 1]]), [(k[:0],) + (ts[:0],) * 6], 1.0
    del g, z
    while k.size:
        g, p_z = constraint(ends, terms.take(k, axis=-1)[:, :, None])
        t_a, t_b, g_a, g_b, z_a, z_b = side = np.concatenate([ends, g, p_z - DEPTH_EPS])
        behind[k[~(z_a > 0.0) | ~(z_b > 0.0)]] = True
        c, c_z, sure = curve[k] * scale, curve_z[k] * scale, size[k]
        low, differ = np.minimum(np.abs(g_a), np.abs(g_b)), (g_a > 0.0) != (g_b > 0.0)
        clear = (z_a > c_z) & (z_b > c_z)
        bracket = (low > sure) & differ & clear & (np.abs(g_b - g_a) > 8.0 * c)
        split = ~(bracket | (z_a < -c_z) & (z_b < -c_z) | (low > sure) & ~differ & (low > c)
                  & (clear | ~((z_a > 0.0) & (z_b > 0.0))))
        fine = split & ((c <= sure) | (np.bincount(k[split], minlength=n)[k] > 64))
        brackets += [(k[m], *e.compress(m, axis=1)) for m, e in ((bracket, side), (fine, side), (
            fine, side[[0, 0, 2, 2, 4, 4]]))]   # a fine interval is (a, b) and (a, a)
        (t_a, t_b), k, scale = ends[:, split & ~fine], np.tile(k[split & ~fine], 2), 0.25 * scale
        ends = np.array([np.hstack([t_a, t_m := 0.5 * (t_a + t_b)]), np.hstack([t_m, t_b])])

    # Brackets with ends in front and g of opposite signs, or a 0 at b, are refined;
    # a stopped bracket writes out its last point, and one whose path went behind is dropped.
    owner, a, b, g_a, g_b, z_a, z_b = (np.concatenate(parts) for parts in zip(*brackets))
    with np.errstate(over="ignore"):    # an overflowing product keeps its sign
        alive = (z_a > 0.0) & (z_b > 0.0) & ((g_b == 0.0) | (g_a * g_b < 0.0))
        last, kept, run = b.copy(), alive.copy(), np.flatnonzero(alive & (g_b != 0.0))
        state = np.array([a, b, g_a, g_b, 1e-2 * size[owner]])[:, run]
        path = terms.take(owner[run], axis=-1)
        for _ in range(EXACT_MAX_STEPS):
            if run.size == 0:
                break
            a, b, g_a, g_b, tol = state
            t = b - g_b * (b - a) / (g_b - g_a)
            t = np.where((t - a) * (t - b) < 0.0, t, 0.5 * (a + b))
            g_t, p_z = constraint(t, path)
            front, swap = p_z > DEPTH_EPS, g_t * g_b < 0.0
            state = np.array([np.where(swap, b, a), t, np.where(swap, g_b, 0.5 * g_a), g_t, tol])
            going = front & (np.abs(g_t) > tol) & (np.abs(t - state[0]) > 1e-14 * t_max)
            if not going.all():
                last[run[~going]], alive[run[~going]] = t[~going], front[~going]
                run, state, path = (x.compress(going, axis=-1) for x in (run, state, path))
    last[run] = state[1]
    behind[owner[kept & ~alive]] = True

    earliest, latest = np.full(n, np.inf), np.full(n, -np.inf)
    np.minimum.at(earliest, owner[alive], last[alive])
    np.maximum.at(latest, owner[alive], last[alive])
    found = earliest < np.inf
    twice = found & (latest - earliest > 1e-9 * max(1.0, t_max))
    reason = np.where(found, IMAGED, np.where(behind, NEGATIVE_DEPTH, NO_SCAN_TIME))
    return np.where(found, earliest, 0.0), reason, twice


def project_rolling_shutter(point, motion: MotionState, intrinsics: CameraIntrinsics,
                            shutter: ShutterParams) -> RsProjection:
    """Image of a static world point in the frame starting at time 0.

    Solves for the scan time inside the frame window, then evaluates the
    projection at that instant with the linearized motion model, whose
    fronto-parallel branch reproduces the closed-form projection (exact
    whenever omega = 0).  The result carries the correction that the rolling
    shutter adds to the pin-hole projection at frame start.  A batch of one
    for `solve_scan_times`.
    """
    return solve_scan_times(point, motion, intrinsics, shutter).projection(0, intrinsics)


def invert_fronto_parallel(pixel, depth, motion: MotionState,
                           intrinsics: CameraIntrinsics, shutter: ShutterParams) -> np.ndarray:
    """World points (N, 3), at one depth or at N depths, imaged at the pixels (N, 2)
    by the frame starting at time 0.

    Under fronto-parallel motion the captured row alone fixes the scan time,
    t_c = (row + v0) / r, which makes the projection invertible up to the
    unknown depth.  Uses the linearized motion model; the scan time is not
    clipped to the frame window, so rows outside the sensor extrapolate.
    """
    if not motion.is_fronto_parallel:
        raise ValueError("inversion requires fronto-parallel motion")
    q = np.asarray(pixel, dtype=float)
    tau = (q[..., 1] + shutter.first_row) / shutter.scan_rate
    ray = np.linalg.solve(intrinsics.K, np.insert(q, 2, 1.0, axis=-1)[..., None])[..., 0]
    p_capture = np.asarray(depth, dtype=float)[..., None] * ray / ray[..., 2:]
    pose = motion.pose0
    w_hat = hat(motion.angular_velocity)
    v_eff = motion.linear_velocity - w_hat @ pose.translation
    y = np.linalg.solve(np.eye(3) + tau[..., None, None] * w_hat,
                        (p_capture - tau[..., None] * v_eff)[..., None])[..., 0]
    return (pose.rotation.T @ (y - pose.translation)[..., None])[..., 0]


def limit_line(shutter: ShutterParams, intrinsics: CameraIntrinsics,
               v_y: float) -> float:
    """Minimum safe depth z_min = v_y / (s_alpha * |r|) for row-speed v_y >= 0.

    Beyond z_min the image drifts by less than one pixel per scanned row and
    a pin-hole model is adequate; closer than z_min the rolling-shutter model
    should be used.
    """
    if v_y < 0.0:
        raise ValueError("v_y must be nonnegative")
    return v_y / (intrinsics.pixel_size * abs(shutter.scan_rate))


def drift_per_row(point, motion: MotionState, intrinsics: CameraIntrinsics,
                  shutter: ShutterParams):
    """Image drift, in pixels, of points (N, 3) while the shutter scans one row.

    This is |pixel optical flow| / |scan rate|; the safe region of
    `limit_line` is exactly where it stays below one pixel.
    """
    # Each point is a batch of one row, so it gets a single point's arithmetic.
    x = np.asarray(point, dtype=float)[..., None, :3]
    y, w = (p[..., 0, :] for p in _linear_path(x, motion, 0.0))
    _require_depth(y)
    kp, kw = ((intrinsics.K @ a[..., None])[..., 0] for a in (y, w))
    flow = (kw[..., :2] * kp[..., 2:] - kp[..., :2] * kw[..., 2:]) / (kp[..., 2:] * kp[..., 2:])
    return np.sqrt(row_dot(flow, flow)) / abs(shutter.scan_rate)
