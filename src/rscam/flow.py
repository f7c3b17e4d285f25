"""Optical flow of a rolling-shutter camera under fronto-parallel motion.

The apparent image velocity of a rolling-shutter camera differs from the
pin-hole flow because consecutive frames capture each row at a shifted scan
time.  `flow_rolling_shutter` gives the analytic flow; `flow_finite_difference`
differentiates the projection across neighboring frame start times and serves
as its independent check.

Both take (N,) arrays u, v and a depth z or (N,) depths; a scalar call is a
batch of one through the same code that returns floats or raises its error.

Everything here uses the calibrated convention: (u, v) are normalized image
coordinates and the scan rate is in normalized rows per second (convert
pixel-unit parameters with `shutter.normalized_scan`).  The first-row offset
must be zero for the analytic flow, which puts row zero at the principal
point; the sign of each term in the analytic form is pinned by agreement
with the central-difference derivative of the projection model, the
defining quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Singularity
from .geometry import CameraIntrinsics, MotionState
from .shutter import REASONS, ShutterParams, invert_fronto_parallel, solve_scan_times

SINGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class FlowVector:
    """Image velocity (du, dv) in normalized units/second at depth z, or arrays of them."""

    du: float | np.ndarray
    dv: float | np.ndarray
    depth: float | np.ndarray
    failures: dict = field(default_factory=dict, compare=False, repr=False)  # index: error


def _flow(u, du, dv, depth, failures: dict) -> FlowVector:
    """The batch's FlowVector; a scalar query's floats, or its error."""
    if failures and not np.ndim(u):
        raise failures[0]
    return FlowVector(du[()], dv[()], depth, failures)


def _require_fronto_parallel(motion: MotionState) -> None:
    if not motion.is_fronto_parallel:
        raise ValueError("flow is defined for fronto-parallel motion only")


def flow_perspective(u, v, z, motion: MotionState) -> FlowVector:
    """Pin-hole optical flow (v_x/z - w_z v, v_y/z + w_z u) at (u, v)."""
    _require_fronto_parallel(motion)
    if np.any(np.asarray(z) <= 0.0):
        raise ValueError("depth must be positive")
    vx, vy, _ = motion.linear_velocity
    wz = motion.angular_velocity[2]
    return _flow(u, vx / z - wz * v, vy / z + wz * u, z, {})


def flow_rolling_shutter(u, v, z, motion: MotionState,
                         shutter: ShutterParams) -> FlowVector:
    """Analytic rolling-shutter flow at image points (u, v) and depths z.

    Rescales and couples the perspective flow through the scan rate r:

        (du, dv) = r z / (v v_x w_z + r z (r - dv_p)) *
                   (r du_p + w_z v dv_p,  r dv_p - w_z v du_p)

    As r grows the result converges to the perspective flow.  Requires a
    zero first-row offset; a point whose denominator vanishes (image point
    moving with the scanline) fails with Singularity.
    """
    _require_fronto_parallel(motion)
    if shutter.first_row != 0.0:
        raise ValueError("analytic flow assumes a zero first-row offset")
    vx = motion.linear_velocity[0]
    wz = motion.angular_velocity[2]
    r = shutter.scan_rate
    p = flow_perspective(u, v, z, motion)
    den = v * vx * wz + r * z * (r - p.dv)
    singular = np.abs(den) < SINGULARITY_EPS * np.fmax(1.0, np.abs(r * r * z))
    factor = r * z / np.where(singular, np.nan, den)
    return _flow(u, factor * (r * p.du + wz * v * p.dv), factor * (r * p.dv - wz * v * p.du), z,
                 {int(i): Singularity("flow denominator vanishes (point moving with the "
                                      "scanline)") for i in np.flatnonzero(singular)})


def flow_finite_difference(u, v, z, motion: MotionState,
                           shutter: ShutterParams, h: float = 1e-3) -> FlowVector:
    """Central-difference flow across frames starting at t0 = -h and t0 = +h.

    Recovers the world points imaged at (u, v, z) by the frame at t0 = 0, then
    projects them through the frames starting at +h and -h and divides the
    image displacement by 2h.  A point that either frame misses fails with
    that frame's error, the +h frame's first.
    """
    _require_fronto_parallel(motion)
    if h <= 0.0:
        raise ValueError("step h must be positive")
    intrinsics = CameraIntrinsics.normalized()
    uv = np.stack(np.broadcast_arrays(u, v), axis=-1).astype(float)
    points = invert_fronto_parallel(uv, z, motion, intrinsics, shutter)
    ahead, behind = (solve_scan_times(points, motion, intrinsics, shutter,
                                      frame_start=t0, windowed=False) for t0 in (h, -h))
    q_ahead, q_behind = ((intrinsics.K @ st.capture[..., None])[..., 0] for st in (ahead, behind))
    delta = (q_ahead[:, :2] / q_ahead[:, 2:] - q_behind[:, :2] / q_behind[:, 2:]) / (2.0 * h)
    reason = np.where(ahead.ok, behind.reason, ahead.reason)   # nonzero: not imaged
    du, dv = np.where(reason, np.nan, delta.T).reshape((2,) + uv.shape[:-1])
    return _flow(u, du, dv, z, {int(i): REASONS[reason[i]](REASONS[reason[i]].__doc__)
                                for i in np.flatnonzero(reason)})
