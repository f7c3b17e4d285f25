"""Optical flow of a rolling-shutter camera under fronto-parallel motion.

The apparent image velocity of a rolling-shutter camera differs from the
pin-hole flow because consecutive frames capture each row at a shifted scan
time.  `flow_rolling_shutter` gives the analytic flow; `flow_finite_difference`
differentiates the projection across neighboring frame start times and serves
as its independent check.

Everything here uses the calibrated convention: (u, v) are normalized image
coordinates and the scan rate is in normalized rows per second (convert
pixel-unit parameters with `shutter.normalized_scan`).  The first-row offset
must be zero for the analytic flow, which puts row zero at the principal
point; the sign of each term in the analytic form is pinned by agreement
with the central-difference derivative of the projection model, the
defining quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Singularity
from .geometry import CameraIntrinsics, MotionState
from .shutter import ShutterParams, invert_fronto_parallel, project_rolling_shutter

SINGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class FlowVector:
    """Image velocity (du, dv) in normalized units/second at depth z."""

    du: float
    dv: float
    depth: float

    def as_array(self) -> np.ndarray:
        return np.array([self.du, self.dv])


def _require_fronto_parallel(motion: MotionState) -> None:
    if not motion.is_fronto_parallel:
        raise ValueError("flow is defined for fronto-parallel motion only")


def flow_perspective(u: float, v: float, z: float, motion: MotionState) -> FlowVector:
    """Pin-hole optical flow (v_x/z - w_z v, v_y/z + w_z u) at (u, v)."""
    _require_fronto_parallel(motion)
    if z <= 0.0:
        raise ValueError("depth must be positive")
    vx, vy, _ = motion.linear_velocity
    wz = motion.angular_velocity[2]
    return FlowVector(du=vx / z - wz * v, dv=vy / z + wz * u, depth=z)


def flow_rolling_shutter(u: float, v: float, z: float, motion: MotionState,
                         shutter: ShutterParams) -> FlowVector:
    """Analytic rolling-shutter flow at image point (u, v) and depth z.

    Rescales and couples the perspective flow through the scan rate r:

        (du, dv) = r z / (v v_x w_z + r z (r - dv_p)) *
                   (r du_p + w_z v dv_p,  r dv_p - w_z v du_p)

    As r grows the result converges to the perspective flow.  Requires a
    zero first-row offset; raises Singularity when the denominator vanishes
    (image point moving with the scanline).
    """
    _require_fronto_parallel(motion)
    if shutter.first_row != 0.0:
        raise ValueError("analytic flow assumes a zero first-row offset")
    if z <= 0.0:
        raise ValueError("depth must be positive")
    vx = motion.linear_velocity[0]
    wz = motion.angular_velocity[2]
    r = shutter.scan_rate
    p = flow_perspective(u, v, z, motion)
    den = v * vx * wz + r * z * (r - p.dv)
    scale = max(1.0, abs(r * r * z))
    if abs(den) < SINGULARITY_EPS * scale:
        raise Singularity("flow denominator vanishes (point moving with the scanline)")
    factor = r * z / den
    return FlowVector(
        du=factor * (r * p.du + wz * v * p.dv),
        dv=factor * (r * p.dv - wz * v * p.du),
        depth=z,
    )


def flow_finite_difference(u: float, v: float, z: float, motion: MotionState,
                           shutter: ShutterParams, h: float = 1e-3) -> FlowVector:
    """Central-difference flow across frames starting at t0 = -h and t0 = +h.

    Recovers the world point imaged at (u, v, z) by the frame at t0 = 0, then
    projects it through the frames starting at +/-h and divides the image
    displacement by 2h.  Propagates NoScanTime when either frame misses the
    point.
    """
    _require_fronto_parallel(motion)
    if h <= 0.0:
        raise ValueError("step h must be positive")
    intrinsics = CameraIntrinsics.normalized()
    point = invert_fronto_parallel((u, v), z, motion, intrinsics, shutter)
    ahead = project_rolling_shutter(point, motion, intrinsics, shutter,
                                    frame_start=h, enforce_window=False)
    behind = project_rolling_shutter(point, motion, intrinsics, shutter,
                                     frame_start=-h, enforce_window=False)
    delta = (ahead.pixel - behind.pixel) / (2.0 * h)
    return FlowVector(du=float(delta[0]), dv=float(delta[1]), depth=z)
