"""Crossed-slit structure of a translating rolling-shutter camera.

A pin-hole camera's back-projected rays all pass through one point.  A
rolling-shutter camera translating parallel to its image plane instead sends
every back-projected ray through two fixed 3-D lines (slits): one through the
origin along the translation direction, and one horizontal line at depth
v_y / r.  Adding rotation about the optical axis destroys this structure.

This module works in the calibrated convention: image points are normalized
coordinates (identity K) and the ShutterParams scan rate and first-row offset
are in the same normalized row units (convert pixel-unit parameters with
`shutter.normalized_scan` first).

`backproject` maps image points (N, 2) to one Line3D of N lines, over which
`line_line_distance` broadcasts; one point (2,) is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSlits
from .geometry import CameraIntrinsics, MotionState, row_dot
from .shutter import ShutterParams, invert_fronto_parallel


@dataclass(frozen=True)
class Line3D:
    """3-D line through `point` with unit `direction`; N lines hold (N, 3)."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        d = np.asarray(self.direction, dtype=float)
        norm = np.sqrt(row_dot(d, d))[..., None]
        if np.any(norm < 1e-300):
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", d / norm)


@dataclass(frozen=True)
class SlitPair:
    slit1: Line3D
    slit2: Line3D


def compute_slits(motion: MotionState, shutter: ShutterParams) -> SlitPair:
    """The two slits of a camera translating with v = (v_x, v_y, 0).

    slit1 passes through the origin along the translation direction; slit2 is
    the horizontal line at height -v0 * v_y / r in the plane z = v_y / r.  The
    slits coincide as the velocity shrinks to zero, and the construction is
    undefined (DegenerateSlits) for a stationary camera, which is a pin-hole.
    """
    if not motion.is_fronto_parallel or motion.angular_velocity[2] != 0.0:
        raise ValueError("slits exist only for translation parallel to the image plane")
    v = motion.linear_velocity
    if v[0] == 0.0 and v[1] == 0.0:
        raise DegenerateSlits("stationary camera: both slits collapse to the origin")
    r = shutter.scan_rate
    v0 = shutter.first_row
    slit1 = Line3D(np.zeros(3), np.array([v[0], v[1], 0.0]))
    slit2 = Line3D(np.array([0.0, -v0 * v[1] / r, v[1] / r]), np.array([1.0, 0.0, 0.0]))
    return SlitPair(slit1=slit1, slit2=slit2)


def backproject(q, motion: MotionState, shutter: ShutterParams) -> Line3D:
    """Inverse images of normalized image points (N, 2) as N 3-D lines.

    Solves the projection for the world points at depths 1 and 2, fits the
    lines through them, and verifies collinearity at depth 3 (ValueError
    for the first point off its line).  Valid for fronto-parallel motion; with
    a stationary camera this is the pin-hole ray through (u, v, 1).
    """
    intrinsics = CameraIntrinsics.normalized()
    p1, p2, p3 = (invert_fronto_parallel(q, z, motion, intrinsics, shutter)
                  for z in (1.0, 2.0, 3.0))
    line = Line3D(p1, p2 - p1)
    off_line = p3 - line.point
    off_line = off_line - row_dot(off_line, line.direction)[..., None] * line.direction
    residual = np.ravel(np.sqrt(row_dot(off_line, off_line)))
    scale = np.fmax(1.0, np.ravel(np.sqrt(row_dot(p3, p3))))
    if np.any(bent := residual > 1e-9 * scale):
        raise ValueError("inverse image is not a straight line "
                         f"(residual {residual[bent.argmax()]:.3e})")
    return line


def line_line_distance(a: Line3D, b: Line3D):
    """Minimal Euclidean distances between (batches of) 3-D lines, 0 where they meet."""
    cross = np.cross(a.direction, b.direction)
    offset = b.point - a.point
    norm = np.sqrt(row_dot(cross, cross))
    # Parallel (or identical) lines: the perpendicular distance of the offset.
    off_line = offset - row_dot(offset, a.direction)[..., None] * a.direction
    distance = np.where(norm < 1e-12, np.sqrt(row_dot(off_line, off_line)),
                        np.abs(row_dot(offset, cross)) / np.fmax(norm, 1e-12))
    return distance if distance.ndim else float(distance)
