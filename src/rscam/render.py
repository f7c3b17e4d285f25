"""Checkerboard rendering under a rotating rolling-shutter camera.

Reproduces the classic bent-checkerboard distortion: a camera spinning about
its optical axis images each pixel row at a different instant, so straight
board edges curve.  Rendering is exact: the capture time of pixel row v is
t = (v + v0) / r, and the board color is sampled along the ray of the
rotated camera at that instant.  Board corners are also forward-projected
through the nonlinear scan-time solver, which provides an independent check
of the same geometry and the curve-deflection metric.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CameraIntrinsics, MotionState, Pose
from .shutter import NO_SCAN_TIME, SINGULARITY, ShutterParams, solve_scan_times


def spin_motion(omega_z_rev_s: float) -> MotionState:
    """Camera rotating in place about its optical axis."""
    return MotionState(Pose.identity(), np.zeros(3),
                       np.array([0.0, 0.0, 2.0 * math.pi * omega_z_rev_s]))


def render_checkerboard(intrinsics: CameraIntrinsics, shutter: ShutterParams,
                        omega_z_rev_s: float, plane_depth: float,
                        square_size: float) -> np.ndarray:
    """Grayscale image (height x width in [0,1]) of a fronto-parallel board.

    Row v is sampled at its scan time through the exactly-rotated camera; the
    board is an infinite checker pattern on the plane z = plane_depth.
    """
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


def project_board_lattice(intrinsics: CameraIntrinsics, shutter: ShutterParams,
                          omega_z_rev_s: float, plane_depth: float,
                          square_size: float, squares: int,
                          samples_per_edge: int = 17):
    """Forward-project the board's grid lines through the exact solver.

    Returns (corner pixels, list of sampled polylines, max deflection in px):
    deflection is the largest perpendicular distance between a projected grid
    line and the straight segment joining its projected endpoints.
    """
    motion = spin_motion(omega_z_rev_s)
    half = 0.5 * squares * square_size
    coords = np.linspace(-half, half, squares + 1)
    ts = -half + 2 * half * np.linspace(0.0, 1.0, samples_per_edge)
    # Corners row by row, then each grid line sampled along its length.
    board = [(gx, gy) for gy in coords for gx in coords]
    lines = []
    for fixed in coords:
        for horizontal in (True, False):
            lines.append(range(len(board), len(board) + len(ts)))
            board.extend((t, fixed) if horizontal else (fixed, t) for t in ts)
    points = np.column_stack([np.array(board), np.full(len(board), plane_depth)])
    result = solve_scan_times(points, motion, intrinsics, shutter, exact=True)
    # Points the frame misses are left out; a point behind the camera raises.
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
    return np.array(corners), polylines, max_deflection


def overlay_markers(image: np.ndarray, pixels: np.ndarray, radius: int = 1,
                    value: float = 0.5) -> np.ndarray:
    """Splat square markers into a copy of the image at the given pixels."""
    out = image.copy()
    h, w = out.shape
    for u, v in np.atleast_2d(pixels):
        cu, cv = int(round(u)), int(round(v))
        if 0 <= cu < w and 0 <= cv < h:
            out[max(0, cv - radius):cv + radius + 1,
                max(0, cu - radius):cu + radius + 1] = value
    return out
