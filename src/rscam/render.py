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

RASTER_BLOCK = 64           # pixel rows per array operation, to bound the raster's memory


def spin_motion(omega_z_rev_s: float) -> MotionState:
    """Camera rotating in place about its optical axis."""
    return MotionState(Pose.identity(), np.zeros(3),
                       np.array([0.0, 0.0, 2.0 * math.pi * omega_z_rev_s]))


def render_checkerboard(intrinsics: CameraIntrinsics, shutter: ShutterParams,
                        omega_z_rev_s: float, plane_depth: float,
                        square_size: float) -> np.ndarray:
    """Grayscale image (height x width in [0,1]) of a fronto-parallel board.

    Row v is sampled at its scan time through the exactly-rotated camera; the
    board is an infinite checker pattern on the plane z = plane_depth.  The
    ray K^-1 (u, v, 1) is K^-1 (u, 0, 1) + K^-1 (0, v, 0), each term kept as
    one value where constant; the parity 2 (s/2 - floor(s/2)) of the integer
    s = bx + by is exact, +0.0 or 1.0 as s % 2 is.
    """
    w, h = intrinsics.width, intrinsics.height
    k_inv = np.linalg.inv(intrinsics.K)
    vs = np.arange(h) + 0.5
    col_d = np.column_stack([np.arange(w) + 0.5, np.zeros(w), np.ones(w)]) @ k_inv.T
    row_d = np.column_stack([np.zeros(h), vs, np.zeros(h)]) @ k_inv.T
    col_terms, row_terms = ([t[:1] if np.all(t == t[0]) else t for t in d]
                            for d in (col_d.T, row_d.T[:, :, None]))
    # Rays of the rotated camera at each row's scan time: R(t)^T K^-1 (u, v, 1).
    theta = 2.0 * math.pi * omega_z_rev_s * ((vs + shutter.first_row) / shutter.scan_rate)
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    image = np.empty((h, w))
    bx_rows, by_rows = np.empty((2, min(h, RASTER_BLOCK), w))
    for first in range(0, h, RASTER_BLOCK):
        rows = slice(first, first + RASTER_BLOCK)
        c, s = cos[rows], sin[rows]
        bx, by = bx_rows[:len(c)], by_rows[:len(c)]
        d0, d1, d2 = (col + (row[rows] if len(row) > 1 else row)
                      for col, row in zip(col_terms, row_terms))
        np.add(np.multiply(c, d0, out=bx), s * d1, out=bx)
        np.add(np.multiply(-s, d0, out=by), c * d1, out=by)
        scale = plane_depth / d2
        for b in (bx, by):
            np.floor(np.divide(np.multiply(b, scale, out=b), square_size, out=b), out=b)
        np.multiply(np.add(bx, by, out=bx), 0.5, out=bx)
        np.multiply(np.subtract(bx, np.floor(bx, out=by), out=bx), 2.0, out=image[rows])
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
    n, m = len(coords), len(ts)
    # Corners row by row, then each grid line sampled along its length: per
    # fixed coordinate, the horizontal line (t, fixed), then the vertical one.
    points = np.full((n * n + 2 * n * m, 3), plane_depth)
    board, lines = points[:n * n], points[n * n:].reshape(n, 2, m, 3)
    board[:, 0], board[:, 1] = np.tile(coords, n), np.repeat(coords, n)
    lines[:, 0, :, 0] = lines[:, 1, :, 1] = ts
    lines[:, 0, :, 1] = lines[:, 1, :, 0] = coords[:, None]
    result = solve_scan_times(points, motion, intrinsics, shutter, exact=True)
    # Points the frame misses are left out; a point behind the camera raises.
    kept = (result.reason != NO_SCAN_TIME) & (result.reason != SINGULARITY)
    pixels = np.full((len(points), 2), np.nan)
    pixels[kept] = result.projection(kept, intrinsics).pixel
    corners = pixels[:n * n][kept[:n * n]]
    line_px, line_kept = pixels[n * n:].reshape(2 * n, m, 2), kept[n * n:].reshape(2 * n, m)
    drawn = line_kept.sum(axis=1) >= 3
    polylines = [px[k] for px, k, d in zip(line_px, line_kept, drawn) if d]
    # Each line's chord joins its first and last kept points; the stacked
    # products take one dot per line and per point, as np.linalg.norm and @ do.
    line = np.arange(2 * n)
    a = line_px[line, line_kept.argmax(axis=1)]
    chord = line_px[line, m - 1 - line_kept[:, ::-1].argmax(axis=1)] - a
    norm = np.sqrt((chord[:, None, :] @ chord[:, :, None])[:, 0, 0])
    bent = drawn & (norm >= 1e-9)
    normal = np.column_stack([-chord[:, 1], chord[:, 0]]) / np.where(bent, norm, 1.0)[:, None]
    distance = np.abs(((line_px - a[:, None]) @ normal[:, :, None])[..., 0])
    max_deflection = float(np.max(distance, initial=0.0, where=bent[:, None] & line_kept))
    return corners, polylines, max_deflection


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
