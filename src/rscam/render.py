"""Checkerboard rendering under a rotating rolling-shutter camera.

Reproduces the classic bent-checkerboard distortion: a camera spinning about
its optical axis images each pixel row at a different instant, so straight
board edges curve.  Rendering is exact: the capture time of pixel row v is
t = (v + v0) / r, and the board color is sampled along the ray of the rotated
camera at that instant, but only where the row's board cells step; the rest
of the row is runs.  Board corners are also forward-projected through the
nonlinear scan-time solver, an independent check of the same geometry and
the curve-deflection metric.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CameraIntrinsics, MotionState, Pose
from .shutter import NO_SCAN_TIME, SINGULARITY, ShutterParams, solve_scan_times

RASTER_BLOCK = 32           # pixel rows per array operation, to bound the raster's memory


def spin_motion(omega_z_rev_s: float) -> MotionState:
    """Camera rotating in place about its optical axis."""
    return MotionState(Pose.identity(), np.zeros(3),
                       np.array([0.0, 0.0, 2.0 * math.pi * omega_z_rev_s]))


def _check_scene(omega_z_rev_s: float, plane_depth: float, square_size: float) -> None:
    """Raise ValueError naming a spin, depth or square size that no board has."""
    for name, value in (("omega_z_rev_s", omega_z_rev_s), ("plane_depth", plane_depth)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (math.isfinite(square_size) and square_size > 0.0):
        raise ValueError(f"square_size must be finite and positive, got {square_size}")


def _parity(bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """In place, 2 (s/2 - floor(s/2)) for s = floor(bx) + floor(by): s % 2 while |s| < 2**53."""
    s = np.multiply(np.add(np.floor(bx, out=bx), np.floor(by, out=by), out=bx), 0.5, out=bx)
    return np.multiply(np.subtract(s, np.floor(s, out=by), out=s), 2.0, out=s)


def render_checkerboard(intrinsics: CameraIntrinsics, shutter: ShutterParams,
                        omega_z_rev_s: float, plane_depth: float,
                        square_size: float) -> np.ndarray:
    """Grayscale image (height x width in [0,1]) of a fronto-parallel board.

    Row v is sampled at its scan time through the exactly-rotated camera; the
    board is an infinite checker pattern on the plane z = plane_depth.  Pixel
    (u, v) lies in cells floor((p d0 + q d1) plane_depth / d2 / square_size) of
    its ray d = K^-1 (u, 0, 1) + K^-1 (0, v, 0), for the row's (p, q) = (cos,
    sin) and (-sin, cos), and its color is their parity.  Where d1 and d2 are
    constant along a row and d0 rises, both cells are monotone in u, as every
    correctly rounded operation is, so the row is runs between the steps its
    end cells count.  Each step is found by bisection on the same arithmetic,
    seeded from the affine estimate between the ends and verified at its
    probes; it flips the color, and one np.repeat writes the runs.  A row with
    steps * ceil(log2 width) >= width, or cells beyond 2**52, takes every
    column instead.  Raises ValueError for a spin or depth that is not finite,
    a square size that is not finite and positive, or row-end board
    coordinates that overflow.
    """
    _check_scene(omega_z_rev_s, plane_depth, square_size)
    w, h = intrinsics.width, intrinsics.height
    k_inv = np.linalg.inv(intrinsics.K)
    vs = np.arange(h) + 0.5
    col_d = np.column_stack([np.arange(w) + 0.5, np.zeros(w), np.ones(w)]) @ k_inv.T
    row_d = np.column_stack([np.zeros(h), vs, np.zeros(h)]) @ k_inv.T
    col_terms = [t[:1] if np.all(t == t[0]) else t for t in col_d.T]
    monotone = len(col_terms[1]) == len(col_terms[2]) == 1 and np.all(np.diff(col_terms[0]) >= 0)

    def board(p, q, rows, cols):    # board coordinates, in squares, of R(t)^T K^-1 (u, v, 1)
        d0, d1, d2 = ((col[cols] if len(col) > 1 else col) + row[rows]
                      for col, row in zip(col_terms, row_d.T))
        b = np.multiply(p, d0, order="C")       # p indexed by rows is not C-ordered
        return np.divide(np.multiply(np.add(b, q * d1, out=b), plane_depth / d2, out=b),
                         square_size, out=b)
    with np.errstate(over="ignore", invalid="ignore"):     # overflow raises below
        theta = 2.0 * math.pi * omega_z_rev_s * ((vs + shutter.first_row) / shutter.scan_rate)
        p, q = np.array([np.cos(theta), -np.sin(theta)]), np.array([np.sin(theta), np.cos(theta)])
        ends = board(p[..., None], q[..., None], np.arange(h)[:, None], np.array([0, w - 1]))
        first, span = np.floor(ends[..., 0]), np.floor(ends[..., -1]) - np.floor(ends[..., 0])
        runs = (monotone & np.all(np.abs(ends) < 2.0**52, axis=(0, 2))
                & (np.abs(span).sum(axis=0) * (w - 1).bit_length() < w))
    if not np.isfinite(ends).all():
        raise ValueError(f"board coordinates overflow at plane_depth={plane_depth:g}, "
                         f"square_size={square_size:g}, omega_z_rev_s={omega_z_rev_s:g}")
    # Level k of an (axis, row) line is reached where its cell lies k past the first.
    counts = np.where(runs, np.abs(span), 0.0).astype(int).ravel()
    line = np.repeat(np.arange(2 * h), counts)
    level = np.arange(len(line)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    up, f0, x0, x1 = (a.ravel()[line] for a in (np.sign(span), first, ends[..., 0], ends[..., -1]))

    def reached(i, u):
        b = board(p.ravel()[line[i]], q.ravel()[line[i]], line[i] % h, u)
        return up[i] * (np.floor(b) - f0[i]) >= level[i]
    step = np.ceil((f0 + up * level + (up < 0) - x0) / (x1 - x0) * (w - 1))
    step = np.clip(step, 1, w - 1).astype(int)
    miss = np.flatnonzero(reached(slice(None), step - 1) | ~reached(slice(None), step))
    lo, hi = np.zeros(len(miss), int), np.full(len(miss), w - 1)
    for _ in range((w - 1).bit_length() if len(miss) else 0):
        hit = reached(miss, mid := (lo + hi) // 2)
        lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)
    step[miss] = hi
    # Each row opens a run at column 0; rows that take every column are overwritten.
    starts = np.sort(np.concatenate([np.arange(h) * w, line % h * w + step]))
    del line, level, up, f0, x0, x1, step      # before the frame is allocated
    per_row = 1 + counts.reshape(2, h).sum(axis=0)
    flips = np.arange(len(starts)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    colors = np.abs(np.repeat(_parity(*np.floor(ends[..., 0])), per_row) - flips % 2)
    image = np.repeat(colors, np.diff(starts, append=h * w)).reshape(h, w)
    dense = np.flatnonzero(~runs)
    for at in range(0, len(dense), RASTER_BLOCK):
        block = dense[at:at + RASTER_BLOCK, None]
        image[block[:, 0]] = _parity(*board(p[:, block], q[:, block], block, slice(None)))
    return image


def project_board_lattice(intrinsics: CameraIntrinsics, shutter: ShutterParams,
                          omega_z_rev_s: float, plane_depth: float,
                          square_size: float, squares: int,
                          samples_per_edge: int = 17):
    """Forward-project the board's grid lines through the exact solver.

    Returns (corner pixels, list of sampled polylines, max deflection in px):
    deflection is the largest perpendicular distance between a projected grid
    line and the straight segment joining its projected endpoints.  Raises
    ValueError as render_checkerboard does, and for samples_per_edge < 1.
    """
    _check_scene(omega_z_rev_s, plane_depth, square_size)
    if samples_per_edge < 1:
        raise ValueError(f"samples_per_edge must be at least 1, got {samples_per_edge}")
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


def overlay_markers(image: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Splat 3x3 gray (0.5) markers into a copy of the image at the given pixels."""
    out = image.copy()
    h, w = out.shape
    for u, v in np.atleast_2d(pixels):
        cu, cv = int(round(u)), int(round(v))
        if 0 <= cu < w and 0 <= cv < h:
            out[max(0, cv - 1):cv + 2, max(0, cu - 1):cu + 2] = 0.5
    return out
