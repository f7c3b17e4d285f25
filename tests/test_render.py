import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import project_board_lattice_lines, render_checkerboard_rows
from rscam.geometry import CameraIntrinsics
from rscam.render import (overlay_markers, project_board_lattice, render_checkerboard,
                          spin_motion)
from rscam.shutter import ShutterParams


def small_camera() -> CameraIntrinsics:
    return CameraIntrinsics.from_fov(40.0, 160, 120)


def board_squares(k, s, omega, depth, square):
    """Board coordinates (2, height, width), in squares, of every pixel's full
    ray through the rotated camera; exact but for rounding."""
    u, v = np.meshgrid(np.arange(k.width) + 0.5, np.arange(k.height) + 0.5)
    d = np.stack([u, v, np.ones_like(u)], axis=-1) @ np.linalg.inv(k.K).T
    theta = 2.0 * math.pi * omega * (v + s.first_row) / s.scan_rate
    board = np.stack([np.cos(theta) * d[..., 0] + np.sin(theta) * d[..., 1],
                      -np.sin(theta) * d[..., 0] + np.cos(theta) * d[..., 1]])
    return board * (depth / d[..., 2] / square)


def assert_oracle_frame(k, s, omega, depth, square):
    """The raster is the row-by-row oracle's image bit for bit, with no -0.0."""
    image = render_checkerboard(k, s, omega, depth, square)
    np.testing.assert_array_equal(image, render_checkerboard_rows(k, s, omega, depth, square))
    assert not np.signbit(image).any()


class TestRenderCheckerboard:
    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, 2.0])
    def test_raster_equals_row_by_row_oracle(self, omega):
        """The block raster gives the per-row loop's image bit for bit: the
        render-checker frame, and a frame whose height is no multiple of the
        block, scanned bottom-up from an offset first row."""
        frames = [(CameraIntrinsics.from_fov(40.0, 640, 480), ShutterParams.ideal(30.0, 480)),
                  (CameraIntrinsics.from_fov(55.0, 150, 97),
                   ShutterParams(scan_rate=-97 * 25.0, first_row=-90.0, framerate=25.0))]
        for k, s in frames:
            image = render_checkerboard(k, s, omega, plane_depth=0.5, square_size=0.06)
            oracle = render_checkerboard_rows(k, s, omega, plane_depth=0.5, square_size=0.06)
            np.testing.assert_array_equal(image, oracle)
            assert image.dtype == oracle.dtype and 0.0 < image.mean() < 1.0

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(omega=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
           scan_sign=st.sampled_from([1.0, -1.0]), first_row=st.floats(-300.0, 300.0),
           width=st.integers(1, 90), height=st.integers(1, 158),
           fov=st.one_of(st.none(), st.floats(20.0, 120.0)),
           plane_depth=st.floats(0.05, 20.0), square_size=st.floats(0.005, 1.0))
    def test_raster_property(self, omega, scan_sign, first_row, width, height, fov,
                             plane_depth, square_size):
        """Bit for bit the per-row loop's image over spins (0 and negative
        included), either scan direction, any first row, heights that are no
        multiple of the block, and any plane depth and square size, for
        `from_fov` and `normalized` (fov None) cameras; no pixel is -0.0."""
        k = (CameraIntrinsics.normalized(width, height) if fov is None
             else CameraIntrinsics.from_fov(fov, width, height))
        s = ShutterParams(scan_rate=scan_sign * height * 30.0, first_row=first_row)
        image = render_checkerboard(k, s, omega, plane_depth, square_size)
        oracle = render_checkerboard_rows(k, s, omega, plane_depth, square_size)
        np.testing.assert_array_equal(image, oracle)
        assert not np.signbit(image).any()

    @pytest.mark.parametrize("lower", [0.0, 1e-12])
    def test_raster_general_intrinsics(self, lower):
        """A skewed K with K[2,2] != 1, and the lower-triangle entries that
        validation allows, agree with the oracle on every pixel whose board
        coordinates lie more than 1e-9 of a square from an edge."""
        w, h = 130, 101
        K = np.array([[150.0, 7.5, 61.0], [lower, 160.0, 52.5], [-lower, lower, 1.7]])
        k = CameraIntrinsics(K, 1.0 / 150.0, w, h)
        s = ShutterParams(scan_rate=-h * 25.0, first_row=-30.0, framerate=25.0)
        omega, depth, square = 1.3, 0.8, 0.07
        image = render_checkerboard(k, s, omega, depth, square)
        oracle = render_checkerboard_rows(k, s, omega, depth, square)
        board = board_squares(k, s, omega, depth, square)
        clear = np.all(np.abs(board - np.round(board)) > 1e-9, axis=0)
        assert clear.mean() > 0.99
        np.testing.assert_array_equal(image[clear], oracle[clear])
        assert not np.signbit(image).any()
        assert set(np.unique(image)) == {0.0, 1.0}

    @pytest.mark.parametrize("omega", [32.0, -32.0])
    def test_raster_row_at_a_quarter_turn(self, omega):
        """The render-checker frame at a spin that turns row 112 by exactly
        pi/2: there cos is 6e-17, so one axis's cell barely moves along the row."""
        k, s = CameraIntrinsics.from_fov(40.0, 640, 480), ShutterParams.ideal(30.0, 480)
        theta = 2.0 * math.pi * omega * ((np.arange(480) + 0.5) / s.scan_rate)
        assert np.abs(np.cos(theta)).min() < 1e-16
        assert_oracle_frame(k, s, omega, 0.5, 0.06)

    def test_raster_every_column_side(self):
        """Rows whose cells step ~350,000 times in 90 columns, and a frame whose
        cells jump by 2 or more between adjacent columns, take every column."""
        k, s = CameraIntrinsics.normalized(90, 158), ShutterParams.ideal(30.0, 158)
        steps = np.abs(np.diff(np.floor(board_squares(k, s, 0.7, 20.0, 0.005)[..., [0, -1]])))
        assert steps.sum(axis=0).min() > 300_000
        assert_oracle_frame(k, s, 0.7, 20.0, 0.005)
        k, s = small_camera(), ShutterParams.ideal(30.0, 120)
        assert np.abs(np.diff(np.floor(board_squares(k, s, 0.5, 0.5, 0.001)), axis=2)).max() >= 2
        assert_oracle_frame(k, s, 0.5, 0.5, 0.001)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("square", [0.06, 0.002])
    def test_raster_narrow_frames(self, width, square):
        """One column has no steps to find, and two columns bisect nothing."""
        k = CameraIntrinsics.from_fov(40.0, width, 75)
        s = ShutterParams(scan_rate=-75 * 30.0, first_row=-40.0)
        for omega in (0.0, 0.9, -2.5):
            assert_oracle_frame(k, s, omega, 0.5, square)

    @pytest.mark.parametrize("square", [0.03, 0.02])
    def test_raster_both_axes_step_in_one_column(self, square):
        """Zero-length runs: both cells step between the same two columns.
        At 0.02 m some rows take every column and the rest take runs."""
        k, s = small_camera(), ShutterParams.ideal(30.0, 120)
        steps = np.diff(np.floor(board_squares(k, s, 2.0, 0.5, square)), axis=2) != 0
        assert np.all(steps, axis=0).sum() >= 2
        assert_oracle_frame(k, s, 2.0, 0.5, square)

    @pytest.mark.parametrize("omega", [6e-15, 2e-14, -6e-15])
    def test_raster_where_the_affine_seed_misses(self, omega):
        """Rows 8, 16, ... of an identity-like camera sit on a cell edge, and a
        spin of ~1e-14 rev/s moves them off it by rounding alone, so their
        steps lie far from the affine estimate and are found by bisection."""
        K = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        k, s = CameraIntrinsics(K, 1.0, 100, 80), ShutterParams.ideal(30.0, 80)
        assert_oracle_frame(k, s, omega, 1.0, 8.0)

    @pytest.mark.parametrize("camera, square", [(CameraIntrinsics.normalized(640, 480), 1e-6),
                                                (CameraIntrinsics.from_fov(40.0, 640, 480), 0.06),
                                                (CameraIntrinsics.from_fov(40.0, 640, 480), 0.007)])
    def test_raster_peak_memory(self, camera, square):
        """Every column at 1e-6 m squares, runs in the render-checker frame, and
        ~60 steps a row at 7 mm, each peak within 1.5x the image's bytes."""
        s = ShutterParams.ideal(30.0, 480)
        render_checkerboard(camera, s, 0.5, 0.5, square)
        tracemalloc.start()
        try:
            image = render_checkerboard(camera, s, 0.5, 0.5, square)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * image.nbytes

    def test_static_camera_is_plain_checker(self):
        k = small_camera()
        s = ShutterParams.ideal(30.0, 120)
        image = render_checkerboard(k, s, 0.0, plane_depth=0.5, square_size=0.06)
        assert image.shape == (120, 160)
        assert set(np.unique(image)) <= {0.0, 1.0}
        # Rows are identical copies shifted only by geometry, so row 0 and the
        # mirror row around the principal point agree for a static camera.
        center_col = image[:, 80]
        assert center_col.min() == 0.0 and center_col.max() == 1.0

    def test_rotation_bends_edges(self):
        k = small_camera()
        s = ShutterParams.ideal(30.0, 120)
        _, _, bent = project_board_lattice(k, s, 1.0, 0.5, 0.06, squares=6,
                                           samples_per_edge=9)
        _, _, straight = project_board_lattice(k, s, 0.0, 0.5, 0.06, squares=6,
                                               samples_per_edge=9)
        assert straight < 1e-9
        assert bent > 1.0

    def test_deflection_scales_inversely_with_rate(self):
        """Doubling the scan rate roughly halves the maximum edge bend."""
        k = small_camera()
        slow = ShutterParams(scan_rate=120 * 30.0, framerate=30.0)
        fast = ShutterParams(scan_rate=2 * 120 * 30.0, framerate=30.0)
        _, _, d_slow = project_board_lattice(k, slow, 0.75, 0.5, 0.06, squares=6,
                                             samples_per_edge=9)
        _, _, d_fast = project_board_lattice(k, fast, 0.75, 0.5, 0.06, squares=6,
                                             samples_per_edge=9)
        assert 1.6 < d_slow / d_fast < 2.4

    def test_deflection_grows_with_spin(self):
        k = small_camera()
        s = ShutterParams.ideal(30.0, 120)
        deflections = [project_board_lattice(k, s, w, 0.5, 0.06, squares=6,
                                             samples_per_edge=9)[2]
                       for w in (0.25, 0.5, 0.75, 1.0)]
        assert all(b > a for a, b in zip(deflections, deflections[1:]))

    @pytest.mark.parametrize("omega", [0.0, 0.3, 1.0, -2.5, 6.0])
    def test_lattice_equals_line_by_line_oracle(self, omega):
        """Corners, polylines and deflection are the line-by-line oracle's bit
        for bit: the render-checker board, and boards larger than the frame
        whose lines are cut short or left out, scanned either way."""
        scenes = [(CameraIntrinsics.from_fov(40.0, 640, 480), ShutterParams.ideal(30.0, 480),
                   0.06, 8, 17),
                  (small_camera(), ShutterParams.ideal(30.0, 120), 0.11, 9, 12),
                  (CameraIntrinsics.from_fov(55.0, 150, 97),
                   ShutterParams(scan_rate=-97 * 25.0, first_row=-90.0, framerate=25.0), 0.2, 5, 4)]
        for k, s, square, squares, samples in scenes:
            got = project_board_lattice(k, s, omega, 0.5, square, squares, samples)
            want = project_board_lattice_lines(k, s, omega, 0.5, square, squares, samples)
            assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
            assert [p.tobytes() for p in got[1]] == [p.tobytes() for p in want[1]]
            assert type(got[2]) is float and got[2] == want[2]

    @pytest.mark.parametrize("square", [1e200, 1e300])
    def test_lattice_of_huge_squares(self, square):
        """Squares so large that the solver's sign products and the chords'
        squared lengths overflow: no warning escapes and the result is the
        line-by-line oracle's (itself run with overflow ignored)."""
        k, s = CameraIntrinsics.from_fov(40.0, 640, 480), ShutterParams.ideal(30.0, 480)
        got = project_board_lattice(k, s, 0.5, 0.5, square, 8, 17)
        with np.errstate(over="ignore"):
            want = project_board_lattice_lines(k, s, 0.5, 0.5, square, 8, 17)
        assert got[0].tobytes() == want[0].tobytes() and len(got[0]) == 5
        assert [p.tobytes() for p in got[1]] == [p.tobytes() for p in want[1]]
        assert got[2] == want[2] == 0.0

    @pytest.mark.parametrize("square, depth", [(1e305, 0.5), (1e306, 0.5), (1e307, 0.5),
                                               (0.06, 1e306), (1e298, 1e-8)])
    def test_lattice_beyond_the_solver_range_raises(self, square, depth):
        """A board whose pixels or sweep term would overflow the solver's
        products raises ValueError naming square_size, before any warning."""
        k, s = CameraIntrinsics.from_fov(40.0, 640, 480), ShutterParams.ideal(30.0, 480)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="square_size"):
                project_board_lattice(k, s, 0.5, depth, square, 8, 17)
        assert not caught

    def test_forward_projection_lands_on_rendered_pattern(self):
        """Corners projected by the solver coincide with the inverse-rendered
        checker corners (same constraint, two directions)."""
        k = small_camera()
        s = ShutterParams.ideal(30.0, 120)
        corners, _, _ = project_board_lattice(k, s, 0.5, 0.5, 0.06, squares=4,
                                              samples_per_edge=5)
        image = render_checkerboard(k, s, 0.5, 0.5, 0.06)
        for u, v in corners:
            cu, cv = int(round(u)), int(round(v))
            if not (2 <= cu < 158 and 2 <= cv < 118):
                continue
            patch = image[cv - 2:cv + 3, cu - 2:cu + 3]
            # A corner is where both colors meet.
            assert patch.min() == 0.0 and patch.max() == 1.0

    def test_overlay_markers(self):
        image = np.zeros((10, 10))
        out = overlay_markers(image, np.array([[5.0, 5.0]]))
        assert out[5, 5] == 0.5 and out[4, 5] == 0.5
        assert image[5, 5] == 0.0

    def test_spin_motion(self):
        m = spin_motion(0.5)
        assert abs(m.angular_velocity[2] - np.pi) < 1e-12
        assert np.all(m.linear_velocity == 0.0)
