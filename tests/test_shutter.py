import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rscam.errors import NegativeDepth, NoScanTime, Singularity
from rscam.geometry import (CameraIntrinsics, MotionState, Pose, hat, project_perspective,
                            rotation_exp)
from rscam.shutter import (EXACT_BLOCK, REASONS, RsProjection, ScanTimeCase,
                           ShutterParams, classify_case, drift_per_row, invert_fronto_parallel,
                           limit_line, normalized_scan, project_rolling_shutter,
                           scan_time_gradient, solve_path_times, solve_scan_times,
                           validate_frame_timing)

from conftest import (bisect_scan_time, camera_matrix_at, drift_one, exact_scan_times,
                      invert_one, rs_projection, scan_time, scanline_residual)


@pytest.fixture
def shutter10() -> ShutterParams:
    # Calibrated convention: 10 normalized rows/s sweeping a unit-height frame.
    return ShutterParams(scan_rate=10.0, framerate=10.0)


def closed_form_reference(x, y, z, vx, vy, wz, r, v0):
    """The fronto-parallel projection written out explicitly (identity K)."""
    t_c = (y + v0 * z) / (r * z - vy - wz * x)
    u = x / z + t_c * (vx - wz * y) / z
    v = y / z + t_c * (vy + wz * x) / z
    return np.array([u, v]), t_c


def correction_norm(point, motion, intrinsics, shutter):
    """Length, in pixels, of the rolling-shutter correction of one point."""
    rs = project_rolling_shutter(point, motion, intrinsics, shutter)
    return float(np.linalg.norm(rs.correction))


class TestShutterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShutterParams(scan_rate=0.0)
        with pytest.raises(ValueError):
            ShutterParams(scan_rate=10.0, framerate=0.0)

    def test_ideal(self):
        s = ShutterParams.ideal(15.0, 480)
        assert s.scan_rate == 7200.0
        assert abs(s.scan_duration(480) - 1.0 / 15.0) < 1e-15

    def test_frame_timing_validation(self):
        validate_frame_timing(ShutterParams.ideal(15.0, 480), 480)
        with pytest.raises(ValueError):
            validate_frame_timing(ShutterParams(scan_rate=100.0, framerate=15.0), 480)

    def test_normalized_scan(self):
        k = CameraIntrinsics.from_fov(90.0, 640, 480)
        s = ShutterParams(scan_rate=7200.0, first_row=12.0)
        r_n, v0_n = normalized_scan(s, k)
        fy = k.K[1, 1]
        assert abs(r_n - 7200.0 / fy) < 1e-12
        assert abs(v0_n - (12.0 + 240.0) / fy) < 1e-12


class TestClassifyCase:
    def test_fronto_parallel(self):
        m = MotionState(Pose.identity(), [1.0, 2.0, 0.0], [0, 0, 0.5])
        assert classify_case(m) is ScanTimeCase.FRONTO_PARALLEL_LINEAR

    def test_axial(self):
        m = MotionState(Pose.identity(), [0, 0, 1.0], [0, 0, 0])
        assert classify_case(m) is ScanTimeCase.AXIAL_QUADRATIC

    def test_static_is_fronto_parallel(self):
        assert classify_case(MotionState()) is ScanTimeCase.FRONTO_PARALLEL_LINEAR

    def test_general(self):
        m = MotionState(Pose.identity(), [1.0, 0, 0.5], [0.1, 0, 0])
        assert classify_case(m) is ScanTimeCase.GENERAL_QUADRATIC


class TestConstraintResidual:
    def test_static_camera_affine(self, normalized_camera, shutter10):
        """Static camera: residual is v - (r t - v0) with root (v + v0) / r."""
        m = MotionState()
        x = [0.0, 0.35, 1.0]
        for t in [0.0, 0.02, 0.07]:
            res = scanline_residual(x, m, normalized_camera, shutter10, t)
            assert abs(res - (0.35 - 10.0 * t)) < 1e-15
        root = scan_time(x, m, normalized_camera, shutter10)
        assert abs(root - 0.035) < 1e-15

    def test_residual_vanishes_at_solution(self, normalized_camera, shutter10, rng):
        for _ in range(50):
            m = MotionState(Pose.identity(), rng.uniform(-1, 1, 3) * [1, 1, 0],
                            [0, 0, rng.uniform(-1, 1)])
            x = [rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.6), rng.uniform(0.5, 4)]
            try:
                t_c = scan_time(x, m, normalized_camera, shutter10)
            except NoScanTime:
                continue
            res = scanline_residual(x, m, normalized_camera, shutter10, t_c)
            assert abs(res) < 1e-9

    def test_instantaneous_shutter_limit(self, normalized_camera):
        """As r grows the scan time collapses to zero."""
        m = MotionState(Pose.identity(), [0.1, 0.4, 0], [0, 0, 0])
        x = [0.0, 0.3, 1.0]
        previous = None
        for r in [1e2, 1e4, 1e6, 1e8]:
            s = ShutterParams(scan_rate=r, framerate=10.0)
            t_c = scan_time(x, m, normalized_camera, s)
            assert previous is None or t_c < previous
            previous = t_c
        assert previous < 1e-8


class TestSolveScanTime:
    def test_linear_example(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0.5, 0], [0, 0, 0])
        t_c = scan_time([0, 0.1, 1.0], m, normalized_camera, shutter10)
        assert abs(t_c - 0.1 / 9.5) < 1e-12

    def test_quadratic_example_vs_oracle(self, normalized_camera, shutter10):
        """Axial motion: 10 t^2 + 10 t - 0.1 = 0, smallest positive root."""
        m = MotionState(Pose.identity(), [0, 0, 1.0], [0, 0, 0])
        t_c = scan_time([0, 0.1, 1.0], m, normalized_camera, shutter10)
        expected = (-10 + math.sqrt(100 + 4.0)) / 20.0
        assert abs(t_c - expected) < 1e-12
        oracle = bisect_scan_time([0, 0.1, 1.0], m, normalized_camera, shutter10)
        assert abs(t_c - oracle) < 1e-9

    def test_static_with_offset_row(self, normalized_camera):
        s = ShutterParams(scan_rate=10.0, first_row=0.25, framerate=5.0)
        t_c = scan_time([0, 0.15, 1.0], MotionState(), normalized_camera, s)
        assert abs(t_c - (0.15 + 0.25) / 10.0) < 1e-15

    def test_no_scan_time_outside_window(self, normalized_camera, shutter10):
        # Row 0.95 recedes from the scanline faster than it sweeps.
        m = MotionState(Pose.identity(), [0, 9.0, 0], [0, 0, 0])
        with pytest.raises(NoScanTime):
            scan_time([0, 0.95, 1.0], m, normalized_camera, shutter10)

    def test_negative_depth(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0, -30.0], [0, 0, 0])
        with pytest.raises(NegativeDepth):
            scan_time([0.0, 0.05, 0.2], m, normalized_camera, shutter10)

    def test_subnormal_axial_speed_raises_no_warning(self, normalized_camera, shutter10):
        """A subnormal v_z makes the far root of the quadratic overflow to inf,
        silently: the scan time is the near root, the linear one's."""
        m = MotionState(Pose.identity(), [0, 0, 1.1125369292536007e-308], [0, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_c = scan_time([0, 0.05, 2.0], m, normalized_camera, shutter10)
        assert t_c == 0.0025

    def test_singularity(self, normalized_camera, shutter10):
        # v_y = r z: the image point rides the scanline.
        m = MotionState(Pose.identity(), [0, 10.0, 0], [0, 0, 0])
        with pytest.raises(Singularity):
            scan_time([0, 0.5, 1.0], m, normalized_camera, shutter10)

    def test_quadratic_catches_point_twice(self):
        """A point rushing toward the camera can cross the scanline twice."""
        k = CameraIntrinsics.normalized(width=2, height=2)
        s = ShutterParams(scan_rate=10.0, framerate=5.0)
        m = MotionState(Pose.identity(), [0, 0, -5.0], [0, 0, 0])
        rs = project_rolling_shutter([0, 0.1, 1.0], m, k, s)
        assert rs.caught_twice
        roots = sorted(np.roots([-50.0, 10.0, -0.1]).real)
        assert abs(rs.scan_time - roots[0]) < 1e-10

    def test_exact_solver_agrees_with_oracle(self, normalized_camera, shutter10, rng):
        for _ in range(20):
            m = MotionState(Pose.identity(),
                            [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)],
                            rng.uniform(-1, 1, 3))
            x = [rng.uniform(-0.2, 0.2), rng.uniform(0.1, 0.5), rng.uniform(1.0, 3.0)]
            try:
                t_c = scan_time(x, m, normalized_camera, shutter10, exact=True)
            except NoScanTime:
                continue
            oracle = bisect_scan_time(x, m, normalized_camera, shutter10,
                                      linearized=False)
            assert abs(t_c - oracle) < 1e-10

    def test_quadratic_solutions_satisfy_constraint(self, normalized_camera,
                                                    shutter10, rng):
        """Axial and general-motion roots zero the residual inside the window."""
        t_max = shutter10.scan_duration(normalized_camera.height)
        solved = 0
        for _ in range(200):
            if rng.uniform() < 0.5:
                m = MotionState(Pose.identity(), [0, 0, rng.uniform(-2, 2)],
                                np.zeros(3))
            else:
                m = MotionState(Pose.identity(), rng.uniform(-1, 1, 3),
                                rng.uniform(-1, 1, 3))
            x = [rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.6), rng.uniform(0.5, 4)]
            try:
                t_c = scan_time(x, m, normalized_camera, shutter10)
            except (NoScanTime, NegativeDepth, Singularity):
                continue
            solved += 1
            assert 0.0 <= t_c <= t_max
            res = scanline_residual(x, m, normalized_camera, shutter10, t_c)
            assert abs(res) < 1e-9
        assert solved > 100

    def test_frame_start_shifts_solution(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0.5, 0], [0, 0, 0])
        x = [0, 0.1, 1.0]
        t0 = 0.03
        t_c = scan_time(x, m, normalized_camera, shutter10, frame_start=t0)
        res = scanline_residual(x, m, normalized_camera, shutter10, t_c,
                                frame_start=t0)
        assert abs(res) < 1e-12
        # Expected from the shifted linear constraint.
        assert abs(t_c - (0.1 + t0 * 0.5) / 9.5) < 1e-12


class TestProjectRollingShutter:
    def test_static_equals_perspective(self, normalized_camera, shutter10):
        rs = project_rolling_shutter([0.2, 0.3, 2.0], MotionState(),
                                     normalized_camera, shutter10)
        np.testing.assert_allclose(rs.pixel, [0.1, 0.15], atol=1e-15)
        np.testing.assert_allclose(rs.correction, [0, 0], atol=1e-15)

    def test_derived_row_value(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0.5, 0], [0, 0, 0])
        rs = project_rolling_shutter([0, 0.1, 1.0], m, normalized_camera, shutter10)
        assert abs(rs.pixel[1] - (0.1 + 0.1 * 0.5 / 9.5)) < 1e-12
        assert abs(rs.pixel[1] - 0.105263) < 1e-6

    def test_matches_explicit_closed_form(self, normalized_camera, shutter10, rng):
        """Componentwise agreement with the written-out projection formula."""
        for _ in range(300):
            vx, vy = rng.uniform(-1.5, 1.5, 2)
            wz = rng.uniform(-1.0, 1.0)
            v0 = rng.uniform(-0.1, 0.1)
            s = ShutterParams(scan_rate=10.0, first_row=v0, framerate=10.0)
            m = MotionState(Pose.identity(), [vx, vy, 0], [0, 0, wz])
            x, y, z = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.6), rng.uniform(0.5, 4)
            expected, t_ref = closed_form_reference(x, y, z, vx, vy, wz, 10.0, v0)
            if not 0 <= t_ref <= 0.1:
                continue
            rs = project_rolling_shutter([x, y, z], m, normalized_camera, s)
            np.testing.assert_allclose(rs.pixel, expected, atol=1e-12)
            assert abs(rs.scan_time - t_ref) < 1e-12

    def test_decomposition_identity(self, normalized_camera, shutter10, rng):
        m = MotionState(Pose.identity(), [0.4, 0.7, 0], [0, 0, 0.3])
        rs = project_rolling_shutter([0.1, 0.2, 1.5], m, normalized_camera, shutter10)
        start = project_perspective([0.1, 0.2, 1.5],
                                    camera_matrix_at(m, normalized_camera, 0.0))
        np.testing.assert_allclose(rs.pixel - rs.correction, start, atol=1e-12)

    def test_correction_vanishes_as_rate_grows(self, normalized_camera):
        m = MotionState(Pose.identity(), [0.5, 0.8, 0], [0, 0, 0])
        x = [0.1, 0.3, 1.0]
        previous = None
        for r in [10.0, 20.0, 40.0, 80.0, 160.0]:
            s = ShutterParams(scan_rate=r, framerate=10.0)
            magnitude = correction_norm(x, m, normalized_camera, s)
            assert previous is None or magnitude < previous
            previous = magnitude
        assert previous < 5e-3

    def test_doubling_rate_halves_correction(self, normalized_camera):
        m = MotionState(Pose.identity(), [0.0, 0.4, 0], [0, 0, 0])
        x = [0.0, 0.2, 2.0]
        c1 = correction_norm(x, m, normalized_camera,
                             ShutterParams(scan_rate=50.0, framerate=10.0))
        c2 = correction_norm(x, m, normalized_camera,
                             ShutterParams(scan_rate=100.0, framerate=10.0))
        assert 1.9 < c1 / c2 < 2.1

    def test_correction_is_rs_minus_perspective(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0.3, 0.5, 0], [0, 0, 0])
        x = [0.05, 0.25, 1.5]
        rs = project_rolling_shutter(x, m, normalized_camera, shutter10)
        magnitude = correction_norm(x, m, normalized_camera, shutter10)
        start = project_perspective(x, camera_matrix_at(m, normalized_camera, 0.0))
        assert abs(magnitude - np.linalg.norm(rs.pixel - start)) < 1e-15

    def test_pixel_units_consistent_with_normalized(self, rng):
        """A pixel-unit camera gives K-mapped normalized results."""
        k = CameraIntrinsics.from_fov(60.0, 640, 480)
        fy, cy, cx = k.K[1, 1], k.K[1, 2], k.K[0, 2]
        s_px = ShutterParams(scan_rate=480 * 15.0, framerate=15.0)
        r_n, v0_n = normalized_scan(s_px, k)
        s_norm = ShutterParams(scan_rate=r_n, first_row=v0_n, framerate=15.0)
        k_norm = CameraIntrinsics.normalized()
        for _ in range(50):
            m = MotionState(Pose.identity(),
                            [rng.uniform(-1, 1), rng.uniform(-1, 1), 0],
                            [0, 0, rng.uniform(-0.5, 0.5)])
            x = [rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), rng.uniform(3, 10)]
            try:
                rs_px = project_rolling_shutter(x, m, k, s_px)
            except NoScanTime:
                continue
            rs_n = rs_projection(x, m, k_norm, s_norm, windowed=False)
            np.testing.assert_allclose(
                rs_px.pixel,
                [k.K[0, 0] * rs_n.pixel[0] + cx, fy * rs_n.pixel[1] + cy],
                atol=1e-9)
            assert abs(rs_px.scan_time - rs_n.scan_time) < 1e-12

    def test_exact_mode_uses_true_rotation(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0, 0], [0, 0, 4.0])
        x = [0.2, 0.3, 1.0]
        rs_lin = project_rolling_shutter(x, m, normalized_camera, shutter10)
        rs_exact = rs_projection(x, m, normalized_camera, shutter10, exact=True)
        res = scanline_residual(x, m, normalized_camera, shutter10,
                                rs_exact.scan_time, linearized=False)
        assert abs(res) < 1e-9
        assert np.linalg.norm(rs_lin.pixel - rs_exact.pixel) > 1e-6


class TestClosedFormVsExact:
    def test_translation_only_closed_form_is_exact(self, normalized_camera,
                                                   shutter10, rng):
        """With omega = 0 the closed form equals the nonlinear solution."""
        count = 0
        for _ in range(400):
            m = MotionState(Pose.identity(),
                            [rng.uniform(-2, 2), rng.uniform(-2, 2), 0], np.zeros(3))
            x = [rng.uniform(-0.3, 0.3), rng.uniform(0.02, 0.7), rng.uniform(0.5, 5)]
            try:
                closed = project_rolling_shutter(x, m, normalized_camera, shutter10)
                exact = rs_projection(x, m, normalized_camera, shutter10, exact=True)
            except (NoScanTime, Singularity):
                continue
            count += 1
            np.testing.assert_allclose(closed.pixel, exact.pixel, atol=1e-9)
        assert count > 200

    @pytest.mark.parametrize("screw", [False, True], ids=["optical axis", "screw"])
    def test_rotation_error_shrinks_quadratically_in_rate(self, normalized_camera, rng, screw):
        """Doubling the scan rate shrinks the closed-form error about 4x, for a
        spin about the optical axis and for a screw motion: omega along v, on a
        random axis."""
        ratios = []
        for _ in range(40):
            if screw:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                m = MotionState(Pose.identity(),
                                rng.uniform(0.5, 1.5) * rng.choice([-1, 1]) * axis,
                                rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) * axis)
            else:
                m = MotionState(Pose.identity(),
                                [rng.uniform(-1, 1), rng.uniform(-1, 1), 0],
                                [0, 0, rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)])
            x = [rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.6), rng.uniform(0.8, 3)]
            gaps = []
            for r in [10.0, 20.0, 40.0, 80.0]:
                s = ShutterParams(scan_rate=r, framerate=r)
                try:
                    closed = project_rolling_shutter(x, m, normalized_camera, s)
                    exact = rs_projection(x, m, normalized_camera, s, exact=True)
                except (NoScanTime, Singularity):
                    gaps = None
                    break
                gaps.append(np.linalg.norm(closed.pixel - exact.pixel))
            if gaps is None or min(gaps) < 1e-13:
                continue
            ratios.extend(gaps[i] / gaps[i + 1] for i in range(3))
        assert len(ratios) > 50
        median = float(np.median(ratios))
        assert 3.0 < median < 5.0, median


class TestLimitLine:
    def test_zero_velocity(self, normalized_camera, shutter10):
        assert limit_line(shutter10, normalized_camera, 0.0) == 0.0

    def test_scaling(self, normalized_camera):
        s1 = ShutterParams(scan_rate=10.0, framerate=10.0)
        s2 = ShutterParams(scan_rate=20.0, framerate=20.0)
        z1 = limit_line(s1, normalized_camera, 1.0)
        assert abs(limit_line(s1, normalized_camera, 2.0) - 2 * z1) < 1e-15
        assert abs(limit_line(s2, normalized_camera, 1.0) - 0.5 * z1) < 1e-15

    def test_vga_framerate_family(self):
        """Safe-depth lines for a 640x480 sensor at several framerates."""
        k = CameraIntrinsics.from_fov(40.0, 640, 480)
        for fps in (3.75, 7.5, 15.0):
            s = ShutterParams.ideal(fps, 480)
            for v_y in (0.5, 1.0, 2.0):
                expected = v_y / (k.pixel_size * 480.0 * fps)
                assert abs(limit_line(s, k, v_y) - expected) < 1e-12

    def test_rejects_negative_velocity(self, normalized_camera, shutter10):
        with pytest.raises(ValueError):
            limit_line(shutter10, normalized_camera, -1.0)


class TestDriftPerRow:
    def test_static_zero(self, normalized_camera, shutter10):
        assert drift_per_row([0, 0.1, 1.0], MotionState(), normalized_camera,
                             shutter10) == 0.0

    def test_matches_limit_line_ratio(self):
        """For pure row velocity, drift per row equals z_min / z everywhere."""
        k = CameraIntrinsics.from_fov(40.0, 640, 480)
        s = ShutterParams.ideal(15.0, 480)
        v_y = 2.0
        m = MotionState(Pose.identity(), [0, v_y, 0], np.zeros(3))
        z_min = limit_line(s, k, v_y)
        for z in (0.5 * z_min, z_min, 2 * z_min, 10 * z_min):
            for xy in ([0, 0], [1.5, -1.0], [-0.4, 0.8]):
                drift = drift_per_row([xy[0], xy[1], z], m, k, s)
                assert abs(drift - z_min / z) < 1e-12 * max(1.0, z_min / z)


class TestInvertFrontoParallel:
    def test_round_trip(self, rng):
        k = CameraIntrinsics.from_fov(55.0, 640, 480)
        s = ShutterParams(scan_rate=480 * 20.0, first_row=5.0, framerate=20.0)
        for _ in range(60):
            m = MotionState(Pose.identity(),
                            [rng.uniform(-2, 2), rng.uniform(-2, 2), 0],
                            [0, 0, rng.uniform(-1, 1)])
            pixel = rng.uniform([50, 50], [590, 430])
            depth = rng.uniform(1.0, 20.0)
            x = invert_fronto_parallel(pixel, depth, m, k, s)
            rs = project_rolling_shutter(x, m, k, s)
            np.testing.assert_allclose(rs.pixel, pixel, atol=1e-8)

    def test_round_trip_general_pose(self, rng):
        k = CameraIntrinsics.from_fov(45.0, 640, 480)
        s = ShutterParams.ideal(25.0, 480)
        for _ in range(20):
            pose = Pose(rotation_exp(rng.normal(size=3) * 0.4), rng.normal(size=3))
            m = MotionState(pose, [rng.uniform(-1, 1), rng.uniform(-1, 1), 0],
                            [0, 0, rng.uniform(-1, 1)])
            pixel = rng.uniform([100, 100], [540, 380])
            x = invert_fronto_parallel(pixel, rng.uniform(2.0, 15.0), m, k, s)
            rs = project_rolling_shutter(x, m, k, s)
            np.testing.assert_allclose(rs.pixel, pixel, atol=1e-7)

    def test_requires_fronto_parallel(self, normalized_camera, shutter10):
        m = MotionState(Pose.identity(), [0, 0, 1.0], np.zeros(3))
        with pytest.raises(ValueError):
            invert_fronto_parallel([0.1, 0.2], 1.0, m, normalized_camera, shutter10)


class TestSafeRegion:
    def test_drift_bounds_around_limit_line(self):
        """Above the line the per-row drift stays below a pixel; well below
        the line it exceeds one."""
        k = CameraIntrinsics.from_fov(40.0, 640, 480)
        s = ShutterParams.ideal(15.0, 480)
        v_y = 1.5
        m = MotionState(Pose.identity(), [0, v_y, 0], np.zeros(3))
        z_min = limit_line(s, k, v_y)

        def max_drift(z):
            k_inv = np.linalg.inv(k.K)
            worst = 0.0
            for v_px in np.linspace(0, 480, 9):
                for u_px in np.linspace(0, 640, 9):
                    ray = k_inv @ [u_px, v_px, 1.0]
                    point = z * ray / ray[2]
                    worst = max(worst, drift_per_row(point, m, k, s))
            return worst

        for z in (1.001 * z_min, 2 * z_min, 20 * z_min):
            assert max_drift(z) <= 1.1
        assert max_drift(0.5 * z_min) > 1.0

    def test_unit_drift_exactly_at_line(self):
        k = CameraIntrinsics.from_fov(40.0, 640, 480)
        s = ShutterParams.ideal(15.0, 480)
        m = MotionState(Pose.identity(), [0, 1.0, 0], np.zeros(3))
        z_min = limit_line(s, k, 1.0)
        drift = drift_per_row([0.0, 0.0, z_min], m, k, s)
        assert abs(drift - 1.0) < 0.1


# Property tests of the batched kernel.  derandomize keeps every run on the
# same examples, so the suite stays deterministic.
KERNEL_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
KERNEL_CAMERA = CameraIntrinsics.from_fov(50.0, 64, 48)
KERNEL_SHUTTER = ShutterParams(scan_rate=48 * 30.0, first_row=3.0, framerate=30.0)
KERNEL_T_MAX = KERNEL_SHUTTER.scan_duration(48)

speeds = st.floats(-2.0, 2.0)
velocity3 = st.tuples(speeds, speeds, speeds)


def kernel_motion(case: ScanTimeCase, v, w) -> MotionState:
    """A motion of the given case from velocity draws."""
    pose = Pose(rotation_exp([0.05, -0.1, 0.02]), [0.1, -0.2, 0.3])
    if case is ScanTimeCase.FRONTO_PARALLEL_LINEAR:
        v, w = [v[0], v[1], 0.0], [0.0, 0.0, w[2]]
    elif case is ScanTimeCase.AXIAL_QUADRATIC:
        v, w = [0.0, 0.0, v[2] or 1.0], [0.0, 0.0, 0.0]
    else:
        v, w = [v[0], v[1], v[2] or 1.0], [w[0] or 0.5, w[1], w[2]]
    motion = MotionState(pose, v, w)
    assert classify_case(motion) is case
    return motion


# The closed form under each case of its constraint, and the exact model
# (exact=True) under general motion.
KERNELS = [*((case, False) for case in ScanTimeCase), (ScanTimeCase.GENERAL_QUADRATIC, True)]


# Exact-model draws: omega = 0, a spin about the optical axis, a general axis,
# or an approach fast enough to carry points behind the camera mid-window;
# points on the optical axis, and one the frame never images.
EXACT_MOTIONS = ("still", "optical axis", "general axis", "approaching")
EXACT_POINTS = [(0.0, 0.0, 1.0), (0.0, 0.0, 2.5), (40.0, 0.0, 1.0)]


class TestScanTimeKernel:
    @KERNEL_SETTINGS
    @given(kernel=st.sampled_from(KERNELS), v=velocity3, w=velocity3,
           points=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                                     st.floats(-0.5, 4.0)), min_size=1, max_size=8))
    def test_batch_matches_single_points(self, kernel, v, w, points):
        """Each point of a batch gets the result it gets alone, and the scalar
        API raises the error its reason code names.  The batch repeats the
        points past one block of the exact model's bracketing grid."""
        case, exact = kernel
        motion = kernel_motion(case, v, w)
        repeats = EXACT_BLOCK // len(points) + 1
        batch = solve_scan_times(points * repeats, motion, KERNEL_CAMERA,
                                 KERNEL_SHUTTER, exact=exact)
        assert batch.t.shape == batch.reason.shape == (len(points) * repeats,)
        for i, point in enumerate(points):
            one = solve_scan_times(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER,
                                   exact=exact)
            copies = slice(i, None, len(points))
            assert np.all(batch.reason[copies] == one.reason[0])
            assert np.all(batch.caught_twice[copies] == one.caught_twice[0])
            assert np.all(np.abs(batch.t[copies] - one.t[0]) <= 1e-12 * KERNEL_T_MAX)
            if one.ok[0]:
                t_c = scan_time(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER, exact=exact)
                assert t_c == one.t[0]
            else:
                with pytest.raises(REASONS[one.reason[0]]):
                    scan_time(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER, exact=exact)

    @KERNEL_SETTINGS
    @given(case=st.sampled_from(list(ScanTimeCase)), v=velocity3, w=velocity3,
           point=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.0, 4.0)))
    def test_gradient_matches_central_differences(self, case, v, w, point):
        """A world-point step dx moves the path start by dy = R dx and its
        velocity by dw = hat(omega) R dx, so dt/dx = g^T (I + t hat(omega)) R."""
        motion = kernel_motion(case, v, w)

        def scan_times(x):
            return solve_scan_times(x, motion, KERNEL_CAMERA, KERNEL_SHUTTER, windowed=False)

        times = scan_times(point)
        assume(times.ok[0] and times.t[0] > 1e-3 * KERNEL_T_MAX)
        r = motion.pose0.rotation
        analytic = scan_time_gradient(times, KERNEL_CAMERA, KERNEL_SHUTTER)[0] @ (
            r + times.t[0] * hat(motion.angular_velocity) @ r)
        h = 1e-6
        steps = [(scan_times(point + h * e), scan_times(point - h * e)) for e in np.eye(3)]
        assume(all(p.ok[0] and m.ok[0] for p, m in steps))
        numeric = np.array([(p.t[0] - m.t[0]) / (2 * h) for p, m in steps])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5,
                                   atol=1e-6 * np.abs(numeric).max())

    def test_gradient_is_zero_where_not_imaged(self, normalized_camera, shutter10):
        times = solve_scan_times([[0, 0.1, 2.0], [0, 0.1, -1.0]], MotionState(),
                                 normalized_camera, shutter10, windowed=False)
        assert times.ok.tolist() == [True, False]
        gradient = scan_time_gradient(times, normalized_camera, shutter10)
        assert np.all(gradient[1] == 0.0) and np.all(np.isfinite(gradient))

    def test_gradient_is_zero_at_a_double_root(self):
        """The path (0, -1, 1) + t (0, 3, 1) meets the scanline of a normalized
        camera where t^2 - 2 t + 1 = 0: a double root at t = 1, at which the
        slope r p_z - n . w is zero and the scan time has no derivative."""
        k = CameraIntrinsics.normalized(width=1, height=2)
        s = ShutterParams(scan_rate=1.0, framerate=0.5)
        times = solve_path_times(np.array([[0.0, -1.0, 1.0]]), np.array([[0.0, 3.0, 1.0]]),
                                 k, s, windowed=False)
        assert times.ok[0] and times.t[0] == 1.0
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(scan_time_gradient(times, k, s), 0.0)

    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_carries_every_reason(self, exact):
        """Imaged, singular, behind-the-camera and out-of-window points, and a
        point caught twice, keep their single-point results inside a batch."""
        k = CameraIntrinsics.normalized(width=2, height=1)
        s = ShutterParams(scan_rate=10.0, framerate=10.0)
        batches = [
            (MotionState(Pose.identity(), [0, 10.0, 0], [0, 0, 0]),
             [[0, 0.1, 2.0], [0, 0.5, 1.0], [0, 0.1, -1.0], [0, 1.5, 2.0]]),
            (MotionState(Pose.identity(), [0, 0, -50.0], [0, 0, 0]),
             [[0, 0.1, 3.0], [0, 0.1, 1.0]]),
        ]
        seen = set()
        for motion, points in batches:
            batch = solve_scan_times(points, motion, k, s, exact=exact)
            for i, point in enumerate(points):
                one = solve_scan_times(point, motion, k, s, exact=exact)
                assert (one.reason[0], one.caught_twice[0], one.t[0]) == \
                    (batch.reason[i], batch.caught_twice[i], batch.t[i])
                seen.add((REASONS[batch.reason[i]], bool(batch.caught_twice[i])))
        expected = {(None, False), (None, True), (NegativeDepth, False),
                    (NoScanTime, False)}
        # The exact model has no vanishing denominator.
        assert seen == expected | ({(NoScanTime, False)} if exact else
                                   {(Singularity, False)})

    def test_unwindowed_roots(self, normalized_camera, shutter10):
        """Without the window a linear root may fall before the frame start; a
        quadratic one needs the point in front of the camera at the start."""
        above = solve_scan_times([0, -0.2, 1.0], MotionState(), normalized_camera,
                                 shutter10, windowed=False)
        assert above.ok[0] and abs(above.t[0] + 0.02) < 1e-15
        approaching = MotionState(Pose.identity(), [0, 0, 20.0], [0, 0, 0])
        behind = [0, 0.1, -0.5]
        assert solve_scan_times(behind, approaching, normalized_camera, shutter10).ok[0]
        unwindowed = solve_scan_times(behind, approaching, normalized_camera, shutter10,
                                      windowed=False)
        assert REASONS[unwindowed.reason[0]] is NegativeDepth

    @pytest.mark.parametrize("case, exact", [
        pytest.param(case, exact, id="exact" if exact else str(case)) for case, exact in KERNELS])
    @KERNEL_SETTINGS
    @given(v=velocity3, w=velocity3, column=st.floats(0.0, 64.0),
           depth=st.floats(1.0, 5.0),
           when=st.one_of(st.sampled_from([1e-9, 1.0 - 1e-9]), st.floats(1e-9, 1.0 - 1e-9)))
    def test_matches_bisection_oracle(self, case, exact, v, w, column, depth, when):
        """A point placed on the scanline at time t* (window edges included)
        gets the oracle's scan time, under both models."""
        motion = kernel_motion(case, v, w)
        linearized = not exact
        t_star = when * KERNEL_T_MAX
        row = KERNEL_SHUTTER.scan_rate * t_star - KERNEL_SHUTTER.first_row
        p = camera_matrix_at(motion, KERNEL_CAMERA, t_star, linearized=linearized)
        point = np.linalg.solve(p[:, :3], depth * np.array([column, row, 1.0]) - p[:, 3])
        oracle = bisect_scan_time(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER,
                                  linearized=linearized, n_scan=500)
        t_c = scan_time(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER, exact=not linearized)
        assert abs(t_c - oracle) <= 1e-10 * KERNEL_T_MAX

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @KERNEL_SETTINGS
    @given(kind=st.sampled_from(EXACT_MOTIONS), v=velocity3, w=velocity3,
           identity_pose=st.booleans(), backwards=st.booleans(),
           first_row=st.sampled_from([0.0, 3.0]),
           frame_start=st.sampled_from([0.0, 0.0125]) | st.floats(-0.1, 0.1),
           points=st.lists(st.sampled_from(EXACT_POINTS) | st.tuples(
               st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-0.5, 4.0)),
               min_size=1, max_size=10),
           repeats=st.sampled_from([1, 7, 13]))
    @example(kind="optical axis", v=(0.0, 0.0, 0.0), w=(0.0, 0.0, 0.0), identity_pose=True,
             backwards=False, first_row=0.0, frame_start=0.0, points=[(0.0, 0.0, 1.0)],
             repeats=1)
    def test_exact_matches_grid_bracketing(self, kind, v, w, identity_pose, backwards,
                                           first_row, frame_start, points, repeats):
        """The exact model's scan times, reasons, double catches and capture
        positions are bitwise those of brackets from the residual's own signs
        on the sample grid (`conftest.exact_scan_times`): for one point and for
        batches across blocks, scanning either way, from any frame start, with
        points on the spin axis, passing behind the camera or never imaged."""
        pose = (Pose.identity() if identity_pose
                else Pose(rotation_exp([0.05, -0.1, 0.02]), [0.1, -0.2, 0.3]))
        w = [10.0 * c for c in w]
        if kind == "still":
            w = [0.0, 0.0, 0.0]
        elif kind == "optical axis":
            v, w = [v[0], v[1], 0.0], [0.0, 0.0, w[2] or 20.0]
        elif kind == "general axis":
            w = [w[0] or 5.0, w[1], w[2]]
        else:
            v = [v[0], v[1], -40.0 - 20.0 * abs(v[2])]
        motion = MotionState(pose, v, w)
        rate = KERNEL_SHUTTER.scan_rate
        shutter = ShutterParams(scan_rate=-rate if backwards else rate,
                                first_row=first_row - 48.0 if backwards else first_row,
                                framerate=KERNEL_SHUTTER.framerate)
        batch = points * repeats
        times = solve_scan_times(batch, motion, KERNEL_CAMERA, shutter, exact=True,
                                 frame_start=frame_start)
        oracle = exact_scan_times(batch, motion, KERNEL_CAMERA, shutter, frame_start)
        for got, want in zip((times.t, times.reason, times.caught_twice, times.capture),
                             oracle):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# A batch is bitwise a loop of batches of one: the helpers give each point
# its own arithmetic, whatever the batch size.
BATCH_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
spins = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)
kernel_pixels = st.lists(st.tuples(st.floats(0.0, 64.0), st.floats(-10.0, 58.0)),
                         min_size=1, max_size=8)


class TestBatchesMatchSinglePoints:
    @BATCH_SETTINGS
    @given(v=velocity3, wz=spins, pixels=kernel_pixels, per_point=st.booleans(),
           depths=st.lists(st.floats(0.5, 20.0), min_size=8, max_size=8))
    def test_invert_fronto_parallel(self, v, wz, pixels, per_point, depths):
        """Pixels (N, 2) at one depth or at N depths, under a spin about the
        optical axis and a general pose; each point is also the single-point
        reference's, bitwise."""
        motion = kernel_motion(ScanTimeCase.FRONTO_PARALLEL_LINEAR, v, (0.0, 0.0, wz))
        depth = np.array(depths[:len(pixels)]) if per_point else depths[0]
        batch = invert_fronto_parallel(pixels, depth, motion, KERNEL_CAMERA, KERNEL_SHUTTER)
        assert batch.shape == (len(pixels), 3)
        for i, pixel in enumerate(pixels):
            one = invert_fronto_parallel(pixel, depth[i] if per_point else depth, motion,
                                         KERNEL_CAMERA, KERNEL_SHUTTER)
            assert one.shape == (3,)
            np.testing.assert_array_equal(batch[i], one)
            np.testing.assert_array_equal(one, invert_one(
                pixel, depth[i] if per_point else depth, motion, KERNEL_CAMERA, KERNEL_SHUTTER))

    @BATCH_SETTINGS
    @given(case=st.sampled_from(list(ScanTimeCase)), v=velocity3, w=velocity3,
           points=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                                     st.floats(-0.5, 4.0)), min_size=1, max_size=8))
    def test_drift_per_row(self, case, v, w, points):
        """A batch with a point at or behind the camera plane raises that
        point's error; otherwise each drift is the point's own and the
        single-point reference's, bitwise."""
        motion = kernel_motion(case, v, w)
        singles = []
        for point in points:
            try:
                singles.append(drift_per_row(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER))
            except NegativeDepth as exc:
                singles.append(exc)
                continue
            assert singles[-1] == drift_one(point, motion, KERNEL_CAMERA, KERNEL_SHUTTER)
        failed = [s for s in singles if isinstance(s, NegativeDepth)]
        if failed:
            with pytest.raises(NegativeDepth) as caught:
                drift_per_row(points, motion, KERNEL_CAMERA, KERNEL_SHUTTER)
            assert str(caught.value) == str(failed[0])
        else:
            batch = drift_per_row(points, motion, KERNEL_CAMERA, KERNEL_SHUTTER)
            np.testing.assert_array_equal(batch, singles)

    def test_one_point_behind_fails_the_drift_batch(self, normalized_camera, shutter10):
        points = [[0, 0.1, 2.0], [0, 0.1, -0.5], [0, 0.2, -3.0]]
        with pytest.raises(NegativeDepth, match="depth -5.000e-01 is not positive"):
            drift_per_row(points, MotionState(), normalized_camera, shutter10)
        assert drift_per_row(points[0], MotionState(), normalized_camera, shutter10) == 0.0

    def test_projection_of_a_batch_raises_its_first_error(self, normalized_camera,
                                                          shutter10):
        """projection() with a slice images every point, or raises the error
        of the first that is not imaged, as a loop over the points would."""
        points = [[0, 0.1, 2.0], [0, 0.1, -1.0], [0, 3.0, 2.0]]
        times = solve_scan_times(points, MotionState(), normalized_camera, shutter10)
        with pytest.raises(NegativeDepth):
            times.projection(slice(None), normalized_camera)
        with pytest.raises(NoScanTime):
            times.projection([0, 2], normalized_camera)
        both = times.projection([0, 0], normalized_camera)
        one = times.projection(0, normalized_camera)
        np.testing.assert_array_equal(both.pixel, [one.pixel, one.pixel])
        assert both.scan_time.tolist() == [one.scan_time] * 2

    @pytest.mark.parametrize("exact", [False, True])
    def test_projection_of_a_batch_matches_single_points(self, rng, exact):
        """Each image in a batch is the point's own and K p's, bitwise."""
        k = CameraIntrinsics.from_fov(50.0, 640, 480)
        s = ShutterParams.ideal(30.0, 480)
        motion = MotionState(Pose.identity(), [0.5, 1.0, 0.2], [0.01, -0.02, 0.1])
        points = rng.uniform([-1.5, -1.0, 2.0], [1.5, 1.0, 6.0], (64, 3))
        times = solve_scan_times(points, motion, k, s, exact=exact)
        imaged = np.flatnonzero(times.ok)
        batch = times.projection(imaged, k)
        for j, i in enumerate(imaged):
            one = times.projection(i, k)
            q, q0 = k.K @ times.capture[i], k.K @ times.start[i]
            np.testing.assert_array_equal(batch.pixel[j], one.pixel)
            np.testing.assert_array_equal(one.pixel, q[:2] / q[2])
            np.testing.assert_array_equal(batch.correction[j], one.pixel - q0[:2] / q0[2])
            assert (batch.scan_time[j], batch.caught_twice[j]) == (one.scan_time,
                                                                  one.caught_twice)
