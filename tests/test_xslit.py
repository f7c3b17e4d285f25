import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscam import xslit
from rscam.errors import DegenerateSlits
from rscam.geometry import CameraIntrinsics, MotionState, Pose
from rscam.shutter import ShutterParams
from rscam.xslit import Line3D, backproject, compute_slits, line_line_distance

from conftest import invert_one, line_distance_one, rs_projection


@pytest.fixture
def shutter_norm() -> ShutterParams:
    return ShutterParams(scan_rate=10.0, framerate=10.0)


def translation(vx, vy) -> MotionState:
    return MotionState(Pose.identity(), [vx, vy, 0.0], np.zeros(3))


class TestLineDistance:
    def test_identical_lines(self):
        line = Line3D([1, 2, 3], [0.3, -0.4, 0.5])
        assert line_line_distance(line, line) == 0.0

    def test_parallel_offset(self):
        x_axis = Line3D([0, 0, 0], [1, 0, 0])
        shifted = Line3D([0, 1, 0], [1, 0, 0])
        assert abs(line_line_distance(x_axis, shifted) - 1.0) < 1e-15

    def test_canonical_skew_pair(self):
        x_axis = Line3D([0, 0, 0], [1, 0, 0])
        skew = Line3D([0, 0, 1], [0, 1, 0])
        assert abs(line_line_distance(x_axis, skew) - 1.0) < 1e-15

    def test_intersecting(self):
        a = Line3D([0, 0, 0], [1, 0, 0])
        b = Line3D([2, 0, 0], [0, 1, 1])
        assert line_line_distance(a, b) < 1e-15

    def test_direction_normalized(self):
        line = Line3D([0, 0, 0], [0, 0, 7.0])
        assert abs(np.linalg.norm(line.direction) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            Line3D([0, 0, 0], [0, 0, 0])


class TestComputeSlits:
    def test_vertical_translation_is_orthogonal_pair(self, shutter_norm):
        """Pure v_y gives perpendicular slits: the camera's y axis and a
        horizontal line at depth v_y / r."""
        slits = compute_slits(translation(0.0, 1.0), shutter_norm)
        np.testing.assert_allclose(np.abs(slits.slit1.direction), [0, 1, 0], atol=0)
        np.testing.assert_allclose(slits.slit1.point, [0, 0, 0], atol=0)
        np.testing.assert_allclose(np.abs(slits.slit2.direction), [1, 0, 0], atol=0)
        np.testing.assert_allclose(slits.slit2.point, [0, 0, 0.1], atol=1e-15)
        assert abs(float(slits.slit1.direction @ slits.slit2.direction)) < 1e-15

    def test_zero_first_row_puts_slit2_at_height_zero(self, shutter_norm):
        slits = compute_slits(translation(0.7, 1.3), shutter_norm)
        assert slits.slit2.point[1] == 0.0
        assert abs(slits.slit2.point[2] - 1.3 / 10.0) < 1e-15

    def test_slits_collapse_to_origin_with_velocity(self):
        s = ShutterParams(scan_rate=10.0, first_row=0.2, framerate=10.0)
        for eps in (1e-2, 1e-4, 1e-6):
            slits = compute_slits(translation(eps, eps), s)
            assert np.linalg.norm(slits.slit1.point) < 1e-12
            assert np.linalg.norm(slits.slit2.point) <= eps

    def test_stationary_camera_degenerate(self, shutter_norm):
        with pytest.raises(DegenerateSlits):
            compute_slits(translation(0.0, 0.0), shutter_norm)

    def test_rejects_non_planar_motion(self, shutter_norm):
        with pytest.raises(ValueError):
            compute_slits(MotionState(Pose.identity(), [0, 1, 0.5], np.zeros(3)),
                          shutter_norm)


class TestBackproject:
    def test_stationary_is_pinhole_ray(self, shutter_norm):
        ray = backproject([0.3, 0.4], MotionState(), shutter_norm)
        # Through the origin along (u, v, 1).
        assert line_line_distance(ray, Line3D([0, 0, 0], [0.3, 0.4, 1.0])) < 1e-12
        expected = np.array([0.3, 0.4, 1.0])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(np.abs(ray.direction), expected, atol=1e-12)

    def test_points_reproject_to_query(self, shutter_norm, rng):
        k = CameraIntrinsics.normalized()
        for _ in range(40):
            m = translation(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = rng.uniform(0.05, 0.95, size=2)
            ray = backproject(q, m, shutter_norm)
            for span in rng.uniform(0.5, 5.0, size=3):
                point = ray.point + span * ray.direction
                if point[2] < 0.05:
                    continue
                rs = rs_projection(point, m, k, shutter_norm, windowed=False)
                np.testing.assert_allclose(rs.pixel, q, atol=1e-9)

    def test_rays_meet_both_slits(self, shutter_norm, rng):
        """Crossed-slit incidence on a 10x10 grid of image points."""
        for _ in range(6):
            m = translation(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            slits = compute_slits(m, shutter_norm)
            worst = 0.0
            for v in np.linspace(0.05, 0.95, 10):
                for u in np.linspace(0.05, 0.95, 10):
                    ray = backproject([u, v], m, shutter_norm)
                    worst = max(worst,
                                line_line_distance(ray, slits.slit1),
                                line_line_distance(ray, slits.slit2))
            assert worst < 1e-9, worst

    def test_rays_meet_slits_with_row_offset(self, rng):
        """The slit construction stays consistent for a nonzero first row."""
        s = ShutterParams(scan_rate=10.0, first_row=0.15, framerate=10.0)
        m = translation(0.8, 1.4)
        slits = compute_slits(m, s)
        for v in np.linspace(0.05, 0.95, 6):
            for u in np.linspace(0.05, 0.95, 6):
                ray = backproject([u, v], m, s)
                assert line_line_distance(ray, slits.slit1) < 1e-10
                assert line_line_distance(ray, slits.slit2) < 1e-10

    def test_rotation_breaks_slit_model(self, shutter_norm):
        """With omega_z != 0 some backprojected ray misses the slits."""
        m_rot = MotionState(Pose.identity(), [0.4, 1.2, 0.0], [0, 0, 0.8])
        slits = compute_slits(translation(0.4, 1.2), shutter_norm)
        worst = 0.0
        for v in np.linspace(0.05, 0.95, 10):
            for u in np.linspace(0.05, 0.95, 10):
                ray = backproject([u, v], m_rot, shutter_norm)
                worst = max(worst,
                            line_line_distance(ray, slits.slit1),
                            line_line_distance(ray, slits.slit2))
        assert worst > 1e-6


class TestBatches:
    """A batch of image points gets, bitwise, the line and the distances
    each point gets alone and from the single-point references."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(vx=st.floats(-2.0, 2.0), vy=st.floats(0.3, 2.5), wz=st.sampled_from([0.0, 0.8]),
           first_row=st.sampled_from([0.0, 0.15]),
           q=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
                      min_size=1, max_size=8))
    def test_batch_matches_single_points(self, vx, vy, wz, first_row, q):
        s = ShutterParams(scan_rate=10.0, first_row=first_row, framerate=10.0)
        m = MotionState(Pose.identity(), [vx, vy, 0.0], [0.0, 0.0, wz])
        slits = compute_slits(translation(vx, vy), s)
        rays = backproject(q, m, s)
        assert rays.point.shape == rays.direction.shape == (len(q), 3)
        k = CameraIntrinsics.normalized()
        for i, qi in enumerate(q):
            p1, p2 = (invert_one(qi, z, m, k, s) for z in (1.0, 2.0))
            np.testing.assert_array_equal(rays.point[i], p1)
            np.testing.assert_array_equal(rays.direction[i], (p2 - p1) / np.linalg.norm(p2 - p1))
        for slit in (slits.slit1, slits.slit2):
            distances = line_line_distance(rays, slit)
            assert distances.shape == (len(q),)
            for i, qi in enumerate(q):
                ray = backproject(qi, m, s)
                np.testing.assert_array_equal(rays.point[i], ray.point)
                np.testing.assert_array_equal(rays.direction[i], ray.direction)
                assert distances[i] == line_line_distance(ray, slit) == line_distance_one(
                    ray.point, ray.direction, slit.point, slit.direction)

    def test_parallel_and_skew_lines_in_one_batch(self):
        x_axis = Line3D([0, 0, 0], [1, 0, 0])
        lines = Line3D([[0, 1, 0], [0, 0, 1], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        np.testing.assert_allclose(line_line_distance(lines, x_axis), [1.0, 1.0, 0.0],
                                   atol=1e-15)

    def test_first_bent_point_raises(self, shutter_norm, monkeypatch):
        """The collinearity check reports the first point whose inverse image
        is not straight; here point 1 of 3 is bent by a depth-squared term."""
        straight = xslit.invert_fronto_parallel

        def bent(q, z, *args):
            p = straight(q, z, *args)
            bend = np.array([0.0, 1e-3 * z * z, 0.0])
            return p + np.where(np.asarray(q)[..., :1] == 0.5, bend, 0.0)

        monkeypatch.setattr(xslit, "invert_fronto_parallel", bent)
        m = translation(0.4, 1.2)
        q = [[0.1, 0.2], [0.5, 0.3], [0.5, 0.9]]
        with pytest.raises(ValueError, match="not a straight line") as batch:
            backproject(q, m, shutter_norm)
        with pytest.raises(ValueError) as single:
            backproject(q[1], m, shutter_norm)
        assert str(batch.value) == str(single.value)
        backproject(q[0], m, shutter_norm)
