import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscam.geometry import (CameraIntrinsics, MotionState, Pose, check_rotation, hat,
                            project_perspective, rotation_exp, rotation_exp_and_jacobian,
                            rotation_log)

from conftest import camera_matrix_at, hat_stack, rodrigues, rotation_left_jacobian

# Both sides of the two small-angle thresholds (1e-12 and 1e-4), and near pi.
ANGLES = [0.0, 1e-13, 3e-5, 2e-4, 0.3, 2.5, math.pi - 1e-6]
SHAPES = [(3,), (5, 3), (4, 2, 3)]


def _rotation_vectors(rng, angle, shape):
    """Vectors of length angle in random directions; at 0, zeros of random signs."""
    axis = rng.normal(size=shape)
    if angle == 0.0:
        return np.copysign(np.zeros(shape), axis)
    return angle * axis / np.linalg.norm(axis, axis=-1, keepdims=True)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestHat:
    def test_zero_vector(self):
        assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_canonical_z(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(hat([0, 0, 1]), expected)

    def test_matches_cross_product(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)
            np.testing.assert_allclose(hat(a) @ b, -hat(b) @ a, atol=1e-14)

    def test_skew_symmetric(self, rng):
        m = hat(rng.normal(size=3))
        np.testing.assert_allclose(m.T, -m, atol=0)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("angle", ANGLES)
    def test_matches_stacked_oracle_bit_for_bit(self, rng, angle, shape):
        """The filled array equals one np.stack of the entries, signed zeros too."""
        w = _rotation_vectors(rng, angle, shape)
        assert _same_bits(hat(w), hat_stack(w))


class TestRotationExp:
    def test_zero_rate_is_identity(self):
        np.testing.assert_allclose(rotation_exp(np.asarray([0, 0, 0]) * 3.7), np.eye(3), atol=0)

    def test_half_turn_about_z(self):
        r = rotation_exp([0, 0, math.pi])
        np.testing.assert_allclose(r, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_one_parameter_group(self, rng):
        """exp(w t) exp(w s) = exp(w (t+s))."""
        for _ in range(30):
            w = rng.normal(size=3)
            t, s = rng.uniform(-2, 2, size=2)
            left = rotation_exp(w * t) @ rotation_exp(w * s)
            np.testing.assert_allclose(left, rotation_exp(w * (t + s)), atol=1e-9)

    def test_is_rotation(self, rng):
        for _ in range(20):
            r = rotation_exp(rng.normal(size=3) * rng.uniform(0, 3))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestRotationLeftJacobian:
    @pytest.mark.parametrize("angle", [0.0, 3e-5, 2e-4, 0.3, 2.5])
    def test_matches_central_differences(self, rng, angle):
        """Columns of the fused helper's J at one vector are d/dd log(exp(omega +
        d) exp(omega)^T) at d = 0, on both sides of the series threshold."""
        axis = rng.normal(size=3)
        omega = angle * axis / np.linalg.norm(axis)
        base_t = rotation_exp(omega).T
        h = 1e-6
        numeric = np.column_stack([
            (rotation_log(rotation_exp(omega + h * e) @ base_t)
             - rotation_log(rotation_exp(omega - h * e) @ base_t)) / (2 * h)
            for e in np.eye(3)])
        np.testing.assert_allclose(rotation_exp_and_jacobian(omega)[1], numeric, atol=1e-8)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("angle", ANGLES)
    def test_fused_helper_matches_oracles_bit_for_bit(self, rng, angle, shape):
        """One angle, sin/cos and stacked hat give the bits of the rotation and of
        J each computed alone, and rotation_exp's, also from a strided view."""
        w = _rotation_vectors(rng, angle, shape)
        for omega in (w, np.concatenate([w, w], axis=-1)[..., :3]):
            rotation, jacobian = rotation_exp_and_jacobian(omega)
            assert _same_bits(rotation, rodrigues(w))
            assert _same_bits(rotation_exp(omega), rodrigues(w))
            assert _same_bits(jacobian, rotation_left_jacobian(w))


class TestRotationLog:
    def test_identity(self):
        np.testing.assert_allclose(rotation_log(np.eye(3)), np.zeros(3), atol=0)

    def test_half_turn(self):
        w = rotation_log(np.diag([-1.0, -1.0, 1.0]))
        assert abs(np.linalg.norm(w) - math.pi) < 1e-12
        np.testing.assert_allclose(np.abs(w / np.linalg.norm(w)), [0, 0, 1], atol=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(100):
            r = rotation_exp(rng.normal(size=3) * rng.uniform(0, math.pi - 1e-3))
            np.testing.assert_allclose(rotation_exp(rotation_log(r)), r, atol=1e-8)

    def test_round_trip_near_pi(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = math.pi - 10 ** rng.uniform(-12, -3)
            r = rotation_exp(axis * angle)
            np.testing.assert_allclose(rotation_exp(rotation_log(r)), r, atol=1e-8)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            rotation_log(np.eye(3) * 2.0)


@pytest.fixture
def moving_state(rng):
    pose = Pose(rotation_exp(rng.normal(size=3) * 0.3), rng.normal(size=3))
    return MotionState(pose, rng.normal(size=3), rng.normal(size=3) * 0.5)


class TestCameraMatrixAt:
    def test_t0_agreement(self, moving_state):
        k = CameraIntrinsics.from_fov(50, 640, 480)
        exact = camera_matrix_at(moving_state, k, 0.0, linearized=False)
        lin = camera_matrix_at(moving_state, k, 0.0, linearized=True)
        pose = moving_state.pose0
        reference = k.K @ np.column_stack([pose.rotation, pose.translation])
        np.testing.assert_allclose(exact, reference, atol=1e-12)
        np.testing.assert_allclose(lin, reference, atol=1e-12)

    def test_zero_omega_linearization_exact(self, rng):
        """With no angular velocity the linearized matrix is exact for all t."""
        pose = Pose(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        motion = MotionState(pose, rng.normal(size=3), np.zeros(3))
        k = CameraIntrinsics.normalized()
        for t in [0.0, 0.01, 0.5, 3.0, -1.2]:
            exact = camera_matrix_at(motion, k, t, linearized=False)
            lin = camera_matrix_at(motion, k, t, linearized=True)
            np.testing.assert_allclose(exact, lin, atol=1e-14)

    def test_linearization_error_is_second_order(self, moving_state):
        """Halving t shrinks ||exact - linearized|| by about 4x."""
        k = CameraIntrinsics.normalized()

        def gap(t):
            return np.linalg.norm(
                camera_matrix_at(moving_state, k, t, linearized=False)
                - camera_matrix_at(moving_state, k, t, linearized=True))

        ratios = [gap(t) / gap(t / 2) for t in (0.08, 0.04, 0.02)]
        for ratio in ratios:
            assert 3.0 < ratio < 5.0, ratios


class TestProjectPerspective:
    def test_optical_axis(self):
        p = np.hstack([np.eye(3), np.zeros((3, 1))])
        np.testing.assert_allclose(project_perspective([0, 0, 1], p), [0, 0], atol=0)

    def test_direct_ratio(self):
        p = np.hstack([np.eye(3), np.zeros((3, 1))])
        np.testing.assert_allclose(project_perspective([1, 2, 10], p), [0.1, 0.2],
                                   atol=1e-15)

    def test_homogeneous_scaling(self, rng):
        p = np.hstack([np.eye(3), np.zeros((3, 1))])
        x = [0.3, -0.2, 2.5]
        base = project_perspective(x, p)
        for _ in range(30):
            lam = rng.uniform(-5, 5)
            if abs(lam) < 1e-3:
                continue
            np.testing.assert_allclose(project_perspective(x, lam * p), base,
                                       atol=1e-12)

    def test_zero_depth_raises(self):
        p = np.hstack([np.eye(3), np.zeros((3, 1))])
        with pytest.raises(ValueError):
            project_perspective([1.0, 1.0, 0.0], p)


class TestTypes:
    def test_pose_viewpoint(self, rng):
        r = rotation_exp(rng.normal(size=3))
        t = rng.normal(size=3)
        pose = Pose(r, t)
        np.testing.assert_allclose(pose.viewpoint(), -r.T @ t, atol=1e-15)
        # x_cam = R x + T maps the viewpoint to the origin
        np.testing.assert_allclose(r @ pose.viewpoint() + t, np.zeros(3), atol=1e-12)

    def test_pose_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.1, np.zeros(3))

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 0, 1]]),
                             1.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(np.eye(3), -1.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(np.eye(3), 1.0, 0, 10)

    def test_intrinsics_from_fov(self):
        k = CameraIntrinsics.from_fov(90.0, 640, 480)
        assert abs(k.K[0, 0] - 320.0) < 1e-9
        assert k.K[0, 2] == 320.0 and k.K[1, 2] == 240.0
        assert abs(k.pixel_size - 1.0 / k.K[1, 1]) < 1e-15

    @pytest.mark.parametrize("fov, width, height", [
        (40.0, 0, 480), (40.0, 640, 0), (40.0, -640, 480), (0.0, 640, 480),
        (180.0, 640, 480), (-40.0, 640, 480), (float("nan"), 640, 480),
        (float("inf"), 640, 480), (5e-324, 640, 480), (1e-310, 640, 480),
        (40.0, 2**53 + 1, 480)])
    def test_intrinsics_from_fov_rejects(self, fov, width, height):
        """A size that is not positive, or a field of view outside (0, 180)
        degrees, NaN included, raises ValueError instead of dividing by zero;
        so do a focal length that overflows and a size past 2**53."""
        with pytest.raises(ValueError):
            CameraIntrinsics.from_fov(fov, width, height)

    @pytest.mark.parametrize("entry", [0, 1])
    def test_intrinsics_reject_nan_diagonal(self, entry):
        k = np.eye(3)
        k[entry, entry] = np.nan
        with pytest.raises(ValueError, match="diagonal"):
            CameraIntrinsics(k, 1.0, 10, 10)
        with pytest.raises(ValueError, match="pixel_size"):
            CameraIntrinsics(np.eye(3), float("nan"), 10, 10)

    def test_motion_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MotionState(Pose.identity(), [np.nan, 0, 0], [0, 0, 0])


class TestProjectPerspectiveBatch:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           homogeneous=st.booleans(), on_plane=st.one_of(st.none(), st.integers(0, 7)))
    def test_batch_matches_single_points(self, seed, n, homogeneous, on_plane):
        """Each pixel of a batch is the point's own and the 1-D reference's,
        bitwise; a batch with a point on the camera plane raises as that
        point does alone."""
        rng = np.random.default_rng(seed)
        pose = Pose(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
        k = CameraIntrinsics.from_fov(rng.uniform(30.0, 90.0), 64, 48).K
        matrix = k @ np.column_stack([pose.rotation, pose.translation])
        points = rng.uniform(-3.0, 3.0, (n, 3))
        if on_plane is not None:
            # Camera coordinates (a, b, 0) are on the camera plane.
            points[on_plane % n] = pose.rotation.T @ (
                np.append(rng.uniform(-1, 1, 2), 0.0) - pose.translation)
        if homogeneous:
            points = np.column_stack([points, np.ones(n)]) * rng.uniform(0.5, 2.0, (n, 1))
        singles = []
        for point in points:
            try:
                singles.append(project_perspective(point, matrix))
            except ValueError:
                singles.append(None)
                continue
            p = matrix @ (point if homogeneous else np.append(point, 1.0))
            np.testing.assert_array_equal(singles[-1], p[:2] / p[2])
        if any(s is None for s in singles):
            with pytest.raises(ValueError, match="camera plane"):
                project_perspective(points, matrix)
        else:
            batch = project_perspective(points, matrix)
            assert batch.shape == (n, 2)
            np.testing.assert_array_equal(batch, singles)
        if on_plane is not None:
            assert singles[on_plane % n] is None


class TestRotationCheck:
    """check_rotation accepts what np.allclose(r r^T, I, rtol=0, atol=1e-9)
    accepts: the same bound on and off the diagonal."""

    @staticmethod
    def stretch(s2):
        """diag(s, 1/s, 1), determinant 1, whose r r^T has diagonal s^2, 1/s^2."""
        s = math.sqrt(s2)
        return np.diag([s, 1.0 / s, 1.0])

    def test_diagonal_boundary(self):
        """The diagonal of r r^T gets the off-diagonal's 1e-9, not 1e-5."""
        check_rotation(self.stretch(1.0 + 0.99e-9))
        Pose(self.stretch(1.0 - 0.99e-9), np.zeros(3))
        for s2 in (1.0 + 1e-5 - 1e-8, 1.0 - 1e-5 + 1e-8, 1.0 + 1.01e-9, 1.0 - 1.01e-9):
            with pytest.raises(ValueError, match="not orthogonal"):
                check_rotation(self.stretch(s2))

    def test_off_diagonal_boundary(self):
        shear = np.eye(3)
        shear[0, 1] = 0.99e-9
        check_rotation(shear)
        shear[0, 1] = 1.01e-9
        with pytest.raises(ValueError, match="not orthogonal"):
            check_rotation(shear)

    def test_accepts_what_allclose_accepts(self, rng):
        for _ in range(400):
            r = rotation_exp(rng.normal(size=3)) @ (
                np.eye(3) + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-11, -4))
            expected = (np.allclose(r @ r.T, np.eye(3), rtol=0.0, atol=1e-9)
                        and abs(np.linalg.det(r) - 1.0) <= 1e-9)
            try:
                check_rotation(r)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, value):
        r = np.eye(3)
        r[1, 2] = value
        with pytest.raises(ValueError):
            check_rotation(r)
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))
        k = np.eye(3)
        k[0, 2] = value
        if value == value:  # an infinite principal point is upper triangular
            CameraIntrinsics(k, 1.0, 10, 10)
        k = np.eye(3)
        k[2, 1] = value
        if value != value:  # NaN compares false, as np.abs(nan) > 1e-12 does
            CameraIntrinsics(k, 1.0, 10, 10)
        else:
            with pytest.raises(ValueError, match="upper triangular"):
                CameraIntrinsics(k, 1.0, 10, 10)

    @pytest.mark.parametrize("entry", [(1, 0), (2, 0), (2, 1)])
    def test_intrinsics_lower_triangle(self, entry):
        k = np.eye(3)
        k[entry] = 1e-12
        CameraIntrinsics(k, 1.0, 10, 10)
        k[entry] = -2e-12
        with pytest.raises(ValueError, match="upper triangular"):
            CameraIntrinsics(k, 1.0, 10, 10)
