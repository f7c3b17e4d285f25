import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rscam.errors import NegativeDepth, Singularity
from rscam.geometry import CameraIntrinsics, MotionState, Pose
from rscam.shutter import ShutterParams, invert_fronto_parallel
from rscam.flow import (flow_finite_difference, flow_perspective,
                        flow_rolling_shutter)

from conftest import flow_analytic_one, flow_difference_one, rs_projection


@pytest.fixture
def shutter_norm() -> ShutterParams:
    return ShutterParams(scan_rate=10.0, framerate=10.0)


def fronto(vx, vy, wz) -> MotionState:
    return MotionState(Pose.identity(), [vx, vy, 0.0], [0.0, 0.0, wz])


class TestPerspectiveFlow:
    def test_static(self):
        f = flow_perspective(0.2, 0.3, 1.0, MotionState())
        assert f.du == 0.0 and f.dv == 0.0

    def test_translation(self):
        f = flow_perspective(0.0, 0.0, 1.0, fronto(1.0, 0.0, 0.0))
        assert (f.du, f.dv) == (1.0, 0.0)

    def test_pure_rotation_is_tangential(self, rng):
        """Flow (-w v, w u) is perpendicular to the radius about the center."""
        m = fronto(0.0, 0.0, 0.7)
        for _ in range(20):
            u, v = rng.uniform(-1, 1, size=2)
            f = flow_perspective(u, v, 2.0, m)
            assert abs(f.du - (-0.7 * v)) < 1e-15
            assert abs(f.dv - 0.7 * u) < 1e-15
            assert abs(f.du * u + f.dv * v) < 1e-12

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            flow_perspective(0, 0, 0.0, MotionState())


class TestRollingShutterFlow:
    def test_static(self, shutter_norm):
        f = flow_rolling_shutter(0.2, 0.3, 1.5, MotionState(), shutter_norm)
        assert (f.du, f.dv) == (0.0, 0.0)

    def test_zero_rotation_is_rescaled_perspective(self, shutter_norm, rng):
        """Without rotation the flow is r / (r - dv_p) times the pin-hole flow."""
        for _ in range(30):
            m = fronto(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
            u, v = rng.uniform(-0.4, 0.9, size=2)
            z = rng.uniform(0.5, 4.0)
            p = flow_perspective(u, v, z, m)
            f = flow_rolling_shutter(u, v, z, m, shutter_norm)
            factor = shutter_norm.scan_rate / (shutter_norm.scan_rate - p.dv)
            assert abs(f.du - factor * p.du) < 1e-12
            assert abs(f.dv - factor * p.dv) < 1e-12

    def test_large_rate_recovers_perspective(self):
        m = fronto(0.5, 0.8, 0.6)
        p = flow_perspective(0.3, 0.4, 2.0, m)
        previous = None
        for r in [1e3, 1e4, 1e5, 1e6]:
            s = ShutterParams(scan_rate=r, framerate=10.0)
            f = flow_rolling_shutter(0.3, 0.4, 2.0, m, s)
            gap = np.hypot(f.du - p.du, f.dv - p.dv)
            assert previous is None or gap < previous
            previous = gap
        assert previous < 1e-6

    def test_requires_zero_first_row(self):
        s = ShutterParams(scan_rate=10.0, first_row=0.1, framerate=10.0)
        with pytest.raises(ValueError):
            flow_rolling_shutter(0.1, 0.2, 1.0, fronto(0.1, 0.2, 0.0), s)

    def test_singularity(self):
        # dv_p = r makes the image point track the scanline exactly.
        s = ShutterParams(scan_rate=10.0, framerate=10.0)
        m = fronto(0.0, 10.0, 0.0)
        with pytest.raises(Singularity):
            flow_rolling_shutter(0.0, 0.2, 1.0, m, s)


class TestFiniteDifference:
    def test_static(self, shutter_norm):
        f = flow_finite_difference(0.2, 0.3, 1.5, MotionState(), shutter_norm)
        assert abs(f.du) < 1e-12 and abs(f.dv) < 1e-12

    def test_agrees_with_analytic_flow(self, shutter_norm, rng):
        """The analytic flow is the exact derivative of the linearized
        projection, so central differences match it at machine precision
        for any fronto-parallel motion."""
        for _ in range(60):
            m = fronto(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
            u, v = rng.uniform(0.05, 0.9, size=2)
            z = rng.uniform(0.5, 4.0)
            analytic = flow_rolling_shutter(u, v, z, m, shutter_norm)
            scale = 1.0 + np.hypot(analytic.du, analytic.dv)
            for h in (1e-3, 5e-4):
                fd = flow_finite_difference(u, v, z, m, shutter_norm, h=h)
                err = np.hypot(fd.du - analytic.du, fd.dv - analytic.dv)
                assert err < 1e-9 * scale

    def test_printed_sign_variant_is_wrong(self, shutter_norm, rng):
        """Flipping the sign of the row-coupled term in the second component
        (the variant transcription) disagrees with the finite difference."""
        max_gap = 0.0
        for _ in range(40):
            m = fronto(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 1.5))
            u, v = rng.uniform(0.2, 0.9, size=2)
            z = rng.uniform(0.5, 3.0)
            p = flow_perspective(u, v, z, m)
            r = shutter_norm.scan_rate
            vx, wz = m.linear_velocity[0], m.angular_velocity[2]
            den = v * vx * wz + r * z * (r - p.dv)
            variant_dv = r * z / den * (r * p.dv + wz * v * p.du)
            fd = flow_finite_difference(u, v, z, m, shutter_norm, h=1e-4)
            max_gap = max(max_gap, abs(variant_dv - fd.dv))
        assert max_gap > 1e-3

    def test_exact_model_difference_converges_quadratically(self, shutter_norm):
        """Differencing the exact (non-linearized) projection shows clean
        O(h^2) behavior under h-halving."""
        k = CameraIntrinsics.normalized()
        m = fronto(0.4, 0.7, 1.2)
        point = invert_fronto_parallel((0.3, 0.5), 2.0, m, k, shutter_norm)

        def fd_exact(h):
            a = rs_projection(point, m, k, shutter_norm, exact=True, frame_start=h).pixel
            b = rs_projection(point, m, k, shutter_norm, exact=True, frame_start=-h).pixel
            return (a - b) / (2 * h)

        f1, f2, f4 = fd_exact(8e-3), fd_exact(4e-3), fd_exact(2e-3)
        d1 = np.linalg.norm(f1 - f4)
        d2 = np.linalg.norm(f2 - f4)
        assert 3.5 < d1 / d2 < 7.0  # Richardson ratio, exactly 5 for pure h^2

    def test_large_rate_surrogate_matches_perspective(self):
        s = ShutterParams(scan_rate=1e9, framerate=10.0)
        m = fronto(0.5, 0.8, 0.4)
        p = flow_perspective(0.3, 0.4, 2.0, m)
        fd = flow_finite_difference(0.3, 0.4, 2.0, m, s, h=1e-4)
        assert np.hypot(fd.du - p.du, fd.dv - p.dv) < 1e-6

    def test_validation(self, shutter_norm):
        with pytest.raises(ValueError):
            flow_finite_difference(0.1, 0.2, 1.0, MotionState(), shutter_norm, h=0.0)
        with pytest.raises(ValueError):
            flow_finite_difference(0.1, 0.2, 1.0,
                                   MotionState(Pose.identity(), [0, 0, 1], [0, 0, 0]),
                                   shutter_norm)


class TestBatches:
    """A batch is bitwise a loop of batches of one and of the single-point
    references, and a point that fails carries the error a call on it alone
    raises."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(vx=st.floats(-1.0, 1.0), vy=st.floats(-1.0, 1.0),
           wz=st.floats(0.05, 1.5) | st.floats(-1.5, -0.05),
           uv=st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
                       min_size=1, max_size=8),
           depth=st.floats(0.5, 4.0), fail=st.sampled_from([None, "singular", "behind"]),
           k=st.integers(0, 7))
    def test_batch_matches_single_points(self, vx, vy, wz, uv, depth, fail, k):
        shutter_norm = ShutterParams(scan_rate=10.0, framerate=10.0)
        m = fronto(vx, vy, wz)
        r = shutter_norm.scan_rate
        u, v = np.array(uv).T
        z = np.full(len(u), depth)
        k %= len(u)
        if fail == "singular":
            # The depth at which the analytic denominator of point k vanishes.
            z[k] = (r * vy - v[k] * vx * wz) / (r * (r - wz * u[k]))
            assume(z[k] > 0.0)
        elif fail == "behind":
            # At the camera plane for the finite difference (and moving with
            # the scanline too when the row velocity is small).
            z[k] = 1e-10
        references = {flow_rolling_shutter: flow_analytic_one,
                      flow_finite_difference: lambda *a: flow_difference_one(*a, 1e-3)}
        for flow in (flow_rolling_shutter, flow_finite_difference):
            batch = flow(u, v, z, m, shutter_norm)
            assert batch.du.shape == batch.dv.shape == (len(u),)
            for i in range(len(u)):
                if i in batch.failures:
                    with pytest.raises(type(batch.failures[i])) as caught:
                        flow(u[i], v[i], z[i], m, shutter_norm)
                    assert str(caught.value) == str(batch.failures[i])
                    assert np.isnan(batch.du[i]) and np.isnan(batch.dv[i])
                else:
                    one = flow(u[i], v[i], z[i], m, shutter_norm)
                    assert isinstance(one.du, float) and one.failures == {}
                    assert (one.du, one.dv) == (batch.du[i], batch.dv[i]) == \
                        references[flow](u[i], v[i], z[i], m, shutter_norm)
            if fail == "singular" and flow is flow_rolling_shutter:
                assert isinstance(batch.failures[k], Singularity)
            if fail == "behind" and flow is flow_finite_difference:
                assert isinstance(batch.failures[k], (NegativeDepth, Singularity))
                assert set(batch.failures) == {k}

    def test_one_depth_for_all_points(self, shutter_norm):
        m = fronto(0.3, -0.4, 0.7)
        u, v = np.array([0.1, 0.5, -0.3]), np.array([0.2, -0.1, 0.6])
        for flow in (flow_rolling_shutter, flow_finite_difference):
            batch = flow(u, v, 2.0, m, shutter_norm)
            per_point = flow(u, v, np.full(3, 2.0), m, shutter_norm)
            assert batch.failures == per_point.failures == {}
            np.testing.assert_array_equal([batch.du, batch.dv], [per_point.du, per_point.dv])
