import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grouped_jacobian
from rscam import sfm
from rscam.errors import ConfigError
from rscam.geometry import MotionState, Pose, rotation_exp
from rscam.sfm import (GRID_CSV_COLUMNS, MODELS, PERSPECTIVE_MODEL, RS_MODEL,
                       BundleOptions, SceneConfig, SfmSolution, bundle_adjust,
                       error_metrics, generate_problem, grid_to_csv,
                       load_problem, run_experiment_grid, save_problem)
from rscam.sfm import (_initial_points, _NormalEquations, _Parametrization,
                       _perspective_pixels, _residuals)


@pytest.fixture(scope="module")
def rs_problem():
    return generate_problem(SceneConfig(velocity_kmh=7.5, noise_sigma=0.0), seed=11)


def _start(problem, estimate_velocities=False):
    """Parametrization and the x that bundle_adjust would start LM from."""
    par = _Parametrization(problem, estimate_velocities)
    _, obs1 = problem.observations[0]
    _, obs2 = problem.observations[1]
    pose2 = problem.cameras[1].motion.pose0
    pts = _initial_points(obs1, obs2, problem.cameras[0].motion.pose0, pose2,
                          problem.cameras[0].intrinsics)
    velocities = [(cam.motion.linear_velocity, cam.motion.angular_velocity)
                  for cam in problem.cameras]
    return par, par.pack(pose2, pts, velocities if estimate_velocities else None)


def _point_cols(par):
    return np.concatenate([par.n_cam + 3 * np.repeat(indices, 2)
                           for indices, _ in par.problem.observations])


def _dense(par, cam_jac, point_jac):
    """The full (residuals x parameters) Jacobian assembled from its blocks."""
    n_res = 2 * len(cam_jac)
    jac = np.zeros((n_res, par.n_cam + 3 * par.n_points))
    jac[:, :par.n_cam] = cam_jac.reshape(n_res, par.n_cam)
    rows, cols = np.arange(n_res), _point_cols(par)
    for c in range(3):
        jac[rows, cols + c] = point_jac.reshape(n_res, 3)[:, c]
    return jac


def _with_motion(problem, velocity, omega):
    cameras = tuple(replace(cam, motion=MotionState(cam.motion.pose0, velocity, omega))
                    for cam in problem.cameras)
    return replace(problem, cameras=cameras)


def _assert_matches_oracle(problem, model, estimate_velocities):
    """Analytic Jacobian equals central differences column by column, to 1e-6
    of each column's largest entry."""
    par, x = _start(problem, estimate_velocities)

    def fun(x_):
        return _residuals(par, model, x_)[0]

    r, cam_jac, point_jac = _residuals(par, model, x)
    assert np.all(np.abs(r) < 1e4), "every observation must be imaged"
    analytic = _dense(par, cam_jac, point_jac)
    oracle = grouped_jacobian(fun, x, par.n_cam, _point_cols(par), len(r))
    for col in range(len(x)):
        scale = float(np.max(np.abs(oracle[:, col])))
        np.testing.assert_allclose(analytic[:, col], oracle[:, col], rtol=0,
                                   atol=1e-6 * scale, err_msg=f"column {col}")
    return analytic


class TestGenerateProblem:
    def test_deterministic(self):
        cfg = SceneConfig(velocity_kmh=3.75, noise_sigma=1.0)
        a = generate_problem(cfg, seed=42)
        b = generate_problem(cfg, seed=42)
        assert np.array_equal(a.points, b.points)
        for (ia, pa), (ib, pb) in zip(a.observations, b.observations):
            assert np.array_equal(ia, ib) and np.array_equal(pa, pb)
        c = generate_problem(cfg, seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_static_zero_noise_observations_are_perspective(self):
        problem = generate_problem(SceneConfig(velocity_kmh=0.0, noise_sigma=0.0),
                                   seed=7)
        for cam, (indices, pixels) in zip(problem.cameras, problem.observations):
            expected, ok = _perspective_pixels(problem.points[indices],
                                               cam.motion.pose0, cam.intrinsics)
            assert np.all(ok)
            np.testing.assert_allclose(pixels, expected, atol=1e-10)

    def test_rs_observations_differ_noticeably_from_perspective(self):
        """At 7.5 km/h and 10 m the shutter shifts observations by pixels."""
        problem = generate_problem(SceneConfig(velocity_kmh=7.5, noise_sigma=0.0),
                                   seed=3)
        gaps = []
        for cam, (indices, pixels) in zip(problem.cameras, problem.observations):
            expected, _ = _perspective_pixels(problem.points[indices],
                                              cam.motion.pose0, cam.intrinsics)
            gaps.append(np.linalg.norm(pixels - expected, axis=1).max())
        assert max(gaps) > 1.0

    def test_underconstrained_scene_rejected(self):
        cfg = SceneConfig(n_points=10, cloud_side=60.0, cloud_distance=4.0,
                          noise_sigma=0.0)
        with pytest.raises(ConfigError):
            generate_problem(cfg, seed=1)

    def test_camera2_looks_at_cloud(self, rs_problem):
        cam2 = rs_problem.cameras[1]
        center = np.array([0.0, 0.0, 10.0])
        in_cam = cam2.motion.pose0.rotation @ center + cam2.motion.pose0.translation
        assert in_cam[2] > 5.0
        assert abs(in_cam[0] / in_cam[2]) < 0.2 and abs(in_cam[1] / in_cam[2]) < 0.2


class TestBundleAdjust:
    def test_exact_recovery_rolling_shutter(self, rs_problem):
        sol = bundle_adjust(rs_problem, RS_MODEL)
        assert sol.converged
        assert sol.reprojection_rms < 1e-6
        assert sol.rotation_error_deg < 1e-4
        assert sol.translation_direction_error_deg < 1e-4

    def test_perspective_model_is_biased_on_rs_data(self, rs_problem):
        sol = bundle_adjust(rs_problem, PERSPECTIVE_MODEL)
        assert sol.converged
        assert sol.rotation_error_deg > 1e-3 or \
            sol.translation_direction_error_deg > 1e-2

    def test_cost_history_nonincreasing(self, rs_problem):
        for model in (RS_MODEL, PERSPECTIVE_MODEL):
            sol = bundle_adjust(rs_problem, model)
            history = np.array(sol.cost_history)
            assert len(history) >= 2
            assert np.all(np.diff(history) <= 0)

    def test_zero_velocity_models_agree(self):
        problem = generate_problem(SceneConfig(velocity_kmh=0.0, noise_sigma=0.8),
                                   seed=5)
        rs = bundle_adjust(problem, RS_MODEL)
        pe = bundle_adjust(problem, PERSPECTIVE_MODEL)
        assert abs(rs.rotation_error_deg - pe.rotation_error_deg) < 1e-6
        assert abs(rs.reprojection_rms - pe.reprojection_rms) < 1e-9

    def test_gauge_baseline_norm_preserved(self, rs_problem):
        sol = bundle_adjust(rs_problem, RS_MODEL)
        truth = rs_problem.cameras[1].motion.pose0.translation
        assert abs(np.linalg.norm(sol.poses[1].translation)
                   - np.linalg.norm(truth)) < 1e-12

    def test_unknown_model_rejected(self, rs_problem):
        with pytest.raises(ValueError):
            bundle_adjust(rs_problem, "affine")

    def test_joint_velocity_estimation_converges(self):
        cfg = SceneConfig(n_points=40, velocity_kmh=7.5, noise_sigma=0.0)
        problem = generate_problem(cfg, seed=9)
        sol = bundle_adjust(problem, RS_MODEL,
                            BundleOptions(estimate_velocities=True,
                                          max_iterations=300))
        assert sol.velocities is not None
        assert sol.reprojection_rms < 1e-4
        v2 = sol.velocities[1][0]
        truth = problem.cameras[1].motion.linear_velocity
        np.testing.assert_allclose(v2, truth, atol=0.2)


class TestErrorMetrics:
    def test_truth_scores_zero(self, rs_problem):
        sol = bundle_adjust(rs_problem, RS_MODEL)
        rot, trans, rms = error_metrics(rs_problem, sol)
        assert rot < 1e-4 and trans < 1e-4 and rms < 1e-6

    def test_constructed_rotation_offset(self, rs_problem):
        truth_pose = rs_problem.cameras[1].motion.pose0
        offset = rotation_exp([0.0, 0.0, math.radians(1.0)])
        est = SfmSolution(
            poses=(rs_problem.cameras[0].motion.pose0,
                   Pose(truth_pose.rotation @ offset, truth_pose.translation)),
            points=rs_problem.points, velocities=None, reprojection_rms=0.0,
            rotation_error_deg=0.0, translation_direction_error_deg=0.0,
            model_used=RS_MODEL, iterations=0, converged=True)
        rot, trans, _ = error_metrics(rs_problem, est)
        assert abs(rot - 1.0) < 1e-9
        assert trans < 1e-9

    def test_antipodal_translation(self, rs_problem):
        truth_pose = rs_problem.cameras[1].motion.pose0
        est = SfmSolution(
            poses=(rs_problem.cameras[0].motion.pose0,
                   Pose(truth_pose.rotation, -truth_pose.translation)),
            points=rs_problem.points, velocities=None, reprojection_rms=0.0,
            rotation_error_deg=0.0, translation_direction_error_deg=0.0,
            model_used=RS_MODEL, iterations=0, converged=True)
        _, trans, _ = error_metrics(rs_problem, est)
        assert abs(trans - 180.0) < 1e-9

    def test_degenerate_translation_reported_missing(self, rs_problem):
        est = SfmSolution(
            poses=(rs_problem.cameras[0].motion.pose0,
                   Pose(np.eye(3), np.zeros(3))),
            points=rs_problem.points, velocities=None, reprojection_rms=0.0,
            rotation_error_deg=0.0, translation_direction_error_deg=0.0,
            model_used=RS_MODEL, iterations=0, converged=True)
        _, trans, _ = error_metrics(rs_problem, est)
        assert math.isnan(trans)


class TestJacobian:
    def test_grouped_matches_dense_columns(self, rs_problem):
        """Spot-check grouped central differences against per-column ones."""
        par, x = _start(rs_problem)

        def fun(x_):
            return _residuals(par, RS_MODEL, x_)[0]

        jac = grouped_jacobian(fun, x, par.n_cam, _point_cols(par), len(fun(x)))
        for col in [0, 3, 5, par.n_cam + 1, par.n_cam + 30, len(x) - 1]:
            h = 1e-6 * max(1.0, abs(x[col]))
            xp, xm = x.copy(), x.copy()
            xp[col] += h
            xm[col] -= h
            dense = (fun(xp) - fun(xm)) / (2 * h)
            np.testing.assert_allclose(jac[:, col], dense, atol=1e-5)

    def test_step_halving_second_order(self, rs_problem):
        """Central differences converge as h^2: D(h)/D(h/2) near 5 against
        the h/4 reference."""
        par, x = _start(rs_problem)

        def fun(x_):
            return _residuals(par, RS_MODEL, x_)[0]

        n_res, point_cols = len(fun(x)), _point_cols(par)
        j1 = grouped_jacobian(fun, x, par.n_cam, point_cols, n_res, step=4e-3)
        j2 = grouped_jacobian(fun, x, par.n_cam, point_cols, n_res, step=2e-3)
        j4 = grouped_jacobian(fun, x, par.n_cam, point_cols, n_res, step=1e-3)
        d1 = np.linalg.norm(j1 - j4)
        d2 = np.linalg.norm(j2 - j4)
        assert 3.5 < d1 / d2 < 7.0, d1 / d2

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("estimate_velocities", [False, True])
    def test_analytic_matches_oracle(self, rs_problem, model, estimate_velocities):
        analytic = _assert_matches_oracle(rs_problem, model, estimate_velocities)
        velocity_cols = analytic[:, 6:18] if estimate_velocities else analytic[:, :0]
        # The rolling-shutter model depends on both cameras' velocities; the
        # pin-hole model on none.
        assert np.any(velocity_cols) == (estimate_velocities and model == RS_MODEL)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(velocity=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                              st.floats(0.5, 3.0)),
           omega=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                           st.floats(0.1, 0.5)),
           estimate_velocities=st.booleans())
    def test_analytic_matches_oracle_general_motion(self, rs_problem, velocity,
                                                    omega, estimate_velocities):
        """omega != 0 and v_z != 0 make the scan-time constraint quadratic."""
        problem = _with_motion(rs_problem, velocity, omega)
        _assert_matches_oracle(problem, RS_MODEL, estimate_velocities)

    @pytest.mark.parametrize("estimate_velocities", [False, True])
    def test_reduced_camera_step_equals_dense_solve(self, rs_problem,
                                                    estimate_velocities):
        problem = _with_motion(rs_problem, [0.2, 2.0, 0.4], [0.05, -0.1, 0.2])
        par, x = _start(problem, estimate_velocities)
        r, cam_jac, point_jac = _residuals(par, RS_MODEL, x)
        assert cam_jac.shape[2] == (18 if estimate_velocities else 6)
        point_index = np.concatenate([indices for indices, _ in problem.observations])
        system = _NormalEquations(cam_jac, point_jac, point_index, r, par.n_points)
        jac = _dense(par, cam_jac, point_jac)
        jtj, g = jac.T @ jac, jac.T @ r
        diag = np.maximum(np.diag(jtj), 1e-12)
        np.testing.assert_allclose(system.gradient, g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
        np.testing.assert_allclose(system.diag, diag, rtol=1e-12)
        for lam in (1e-3 * diag.max(), 1e-6 * diag.max()):
            dense = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            step = system.step(lam)
            assert np.linalg.norm(step - dense) <= 1e-9 * np.linalg.norm(dense)

    @pytest.mark.parametrize("model", MODELS)
    def test_point_behind_camera_has_constant_residual_and_zero_rows(
            self, rs_problem, model):
        par, x = _start(rs_problem)
        pose2 = rs_problem.cameras[1].motion.pose0
        # One meter behind camera 2, on its optical axis.
        x[par.n_cam:par.n_cam + 3] = pose2.viewpoint() - pose2.rotation[2]
        r, cam_jac, point_jac = _residuals(par, model, x)
        assert np.all(np.isfinite(r))
        n1 = len(rs_problem.observations[0][0])
        row = n1 + int(np.flatnonzero(rs_problem.observations[1][0] == 0)[0])
        np.testing.assert_array_equal(r[2 * row:2 * row + 2], 1e4)
        assert not np.any(cam_jac[row]) and not np.any(point_jac[row])
        assert np.all(np.abs(np.delete(r.reshape(-1, 2), row, axis=0)) < 1e4)

    @pytest.mark.parametrize("model", MODELS)
    def test_start_behind_camera_keeps_cost_nonincreasing(self, rs_problem, model,
                                                          monkeypatch):
        def behind_camera_2(obs1, obs2, pose1, pose2, intrinsics):
            points = _initial_points(obs1, obs2, pose1, pose2, intrinsics)
            points[0] = pose2.viewpoint() - pose2.rotation[2]
            return points

        monkeypatch.setattr(sfm, "_initial_points", behind_camera_2)
        sol = bundle_adjust(rs_problem, model)
        history = np.array(sol.cost_history)
        assert len(history) >= 2 and np.all(np.isfinite(history))
        assert np.all(np.diff(history) <= 0)
        assert math.isfinite(sol.reprojection_rms)


class TestExperimentGrid:
    def test_grid_shape_and_determinism(self, tmp_path):
        cfg = SceneConfig(n_points=40)
        rows = run_experiment_grid([3.75], [0.5, 2.0], trials=2, seed=4, config=cfg)
        rows_again = run_experiment_grid([3.75], [0.5, 2.0], trials=2, seed=4,
                                         config=cfg)
        assert rows == rows_again
        assert len(rows) == 4
        for row in rows:
            assert set(row) == set(GRID_CSV_COLUMNS)
        path = tmp_path / "grid.csv"
        grid_to_csv(rows, path, header_lines=["demo"])
        text = path.read_text()
        assert text.splitlines()[1] == ",".join(GRID_CSV_COLUMNS)
        assert len(text.splitlines()) == 2 + 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment_grid([], [0.5], trials=1, seed=0)

    def test_matched_models_tie_at_zero_velocity(self):
        """Perspective BA on perspective data behaves like RS BA on RS data
        when there is no motion."""
        cfg = SceneConfig(n_points=40)
        rows = run_experiment_grid([0.0], [1.0], trials=3, seed=8, config=cfg)
        by_model = {row["model"]: row for row in rows}
        rs, pe = by_model[RS_MODEL], by_model[PERSPECTIVE_MODEL]
        assert abs(rs["mean_rot_deg"] - pe["mean_rot_deg"]) < 1e-6
        assert abs(rs["mean_reproj_px"] - pe["mean_reproj_px"]) < 1e-8


class TestSnapshot:
    def test_round_trip(self, tmp_path, rs_problem):
        path = tmp_path / "problem.json"
        save_problem(rs_problem, path)
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.points, rs_problem.points)
        assert loaded.rng_seed == rs_problem.rng_seed
        assert loaded.noise_sigma == rs_problem.noise_sigma
        for cam_a, cam_b in zip(loaded.cameras, rs_problem.cameras):
            np.testing.assert_array_equal(cam_a.motion.pose0.rotation,
                                          cam_b.motion.pose0.rotation)
            assert cam_a.shutter == cam_b.shutter
            np.testing.assert_array_equal(cam_a.intrinsics.K, cam_b.intrinsics.K)
        for (ia, pa), (ib, pb) in zip(loaded.observations, rs_problem.observations):
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(pa, pb)

    def test_rerun_from_snapshot_matches(self, tmp_path, rs_problem):
        path = tmp_path / "problem.json"
        save_problem(rs_problem, path)
        loaded = load_problem(path)
        original = bundle_adjust(rs_problem, RS_MODEL)
        replayed = bundle_adjust(loaded, RS_MODEL)
        assert original.reprojection_rms == replayed.reprojection_rms
        np.testing.assert_array_equal(original.points, replayed.points)
