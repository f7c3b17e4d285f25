import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NormalEquations, bisect_scan_time, camera_matrix_at, grouped_jacobian,
                      levenberg_marquardt, load_problem, one_problem_residuals,
                      perspective_pixels)
from rscam import sfm
from rscam.errors import ConfigError
from rscam.geometry import MotionState, Pose, rotation_exp, rotation_log
from rscam.sfm import (GRID_CSV_COLUMNS, MODELS, PERSPECTIVE_MODEL, RS_MODEL,
                       SceneConfig, SfmProblem, bundle_adjust, generate_problem,
                       grid_to_csv, run_experiment_grid, save_problem)
from rscam.sfm import _initial_points, _NormalEquations, _pose_errors, _residuals


@pytest.fixture(scope="module")
def rs_problem():
    return generate_problem(SceneConfig(velocity_kmh=7.5, noise_sigma=0.0), seed=11)


def _start(problem, model=RS_MODEL):
    """A one-problem batch and the x (camera parameters, then points) that
    bundle_adjust would start LM from, but with camera 2 at the truth."""
    batch, cam, points = sfm._initial_batch([problem], [model])
    pose2 = problem.poses[1]
    cam[0] = np.concatenate([rotation_log(pose2.rotation),
                             pose2.translation / np.linalg.norm(pose2.translation)])
    return batch, np.concatenate([cam[0], points.ravel()])


def _point_cols(batch):
    return np.tile(sfm._N_CAM + 3 * np.repeat(np.arange(len(batch.owner)), 2), 2)


def _dense(batch, cam_jac, point_jac):
    """The full (residuals x parameters) Jacobian assembled from its blocks."""
    n_res, n_cam = 2 * len(cam_jac), sfm._N_CAM
    jac = np.zeros((n_res, n_cam + 3 * len(batch.owner)))
    jac[:, :n_cam] = cam_jac.reshape(n_res, n_cam)
    rows, cols = np.arange(n_res), _point_cols(batch)
    for c in range(3):
        jac[rows, cols + c] = point_jac.reshape(n_res, 3)[:, c]
    return jac


def _with_velocities(problem, first, second):
    """The problem with views that translate at other, per-view velocities."""
    return replace(problem, velocities=np.array([first, second], dtype=float))


def _assert_matches_oracle(problem, model):
    """Analytic Jacobian equals central differences column by column, to 1e-6
    of each column's largest entry."""
    batch, x = _start(problem, model)

    def fun(x_):
        return one_problem_residuals(batch, x_)[0]

    r, cam_jac, point_jac = one_problem_residuals(batch, x)
    assert np.all(np.abs(r) < 1e4), "every observation must be imaged"
    analytic = _dense(batch, cam_jac, point_jac)
    oracle = grouped_jacobian(fun, x, sfm._N_CAM, _point_cols(batch), len(r))
    for col in range(len(x)):
        scale = float(np.max(np.abs(oracle[:, col])))
        np.testing.assert_allclose(analytic[:, col], oracle[:, col], rtol=0,
                                   atol=1e-6 * scale, err_msg=f"column {col}")


class TestGenerateProblem:
    def test_deterministic(self):
        cfg = SceneConfig(velocity_kmh=3.75, noise_sigma=1.0)
        a = generate_problem(cfg, seed=42)
        b = generate_problem(cfg, seed=42)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.pixels, b.pixels)
        c = generate_problem(cfg, seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_static_zero_noise_observations_are_perspective(self):
        problem = generate_problem(SceneConfig(velocity_kmh=0.0, noise_sigma=0.0),
                                   seed=7)
        for view, pose in enumerate(problem.poses):
            expected, ok = perspective_pixels(problem.points, pose, problem.intrinsics)
            assert np.all(ok)
            np.testing.assert_allclose(problem.pixels[:, view], expected, atol=1e-10)

    def test_rs_observations_differ_noticeably_from_perspective(self):
        """At 7.5 km/h and 10 m the shutter shifts observations by pixels."""
        problem = generate_problem(SceneConfig(velocity_kmh=7.5, noise_sigma=0.0),
                                   seed=3)
        gaps = []
        for view, pose in enumerate(problem.poses):
            expected, _ = perspective_pixels(problem.points, pose, problem.intrinsics)
            gaps.append(np.linalg.norm(problem.pixels[:, view] - expected, axis=1).max())
        assert max(gaps) > 1.0

    def test_underconstrained_scene_rejected(self):
        cfg = SceneConfig(n_points=10, cloud_side=60.0, cloud_distance=4.0,
                          noise_sigma=0.0)
        with pytest.raises(ConfigError):
            generate_problem(cfg, seed=1)

    @pytest.mark.parametrize("name", ["cloud_side", "attitude_noise_deg", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_rejected(self, name, value):
        """A non-finite scene setting raises, naming it, before a generator
        draw fails on it or an LM run meets its NaN pixels."""
        with pytest.raises(ValueError, match=f"SceneConfig.{name} must be finite"):
            replace(SceneConfig(), **{name: value})

    def test_camera2_looks_at_cloud(self, rs_problem):
        pose2 = rs_problem.poses[1]
        center = np.array([0.0, 0.0, 10.0])
        in_cam = pose2.rotation @ center + pose2.translation
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
        truth = rs_problem.poses[1].translation
        assert abs(np.linalg.norm(sol.poses[1].translation)
                   - np.linalg.norm(truth)) < 1e-12

    def test_unknown_model_rejected(self, rs_problem):
        with pytest.raises(ValueError):
            bundle_adjust(rs_problem, "affine")

    def test_zero_baseline_is_config_error(self):
        """Camera 2 at camera 1 leaves the translation direction undefined."""
        problem = generate_problem(SceneConfig(velocity_kmh=7.5), 3)
        first, second = problem.poses
        with pytest.raises(ConfigError, match="zero baseline"):
            bundle_adjust(replace(problem, poses=(first, Pose(second.rotation, np.zeros(3)))))


class TestErrorMetrics:
    def test_truth_scores_zero(self, rs_problem):
        sol = bundle_adjust(rs_problem, RS_MODEL)
        rot, trans = _pose_errors(rs_problem.poses[1], sol.poses[1])
        assert (sol.rotation_error_deg, sol.translation_direction_error_deg) == (rot, trans)
        assert rot < 1e-4 and trans < 1e-4 and sol.reprojection_rms < 1e-6

    def test_constructed_rotation_offset(self, rs_problem):
        truth_pose = rs_problem.poses[1]
        offset = rotation_exp([0.0, 0.0, math.radians(1.0)])
        rot, trans = _pose_errors(truth_pose, Pose(truth_pose.rotation @ offset,
                                                   truth_pose.translation))
        assert abs(rot - 1.0) < 1e-9
        assert trans < 1e-9

    def test_antipodal_translation(self, rs_problem):
        truth_pose = rs_problem.poses[1]
        _, trans = _pose_errors(truth_pose, Pose(truth_pose.rotation, -truth_pose.translation))
        assert abs(trans - 180.0) < 1e-9


class TestJacobian:
    def test_grouped_matches_dense_columns(self, rs_problem):
        """Spot-check grouped central differences against per-column ones."""
        batch, x = _start(rs_problem)

        def fun(x_):
            return one_problem_residuals(batch, x_)[0]

        jac = grouped_jacobian(fun, x, sfm._N_CAM, _point_cols(batch), len(fun(x)))
        for col in [0, 3, 5, sfm._N_CAM + 1, sfm._N_CAM + 30, len(x) - 1]:
            h = 1e-6 * max(1.0, abs(x[col]))
            xp, xm = x.copy(), x.copy()
            xp[col] += h
            xm[col] -= h
            dense = (fun(xp) - fun(xm)) / (2 * h)
            np.testing.assert_allclose(jac[:, col], dense, atol=1e-5)

    def test_step_halving_second_order(self, rs_problem):
        """Central differences converge as h^2: D(h)/D(h/2) near 5 against
        the h/4 reference."""
        batch, x = _start(rs_problem)

        def fun(x_):
            return one_problem_residuals(batch, x_)[0]

        n_res, point_cols, n_cam = len(fun(x)), _point_cols(batch), sfm._N_CAM
        j1 = grouped_jacobian(fun, x, n_cam, point_cols, n_res, step=4e-3)
        j2 = grouped_jacobian(fun, x, n_cam, point_cols, n_res, step=2e-3)
        j4 = grouped_jacobian(fun, x, n_cam, point_cols, n_res, step=1e-3)
        d1 = np.linalg.norm(j1 - j4)
        d2 = np.linalg.norm(j2 - j4)
        assert 3.5 < d1 / d2 < 7.0, d1 / d2

    @pytest.mark.parametrize("model", MODELS)
    def test_analytic_matches_oracle(self, rs_problem, model):
        _assert_matches_oracle(rs_problem, model)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(first=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 3.0)),
           second=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, -0.5)))
    def test_analytic_matches_oracle_general_motion(self, rs_problem, first, second):
        """v_z != 0 makes the scan-time constraint quadratic, and unequal
        per-view velocities make it a different one in each view."""
        problem = _with_velocities(rs_problem, first, second)
        _assert_matches_oracle(problem, RS_MODEL)

    def test_reduced_camera_step_equals_dense_solve(self, rs_problem, rng):
        problem = _with_velocities(rs_problem, [0.2, 2.0, 0.4], [-0.3, 1.5, -0.5])
        batch, x = _start(problem)
        n_cam = sfm._N_CAM
        state = _residuals(batch, x[None, :n_cam], x[n_cam:].reshape(-1, 3))
        assert state.shape[3] == 6 + 4
        system = _NormalEquations(batch, state)
        jac = _dense(batch, *one_problem_residuals(batch, x)[1:])
        r_flat = one_problem_residuals(batch, x)[0]
        jtj, g = jac.T @ jac, jac.T @ r_flat
        diag = np.maximum(np.diag(jtj), 1e-12)
        gradient = np.concatenate([system.gradient[0][0], system.gradient[1].ravel()])
        np.testing.assert_allclose(gradient, g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
        np.testing.assert_allclose(np.concatenate([system.diag[0][0], system.diag[1].ravel()]),
                                   diag, rtol=1e-12)
        for lam in (1e-3 * diag.max(), 1e-6 * diag.max()):
            dense = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            d_cam, d_point, predicted = system.step(np.array([lam]))
            step = np.concatenate([d_cam[0], d_point.ravel()])
            assert np.linalg.norm(step - dense) <= 1e-9 * np.linalg.norm(dense)
            expected = 0.5 * dense @ (lam * diag * dense - g)
            assert abs(predicted[0] - expected) <= 1e-9 * abs(expected)
            # The damped 3x3 point blocks, solved in closed form.
            v = system.point[:, :, n_cam + 1:] + lam * system.diag[1][:, :, None] * np.eye(3)
            rhs = system.point[:, :, :n_cam + 1]
            inverse = sfm._inverse_spd3(system.point[:, :, n_cam + 1:], lam * system.diag[1])
            np.testing.assert_allclose(inverse @ rhs, np.linalg.solve(v, rhs),
                                       rtol=1e-10, atol=1e-12 * np.abs(rhs).max())
        # Ill-conditioned blocks, condition numbers up to 1e10: the closed form
        # agrees with LU to a few units of cond * eps; a singular one is NaN.
        q = np.linalg.qr(rng.normal(size=(4, 3, 3)))[0]
        eigenvalues = np.array([[1.0, 1.0, 1.0], [1.0, 1e-3, 1e-6], [1e4, 1.0, 1e-6],
                                [2.0, 1e-5, 2e-10]])
        v = q @ (eigenvalues[:, :, None] * q.transpose(0, 2, 1))
        v = 0.5 * (v + v.transpose(0, 2, 1))
        rhs = rng.normal(size=(4, 3, n_cam + 1))
        closed, lu = sfm._inverse_spd3(v, np.zeros((4, 3))) @ rhs, np.linalg.solve(v, rhs)
        for i, cond in enumerate(eigenvalues.max(axis=1) / eigenvalues.min(axis=1)):
            error = np.linalg.norm(closed[i] - lu[i]) / np.linalg.norm(lu[i])
            assert error <= 100 * cond * np.finfo(float).eps, (cond, error)
        assert np.all(np.isnan(sfm._inverse_spd3(np.zeros((1, 3, 3)), np.zeros((1, 3)))))

    @pytest.mark.parametrize("model", MODELS)
    def test_point_behind_camera_has_constant_residual_and_zero_rows(
            self, rs_problem, model):
        batch, x = _start(rs_problem, model=model)
        pose2 = rs_problem.poses[1]
        # One meter behind camera 2, on its optical axis.
        x[sfm._N_CAM:sfm._N_CAM + 3] = pose2.viewpoint() - pose2.rotation[2]
        r, cam_jac, point_jac = one_problem_residuals(batch, x)
        assert np.all(np.isfinite(r))
        row = len(rs_problem.points)        # point 0 in view 2
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


class TestResiduals:
    @pytest.mark.parametrize("model", MODELS)
    def test_match_per_point_camera_matrix_projection(self, rs_problem, model, rng):
        """The residuals at a perturbed state under unequal per-view velocities
        with v_z != 0 equal, point by point, the projection by the moving
        camera's matrix at the bisected scan time (t = 0 for the pin-hole
        model), minus the observation.  A point behind camera 2 gets the
        constant 1e4 in that view."""
        problem = _with_velocities(rs_problem, [0.4, 2.0, -0.6], [-0.2, 1.2, 0.5])
        batch, cam, points = sfm._initial_batch([problem], [model])
        points += rng.normal(scale=0.02, size=points.shape)
        pose2 = Pose(rotation_exp(cam[0, :3]), cam[0, 3:6] / np.linalg.norm(cam[0, 3:6])
                     * np.linalg.norm(problem.poses[1].translation))
        points[0] = pose2.viewpoint() - pose2.rotation[2]       # 1 m behind camera 2
        residual = _residuals(batch, cam, points)[..., sfm._N_CAM]
        np.testing.assert_array_equal(residual[0, 1], 1e4)
        # Rows well inside the frame, so that each scan time is in the window.
        rows = [i for i in range(1, len(points))
                if np.all((40 < problem.pixels[i, :, 1]) & (problem.pixels[i, :, 1] < 440))][:8]
        for view, pose in enumerate((problem.poses[0], pose2)):
            motion = MotionState(pose, problem.velocities[view])
            for i in rows:
                t = (bisect_scan_time(points[i], motion, problem.intrinsics, problem.shutter,
                                      n_scan=400) if model == RS_MODEL else 0.0)
                q = camera_matrix_at(motion, problem.intrinsics, t, linearized=True) @ np.append(
                    points[i], 1.0)
                expected = q[:2] / q[2] - problem.pixels[i, view]
                np.testing.assert_allclose(residual[i, view], expected, rtol=0, atol=1e-7)


REDUCED_GRID = ([1.875, 3.75, 7.5], [0.5, 2.16, 4.66], 2, 0)


def _grid_problems(velocities, sigmas, trials, seed):
    """The problems of run_experiment_grid, each once per model, in its order."""
    return [(generate_problem(SceneConfig(velocity_kmh=v, noise_sigma=s), (seed, vi, si, t)), m)
            for vi, v in enumerate(velocities) for si, s in enumerate(sigmas)
            for t in range(trials) for m in MODELS]


def _oracle(problem, model):
    """The per-problem LM of tests/conftest.py from bundle_adjust's start."""
    batch, cam, points = sfm._initial_batch([problem], [model])
    x0 = np.concatenate([cam[0], points.ravel()])
    index = np.tile(np.arange(len(points)), 2)
    return batch, levenberg_marquardt(lambda x: one_problem_residuals(batch, x), x0,
                                      sfm._N_CAM, index)


class TestBatchedLM:
    def test_matches_per_problem_oracle_on_reduced_grid(self):
        """All 36 BAs of the reduced grid as one batch: each keeps the oracle's
        iteration count, termination and flag, and its solution to 1e-9."""
        pairs = _grid_problems(*REDUCED_GRID)
        solutions = sfm._bundle_adjust_batch([p for p, _ in pairs], [m for _, m in pairs])
        for (problem, model), sol in zip(pairs, solutions):
            batch, (x, residual, iterations, termination, history) = _oracle(problem, model)
            assert (sol.iterations, sol.termination) == (iterations, termination)
            assert sol.converged == (termination != "limit")
            assert len(sol.cost_history) == len(history)
            np.testing.assert_allclose(sol.cost_history, history, rtol=1e-9)
            points = x[sfm._N_CAM:].reshape(-1, 3)
            np.testing.assert_allclose(sol.points, points, rtol=0,
                                       atol=1e-9 * np.abs(points).max())
            np.testing.assert_allclose(sol.poses[1].rotation, rotation_exp(x[:3]),
                                       rtol=0, atol=1e-9)
            rms = math.sqrt(float(residual @ residual) / (len(residual) // 2))
            assert abs(sol.reprojection_rms - rms) <= 1e-9 * rms

    def test_singular_reduced_system_rejects_that_problem_only(self, monkeypatch):
        """While all three problems run, problem 1's reduced camera system is
        reported singular: its steps are rejected until lambda overflows, and
        the other two take exactly the iterates of their runs alone."""
        pairs = _grid_problems([3.75], [2.16], 2, 5)[:3]
        alone = [bundle_adjust(p, m) for p, m in pairs]
        solve, position = np.linalg.solve, []

        def solve_with_singular_problem_1(a, b):
            # The stacked solve, then the three one-problem solves that follow.
            # Problem 1 is the pin-hole one, third in the batch, which puts the
            # rolling-shutter problems first.
            if a.ndim == 3 and len(a) == 3:
                position.append(0)
                raise np.linalg.LinAlgError("Singular matrix")
            if a.ndim == 3 and len(a) == 1 and position and position[-1] < 3:
                position[-1] += 1
                if position[-1] == 3:
                    raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_with_singular_problem_1)
        batched = sfm._bundle_adjust_batch([p for p, _ in pairs], [m for _, m in pairs])
        monkeypatch.undo()
        assert len(position) > 1
        poisoned = batched[1]
        assert (poisoned.termination, poisoned.iterations) == ("lambda", 1)
        assert poisoned.cost_history == alone[1].cost_history[:1]
        batch, cam, start = sfm._initial_batch([pairs[1][0]], [pairs[1][1]])
        np.testing.assert_array_equal(poisoned.points, start)
        # It was rejected in every round until lambda, doubling its factor
        # each time from 1e-3 max diag(J^T J), passed 1e16.
        r, cam_jac, point_jac = one_problem_residuals(batch, np.concatenate([cam[0], start.ravel()]))
        index = np.tile(np.arange(len(start)), 2)
        lam, nu, rounds = 1e-3 * NormalEquations(cam_jac, point_jac, index, r, len(start)).diag.max(), 2.0, 0
        while lam <= 1e16:
            lam, nu, rounds = lam * nu, 2.0 * nu, rounds + 1
        assert len(position) == rounds
        for i in (0, 2):
            assert batched[i].cost_history == alone[i].cost_history
            assert (batched[i].iterations, batched[i].termination) == (
                alone[i].iterations, alone[i].termination)
            np.testing.assert_array_equal(batched[i].points, alone[i].points)
            np.testing.assert_array_equal(batched[i].poses[1].rotation,
                                          alone[i].poses[1].rotation)

    def test_terminations(self, rs_problem, monkeypatch):
        """Zero noise under the matched model ends on the gradient, the
        pin-hole model on the cost, and a small budget on the limit."""
        assert bundle_adjust(rs_problem, RS_MODEL).termination == "gradient"
        assert bundle_adjust(rs_problem, PERSPECTIVE_MODEL).termination == "cost"
        for budget in (0, 3):
            monkeypatch.setattr(sfm, "MAX_ITERATIONS", budget)
            sol = bundle_adjust(rs_problem, RS_MODEL)
            assert (sol.iterations, sol.termination, sol.converged) == (budget, "limit", False)
            assert len(sol.cost_history) == budget + 1

    @pytest.mark.parametrize("pixel", [math.nan, math.inf])
    def test_non_finite_pixel_ends_on_lambda(self, rs_problem, pixel):
        """A non-finite pixel makes lambda NaN in the first round, and the run
        ends there on the lambda criterion."""
        pixels = rs_problem.pixels.copy()
        pixels[0, 0, 0] = pixel
        with np.errstate(all="ignore"):
            sol = bundle_adjust(replace(rs_problem, pixels=pixels), RS_MODEL)
        assert (sol.iterations, sol.termination) == (1, "lambda")

    def test_batch_takes_rolling_shutter_problems_first(self, rs_problem):
        """The scan-time kernel runs on a prefix of the rows, so a batch with a
        rolling-shutter problem after a pin-hole one is refused."""
        with pytest.raises(ValueError, match="must come first"):
            sfm._initial_batch([rs_problem, rs_problem], [PERSPECTIVE_MODEL, RS_MODEL])
        sfm._initial_batch([rs_problem] * 3, [RS_MODEL, RS_MODEL, PERSPECTIVE_MODEL])

    def test_batch_of_mixed_sizes_matches_single_runs(self, monkeypatch):
        """Ragged point counts and both models in one batch."""
        monkeypatch.setattr(sfm, "MAX_ITERATIONS", 15)
        pairs = [(generate_problem(SceneConfig(n_points=n, velocity_kmh=7.5, noise_sigma=0.5),
                                   (3, n)), m) for n, m in ((20, RS_MODEL), (60, PERSPECTIVE_MODEL),
                                                            (35, RS_MODEL))]
        batched = sfm._bundle_adjust_batch([p for p, _ in pairs], [m for _, m in pairs])
        for (problem, model), sol in zip(pairs, batched):
            single = bundle_adjust(problem, model)
            assert sol.cost_history == single.cost_history
            assert (sol.iterations, sol.termination) == (single.iterations, single.termination)
            np.testing.assert_array_equal(sol.points, single.points)
            for pose, pose1 in zip(sol.poses, single.poses):
                np.testing.assert_array_equal(pose.rotation, pose1.rotation)
                np.testing.assert_array_equal(pose.translation, pose1.translation)

    def test_batched_round_equals_batches_of_one(self):
        """On a reduced-grid cell and one of its problems with unequal per-view
        velocities (v_z != 0), the residuals and Jacobians, the normal equations
        and the step of a batch equal those of each problem run as a batch of
        one bit for bit, at the start and at the trial point."""
        cell = _grid_problems(REDUCED_GRID[0][2:], REDUCED_GRID[1][1:2], 2, 0)
        moving = _with_velocities(cell[0][0], [0.2, 2.0, 0.4], [-0.3, 1.5, -0.5])
        pairs = sorted(cell + [(moving, m) for m in MODELS], key=lambda pair: pair[1] != RS_MODEL)
        batch, cam, points = sfm._initial_batch([p for p, _ in pairs], [m for _, m in pairs])
        ones = [sfm._initial_batch([p], [m]) for p, m in pairs]
        for _ in range(2):
            state = _residuals(batch, cam, points)
            system = _NormalEquations(batch, state)
            lam = 1e-3 * system.problem_max(system.diag)
            d_cam, d_point, predicted = system.step(lam)
            alone = []
            for i, (one, cam1, points1) in enumerate(ones):
                state1 = _residuals(one, cam1, points1)
                alone.append((state1, *_NormalEquations(one, state1).step(lam[i:i + 1])))
            for got, parts in zip((state, d_cam, d_point, predicted), zip(*alone)):
                assert np.array_equal(got, np.concatenate(parts))
            cam, points = cam + d_cam, points + d_point
            ones = [(one, cam[i:i + 1], points[batch.owner == i])
                    for i, (one, _, _) in enumerate(ones)]

    def test_grid_triangulates_each_problem_once(self, monkeypatch):
        """run_experiment_grid lists each trial's problem once per model; its
        start is computed once."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _initial_points(*args)

        monkeypatch.setattr(sfm, "_initial_points", counted)
        run_experiment_grid([3.75], [1.0], trials=3, seed=4, config=SceneConfig(n_points=40))
        assert len(calls) == 3


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
        assert json.loads(path.read_text()).keys() == {f.name for f in fields(SfmProblem)}
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.points, rs_problem.points)
        assert loaded.rng_seed == rs_problem.rng_seed
        assert loaded.noise_sigma == rs_problem.noise_sigma
        for pose_a, pose_b in zip(loaded.poses, rs_problem.poses):
            np.testing.assert_array_equal(pose_a.rotation, pose_b.rotation)
            np.testing.assert_array_equal(pose_a.translation, pose_b.translation)
        assert loaded.shutter == rs_problem.shutter
        np.testing.assert_array_equal(loaded.intrinsics.K, rs_problem.intrinsics.K)
        np.testing.assert_array_equal(loaded.velocities, rs_problem.velocities)
        np.testing.assert_array_equal(loaded.pixels, rs_problem.pixels)

    def test_resave_is_byte_identical(self, tmp_path, rs_problem):
        """Loading a snapshot and saving it again writes the same bytes, so the
        loader reads every field of the problem back exactly."""
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_problem(rs_problem, first)
        save_problem(load_problem(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_rerun_from_snapshot_matches(self, tmp_path, rs_problem):
        path = tmp_path / "problem.json"
        save_problem(rs_problem, path)
        loaded = load_problem(path)
        original = bundle_adjust(rs_problem, RS_MODEL)
        replayed = bundle_adjust(loaded, RS_MODEL)
        assert original.cost_history == replayed.cost_history
        assert original.reprojection_rms == replayed.reprojection_rms
        np.testing.assert_array_equal(original.points, replayed.points)
