"""Acceptance suite: one test per release criterion.

Each test prints a single [ACCEPTANCE] line (run pytest -s to stream them)
and enforces the criterion's tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from rscam.cli import main as cli_main
from rscam.errors import NoScanTime, Singularity
from rscam.geometry import CameraIntrinsics, MotionState, Pose, project_perspective
from rscam.shutter import (ShutterParams, drift_per_row, invert_fronto_parallel,
                           limit_line, project_rolling_shutter)
from rscam.xslit import backproject, compute_slits, line_line_distance
from rscam.flow import flow_finite_difference, flow_rolling_shutter
from rscam.calibration import (estimate_scan_rate, ideal_seconds_per_row,
                               synthesize_led_image)
from rscam.sfm import (PERSPECTIVE_MODEL, RS_MODEL, SceneConfig, bundle_adjust,
                       generate_problem, run_experiment_grid)

from conftest import rs_projection


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {number}: {status} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def random_fronto_setup(rng, omega_z=0.0):
    """Camera, shutter, motion, and a world point imaged inside the frame."""
    fov = rng.uniform(30.0, 60.0)
    intrinsics = CameraIntrinsics.from_fov(fov, 640, 480)
    framerate = rng.uniform(10.0, 30.0)
    shutter = ShutterParams(scan_rate=480.0 * framerate,
                            first_row=rng.uniform(-20.0, 20.0),
                            framerate=framerate)
    motion = MotionState(Pose.identity(),
                         [rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0],
                         [0.0, 0.0, omega_z])
    pixel = rng.uniform([40.0, 40.0], [600.0, 440.0])
    depth = rng.uniform(2.0, 20.0)
    point = invert_fronto_parallel(pixel, depth, motion, intrinsics, shutter)
    return intrinsics, shutter, motion, point


def test_criterion_1_pinhole_degeneration(rng):
    """Stationary cameras: rolling-shutter equals pin-hole projection."""
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        intrinsics = CameraIntrinsics.from_fov(rng.uniform(30, 70), 640, 480)
        shutter = ShutterParams.ideal(rng.uniform(5, 30), 480)
        motion = MotionState()
        point = [rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(2, 30)]
        try:
            rs = project_rolling_shutter(point, motion, intrinsics, shutter)
        except NoScanTime:
            continue
        matrix = intrinsics.K @ np.column_stack([np.eye(3), np.zeros(3)])
        persp = project_perspective(point, matrix)
        worst = max(worst, float(np.abs(rs.pixel - persp).max()))
    elapsed = time.time() - start
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max |RS - perspective| = {worst:.2e} px over 1000 static scenes "
           f"(tol 1e-12), {elapsed:.2f}s (limit 1 s)")


def test_criterion_2_closed_form_exactness(rng):
    """Translation-only closed form vs bisection on the scan constraint."""
    start = time.time()
    worst = 0.0
    count = 0
    while count < 1000:
        intrinsics, shutter, motion, point = random_fronto_setup(rng, omega_z=0.0)
        try:
            closed = project_rolling_shutter(point, motion, intrinsics, shutter)
            exact = rs_projection(point, motion, intrinsics, shutter, exact=True)
        except (NoScanTime, Singularity):
            continue
        count += 1
        worst = max(worst, float(np.linalg.norm(closed.pixel - exact.pixel)))
    elapsed = time.time() - start
    report(2, worst <= 1e-9 and elapsed < 5.0,
           f"max |closed form - bisection| = {worst:.2e} px over 1000 "
           f"fronto-parallel configurations (tol 1e-9), {elapsed:.2f}s (limit 5 s)")


def test_criterion_3_linearization_order(rng):
    """Closed-form-vs-exact gap shrinks ~4x per scan-rate doubling."""
    start = time.time()
    per_doubling = [[], [], []]
    configs = 0
    while configs < 40:
        fov = rng.uniform(30.0, 60.0)
        intrinsics = CameraIntrinsics.from_fov(fov, 640, 480)
        motion = MotionState(Pose.identity(),
                             [rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0],
                             [0.0, 0.0, rng.uniform(0.5, 2.0) * rng.choice([-1, 1])])
        base_rate = 480.0 * rng.uniform(8.0, 15.0)
        pixel = rng.uniform([80.0, 80.0], [560.0, 400.0])
        depth = rng.uniform(2.0, 10.0)
        gaps = []
        for factor in (1, 2, 4, 8):
            shutter = ShutterParams(scan_rate=base_rate * factor,
                                    framerate=base_rate * factor / 480.0)
            point = invert_fronto_parallel(pixel, depth, motion, intrinsics,
                                           shutter)
            try:
                closed = project_rolling_shutter(point, motion, intrinsics, shutter)
                exact = rs_projection(point, motion, intrinsics, shutter, exact=True)
            except (NoScanTime, Singularity):
                gaps = None
                break
            gaps.append(float(np.linalg.norm(closed.pixel - exact.pixel)))
        if gaps is None or min(gaps) < 1e-12:
            continue
        configs += 1
        for i in range(3):
            per_doubling[i].append(gaps[i] / gaps[i + 1])
    medians = [float(np.median(r)) for r in per_doubling]
    elapsed = time.time() - start
    ok = all(3.0 <= m <= 5.0 for m in medians) and elapsed < 5.0
    report(3, ok,
           f"median gap ratios per scan-rate doubling = "
           f"{medians[0]:.2f}, {medians[1]:.2f}, {medians[2]:.2f} "
           f"(required within [3, 5]), {elapsed:.2f}s (limit 5 s)")


def test_criterion_4_xslit_incidence(rng):
    """Backprojected rays meet both slits iff the motion is translation-only."""
    start = time.time()
    shutter = ShutterParams(scan_rate=10.0, first_row=0.05, framerate=10.0)
    worst_translation = 0.0
    for _ in range(5):
        motion = MotionState(Pose.identity(),
                             [rng.uniform(-2, 2), rng.uniform(0.3, 2.5), 0.0],
                             np.zeros(3))
        slits = compute_slits(motion, shutter)
        for v in np.linspace(0.05, 0.95, 10):
            for u in np.linspace(0.05, 0.95, 10):
                ray = backproject([u, v], motion, shutter)
                worst_translation = max(worst_translation,
                                        line_line_distance(ray, slits.slit1),
                                        line_line_distance(ray, slits.slit2))
    rotating = MotionState(Pose.identity(), [0.4, 1.2, 0.0], [0.0, 0.0, 0.8])
    slits = compute_slits(MotionState(Pose.identity(), [0.4, 1.2, 0.0],
                                      np.zeros(3)), shutter)
    worst_rotation = 0.0
    for v in np.linspace(0.05, 0.95, 10):
        for u in np.linspace(0.05, 0.95, 10):
            ray = backproject([u, v], rotating, shutter)
            worst_rotation = max(worst_rotation,
                                 line_line_distance(ray, slits.slit1),
                                 line_line_distance(ray, slits.slit2))
    elapsed = time.time() - start
    ok = worst_translation <= 1e-9 and worst_rotation > 1e-6 and elapsed < 1.0
    report(4, ok,
           f"translation-only max slit miss = {worst_translation:.2e} m "
           f"(tol 1e-9); with spin max miss = {worst_rotation:.2e} m "
           f"(must exceed 1e-6), {elapsed:.2f}s (limit 1 s)")


def test_criterion_5_flow_correctness(rng):
    """Analytic flow (with the sign conformance correction) against central
    finite differences of the projection."""
    start = time.time()
    shutter = ShutterParams(scan_rate=10.0, framerate=10.0)
    worst_rel = 0.0
    ratios = []
    for index in range(100):
        omega_z = 0.0 if index % 2 == 0 else rng.uniform(-1.5, 1.5)
        motion = MotionState(Pose.identity(),
                             [rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0],
                             [0.0, 0.0, omega_z])
        u, v = rng.uniform(0.1, 0.9, size=2)
        z = rng.uniform(0.5, 4.0)
        analytic = flow_rolling_shutter(u, v, z, motion, shutter)
        scale = 1.0 + float(np.hypot(analytic.du, analytic.dv))
        for h in (2e-3, 1e-3):
            fd = flow_finite_difference(u, v, z, motion, shutter, h=h)
            err = float(np.hypot(fd.du - analytic.du, fd.dv - analytic.dv))
            worst_rel = max(worst_rel, err / scale)
        if omega_z != 0.0 and len(ratios) < 25:
            # The same difference scheme on the non-linearized projection has
            # a genuine h^2 error term; verify the quadratic decay.
            intrinsics = CameraIntrinsics.normalized()
            point = invert_fronto_parallel((u, v), z, motion, intrinsics, shutter)

            def fd_exact(h):
                a = rs_projection(point, motion, intrinsics, shutter, exact=True,
                                  frame_start=h).pixel
                b = rs_projection(point, motion, intrinsics, shutter, exact=True,
                                  frame_start=-h).pixel
                return (a - b) / (2.0 * h)

            f1, f2, f4 = fd_exact(8e-3), fd_exact(4e-3), fd_exact(2e-3)
            d1 = np.linalg.norm(f1 - f4)
            d2 = np.linalg.norm(f2 - f4)
            if d1 > 1e-11:
                ratios.append(d1 / d2)
    median_ratio = float(np.median(ratios))
    elapsed = time.time() - start
    ok = worst_rel <= 1e-9 and 3.5 <= median_ratio <= 7.0 and elapsed < 2.0
    report(5, ok,
           f"analytic-vs-FD relative error = {worst_rel:.2e} at 100 points "
           f"(machine agreement, within any O(h^2) bound); exact-model FD "
           f"Richardson ratio = {median_ratio:.2f} (h^2 decay, expected ~5), "
           f"{elapsed:.2f}s (limit 2 s)")


def test_criterion_6_calibration_round_trip():
    """Estimated seconds/row reproduces the reference row periods."""
    start = time.time()
    n_rows = 240
    references = {3.75: 0.00110, 7.5: 0.00056, 15.0: 0.00028}
    details = []
    ok = True
    for fps, reference in references.items():
        shutter = ShutterParams.ideal(fps, n_rows)
        ideal = ideal_seconds_per_row(fps, n_rows)
        for led_hz in (20.0, 60.0):
            image = synthesize_led_image(shutter, n_rows, 64, led_hz=led_hz)
            est = estimate_scan_rate(image, led_hz)
            bin_width = 1.0 / (n_rows * led_hz)
            err_ideal = abs(est.scan_seconds_per_row - ideal)
            err_reference = abs(est.scan_seconds_per_row - reference)
            ok &= err_ideal <= bin_width and err_reference < 0.00050
        details.append(f"{fps:g}fps: {est.scan_seconds_per_row:.5f} s/row "
                       f"(ideal {ideal:.5f})")
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(6, ok,
           "; ".join(details) + f"; all within one FFT bin and the "
           f"+/-0.00050 band, {elapsed:.2f}s (limit 10 s)")


def test_criterion_7_simulation_reproduction():
    """Two-view benchmark grid reproduces the qualitative model comparison."""
    start = time.time()
    velocities = [1.875, 3.75, 5.625, 7.5]
    sigmas = [0.5, 1.33, 2.16, 3.0, 3.83, 4.66]
    rows = run_experiment_grid(velocities, sigmas, trials=20, seed=0)
    assert len(rows) == 48

    def cell(v, s, model):
        return next(r for r in rows if r["velocity_kmh"] == v
                    and r["sigma_px"] == s and r["model"] == model)

    def gap_over_se(v, s, key, se_key):
        rs = cell(v, s, RS_MODEL)
        pe = cell(v, s, PERSPECTIVE_MODEL)
        pooled = float(np.hypot(rs[se_key], pe[se_key])) or 1e-300
        return (pe[key] - rs[key]) / pooled

    rot_hi = gap_over_se(7.5, 0.5, "mean_rot_deg", "se_rot")
    trans_hi = gap_over_se(7.5, 0.5, "mean_trans_deg", "se_trans")
    rot_lo = gap_over_se(1.875, 4.66, "mean_rot_deg", "se_rot")
    trans_lo = gap_over_se(1.875, 4.66, "mean_trans_deg", "se_trans")

    recovery = 0.0
    for velocity in (1.875, 7.5):
        for trial in range(2):
            problem = generate_problem(SceneConfig(velocity_kmh=velocity,
                                                   noise_sigma=0.0),
                                       (99, trial))
            sol = bundle_adjust(problem, RS_MODEL)
            recovery = max(recovery, sol.rotation_error_deg)

    elapsed = time.time() - start
    ok = (rot_hi > 1.0 and trans_hi > 1.0
          and abs(rot_lo) < 1.0 and abs(trans_lo) < 1.0
          and recovery < 1e-4 and elapsed < 600.0)
    report(7, ok,
           f"(a) at 7.5 km/h, sigma 0.5: RS beats perspective by "
           f"{rot_hi:.2f} (rot) and {trans_hi:.2f} (trans) pooled SEs (>1 "
           f"required); (b) at 1.875 km/h, sigma 4.66: gaps {rot_lo:+.2f} / "
           f"{trans_lo:+.2f} SEs (<1 required); (c) sigma=0 matched-model "
           f"rotation error {recovery:.2e} deg (<1e-4); {elapsed:.0f}s "
           f"(limit 600 s)")


def test_criterion_8_safe_region():
    """Per-row image drift brackets the limit-line depth."""
    start = time.time()
    intrinsics = CameraIntrinsics.from_fov(40.0, 640, 480)
    shutter = ShutterParams.ideal(15.0, 480)
    k_inv = np.linalg.inv(intrinsics.K)

    def max_drift(motion, z):
        worst = 0.0
        for v_px in np.linspace(0.0, 480.0, 11):
            for u_px in np.linspace(0.0, 640.0, 11):
                ray = k_inv @ [u_px, v_px, 1.0]
                point = z * ray / ray[2]
                worst = max(worst, drift_per_row(point, motion, intrinsics,
                                                 shutter))
        return worst

    ok = True
    details = []
    for v_y in (0.5, 1.5, 3.0):
        motion = MotionState(Pose.identity(), [0.0, v_y, 0.0], np.zeros(3))
        z_min = limit_line(shutter, intrinsics, v_y)
        safe = [max_drift(motion, z) for z in (1.0001 * z_min, 2 * z_min,
                                               10 * z_min)]
        unsafe = max_drift(motion, 0.5 * z_min)
        ok &= max(safe) <= 1.1 and unsafe > 1.0
        details.append(f"v_y={v_y}: safe max {max(safe):.3f} px, "
                       f"below-line {unsafe:.3f} px")
    elapsed = time.time() - start
    ok &= elapsed < 2.0
    report(8, ok, "; ".join(details) + f" (safe <= 1.1 px, below-line > 1 px), "
           f"{elapsed:.2f}s (limit 2 s)")


@pytest.mark.parametrize("command", ["project", "flow", "slits",
                                     "calibrate-sim", "render-checker", "sfm-grid"])
def test_criterion_9_determinism(command, tmp_path, capsys):
    """Identical config and seed give byte-identical outputs."""
    def run(out_dir):
        out_dir.mkdir()
        if command == "project":
            argv = ["project", "--point", "0.2,0.4,6", "--point=-1,0.5,9",
                    "--set", "motion.velocity_kmh=0 7.5 0",
                    "--out", str(out_dir / "out.csv")]
        elif command == "flow":
            argv = ["flow", "--set", "motion.velocity_kmh=1.8 3.6 0",
                    "--set", "motion.omega_rev_s=0 0 0.05",
                    "--set", "flow.grid=3", "--out", str(out_dir / "out.csv")]
        elif command == "slits":
            argv = ["slits", "--set", "motion.velocity_kmh=3.6 7.2 0",
                    "--set", "flow.grid=3", "--out", str(out_dir / "out.csv")]
        elif command == "calibrate-sim":
            argv = ["calibrate-sim", "--out-dir", str(out_dir),
                    "--set", "calibration.framerates=7.5 15",
                    "--set", "calibration.led_hz=60"]
        elif command == "render-checker":
            argv = ["render-checker", "--out-dir", str(out_dir),
                    "--set", "render.omega_z_rev_s=0 0.5", "--set", "render.squares=6",
                    "--set", "render.samples_per_edge=9"]
        else:
            argv = ["sfm-grid", "--out-dir", str(out_dir), "--save-problems",
                    "--set", "sfm.velocities_kmh=7.5",
                    "--set", "sfm.sigmas_px=1.0", "--set", "sfm.trials=1",
                    "--set", "sfm.n_points=30"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first)
    report(9, identical,
           f"rscam {command}: {len(first)} output file(s) byte-identical "
           f"across reruns")
