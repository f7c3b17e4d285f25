import numpy as np
import pytest

from rscam import cli
from rscam.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestProject:
    def test_static_camera_columns_agree(self, capsys):
        code, out, _ = run_cli(capsys, "project", "--point", "0.5,0.2,5")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["u_perspective"] == row["u_rs"]
        assert row["v_perspective"] == row["v_rs"]
        assert float(row["correction_px"]) == 0.0
        assert row["safe"] == "1"

    def test_normalized_convention_example(self, capsys):
        """1.8 km/h = 0.5 m/s row velocity in the calibrated convention."""
        code, out, _ = run_cli(
            capsys, "project",
            "--set", "camera.normalized=1", "--set", "camera.width=1",
            "--set", "camera.height=1", "--set", "shutter.framerate=10",
            "--set", "shutter.scan_rate=10",
            "--set", "motion.velocity_kmh=0 1.8 0",
            "--point", "0,0.1,1")
        assert code == 0
        row = csv_rows(out)[0]
        assert abs(float(row["v_rs"]) - 0.105263) < 1e-6
        assert abs(float(row["scan_time_s"]) - 0.1 / 9.5) < 1e-9

    def test_batch_csv(self, capsys, tmp_path):
        batch = tmp_path / "points.csv"
        batch.write_text("x,y,z\n0,0,5\n1,0.5,8\n-1,-0.5,12\n")
        out_file = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "project", "--points-csv", str(batch),
                             "--out", str(out_file),
                             "--set", "motion.velocity_kmh=0 7.5 0")
        assert code == 0
        assert len(csv_rows(out_file.read_text())) == 3

    def test_numerical_failure_exit_code(self, capsys):
        # Point rides the scanline: v_y = r * z in normalized units.
        code, _, err = run_cli(
            capsys, "project",
            "--set", "camera.normalized=1", "--set", "camera.width=1",
            "--set", "camera.height=1", "--set", "shutter.framerate=10",
            "--set", "shutter.scan_rate=10",
            "--set", "motion.velocity_kmh=0 36 0",
            "--point", "0,0.5,1")
        assert code == 2
        assert "Singularity" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "project")
        assert code == 1

    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[motion]\nvelocity_kmh = 0 7.5 0\n")
        code, out, _ = run_cli(capsys, "project", "--config", str(cfg),
                               "--point", "0,0.2,5")
        assert code == 0
        assert "motion.velocity_kmh = 0 7.5 0" in out
        row = csv_rows(out)[0]
        assert float(row["correction_px"]) > 0.0


class TestFlow:
    def test_static_zero_flow(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--set", "flow.grid=3")
        assert code == 0
        for row in csv_rows(out):
            assert float(row["du_analytic"]) == 0.0
            assert float(row["dv_analytic"]) == 0.0

    def test_analytic_matches_fd_columns(self, capsys):
        code, out, _ = run_cli(capsys, "flow",
                               "--set", "motion.velocity_kmh=1.8 3.6 0",
                               "--set", "motion.omega_rev_s=0 0 0.05",
                               "--set", "flow.grid=3")
        assert code == 0
        for row in csv_rows(out):
            assert abs(float(row["du_analytic"]) - float(row["du_fd"])) < 1e-8
            assert abs(float(row["dv_analytic"]) - float(row["dv_fd"])) < 1e-8


class TestSlits:
    def test_translation_only_incidence(self, capsys):
        code, out, _ = run_cli(capsys, "slits",
                               "--set", "motion.velocity_kmh=3.6 7.2 0",
                               "--set", "flow.grid=4")
        assert code == 0
        for row in csv_rows(out):
            assert float(row["dist_slit1"]) < 1e-9
            assert float(row["dist_slit2"]) < 1e-9

    def test_rotation_reports_residual(self, capsys):
        code, out, _ = run_cli(capsys, "slits",
                               "--set", "motion.velocity_kmh=3.6 7.2 0",
                               "--set", "motion.omega_rev_s=0 0 0.1",
                               "--set", "flow.grid=4")
        assert code == 0
        max_line = [l for l in out.splitlines() if "max_slit_residual" in l][0]
        assert float(max_line.split("=")[1]) > 1e-6


class TestCalibrateSim:
    def test_reference_table(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                             "--set", "calibration.led_hz=60")
        assert code == 0
        rows = csv_rows((tmp_path / "calibration_report.csv").read_text())
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            bin_width = 1.0 / (240 * 60.0)
            assert float(row["abs_error"]) <= bin_width
        spectra = list(tmp_path.glob("spectrum_*.csv"))
        assert len(spectra) == 3

    def test_spectrum_has_dominant_fundamental(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                             "--set", "calibration.framerates=3.75",
                             "--set", "calibration.led_hz=20")
        assert code == 0
        rows = csv_rows((tmp_path / "spectrum_fps3.75_led20.csv").read_text())
        mags = np.array([float(r["magnitude"]) for r in rows])
        freqs = np.array([float(r["spatial_freq_cycles_per_row"]) for r in rows])
        nu_star = freqs[int(np.argmax(mags))]
        # r = 900 rows/s at 3.75 fps, so the stripe frequency is 20/900.
        assert abs(nu_star - 20.0 / 900.0) <= 1.0 / 240.0

    def test_empty_grid_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                               "--set", "calibration.framerates=")
        assert code == 1


class TestRenderChecker:
    def test_outputs_and_zero_spin_row(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "render-checker", "--out-dir", str(tmp_path),
                             "--set", "camera.width=160",
                             "--set", "camera.height=120",
                             "--set", "render.omega_z_rev_s=0 0.5",
                             "--set", "render.samples_per_edge=9",
                             "--set", "render.squares=6")
        assert code == 0
        assert (tmp_path / "checker_w0.pgm").exists()
        assert (tmp_path / "checker_w0.5.pgm").exists()
        rows = csv_rows((tmp_path / "deflection.csv").read_text())
        by_omega = {row["omega_z_rev_s"]: row for row in rows}
        assert float(by_omega["0"]["max_edge_deflection_px"]) < 1e-9
        assert float(by_omega["0.5"]["max_edge_deflection_px"]) > 1.0


class TestSfmGrid:
    def test_grid_outputs(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                             "--set", "sfm.velocities_kmh=7.5",
                             "--set", "sfm.sigmas_px=0.5",
                             "--set", "sfm.trials=1",
                             "--set", "sfm.n_points=40",
                             "--save-problems")
        assert code == 0
        rows = csv_rows((tmp_path / "results.csv").read_text())
        assert len(rows) == 2
        assert {row["model"] for row in rows} == {"rolling_shutter", "perspective"}
        assert (tmp_path / "plot_rotation.svg").exists()
        assert (tmp_path / "problem_v0_s0_trial0.json").exists()

    def test_rs_rows_near_zero_at_sigma_zero(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                             "--set", "sfm.velocities_kmh=3.75",
                             "--set", "sfm.sigmas_px=0",
                             "--set", "sfm.trials=1",
                             "--set", "sfm.n_points=40")
        assert code == 0
        rows = csv_rows((tmp_path / "results.csv").read_text())
        rs_row = [r for r in rows if r["model"] == "rolling_shutter"][0]
        assert float(rs_row["mean_rot_deg"]) < 1e-4
        assert float(rs_row["mean_reproj_px"]) < 1e-6


class TestDeterminism:
    def test_rerun_byte_identical(self, capsys, tmp_path):
        args = ["--set", "sfm.velocities_kmh=7.5", "--set", "sfm.sigmas_px=1.0",
                "--set", "sfm.trials=1", "--set", "sfm.n_points=30"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "sfm-grid", "--out-dir", str(dir_a), *args)[0] == 0
        assert run_cli(capsys, "sfm-grid", "--out-dir", str(dir_b), *args)[0] == 0
        for name in ("results.csv", "plot_rotation.svg", "config_resolved.txt"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestExitCodes:
    def test_non_integral_count_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                               "--set", "sfm.trials=2.6")
        assert code == 1
        assert "sfm.trials must be an integer" in err

    def test_singular_solve_is_numerical_failure(self, capsys, monkeypatch):
        """LinAlgError subclasses ValueError but is a numerical failure."""
        def singular(config, args):
            np.linalg.solve(np.zeros((2, 2)), np.ones(2))

        monkeypatch.setattr(cli, "cmd_flow", singular)
        code, _, err = run_cli(capsys, "flow")
        assert code == 2
        assert "LinAlgError" in err
