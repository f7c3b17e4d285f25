import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from rscam import calibration, cli, sfm
from rscam.cli import DEFAULTS, main

from conftest import load_problem


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

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_point_behind_at_frame_start_fails(self, capsys, exact):
        """Approaching at 20 m/s, the rolling shutter images a point 5 cm
        behind the camera at frame start, but the pin-hole and drift columns
        need it in front there, so the command exits 2."""
        code, out, err = run_cli(capsys, "project", *exact, "--point", "0,0.1,-0.05",
                                 "--set", "motion.velocity_kmh=0 0 72")
        assert (code, out) == (2, "")
        assert "NegativeDepth: depth -5.000e-02 is not positive" in err

    def test_usage_error_exit_code(self, capsys):
        """A usage error exits 1 (2 is a numerical failure), argparse's too,
        with its message; --help exits 0.  A negative first coordinate is a
        point, not an option."""
        code, _, err = run_cli(capsys, "project")
        assert code == 1
        code, _, err = run_cli(capsys, "project", "--bogus")
        assert code == 1 and "unrecognized arguments: --bogus" in err
        code, _, err = run_cli(capsys, "project", "--point")
        assert code == 1 and "argument --point: expected one argument" in err
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--help"]) == 0
        assert run_cli(capsys, "project", "--point", "-0.5,0.2,5") == run_cli(
            capsys, "project", "--point=-0.5,0.2,5")
        code, out, _ = run_cli(capsys, "project", "--point", "0,0,5", "--point", "-.5,0.2,5")
        assert code == 0 and len(csv_rows(out)) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("via_csv", [True, False])
    @pytest.mark.parametrize("row", ["1,2", "0,nan,5", "0,0,inf", "0,0,-inf", "a,0,5"])
    def test_points_need_three_finite_numbers(self, capsys, tmp_path, via_csv, row):
        """A short, non-finite or non-numeric point is a usage error that names
        its --point spec or its CSV line."""
        if via_csv:
            batch = tmp_path / "points.csv"
            batch.write_text(f"x,y,z\n0,0,5\n{row}\n")
            argv, source = ["--points-csv", str(batch)], f"{batch} line 3"
        else:
            argv, source = ["--point", "0,0,5", "--point", row], f"--point {row!r}"
        code, out, err = run_cli(capsys, "project", *argv)
        assert (code, out) == (1, "")
        assert f"error: {source}: a point needs three finite numbers x,y,z" in err

    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[motion]\nvelocity_kmh = 0 7.5 0\n")
        code, out, _ = run_cli(capsys, "project", "--config", str(cfg),
                               "--point", "0,0.2,5")
        assert code == 0
        assert "motion.velocity_kmh = 0 7.5 0" in out
        row = csv_rows(out)[0]
        assert float(row["correction_px"]) > 0.0


class TestCsvLines:
    def test_matches_per_value_format(self):
        """One %-format per row writes the bytes of a per-value f"{x:.10g}" join,
        on random float64 bit patterns (NaN payloads and subnormals included)
        and on the edge values."""
        bits = np.random.default_rng(19).integers(0, 2**64, 10**5, dtype=np.uint64,
                                                    endpoint=False)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 123456789.05, 1.7976931348623157e308]
        table = np.concatenate([bits.view(np.float64), edges, np.zeros(6)]).reshape(-1, 10)
        want = [",".join(f"{x:.10g}" for x in row) for row in table.tolist()]
        assert cli._csv_lines(table) == want
        assert cli._csv_lines(table[:, :1]) == [f"{x:.10g}" for x in table[:, 0].tolist()]

    def test_no_rows_no_lines(self):
        assert cli._csv_lines(np.empty((0, 8))) == []


class TestWriteTable:
    def test_layout(self, capsys, tmp_path):
        """Config comments, notes, header, rows and footer, the same bytes to a
        file and to stdout; the output directory holds config_resolved.txt."""
        config = cli.RunConfig(overrides=["flow.grid=2"])
        resolved = config.resolved_lines()
        want = "\n".join(["# rscam resolved configuration", *(f"# {c}" for c in resolved),
                          "# note = 1", "a,b", "1,2", "3,4", "# total = 10"]) + "\n"
        cli._write_table(tmp_path / "t.csv", config, "a,b", ["1,2", "3,4"],
                         notes=["note = 1"], footer=["total = 10"])
        cli._write_table(None, config, "a,b", ["1,2", "3,4"], ["note = 1"], ["total = 10"])
        assert (tmp_path / "t.csv").read_text() == capsys.readouterr().out == want
        out = cli._outdir(SimpleNamespace(out_dir=tmp_path / "new" / "dir"), config)
        assert (out / "config_resolved.txt").read_text() == "\n".join(resolved) + "\n"

    def test_empty_out_writes_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "slits", "--out", "", "--set", "flow.grid=1",
                               "--set", "motion.velocity_kmh=3 7.5 0")
        assert code == 0 and out.startswith("# rscam resolved configuration\n")


class TestFlow:
    def test_empty_grid_writes_the_header_alone(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--set", "flow.grid=0")
        assert code == 0
        assert out.endswith("\nu_px,v_px,u_norm,v_norm,du_analytic,dv_analytic,du_fd,dv_fd\n")

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

    REPORT_HEADER = ("framerate_fps,led_hz,calibrated_sec_per_row,uncertainty_sec_per_row,"
                     "ideal_sec_per_row,abs_error,status")

    @pytest.mark.parametrize("overrides, rows", [
        ([], ["3.75,20,0.001041666667,0.0001041666667,0.001111111111,6.944444444e-05,ok",
              "15,20,0.0002083333333,0.0001041666667,0.0002777777778,6.944444444e-05,ok"]),
        (["calibration.n_rows=1"], ["3.75,20,,,0.2666666667,,no_peak",
                                    "15,20,,,0.06666666667,,no_peak"])])
    def test_report_rows(self, capsys, tmp_path, overrides, rows):
        """An ok row is its %.10g values and ok; a no_peak row leaves the
        estimate's fields blank."""
        code, _, _ = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                             "--set", "calibration.framerates=3.75 15",
                             *(a for o in overrides for a in ("--set", o)))
        lines = (tmp_path / "calibration_report.csv").read_text().splitlines()
        assert code == 0 and lines[-3:] == [self.REPORT_HEADER, *rows]

    def test_image_beyond_the_size_bound_is_usage_error(self, capsys, tmp_path):
        """n_frames one frame past the bound fails before the image is made; the
        run leaves config_resolved.txt alone."""
        n_frames = calibration.MAX_IMAGE_SAMPLES // 240 + 1
        code, _, err = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                               "--set", f"calibration.n_frames={n_frames}")
        assert code == 1
        assert f"n_rows * n_frames <= {calibration.MAX_IMAGE_SAMPLES}\n" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config_resolved.txt"]

    def test_empty_grid_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                               "--set", "calibration.framerates=")
        assert code == 1


    @pytest.mark.parametrize("overrides", [["calibration.n_rows=1"],
                                           ["calibration.n_rows=1", "calibration.n_frames=1"]])
    def test_single_row_reports_no_peak(self, capsys, tmp_path, overrides):
        """A one-row image has an empty spectrum: every case is no_peak, with
        exit 0 and no warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                                   *(a for o in overrides for a in ("--set", o)))
        assert (code, err, caught) == (0, "", [])
        rows = csv_rows((tmp_path / "calibration_report.csv").read_text())
        assert [r["status"] for r in rows] == ["no_peak"] * 3

    @pytest.mark.parametrize("led", ["nan", "inf", "-inf", "1e308", "0"])
    def test_led_hz_outside_the_phase_range_is_usage_error(self, capsys, tmp_path, led):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "calibrate-sim", "--out-dir", str(tmp_path),
                                   "--set", f"calibration.led_hz={led}")
        assert code == 1 and "led_hz" in err and not caught
        assert not (tmp_path / "calibration_report.csv").exists()


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

    @pytest.mark.parametrize("overrides, named", [
        (["render.square_size=0"], "square_size"),
        (["render.square_size=inf"], "square_size"),
        (["render.plane_depth=inf"], "plane_depth"),
        (["render.omega_z_rev_s=inf"], "omega_z_rev_s"),
        (["render.samples_per_edge=0"], "samples_per_edge"),
        (["render.plane_depth=1e300", "render.square_size=1e-10"], "board coordinates overflow"),
        (["render.square_size=1e308"], "square_size=1e+308 makes a board of 8 squares infinite"),
        (["render.square_size=1e305"], "square_size=1e+305 puts the board beyond"),
        (["render.square_size=1e306"], "square_size=1e+306 puts the board beyond"),
        (["render.square_size=1e307"], "square_size=1e+307 puts the board beyond"),
    ])
    def test_degenerate_setting_is_usage_error(self, capsys, tmp_path, overrides, named):
        """A setting no frame or lattice can have exits 1 naming it, before any
        warning or image."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "render-checker", "--out-dir", str(tmp_path),
                                   *(a for o in overrides for a in ("--set", o)))
        assert code == 1 and named in err
        assert "Warning" not in err and not caught
        assert not list(tmp_path.glob("*.pgm"))


    def test_huge_frame_window_renders_without_warnings(self, capsys, tmp_path):
        """At 1e-300 frames/s the frame window is ~1e300 s: the exact kernel's
        inside test overflows to a product of the right sign, without a warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "render-checker", "--out-dir", str(tmp_path),
                                   "--set", "render.framerate=1e-300",
                                   "--set", "camera.width=160", "--set", "camera.height=120")
        assert (code, err, caught) == (0, "", [])

    def test_huge_squares_render_without_warnings(self, capsys, tmp_path):
        """At 1e200 m squares the lattice's pixels reach ~1e203: the solver's
        sign products and the chord lengths overflow without a warning, five
        corners are kept (four far off the frame) and no line reads as bent."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "render-checker", "--out-dir", str(tmp_path),
                                   "--set", "render.square_size=1e200")
        assert (code, err, caught) == (0, "", [])
        rows = csv_rows((tmp_path / "deflection.csv").read_text())
        assert [(r["max_edge_deflection_px"], r["n_corners"]) for r in rows] == [("0", "5")] * 4
        assert len(list(tmp_path.glob("checker_w*.pgm"))) == 4


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

    def test_saved_problems_are_the_grid_cells(self, capsys, tmp_path):
        """Each --save-problems snapshot, reloaded and adjusted alone under
        each model, reproduces its cell's row (one trial, so the mean is it)."""
        velocities = (3.75, 7.5)
        code, _, _ = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                             "--set", "sfm.velocities_kmh=" + " ".join(map(str, velocities)),
                             "--set", "sfm.sigmas_px=0.5",
                             "--set", "sfm.trials=1",
                             "--set", "sfm.n_points=40",
                             "--save-problems")
        assert code == 0
        rows = csv_rows((tmp_path / "results.csv").read_text())
        assert len(rows) == 2 * len(sfm.MODELS)
        for vi, velocity in enumerate(velocities):
            problem = load_problem(tmp_path / f"problem_v{vi}_s0_trial0.json")
            for model in sfm.MODELS:
                sol = sfm.bundle_adjust(problem, model)
                row, = (r for r in rows
                        if float(r["velocity_kmh"]) == velocity and r["model"] == model)
                assert float(row["mean_rot_deg"]) == pytest.approx(
                    sol.rotation_error_deg, rel=1e-9, abs=0)
                assert float(row["mean_reproj_px"]) == pytest.approx(
                    sol.reprojection_rms, rel=1e-9, abs=0)


class TestDeterminism:
    def test_rerun_byte_identical(self, capsys, tmp_path):
        args = ["--set", "sfm.velocities_kmh=7.5", "--set", "sfm.sigmas_px=1.0",
                "--set", "sfm.trials=1", "--set", "sfm.n_points=30"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "sfm-grid", "--out-dir", str(dir_a), *args)[0] == 0
        assert run_cli(capsys, "sfm-grid", "--out-dir", str(dir_b), *args)[0] == 0
        for name in ("results.csv", "plot_rotation.svg", "config_resolved.txt"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_in_process_calls_match_fresh_processes(self, tmp_path):
        """main reuses one parser: a call with --set, then one without, write
        what each writes in a fresh process, so no --set carries over."""
        assert cli.build_parser() is cli.build_parser()
        calls = [["project", "--point", "0.2,0.4,6", "--set", "motion.velocity_kmh=0 7.5 0"],
                 ["project", "--point", "0.2,0.4,6"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = []
        for i, argv in enumerate(calls):
            fresh = tmp_path / f"fresh{i}.csv"
            subprocess.run([sys.executable, "-m", "rscam.cli", *argv, "--out", str(fresh)],
                           env=env, check=True)
            outputs.append(fresh.read_bytes())
        for i, argv in enumerate(calls):
            assert main([*argv, "--out", str(tmp_path / f"in_process{i}.csv")]) == 0
        assert [(tmp_path / f"in_process{i}.csv").read_bytes() for i in range(2)] == outputs
        assert outputs[0] != outputs[1]


class TestExitCodes:
    def test_non_integral_count_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                               "--set", "sfm.trials=2.6")
        assert code == 1
        assert "sfm.trials must be an integer" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fewer_than_one_trial_is_config_error(self, capsys, tmp_path, trials):
        code, _, err = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                               "--set", f"sfm.trials={trials}")
        assert code == 1
        assert f"trials must be at least 1, got {trials}" in err

    @pytest.mark.parametrize("override", ["sfm.trails=5", "shutter.frame_delay=0.01"])
    def test_unknown_override_key_is_config_error(self, capsys, override):
        """A misspelt or removed key is a usage error that names the key."""
        code, out, err = run_cli(capsys, "project", "--set", override, "--point", "0,0.2,5")
        assert (code, out) == (1, "")
        assert f"unknown config key {override.split('=')[0]}" in err

    def test_unknown_config_file_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[motion]\nvelocity_kmh = 0 7.5 0\n[Render]\nSquare = 4\n")
        code, out, err = run_cli(capsys, "project", "--config", str(cfg), "--point", "0,0.2,5")
        assert (code, out) == (1, "")
        assert "error: unknown config key render.square" in err

    def test_non_numeric_scan_rate_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "project", "--set", "shutter.scan_rate=abc",
                                 "--point", "0,0.2,5")
        assert (code, out) == (1, "")
        assert err == "error: shutter.scan_rate must be a number\n"

    def test_nan_framerate_is_config_error(self, capsys):
        """With an explicit scan rate a NaN frame rate reaches ShutterParams,
        whose positivity check must reject it."""
        code, out, err = run_cli(capsys, "project", "--set", "shutter.framerate=nan",
                                 "--set", "shutter.scan_rate=14400", "--point", "0,0.2,5")
        assert (code, out) == (1, "")
        assert err == "error: framerate must be positive\n"

    def test_missing_points_csv_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, out, err = run_cli(capsys, "project", "--points-csv", str(missing))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(missing) in err

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing_dir" / "x.csv"
        code, out, err = run_cli(capsys, "project", "--point", "1,2,10", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(out_path) in err

    def test_out_dir_that_is_a_file_is_usage_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run_cli(capsys, "render-checker", "--out-dir", str(taken))
        assert code == 1
        assert err.startswith("error: ") and str(taken) in err
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command, overrides", [
        ("flow", ["shutter.scan_rate=1e308"]), ("slits", ["shutter.first_row=1e308"]),
        ("project", ["shutter.framerate=5e-324"]), ("sfm-grid", ["sfm.velocities_kmh=1e308"])])
    def test_floating_point_fault_is_numerical_failure(self, capsys, tmp_path, command,
                                                       overrides):
        """A setting whose arithmetic overflows or goes invalid stops there with
        exit 2 and no warning; in sfm-grid that is before LM meets a NaN."""
        extra = {"project": ["--point", "0,0,5"], "sfm-grid": ["--out-dir", str(tmp_path)]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, command, *extra.get(command, []),
                                   "--set", "motion.velocity_kmh=1 5 0", "--set", "sfm.trials=1",
                                   "--set", "sfm.sigmas_px=1",
                                   *(a for o in overrides for a in ("--set", o)))
        assert (code, caught) == (2, [])
        assert err.startswith("numerical failure: FloatingPointError: ")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_is_config_error(self, capsys, tmp_path, value):
        code, _, err = run_cli(capsys, "sfm-grid", "--out-dir", str(tmp_path),
                               "--set", "sfm.trials=1", "--set", f"sfm.sigmas_px={value}")
        assert code == 1 and "SceneConfig.noise_sigma must be finite" in err

    def test_singular_solve_is_numerical_failure(self, capsys, monkeypatch):
        """LinAlgError subclasses ValueError but is a numerical failure."""
        def singular(config, args):
            np.linalg.solve(np.zeros((2, 2)), np.ones(2))

        monkeypatch.setattr(cli, "cmd_flow", singular)
        code, _, err = run_cli(capsys, "flow")
        assert code == 2
        assert "LinAlgError" in err


    @pytest.mark.parametrize("command, overrides", [
        ("project", ["camera.width=0"]), ("project", ["camera.fov_deg=0"]),
        ("project", ["camera.fov_deg=nan"]), ("project", ["camera.fov_deg=180"]),
        ("flow", ["camera.height=0"]),
        ("slits", ["camera.width=0", "motion.velocity_kmh=0 5 0"])])
    def test_camera_without_a_focal_length_is_config_error(self, capsys, command, overrides):
        """A size or field of view that gives no finite focal length exits 1
        naming from_fov, not with a traceback or a numerical failure."""
        extra = ["--point", "0,0,5"] if command == "project" else []
        code, _, err = run_cli(capsys, command, *extra,
                               *(a for o in overrides for a in ("--set", o)))
        assert code == 1 and "from_fov" in err


class TestBatchedErrorOrder:
    """A command raises the error of its first failing input, and within one
    flow pixel the analytic flow's error before its finite difference's."""

    # A 5x5 grid at u = 0..4, v = 0..1 of a normalized camera, r = 10 rows/s and
    # z = 1 m.  The analytic denominator is 10 b and the finite difference's
    # linear scan-time coefficient is b = 10 - v_y - w_z u (to within 1e-16 off
    # the row v = 0), so a column with |b| < 1e-11 fails both and one with
    # |b| = 9e-10 fails only the finite difference (|b| <= 1e-9).
    GRID = ["--set", "camera.normalized=1", "--set", "camera.width=4",
            "--set", "camera.height=1", "--set", "shutter.framerate=10",
            "--set", "shutter.scan_rate=10", "--set", "flow.margin=0",
            "--set", "flow.depth=1"]
    SPIN = 9e-10

    def flow(self, capsys, v_y, w_z, *extra):
        return run_cli(capsys, "flow", *self.GRID, *extra,
                       "--set", f"motion.velocity_kmh=0 {3.6 * v_y!r} 0",
                       "--set", f"motion.omega_rev_s=0 0 {w_z / (2 * np.pi)!r}")

    def test_flow_singularity_before_a_later_frame_failure(self, capsys):
        # Pixel (0, 0) is singular; pixel (0, 1) fails only its frames.
        code, _, err = self.flow(capsys, 10.0, -self.SPIN)
        assert code == 2
        assert "Singularity: flow denominator vanishes" in err

    def test_flow_frame_failure_before_a_later_singularity(self, capsys):
        # Pixel (0, 3) fails only its frames; pixel (0, 4) fails both, last.
        code, _, err = self.flow(capsys, 10.0 - 4 * self.SPIN, self.SPIN)
        assert code == 2
        assert "Singularity: A projection denominator vanished" in err

    def test_flow_pixel_failing_both_names_its_analytic_error(self, capsys):
        # Column 1 alone fails, both its analytic flow and its frames.
        code, _, err = self.flow(capsys, 10.0 - 2 * self.SPIN, 2 * self.SPIN)
        assert code == 2
        assert "Singularity: flow denominator vanishes" in err

    def test_first_pixel_singularity_before_the_step_check(self, capsys):
        # The finite difference checks its step after pixel (0, 0)'s analytic
        # flow has failed, so the singularity is reported, not fd_step.
        code, _, err = self.flow(capsys, 10.0, -self.SPIN, "--set", "flow.fd_step=0")
        assert code == 2
        assert "Singularity: flow denominator vanishes" in err
        code, _, err = self.flow(capsys, 1.0, -self.SPIN, "--set", "flow.fd_step=0")
        assert code == 1
        assert "step h must be positive" in err

    def test_project_names_the_first_failing_point(self, capsys, tmp_path):
        # Point 2 is behind the camera and point 3 outside the frame.
        batch = tmp_path / "points.csv"
        batch.write_text("x,y,z\n0,0,5\n0,0,-1\n0,50,1\n")
        code, _, err = run_cli(capsys, "project", "--points-csv", str(batch))
        assert code == 2
        assert "NegativeDepth" in err


FUZZ_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300,
                     -1e300, 1e-300, 5e-324]),
    st.floats(-100.0, 100.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(command=st.sampled_from(["flow", "slits", "project"]),
       velocity=st.tuples(FUZZ_VALUES, FUZZ_VALUES, FUZZ_VALUES),
       omega=st.tuples(FUZZ_VALUES, FUZZ_VALUES, FUZZ_VALUES), fronto=st.booleans())
def test_fuzzed_motion_exits_cleanly(command, velocity, omega, fronto):
    """Any motion exits 0, 1 or 2 and never escapes as an exception; half the
    motions are fronto-parallel, which flow and slits need to get past their
    argument checks."""
    if fronto:
        velocity, omega = velocity[:2] + (0.0,), (0.0, 0.0, omega[2])
    argv = [command, "--set", "flow.grid=3",
            "--set", "motion.velocity_kmh=" + " ".join(map(repr, velocity)),
            "--set", "motion.omega_rev_s=" + " ".join(map(repr, omega))]
    if command == "project":
        argv += ["--point", "0.5,0.2,5", "--point=-1,0.3,2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-310", "1e308", "-1e308",
                     "abc", "", "1 2", "0x10", "1", "2"]),
    st.floats(-500.0, 500.0).map(repr), st.integers(-3, 300).map(str))
# Each command with the config keys it reads that are fuzzed through it.  A
# count key allocates in proportion to its value before any check can refuse
# it, so it draws small values only.
FUZZED_KEYS = {
    "calibrate-sim": [f"calibration.{k}" for k in DEFAULTS["calibration"]],
    "project": [f"{s}.{k}" for s in ("camera", "shutter") for k in DEFAULTS[s]],
    "slits": [f"{s}.{k}" for s in ("camera", "shutter") for k in DEFAULTS[s]] + ["flow.grid"],
    "flow": [f"{s}.{k}" for s in ("camera", "shutter", "flow") for k in DEFAULTS[s]],
    "render-checker": [f"render.{k}" for k in DEFAULTS["render"]],
    "sfm-grid": [f"sfm.{k}" for k in DEFAULTS["sfm"]],
}
COUNT_KEYS = {"squares", "samples_per_edge", "grid", "n_points", "trials", "n_frames"}
COUNT_VALUES = st.one_of(st.sampled_from(["nan", "inf", "-0", "abc", "", "1 2", "2.5"]),
                         st.integers(-2, 4).map(str))
BASE_SETTINGS = {
    "render-checker": ["camera.width=160", "camera.height=120"],
    "sfm-grid": ["sfm.velocities_kmh=5", "sfm.sigmas_px=1", "sfm.trials=1"],
}


def fuzzed_settings(command):
    setting = st.sampled_from(FUZZED_KEYS[command]).flatmap(lambda key: st.tuples(
        st.just(key), COUNT_VALUES if key.split(".")[1] in COUNT_KEYS else CONFIG_VALUES))
    return st.tuples(st.just(command), st.lists(setting, min_size=1, max_size=3,
                                                unique_by=lambda kv: kv[0]))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=st.sampled_from(list(FUZZED_KEYS)).flatmap(fuzzed_settings))
def test_fuzzed_config_exits_cleanly(case):
    """Any setting of the calibration, camera, shutter, flow, render or sfm
    keys exits 0, 1 or 2 with no traceback and no RuntimeWarning; the motion
    makes flow and slits run and project take the general closed form, and
    render-checker runs at 160x120 and sfm-grid on one cell of one trial."""
    command, values = case
    argv = [command, "--set", "flow.grid=3", "--set", "motion.velocity_kmh=1 5 0",
            "--set", "motion.omega_rev_s=0 0 0.1",
            *(a for s in BASE_SETTINGS.get(command, []) for a in ("--set", s)),
            *(a for key, value in values for a in ("--set", f"{key}={value}"))]
    if command == "project":
        argv += ["--point", "0.5,0.2,5", "--point=-1,0.3,2"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + (["--out-dir", workdir] if command in (
            "calibrate-sim", "render-checker", "sfm-grid") else []))
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
