"""Command-line interface: projection queries, distortion renders, calibration
simulation, optical flow tables, slit diagnostics, and the SfM benchmark grid.

Configuration comes from an INI file plus repeatable ``--set section.key=value``
overrides (overrides win).  Every run writes or prints its fully resolved
configuration so outputs are reproducible; given the same config and seed,
commands produce byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration, plotsvg, render, sfm
from .errors import (ConfigError, DegenerateSlits, NegativeDepth, NoPeak,
                     NoScanTime, Singularity)
from .geometry import CameraIntrinsics, MotionState, Pose, project_perspective, row_dot
from .shutter import (ShutterParams, drift_per_row, limit_line, normalized_scan,
                      solve_scan_times, validate_frame_timing)
from .xslit import backproject, compute_slits, line_line_distance
from .flow import flow_finite_difference, flow_rolling_shutter

DEFAULTS = {
    "camera": {
        "width": "640",
        "height": "480",
        "fov_deg": "40",
        "normalized": "0",     # 1 = identity K (calibrated image coordinates)
    },
    "shutter": {
        "framerate": "30",
        "scan_rate": "auto",       # rows/s; auto = height * framerate
        "first_row": "0",
    },
    "motion": {
        "velocity_kmh": "0 0 0",   # camera-frame, km/h
        "omega_rev_s": "0 0 0",    # rev/s about camera axes
    },
    "render": {
        "plane_depth": "0.5",
        "square_size": "0.06",
        "squares": "8",
        "framerate": "30",
        "omega_z_rev_s": "0.25 0.5 0.75 1.0",
        "samples_per_edge": "17",
    },
    "calibration": {
        "framerates": "3.75 7.5 15",
        "led_hz": "20",
        "n_rows": "240",
        "n_frames": "64",
        "duty": "0.5",
        "exposure_gradient": "0",
    },
    "sfm": {
        "velocities_kmh": "1.875 3.75 5.625 7.5",
        "sigmas_px": "0.5 1.33 2.16 3 3.83 4.66",
        "trials": "20",
        "seed": "0",
        "n_points": "100",
        "cloud_distance": "10",
        "cloud_side": "4",
        "view_cone_deg": "40",
        "attitude_noise_deg": "2",
        "framerate": "15",
    },
    "flow": {
        "depth": "2.0",
        "grid": "5",
        "fd_step": "1e-4",
        "margin": "0.15",
    },
}


class RunConfig:
    """Resolved configuration: defaults, then file values, then overrides."""

    def __init__(self, path: str | None = None, overrides: list[str] | None = None):
        self.values: dict[tuple[str, str], str] = {
            (section, key): value
            for section, entries in DEFAULTS.items()
            for key, value in entries.items()
        }
        if path is not None:
            parser = configparser.ConfigParser()
            read = parser.read(path)
            if not read:
                raise ConfigError(f"config file not found: {path}")
            for section in parser.sections():
                for key, value in parser.items(section):
                    self.values[(section.lower(), key.lower())] = value
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
            self.values[(section.strip().lower(), key.strip().lower())] = value.strip()
        if unknown := [f"{s}.{k}" for s, k in self.values if k not in DEFAULTS.get(s, ())]:
            raise ConfigError(f"unknown config key {unknown[0]}")

    def get(self, section: str, key: str) -> str:
        return self.values[(section, key)]

    def get_float(self, section: str, key: str) -> float:
        try:
            return float(self.get(section, key))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a number") from None

    def get_int(self, section: str, key: str) -> int:
        value = self.get_float(section, key)
        if not value.is_integer():
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        return int(value)

    def get_floats(self, section: str, key: str) -> list[float]:
        text = self.get(section, key).replace(",", " ")
        out = []
        for token in text.split():
            try:
                out.append(float(token))
            except ValueError:
                raise ConfigError(f"{section}.{key} has a non-numeric entry {token!r}") from None
        return out

    def resolved_lines(self) -> list[str]:
        return [f"{section}.{key} = {value}"
                for (section, key), value in sorted(self.values.items())]

    def intrinsics(self) -> CameraIntrinsics:
        if self.get_int("camera", "normalized"):
            return CameraIntrinsics.normalized(self.get_int("camera", "width"),
                                               self.get_int("camera", "height"))
        return CameraIntrinsics.from_fov(self.get_float("camera", "fov_deg"),
                                         self.get_int("camera", "width"),
                                         self.get_int("camera", "height"))

    def shutter(self, framerate: float | None = None) -> ShutterParams:
        rate_text = self.get("shutter", "scan_rate")
        f = framerate if framerate is not None else self.get_float("shutter", "framerate")
        if rate_text.strip().lower() == "auto":
            rate = self.get_int("camera", "height") * f
        else:
            rate = float(rate_text)
        shutter = ShutterParams(
            scan_rate=rate,
            first_row=self.get_float("shutter", "first_row"),
            framerate=f,
        )
        validate_frame_timing(shutter, self.get_int("camera", "height"))
        return shutter

    def motion(self) -> MotionState:
        v = np.array(self.get_floats("motion", "velocity_kmh")) / 3.6
        w = np.array(self.get_floats("motion", "omega_rev_s")) * 2.0 * math.pi
        if v.shape != (3,) or w.shape != (3,):
            raise ConfigError("motion.velocity_kmh and motion.omega_rev_s need 3 components")
        return MotionState(Pose.identity(), v, w)


def _config_comments(config: RunConfig) -> list[str]:
    return ["rscam resolved configuration"] + config.resolved_lines()


def _write_text(path: Path | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _outdir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _point(tokens: list[str], *source) -> list[float]:
    """The three finite coordinates x, y, z of a point given as text tokens;
    the parts of source, joined by spaces, name them in an error."""
    try:
        point = [float(t) for t in tokens]
    except ValueError:
        point = []
    if len(point) != 3 or not all(map(math.isfinite, point)):
        raise ConfigError(" ".join(map(str, source)) + ": a point needs three finite numbers x,y,z")
    return point


def cmd_project(config: RunConfig, args) -> int:
    intrinsics = config.intrinsics()
    shutter = config.shutter()
    motion = config.motion()
    points = [_point(spec_text.replace(",", " ").split(), f"--point {spec_text!r}")
              for spec_text in args.point or []]
    if args.points_csv:
        for number, line in enumerate(Path(args.points_csv).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("x"):
                continue
            points.append(_point(line.split(",")[:3], args.points_csv, "line", number))
    if not points:
        raise ConfigError("no input points; pass --point or --points-csv")

    z_min = limit_line(shutter, intrinsics, abs(motion.linear_velocity[1]))
    lines = [f"# {c}" for c in _config_comments(config)]
    lines.append(f"# limit_line_z_min_m = {z_min:.10g}")
    lines.append("x,y,z,u_perspective,v_perspective,u_rs,v_rs,scan_time_s,"
                 "correction_px,drift_px_per_row,safe")
    rs = solve_scan_times(points, motion, intrinsics, shutter,
                          exact=args.exact).projection(slice(None), intrinsics)
    persp = project_perspective(points, intrinsics.K @ np.column_stack(
        [motion.pose0.rotation, motion.pose0.translation]))
    rows = np.column_stack([points, persp, rs.pixel, rs.scan_time,
                            np.sqrt(row_dot(rs.correction, rs.correction)),
                            drift_per_row(points, motion, intrinsics, shutter)]).tolist()
    lines.extend(",".join(f"{x:.10g}" for x in row) + f",{int(row[-1] <= 1.0)}" for row in rows)
    _write_text(Path(args.out) if args.out else None, lines)
    return 0


def cmd_render_checker(config: RunConfig, args) -> int:
    out = _outdir(args)
    intrinsics = config.intrinsics()
    f = config.get_float("render", "framerate")
    n_rows = intrinsics.height
    shutter = ShutterParams.ideal(f, n_rows)
    depth = config.get_float("render", "plane_depth")
    square = config.get_float("render", "square_size")
    squares = config.get_int("render", "squares")
    samples = config.get_int("render", "samples_per_edge")

    (out / "config_resolved.txt").write_text(
        "\n".join(config.resolved_lines()) + "\n")
    metric_lines = [f"# {c}" for c in _config_comments(config)]
    metric_lines.append("omega_z_rev_s,max_edge_deflection_px,n_corners")
    for omega in config.get_floats("render", "omega_z_rev_s"):
        image = render.render_checkerboard(intrinsics, shutter, omega, depth, square)
        corners, _, deflection = render.project_board_lattice(
            intrinsics, shutter, omega, depth, square, squares, samples)
        if len(corners):
            image = render.overlay_markers(image, corners)
        name = f"checker_w{omega:g}.pgm"
        calibration.write_pgm(out / name, image,
                              comment=f"omega_z={omega:g} rev/s; see config_resolved.txt")
        metric_lines.append(f"{omega:.10g},{deflection:.10g},{len(corners)}")
    (out / "deflection.csv").write_text("\n".join(metric_lines) + "\n")
    return 0


def cmd_calibrate_sim(config: RunConfig, args) -> int:
    out = _outdir(args)
    framerates = config.get_floats("calibration", "framerates")
    led_list = config.get_floats("calibration", "led_hz")
    if not framerates or not led_list:
        raise ConfigError("calibration.framerates and calibration.led_hz must be nonempty")
    n_rows = config.get_int("calibration", "n_rows")
    n_frames = config.get_int("calibration", "n_frames")
    duty = config.get_float("calibration", "duty")
    gradient = config.get_int("calibration", "exposure_gradient") != 0

    (out / "config_resolved.txt").write_text(
        "\n".join(config.resolved_lines()) + "\n")
    comments = [f"# {c}" for c in _config_comments(config)]
    lines = [*comments, "framerate_fps,led_hz,calibrated_sec_per_row,uncertainty_sec_per_row,"
             "ideal_sec_per_row,abs_error,status"]
    for f in framerates:
        shutter = ShutterParams.ideal(f, n_rows)
        ideal = calibration.ideal_seconds_per_row(f, n_rows)
        for led in led_list:
            image = calibration.synthesize_led_image(shutter, n_rows, n_frames,
                                                     led, duty, gradient)
            calibration.write_pgm(out / f"led_fps{f:g}_led{led:g}.pgm", image.values,
                                  comment=f"I(y,t) fps={f:g} led={led:g}Hz")
            spectrum = calibration.marginalized_spectrum(image)
            spec_lines = [*comments, "spatial_freq_cycles_per_row,magnitude"]
            spec_lines.extend(f"{nu:.10g},{m:.10g}" for nu, m in zip(*spectrum))
            (out / f"spectrum_fps{f:g}_led{led:g}.csv").write_text(
                "\n".join(spec_lines) + "\n")
            try:
                est = calibration.estimate_scan_rate(image, led, spectrum)
            except NoPeak:
                lines.append(f"{f:.10g},{led:.10g},,,{ideal:.10g},,no_peak")
                continue
            lines.append(",".join([
                f"{f:.10g}", f"{led:.10g}",
                f"{est.scan_seconds_per_row:.10g}", f"{est.uncertainty:.10g}",
                f"{ideal:.10g}",
                f"{abs(est.scan_seconds_per_row - ideal):.10g}", "ok",
            ]))
    (out / "calibration_report.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_sfm_grid(config: RunConfig, args) -> int:
    out = _outdir(args)
    velocities = config.get_floats("sfm", "velocities_kmh")
    sigmas = config.get_floats("sfm", "sigmas_px")
    trials = config.get_int("sfm", "trials")
    seed = config.get_int("sfm", "seed")
    scene = sfm.SceneConfig(
        n_points=config.get_int("sfm", "n_points"),
        cloud_distance=config.get_float("sfm", "cloud_distance"),
        cloud_side=config.get_float("sfm", "cloud_side"),
        fov_deg=config.get_float("camera", "fov_deg"),
        width=config.get_int("camera", "width"),
        height=config.get_int("camera", "height"),
        framerate=config.get_float("sfm", "framerate"),
        view_cone_deg=config.get_float("sfm", "view_cone_deg"),
        attitude_noise_deg=config.get_float("sfm", "attitude_noise_deg"),
    )
    rows = sfm.run_experiment_grid(velocities, sigmas, trials, seed, scene)
    (out / "config_resolved.txt").write_text(
        "\n".join(config.resolved_lines()) + "\n")
    sfm.grid_to_csv(rows, out / "results.csv", _config_comments(config))

    if args.save_problems:
        for vi, velocity in enumerate(velocities):
            for si, sigma in enumerate(sigmas):
                cfg = replace(scene, velocity_kmh=velocity, noise_sigma=sigma)
                problem = sfm.generate_problem(cfg, (seed, vi, si, 0))
                sfm.save_problem(problem, out / f"problem_v{vi}_s{si}_trial0.json")

    metric_map = [
        ("mean_reproj_px", "Reprojection error (px)", "plot_reprojection.svg"),
        ("mean_rot_deg", "Rotation error (deg)", "plot_rotation.svg"),
        ("mean_trans_deg", "Translation direction error (deg)", "plot_translation.svg"),
    ]
    for mean_key, label, filename in metric_map:
        panels = []
        for velocity in velocities:
            panel = plotsvg.Panel(title=f"{velocity:g} km/h",
                                  x_label="noise sigma (px)", y_label=label)
            for style, model in enumerate(sfm.MODELS):
                cells = [r for r in rows
                         if r["velocity_kmh"] == velocity and r["model"] == model]
                cells.sort(key=lambda r: r["sigma_px"])
                panel.series.append(plotsvg.Series(
                    label=model, x=[c["sigma_px"] for c in cells],
                    y=[c[mean_key] for c in cells], style=style))
            panels.append(panel)
        plotsvg.write_figure(out / filename, panels, title=label,
                             comment_lines=_config_comments(config))
    return 0


def cmd_flow(config: RunConfig, args) -> int:
    intrinsics = config.intrinsics()
    shutter = config.shutter()
    motion = config.motion()
    if shutter.first_row != 0.0:
        raise ConfigError("analytic flow requires shutter.first_row = 0")
    r_norm, _ = normalized_scan(shutter, intrinsics)
    shutter_norm = ShutterParams(scan_rate=r_norm, framerate=shutter.framerate)
    depth = config.get_float("flow", "depth")
    n = config.get_int("flow", "grid")
    margin = config.get_float("flow", "margin")
    h = config.get_float("flow", "fd_step")

    lines = [f"# {c}" for c in _config_comments(config)]
    lines.append("u_px,v_px,u_norm,v_norm,du_analytic,dv_analytic,du_fd,dv_fd")
    u_px, v_px = (a.ravel() for a in np.meshgrid(  # row by row
        np.linspace(margin * intrinsics.width, (1 - margin) * intrinsics.width, n),
        np.linspace(margin * intrinsics.height, (1 - margin) * intrinsics.height, n)))
    ray = (np.linalg.inv(intrinsics.K) @ np.column_stack(
        [u_px, v_px, np.ones_like(u_px)])[..., None])[..., 0]
    u, v = ray[:, 0] / ray[:, 2], ray[:, 1] / ray[:, 2]
    # The first pixel's first error, as a per-pixel loop raises it (analytic first).
    analytic = flow_rolling_shutter(u, v, depth, motion, shutter_norm)
    if 0 in analytic.failures:
        raise analytic.failures[0]
    fd = flow_finite_difference(u, v, depth, motion, shutter_norm, h=h)
    if failures := {**fd.failures, **analytic.failures}:
        raise failures[min(failures)]
    lines.extend(",".join(f"{x:.10g}" for x in row) for row in np.column_stack(
        [u_px, v_px, u, v, analytic.du, analytic.dv, fd.du, fd.dv]).tolist())
    _write_text(Path(args.out) if args.out else None, lines)
    return 0


def cmd_slits(config: RunConfig, args) -> int:
    intrinsics = config.intrinsics()
    shutter = config.shutter()
    motion = config.motion()
    r_norm, v0_norm = normalized_scan(shutter, intrinsics)
    shutter_norm = ShutterParams(scan_rate=r_norm, first_row=v0_norm,
                                 framerate=shutter.framerate)
    translation_only = MotionState(motion.pose0, motion.linear_velocity, np.zeros(3))
    slits = compute_slits(translation_only, shutter_norm)

    lines = [f"# {c}" for c in _config_comments(config)]
    for name, slit in (("slit1", slits.slit1), ("slit2", slits.slit2)):
        point, direction = (",".join(f"{x:.10g}" for x in a) for a in (slit.point, slit.direction))
        lines.append(f"# {name}: point=({point}) direction=({direction})")
    lines.append("u_norm,v_norm,dist_slit1,dist_slit2")
    n = config.get_int("flow", "grid")
    u, v = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 0.9, n), np.linspace(0.1, 0.9, n)))
    rays = backproject(np.column_stack([u, v]), motion, shutter_norm)
    d1 = line_line_distance(rays, slits.slit1)
    d2 = line_line_distance(rays, slits.slit2)
    lines.extend(f"{a:.10g},{b:.10g},{c:.10g},{d:.10g}" for a, b, c, d in zip(u, v, d1, d2))
    # The largest distance, skipping NaN as a running max(max_residual, d) does.
    max_residual = np.fmax.reduce(np.concatenate([d1, d2]), initial=0.0)
    lines.append(f"# max_slit_residual_m = {max_residual:.10g}")
    _write_text(Path(args.out) if args.out else None, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscam",
        description="Rolling-shutter camera geometry toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config value (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", parents=[common],
                       help="project points under both camera models")
    p.add_argument("--point", action="append", help="world point x,y,z (repeatable)")
    p.add_argument("--points-csv", help="CSV file of x,y,z rows")
    p.add_argument("--exact", action="store_true",
                   help="use the nonlinear solver instead of the closed form")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("render-checker", parents=[common], help="render rotating-checkerboard frames")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_render_checker)

    p = sub.add_parser("calibrate-sim", parents=[common], help="simulate LED scan-rate calibration")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_calibrate_sim)

    p = sub.add_parser("sfm-grid", parents=[common], help="run the two-view SfM benchmark grid")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--save-problems", action="store_true",
                   help="write a JSON problem snapshot per grid cell")
    p.set_defaults(func=cmd_sfm_grid)

    p = sub.add_parser("flow", parents=[common], help="tabulate analytic vs finite-difference flow")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("slits", parents=[common], help="report slit geometry and incidence residuals")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_slits)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(args.config, args.set)
        return args.func(config, args)
    except (NoScanTime, NegativeDepth, Singularity, DegenerateSlits, NoPeak,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
