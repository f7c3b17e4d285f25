"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload turns a seed into a fixed pool of op specs (plus any input
files), runs one op against rscam's public entry points, and checks what the
op returned or wrote against an identity from the paper.  Checks run outside
the timed interval.  Every spec is a plain JSON-able dict, so the digest of
the pool shows that two commits received identical inputs.

Importing this module needs ``rscam`` importable (run.py and probe.py put
the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from rscam import cli, render, sfm
from rscam.geometry import CameraIntrinsics
from rscam.shutter import ShutterParams

# Criterion 7's grid: 4 velocities x 6 noise levels.  One op is one cell with
# a reduced trial count and its own seed.
GRID_VELOCITIES = (1.875, 3.75, 5.625, 7.5)
GRID_SIGMAS = (0.5, 1.33, 2.16, 3.0, 3.83, 4.66)
GRID_TRIALS = 2
GRID_POOL = 240

# The render-checker scene: 640x480, 40 degree field of view, 30 frames/s,
# a board of 8 squares of 6 cm at 0.5 m, 17 samples per grid line.
RENDER_SCENE = {"width": 640, "height": 480, "fov_deg": 40.0, "framerate": 30.0,
                "plane_depth": 0.5, "square_size": 0.06, "squares": 8,
                "samples_per_edge": 17}
RENDER_OMEGA_RANGE = (0.25, 1.0)     # rev/s, the span of the CLI's default sweep
RENDER_POOL = 64

# Fixed query mix: kind and its share of the op stream.  The five kinds get
# equal shares: the two closed forms of the scan-time solver (project under
# fronto-parallel and under general motion), flow, slits and calibrate-sim.
QUERY_MIX = (("project-fronto", 0.2), ("project-general", 0.2), ("flow", 0.2),
             ("slits", 0.2), ("calibrate-sim", 0.2))
QUERY_POOL = 120
# Inputs are sized so that a call takes 25-110 ms: at the CLI's 5-15 ms
# defaults the op tail is set by machine stalls, not by the program.
PROJECT_POINTS = 400
QUERY_GRID = 15
# Criterion 6's verified frame rates and LED frequencies; one call runs all six.
CALIBRATION_FRAMERATES = (3.75, 7.5, 15.0)
CALIBRATION_LEDS = (20.0, 60.0)
# CLI defaults the query checks rely on: 640x480 at 40 degrees, 30 frames/s,
# scan rate = height * framerate, first row offset 0.
QUERY_SCAN_RATE = 480 * 30.0
QUERY_FIRST_ROW = 0.0
CALIBRATION_ROWS = 240

SCANLINE_TOL_PX = 1e-6       # CSV values carry 10 significant digits
FLOW_REL_TOL = 1e-9          # criterion 5
SLIT_TOL_M = 1e-9
BOARD_TOL_M = 1e-6
PINHOLE_TOL_PX = 1e-6
RECOVERY_TOL_DEG = 1e-4      # criterion 7(c)


def digest(specs: list[dict], workdir: Path) -> str:
    """sha256 of the op specs and of every input file they name."""
    h = hashlib.sha256(json.dumps(specs, sort_keys=True).encode())
    for spec in specs:
        if "points_csv" in spec:
            h.update((workdir / spec["points_csv"]).read_bytes())
    return h.hexdigest()


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Grid:
    """One op: ``rscam sfm-grid`` for one (velocity, sigma) cell, in-process.

    A bundle adjustment that stops at its iteration limit is reported in
    ``results.csv`` as ``nonconverged_count``; that is a correct output, not
    a failed op.  ``nonconverged`` counts such BAs over the checked ops.
    """

    name = "grid"

    def __init__(self):
        self.nonconverged = 0

    def inputs(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        cells = [(v, s) for v in GRID_VELOCITIES for s in GRID_SIGMAS]
        return [{"velocity_kmh": cells[i % len(cells)][0],
                 "sigma_px": cells[i % len(cells)][1],
                 "seed": int(rng.integers(0, 2**31))}
                for i in range(GRID_POOL)]

    def run(self, spec: dict, workdir: Path):
        out = workdir / "sfm"
        code = cli.main(["sfm-grid", "--out-dir", str(out),
                         "--set", f"sfm.velocities_kmh={spec['velocity_kmh']}",
                         "--set", f"sfm.sigmas_px={spec['sigma_px']}",
                         "--set", f"sfm.trials={GRID_TRIALS}",
                         "--set", f"sfm.seed={spec['seed']}"])
        return code, out

    def check(self, spec: dict, output) -> str | None:
        code, out = output
        if code != 0:
            return f"sfm-grid exited {code}"
        rows = _csv_rows((out / "results.csv").read_text())
        if sorted(r["model"] for r in rows) != sorted(sfm.MODELS):
            return "results.csv does not hold one row per model"
        nonconverged = 0
        for r in rows:
            if float(r["velocity_kmh"]) != spec["velocity_kmh"] \
                    or float(r["sigma_px"]) != spec["sigma_px"]:
                return "results.csv is for another cell"
            if not _finite([r["mean_reproj_px"], r["mean_rot_deg"], r["mean_trans_deg"]]):
                return f"non-finite mean for {r['model']}"
            bad = float(r["nonconverged_count"])
            if bad not in range(GRID_TRIALS + 1):
                return f"nonconverged_count {bad} for {GRID_TRIALS} trials"
            nonconverged += int(bad)
        for name in ("plot_reprojection.svg", "plot_rotation.svg", "plot_translation.svg"):
            if not (out / name).read_text().rstrip().endswith("</svg>"):
                return f"{name} is not a complete SVG"
        self.nonconverged += nonconverged
        return None

    def run_check(self, seed: int, workdir: Path) -> str | None:
        """Criterion 7(c): zero noise and the matched model recover the rotation."""
        velocity = GRID_VELOCITIES[seed % len(GRID_VELOCITIES)]
        problem = sfm.generate_problem(
            sfm.SceneConfig(velocity_kmh=velocity, noise_sigma=0.0), (seed, 99))
        error = sfm.bundle_adjust(problem, sfm.RS_MODEL).rotation_error_deg
        if not error < RECOVERY_TOL_DEG:
            return f"criterion 7(c): rotation error {error:.3g} deg at {velocity} km/h"
        return None


class Render:
    """One op: one frame of the render-checker scene at one spin rate."""

    name = "render"

    def __init__(self):
        s = RENDER_SCENE
        self.intrinsics = CameraIntrinsics.from_fov(s["fov_deg"], s["width"], s["height"])
        self.shutter = ShutterParams.ideal(s["framerate"], s["height"])

    def inputs(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        return [{"omega_z_rev_s": float(w)}
                for w in rng.uniform(*RENDER_OMEGA_RANGE, size=RENDER_POOL)]

    def run(self, spec: dict, workdir: Path):
        s = RENDER_SCENE
        omega = spec["omega_z_rev_s"]
        image = render.render_checkerboard(self.intrinsics, self.shutter, omega,
                                           s["plane_depth"], s["square_size"])
        corners, _, _ = render.project_board_lattice(
            self.intrinsics, self.shutter, omega, s["plane_depth"], s["square_size"],
            s["squares"], s["samples_per_edge"])
        return image, corners

    def _lattice(self) -> np.ndarray:
        s = RENDER_SCENE
        half = 0.5 * s["squares"] * s["square_size"]
        coords = np.linspace(-half, half, s["squares"] + 1)
        gx, gy = np.meshgrid(coords, coords)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def check(self, spec: dict, output) -> str | None:
        image, corners = output
        s = RENDER_SCENE
        if image.shape != (s["height"], s["width"]) or not np.all((image == 0) | (image == 1)):
            return "raster is not a binary height x width image"
        if len(corners) == 0:
            return "no board corner was imaged"
        # Back-project each corner along the camera rotated to its row's scan
        # time; the ray must hit the board plane on a lattice corner.
        k_inv = np.linalg.inv(self.intrinsics.K)
        rays = np.column_stack([corners, np.ones(len(corners))]) @ k_inv.T
        t = (corners[:, 1] + self.shutter.first_row) / self.shutter.scan_rate
        theta = 2.0 * math.pi * spec["omega_z_rev_s"] * t
        c, sn = np.cos(theta), np.sin(theta)
        x = c * rays[:, 0] + sn * rays[:, 1]
        y = -sn * rays[:, 0] + c * rays[:, 1]
        scale = s["plane_depth"] / rays[:, 2]
        board = np.column_stack([x * scale, y * scale])
        lattice = self._lattice()
        gap = np.min(np.linalg.norm(board[:, None, :] - lattice[None, :, :], axis=2), axis=1)
        if float(gap.max()) > BOARD_TOL_M:
            return f"corner back-projects {gap.max():.3g} m from the lattice"
        return None

    def run_check(self, seed: int, workdir: Path) -> str | None:
        """A static camera images the lattice exactly as a pin-hole does."""
        still = {"omega_z_rev_s": 0.0}
        output = self.run(still, workdir)
        problem = self.check(still, output)
        if problem:
            return f"omega = 0: {problem}"
        corners = output[1]
        lattice = self._lattice()
        homog = np.column_stack([lattice, np.full(len(lattice), RENDER_SCENE["plane_depth"])])
        q = homog @ self.intrinsics.K.T
        pinhole = q[:, :2] / q[:, 2:]
        rows = pinhole[:, 1]
        pinhole = pinhole[(rows >= 0.0) & (rows <= RENDER_SCENE["height"])]
        if len(pinhole) != len(corners):
            return f"omega = 0: {len(corners)} corners, pin-hole images {len(pinhole)}"

        def by_row(p):
            return p[np.lexsort((p[:, 0], p[:, 1]))]
        gap = float(np.max(np.abs(by_row(pinhole) - by_row(corners))))
        if gap > PINHOLE_TOL_PX:
            return f"omega = 0: corners differ from the pin-hole projection by {gap:.3g} px"
        return None


class Queries:
    """One op: one in-process ``rscam`` query subcommand from a fixed mix."""

    name = "queries"

    def inputs(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        # Exact shares in a seeded order, so every seed runs the same mix.
        kinds = [k for k, share in QUERY_MIX for _ in range(round(share * QUERY_POOL))]
        rng.shuffle(kinds)
        k_inv = np.linalg.inv(CameraIntrinsics.from_fov(40.0, 640, 480).K)
        for sub in ("points", "out"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)
        specs = []
        for i, kind in enumerate(kinds):
            if kind.startswith("project"):
                general = kind == "project-general"
                velocity = rng.uniform(-7.5, 7.5, 3)
                velocity[2] = rng.uniform(-3.0, 3.0) if general else 0.0
                omega = rng.uniform(-0.1, 0.1, 3) if general else np.array(
                    [0.0, 0.0, rng.uniform(-0.25, 0.25)])
                # Points seen by the static camera in the central 60% of the
                # frame, 2-10 m away: the motion moves them by at most a few
                # tens of pixels, so every one is imaged.
                uv = rng.uniform([0.2 * 640, 0.2 * 480], [0.8 * 640, 0.8 * 480],
                                 size=(PROJECT_POINTS, 2))
                depth = rng.uniform(2.0, 10.0, PROJECT_POINTS)
                points = (np.column_stack([uv, np.ones(PROJECT_POINTS)]) @ k_inv.T) \
                    * depth[:, None]
                name = f"points/p{i:04d}.csv"
                (workdir / name).write_text("x,y,z\n" + "".join(
                    f"{x:.17g},{y:.17g},{z:.17g}\n" for x, y, z in points))
                specs.append({"kind": kind, "points_csv": name,
                              "velocity_kmh": [float(v) for v in velocity],
                              "omega_rev_s": [float(w) for w in omega]})
            elif kind == "flow":
                speed = rng.uniform(-7.5, 7.5, 2)
                specs.append({"kind": kind,
                              "velocity_kmh": [float(speed[0]), float(speed[1]), 0.0],
                              "omega_rev_s": [0.0, 0.0, float(rng.uniform(-0.2, 0.2))],
                              "depth": float(rng.uniform(1.0, 4.0))})
            elif kind == "slits":
                vy = rng.uniform(1.0, 7.5) * rng.choice([-1.0, 1.0])
                specs.append({"kind": kind,
                              "velocity_kmh": [float(rng.uniform(-7.5, 7.5)), float(vy), 0.0]})
            else:
                specs.append({"kind": kind})
        return specs

    def run(self, spec: dict, workdir: Path):
        kind = spec["kind"]
        motion = []
        if "velocity_kmh" in spec:
            motion = ["--set", "motion.velocity_kmh=" + " ".join(map(repr, spec["velocity_kmh"]))]
        if "omega_rev_s" in spec:
            motion += ["--set", "motion.omega_rev_s=" + " ".join(map(repr, spec["omega_rev_s"]))]
        out = workdir / "out" / kind
        if kind.startswith("project"):
            argv = ["project", "--points-csv", str(workdir / spec["points_csv"]),
                    "--out", str(out), *motion]
        elif kind == "flow":
            argv = ["flow", "--set", f"flow.grid={QUERY_GRID}",
                    "--set", f"flow.depth={spec['depth']!r}", "--out", str(out), *motion]
        elif kind == "slits":
            argv = ["slits", "--set", f"flow.grid={QUERY_GRID}", "--out", str(out), *motion]
        else:
            argv = ["calibrate-sim", "--out-dir", str(out),
                    "--set", "calibration.framerates=" + " ".join(map(repr, CALIBRATION_FRAMERATES)),
                    "--set", "calibration.led_hz=" + " ".join(map(repr, CALIBRATION_LEDS))]
            out = out / "calibration_report.csv"
        return cli.main(argv), out

    def check(self, spec: dict, output) -> str | None:
        code, out = output
        kind = spec["kind"]
        if code != 0:
            return f"{kind} exited {code}"
        text = out.read_text()
        rows = _csv_rows(text)
        if kind.startswith("project"):
            if len(rows) != PROJECT_POINTS:
                return f"project wrote {len(rows)} rows for {PROJECT_POINTS} points"
            for r in rows:
                v_rs, t = float(r["v_rs"]), float(r["scan_time_s"])
                if not abs(v_rs - (QUERY_SCAN_RATE * t - QUERY_FIRST_ROW)) <= SCANLINE_TOL_PX:
                    return f"scanline identity off by {v_rs - QUERY_SCAN_RATE * t:.3g} rows"
        elif kind == "flow":
            if len(rows) != QUERY_GRID ** 2:
                return f"flow wrote {len(rows)} rows for a {QUERY_GRID}^2 grid"
            for r in rows:
                du, dv = float(r["du_analytic"]), float(r["dv_analytic"])
                err = math.hypot(float(r["du_fd"]) - du, float(r["dv_fd"]) - dv)
                if not err <= FLOW_REL_TOL * (1.0 + math.hypot(du, dv)):
                    return f"analytic and finite-difference flow differ by {err:.3g}"
        elif kind == "slits":
            tail = [line for line in text.splitlines() if line.startswith("# max_slit_residual_m")]
            if len(rows) != QUERY_GRID ** 2 or len(tail) != 1:
                return "slits output is incomplete"
            worst = float(tail[0].split("=")[1])
            if not worst <= SLIT_TOL_M:
                return f"slit residual {worst:.3g} m"
        else:
            cases = len(CALIBRATION_FRAMERATES) * len(CALIBRATION_LEDS)
            if len(rows) != cases or any(r["status"] != "ok" for r in rows):
                return f"calibration did not report {cases} cases with status ok"
            for r in rows:
                if not float(r["abs_error"]) <= 1.0 / (CALIBRATION_ROWS * float(r["led_hz"])):
                    return f"calibration error {r['abs_error']} beyond one FFT bin"
        return None

    def run_check(self, seed: int, workdir: Path) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (Grid, Render, Queries)}
