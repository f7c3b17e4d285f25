"""Layer tracing for the traced run (``--trace 1``).

The program is not modified.  ``Tracer.install`` replaces rscam's public
functions, in every rscam module namespace that binds them, with wrappers that
record a span (name, start, end, parent, op id, exception raised) per call;
``uninstall`` puts the originals back.  Two hot leaves, ``Pose`` validation
and ``rotation_exp``, run ~10^5 times per op, so they are counted and timed in
aggregate instead of as spans.  BA internals have no public call site; their
shares of ``bundle_adjust`` time come from a separate cProfile pass.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from rscam import geometry, shutter


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _project_name(args, kwargs):
    if _arg(args, kwargs, 4, "exact", False):
        return "shutter.exact"
    case = shutter.classify_case(_arg(args, kwargs, 1, "motion"))
    if case is shutter.ScanTimeCase.FRONTO_PARALLEL_LINEAR:
        return "shutter.closed_linear"
    return "shutter.closed_quadratic"


def _see_problem(counts, args, kwargs, problem):
    counts["sfm.points_drawn"] += _arg(args, kwargs, 0, "config").n_points
    counts["sfm.points_kept"] += len(problem.points)


def _see_solution(counts, args, kwargs, solution):
    model = "rs" if solution.model_used == "rolling_shutter" else "pinhole"
    counts[f"sfm.ba_{model}_iters"] += solution.iterations
    counts["sfm.ba_nonconverged"] += not solution.converged


def _see_projection(counts, args, kwargs, projection):
    if _arg(args, kwargs, 4, "exact", False):
        counts["shutter.exact_caught_twice"] += bool(projection.caught_twice)


def _see_lattice(counts, args, kwargs, result):
    counts["render.corners"] += len(result[0])
    counts["render.corners_attempted"] += (_arg(args, kwargs, 5, "squares") + 1) ** 2


# (module, function, span name or namer(args, kwargs), observer of the result)
SPAN_TARGETS = (
    ("rscam.cli", "main", lambda a, k: "cli." + _arg(a, k, 0, "argv")[0], None),
    ("rscam.sfm", "run_experiment_grid", "sfm.cell", None),
    ("rscam.sfm", "generate_problem", "sfm.generate_problem", _see_problem),
    ("rscam.sfm", "bundle_adjust",
     lambda a, k: "sfm.ba_rs" if _arg(a, k, 1, "model", "rolling_shutter")
     == "rolling_shutter" else "sfm.ba_pinhole", _see_solution),
    ("rscam.sfm", "grid_to_csv", "sfm.grid_to_csv", None),
    ("rscam.plotsvg", "write_figure", "plotsvg.write_figure", None),
    ("rscam.shutter", "project_rolling_shutter", _project_name, _see_projection),
    ("rscam.shutter", "drift_per_row", "shutter.drift", None),
    ("rscam.shutter", "invert_fronto_parallel", "shutter.invert", None),
    ("rscam.geometry", "project_perspective", "geometry.perspective", None),
    ("rscam.flow", "flow_rolling_shutter", "flow.analytic", None),
    ("rscam.flow", "flow_finite_difference", "flow.fd", None),
    ("rscam.xslit", "backproject", "xslit.backproject", None),
    ("rscam.xslit", "line_line_distance", "xslit.distance", None),
    ("rscam.calibration", "synthesize_led_image", "calibration.synth", None),
    ("rscam.calibration", "marginalized_spectrum", "calibration.spectrum", None),
    ("rscam.calibration", "estimate_scan_rate", "calibration.estimate", None),
    ("rscam.calibration", "write_pgm", "calibration.write_pgm", None),
    ("rscam.render", "render_checkerboard", "render.raster", None),
    ("rscam.render", "project_board_lattice", "render.lattice", _see_lattice),
)

CLI_COMMANDS = ("sfm-grid", "project", "flow", "slits", "calibrate-sim")

# Every per-layer metric, in BENCHMARK.json order.  A layer the workload
# does not reach reads 0.
PER_LAYER = (
    [("sfm.cell_ms", "ms"), ("sfm.generate_problem_ms", "ms"), ("sfm.kept_ratio", "ratio"),
     ("sfm.ba_rs_ms", "ms"), ("sfm.ba_pinhole_ms", "ms"), ("sfm.ba_rs_iters", "count"),
     ("sfm.ba_pinhole_iters", "count"), ("sfm.ba_nonconverged", "count"),
     ("sfm.residual_share", "ratio"), ("sfm.jacobian_share", "ratio"),
     ("sfm.solve_share", "ratio"), ("sfm.rs_pixels_share", "ratio"),
     ("sfm.pose_share", "ratio"), ("sfm.rotation_exp_share", "ratio"),
     ("sfm.residual_calls_per_ba", "count"), ("sfm.solve_calls_per_ba", "count"),
     ("shutter.exact_calls", "count"), ("shutter.exact_ms", "ms"),
     ("shutter.exact_fail_ratio", "ratio"), ("shutter.exact_caught_twice", "count"),
     ("shutter.closed_calls", "count"), ("shutter.closed_linear_us", "us"),
     ("shutter.closed_quadratic_us", "us"), ("shutter.drift_us", "us"),
     ("shutter.invert_us", "us"),
     ("geometry.pose_calls", "count"), ("geometry.pose_us", "us"),
     ("geometry.rotation_exp_calls", "count"), ("geometry.rotation_exp_us", "us"),
     ("geometry.perspective_us", "us"),
     ("render.raster_ms", "ms"), ("render.lattice_ms", "ms"), ("render.imaged_ratio", "ratio"),
     ("flow.analytic_us", "us"), ("flow.fd_us", "us"),
     ("xslit.backproject_us", "us"), ("xslit.distance_us", "us"),
     ("calibration.synth_ms", "ms"), ("calibration.spectrum_ms", "ms"),
     ("calibration.estimate_ms", "ms"), ("calibration.write_pgm_ms", "ms"),
     ("plotsvg.write_figure_ms", "ms")]
    + [(f"cli.self_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [("cli.import_s", "s"), ("trace.overhead_pct", "%")]
)

SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op, error]
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])   # calls, seconds
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, fn, namer, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            # The span starts before its own naming and bookkeeping, so that
            # wrapper cost is charged to the child, not to its parent's self time.
            start = time.perf_counter()
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index][5] = type(exc).__name__
                raise
            finally:
                spans[index][1:3] = start, time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def _leaf(self, fn, name):
        cell = self.leaves[name]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += time.perf_counter() - start

        return timed

    def _replace_everywhere(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "rscam":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, namer, observe in SPAN_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(original, self._span(original, namer, observe))
        self._replace_everywhere(geometry.rotation_exp,
                                 self._leaf(geometry.rotation_exp, "geometry.rotation_exp"))
        post_init = geometry.Pose.__post_init__
        geometry.Pose.__post_init__ = self._leaf(post_init, "geometry.pose")
        self._undo.append((geometry.Pose, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path, header: dict) -> None:
        payload = dict(header, span_fields=["name", "start", "end", "parent", "op", "error"],
                       spans=self.spans, leaves=dict(self.leaves), counts=dict(self.counts))
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def ba_profile(stats: dict) -> dict[str, float]:
    """BA shares and per-BA call counts from cProfile stats of the grid ops.

    residual, jacobian and solve shares partition ``bundle_adjust`` time: the
    residual share counts only the LM's own residual evaluations, because the
    finite-difference Jacobian's evaluations are inside its share.
    ``_rs_pixels``, ``Pose`` validation and ``rotation_exp`` are nested inside
    those; the last two are timed over the whole op (calls outside BA are a
    few per trial against thousands inside).
    """
    def find(file_tail, func):
        return [(key, value) for key, value in stats.items()
                if key[2] == func and key[0].endswith(file_tail)]

    def edge_time(file_tail, func, caller_func):
        total = 0.0
        for _, (_, _, _, _, callers) in find(file_tail, func):
            total += sum(v[3] for c, v in callers.items() if c[2] == caller_func)
        return total

    def cumulative(file_tail, func):
        return sum(v[3] for _, v in find(file_tail, func))

    def calls(file_tail, func, caller_func=None):
        total = 0
        for _, (_, nc, _, _, callers) in find(file_tail, func):
            total += nc if caller_func is None else sum(
                v[1] for c, v in callers.items() if c[2] == caller_func)
        return total

    n_ba = calls("rscam/sfm.py", "bundle_adjust")
    ba = cumulative("rscam/sfm.py", "bundle_adjust")
    if n_ba == 0 or ba <= 0.0:
        return {}
    lm_residuals = (edge_time("rscam/sfm.py", "fun", "_levenberg_marquardt")
                    + edge_time("rscam/sfm.py", "fun", "bundle_adjust"))
    return {
        "sfm.residual_share": lm_residuals / ba,
        "sfm.jacobian_share": cumulative("rscam/sfm.py", "_grouped_jacobian") / ba,
        "sfm.solve_share": edge_time("linalg/_linalg.py", "solve", "_levenberg_marquardt") / ba,
        "sfm.rs_pixels_share": edge_time("rscam/sfm.py", "_rs_pixels", "_residuals") / ba,
        "sfm.pose_share": cumulative("rscam/geometry.py", "__post_init__") / ba,
        "sfm.rotation_exp_share": cumulative("rscam/geometry.py", "rotation_exp") / ba,
        "sfm.residual_calls_per_ba": calls("rscam/sfm.py", "_residuals") / n_ba,
        "sfm.solve_calls_per_ba":
            calls("linalg/_linalg.py", "solve", "_levenberg_marquardt") / n_ba,
    }


def layer_metrics(tracer: Tracer, n_ops: int, profile: dict[str, float],
                  import_s: float, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER value from the spans, counters and profile of a run."""
    durations: dict[str, list[float]] = defaultdict(list)
    errors: Counter = Counter()
    child_time = defaultdict(float)
    for name, start, end, parent, _, error in tracer.spans:
        durations[name].append(end - start)
        if error in ("NoScanTime", "Singularity"):
            errors[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_ms: dict[str, list[float]] = defaultdict(list)
    for index, (name, start, end, *_rest) in enumerate(tracer.spans):
        if name.startswith("cli."):
            self_ms[name[4:]].append((end - start - child_time[index]) * 1e3)

    def median(name, unit):
        values = durations.get(name)
        return statistics.median(values) * SCALE[unit] if values else 0.0

    def per_op(count):
        return count / n_ops if n_ops else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def leaf_mean_us(name):
        calls, seconds = tracer.leaves.get(name, (0, 0.0))
        return ratio(seconds, calls) * 1e6

    counts = tracer.counts
    n_rs, n_pin = len(durations["sfm.ba_rs"]), len(durations["sfm.ba_pinhole"])
    n_exact = len(durations["shutter.exact"])
    n_closed = len(durations["shutter.closed_linear"]) + len(durations["shutter.closed_quadratic"])
    values = {
        "sfm.cell_ms": median("sfm.cell", "ms"),
        "sfm.generate_problem_ms": median("sfm.generate_problem", "ms"),
        "sfm.kept_ratio": ratio(counts["sfm.points_kept"], counts["sfm.points_drawn"]),
        "sfm.ba_rs_ms": median("sfm.ba_rs", "ms"),
        "sfm.ba_pinhole_ms": median("sfm.ba_pinhole", "ms"),
        "sfm.ba_rs_iters": ratio(counts["sfm.ba_rs_iters"], n_rs),
        "sfm.ba_pinhole_iters": ratio(counts["sfm.ba_pinhole_iters"], n_pin),
        "sfm.ba_nonconverged": per_op(counts["sfm.ba_nonconverged"]),
        "shutter.exact_calls": per_op(n_exact),
        "shutter.exact_ms": median("shutter.exact", "ms"),
        "shutter.exact_fail_ratio": ratio(errors["shutter.exact"], n_exact),
        "shutter.exact_caught_twice": per_op(counts["shutter.exact_caught_twice"]),
        "shutter.closed_calls": per_op(n_closed),
        "shutter.closed_linear_us": median("shutter.closed_linear", "us"),
        "shutter.closed_quadratic_us": median("shutter.closed_quadratic", "us"),
        "shutter.drift_us": median("shutter.drift", "us"),
        "shutter.invert_us": median("shutter.invert", "us"),
        "geometry.pose_calls": per_op(tracer.leaves.get("geometry.pose", (0,))[0]),
        "geometry.pose_us": leaf_mean_us("geometry.pose"),
        "geometry.rotation_exp_calls": per_op(tracer.leaves.get("geometry.rotation_exp", (0,))[0]),
        "geometry.rotation_exp_us": leaf_mean_us("geometry.rotation_exp"),
        "geometry.perspective_us": median("geometry.perspective", "us"),
        "render.raster_ms": median("render.raster", "ms"),
        "render.lattice_ms": median("render.lattice", "ms"),
        "render.imaged_ratio": ratio(counts["render.corners"], counts["render.corners_attempted"]),
        "flow.analytic_us": median("flow.analytic", "us"),
        "flow.fd_us": median("flow.fd", "us"),
        "xslit.backproject_us": median("xslit.backproject", "us"),
        "xslit.distance_us": median("xslit.distance", "us"),
        "calibration.synth_ms": median("calibration.synth", "ms"),
        "calibration.spectrum_ms": median("calibration.spectrum", "ms"),
        "calibration.estimate_ms": median("calibration.estimate", "ms"),
        "calibration.write_pgm_ms": median("calibration.write_pgm", "ms"),
        "plotsvg.write_figure_ms": median("plotsvg.write_figure", "ms"),
        "cli.import_s": import_s,
        "trace.overhead_pct": overhead_pct,
    }
    for command in CLI_COMMANDS:
        samples = self_ms.get(command)
        values[f"cli.self_ms.{command}"] = statistics.median(samples) if samples else 0.0
    values.update(profile)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}
