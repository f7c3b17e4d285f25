"""Rolling-shutter camera geometry, calibration, and benchmarking toolkit."""

from .errors import (ConfigError, DegenerateSlits, NegativeDepth, NoPeak,
                     NoScanTime, RscamError, Singularity)
from .geometry import (CameraIntrinsics, MotionState, Pose, hat,
                       project_perspective, rotation_exp, rotation_log)
from .shutter import (RsProjection, ScanTimeCase, ShutterParams, classify_case,
                      drift_per_row, invert_fronto_parallel, limit_line, normalized_scan,
                      project_rolling_shutter, solve_scan_times)
from .xslit import Line3D, SlitPair, backproject, compute_slits, line_line_distance
from .flow import (FlowVector, flow_finite_difference, flow_perspective,
                   flow_rolling_shutter)
from .calibration import (CalibrationEstimate, SpatioTemporalImage, estimate_scan_rate,
                          marginalized_spectrum, synthesize_led_image)
from .sfm import (SceneConfig, SfmProblem, SfmSolution,
                  bundle_adjust, generate_problem, run_experiment_grid)

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics", "MotionState", "Pose", "hat", "rotation_exp",
    "rotation_log", "project_perspective",
    "ShutterParams", "ScanTimeCase", "RsProjection", "classify_case",
    "solve_scan_times", "project_rolling_shutter",
    "limit_line", "drift_per_row", "normalized_scan", "invert_fronto_parallel",
    "Line3D", "SlitPair", "compute_slits", "backproject", "line_line_distance",
    "FlowVector", "flow_perspective", "flow_rolling_shutter",
    "flow_finite_difference",
    "SpatioTemporalImage", "CalibrationEstimate", "synthesize_led_image",
    "estimate_scan_rate", "marginalized_spectrum",
    "SceneConfig", "SfmProblem", "SfmSolution",
    "generate_problem", "bundle_adjust", "run_experiment_grid",
    "RscamError", "NoScanTime", "NegativeDepth", "Singularity",
    "DegenerateSlits", "NoPeak", "ConfigError",
]
