"""Smoke test of the benchmark, outside the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run prints every metric of BENCHMARK.json with its unit, that no op
fails, and that input digests follow the seed.  Also checks that the grid
check counts non-converged BAs and still rejects bad output.  Takes about a
minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(workload, trace):
    result, context = run(workload, 5, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and context["fail_ratio"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["environment"]["seed"] == 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_follows_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]()

    def digest(seed, sub):
        return workloads.digest(workload.inputs(seed, tmp_path / sub), tmp_path / sub)

    assert digest(3, "a") == digest(3, "b")
    assert digest(3, "a") != digest(4, "c")


def test_bare_directory_fails(tmp_path):
    """Without the rscam sources the benchmark exits nonzero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_grid_check_counts_nonconvergence_and_rejects_bad_output(tmp_path):
    """A non-converged BA is a correct output and is counted; bad output fails."""
    from rscam import sfm

    spec = {"velocity_kmh": 1.875, "sigma_px": 0.5, "seed": 1}
    row = {col: 0.5 for col in sfm.GRID_CSV_COLUMNS}
    row.update(velocity_kmh=1.875, trials=workloads.GRID_TRIALS, nonconverged_count=0)
    for name in ("plot_reprojection.svg", "plot_rotation.svg", "plot_translation.svg"):
        (tmp_path / name).write_text("<svg></svg>\n")
    grid = workloads.Grid()

    def check(rs_extra, pinhole_extra):
        rows = [dict(row, model=sfm.RS_MODEL, **rs_extra),
                dict(row, model=sfm.PERSPECTIVE_MODEL, **pinhole_extra)]
        sfm.grid_to_csv(rows, tmp_path / "results.csv")
        return grid.check(spec, (0, tmp_path))

    assert check({}, {}) is None
    assert check({"nonconverged_count": 1}, {"nonconverged_count": 2}) is None
    assert grid.nonconverged == 3
    assert check({"nonconverged_count": 1}, {"mean_rot_deg": float("nan")})
    assert check({"nonconverged_count": workloads.GRID_TRIALS + 1}, {})
    (tmp_path / "plot_rotation.svg").write_text("<svg>")
    assert check({}, {})
