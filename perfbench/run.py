"""rscam benchmark: closed-loop workloads against rscam's public entry points.

    python3 perfbench/run.py --workload {grid,render,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; rscam is imported from its ``src``.  One
client, one op in flight, in this process.  Inputs come from the seed.  The
run measures set-up in fresh interpreters, warms up, runs ops back to back
until their time adds up to ``--seconds``, checks every output outside the
timed interval, and prints as its last stdout line one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout holds no rscam sources.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PROBES = 9            # fresh-interpreter set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10      # op_tail_ms: the latency with this many samples above it

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "render", "queries"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that
    leaves TAIL_BEYOND samples above it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, asked from the library."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*"):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def environment(seed: int, digest: str) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    sources = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit or None,
        "src_sha256": tree.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "input_digest": digest,
    }


def run_probe(name: str, seed: int, workdir: Path) -> dict:
    """One set-up in a fresh interpreter (see probe.py)."""
    probe_dir = workdir / "probe"
    shutil.rmtree(probe_dir, ignore_errors=True)
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed),
                           str(probe_dir)], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Loop:
    """Runs ops one after another and keeps their latencies and failures."""

    def __init__(self, workload, workdir: Path):
        self.workload, self.workdir = workload, workdir
        self.attempted = self.failed = 0
        self.reported = 0

    def op(self, spec: dict, before=None, after=None) -> float:
        """One checked op; returns its latency in seconds (the check is untimed)."""
        self.attempted += 1
        if before:
            before()
        start = time.perf_counter()
        try:
            output = self.workload.run(spec, self.workdir)
            problem = None
        except Exception:   # a failing op is counted, and the loop goes on
            output, problem = None, traceback.format_exc()
        latency = time.perf_counter() - start
        if after:
            after()
        if problem is None:
            try:
                problem = self.workload.check(spec, output)
            except Exception:
                problem = traceback.format_exc()
        if problem:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"op failed: {json.dumps(spec)}: {problem}", file=sys.stderr)
        return latency


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rscam" / "__init__.py").is_file():
        print(f"error: no rscam sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: one op is in flight, and on a two-core machine a second
    # BLAS thread only spin-waits against the op's own thread.  Set before
    # numpy is imported; the set-up probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import rscam
    if Path(rscam.__file__).resolve().parent != SRC / "rscam":
        print(f"error: rscam imported from {rscam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import tracing

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, tracing, workdir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    specs = workload.inputs(args.seed, workdir)
    digest = workloads.digest(specs, workdir)
    loop = Loop(workload, workdir)
    loop.op(specs[-1])          # warm-up, untimed
    problems = [p for p in (workload.run_check(args.seed, workdir),) if p]

    latencies, busy, index = [], 0.0, 0
    tracer = tracing.Tracer() if args.trace else None
    profiler = cProfile.Profile() if args.trace and args.workload == "grid" else None
    overheads = []
    # Set-up probes are spread over the run, between ops, so that their
    # median does not hang on one stretch of machine load.
    probes = []
    while busy < args.seconds:
        if busy >= len(probes) * args.seconds / PROBES:
            probes.append(run_probe(args.workload, args.seed, workdir))
        spec = specs[index % len(specs)]
        latency = loop.op(spec)
        busy += latency
        latencies.append(latency)
        if tracer:
            tracer.op = index
            traced = loop.op(spec, tracer.install, tracer.uninstall)
            busy += traced
            overheads.append(traced / latency)
            if profiler:
                busy += loop.op(spec, profiler.enable, profiler.disable)
        index += 1
    while len(probes) < PROBES:
        probes.append(run_probe(args.workload, args.seed, workdir))
    problems += [f"probe input digest {p['digest']} != {digest}"
                 for p in probes if p["digest"] != digest]

    env = environment(args.seed, digest)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    import_s = statistics.median(p["import_s"] for p in probes)
    p50 = statistics.median(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    correct = not problems and loop.failed == 0
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload}: {len(latencies)} timed ops in {sum(latencies):.2f} s "
          f"({'traced' if args.trace else 'untraced'}), inputs {digest[:16]}")
    if args.trace:
        profile = tracing.ba_profile(pstats.Stats(profiler).stats) if profiler else {}
        overhead_pct = 100.0 * (statistics.median(overheads) - 1.0)
        metrics = tracing.layer_metrics(tracer, len(latencies), profile, import_s, overhead_pct)
        units = dict(tracing.PER_LAYER)
        trace_path = WORK / "traces" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, {"workload": args.workload, "environment": env})
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, units = e2e, dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {loop.failed / loop.attempted:14.6g} ratio "
              f"({loop.failed} of {loop.attempted} ops)")
        print(f"  op_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples, "
              f"{beyond} beyond it")
    nonconverged = getattr(workload, "nonconverged", None)
    if nonconverged is not None:
        print(f"  {nonconverged} bundle adjustments stopped at their iteration limit")
    print(json.dumps({"environment": env, "op_samples": len(latencies),
                      "setup_samples_s": [p["setup_s"] for p in probes],
                      "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
                      "fail_ratio": loop.failed / loop.attempted,
                      "nonconverged_bas": nonconverged}))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
