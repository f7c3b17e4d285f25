"""Set-up probe: time, in a fresh interpreter, importing rscam and making inputs.

run.py starts this script several times per run and reports the median.
Usage: probe.py WORKLOAD SEED WORKDIR.  Prints one JSON line with
``import_s``, ``setup_s`` and the input ``digest``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rscam  # noqa: E402,F401
import rscam.cli  # noqa: E402,F401

IMPORTED = time.perf_counter()

import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.WORKLOADS[name]()
    specs = workload.inputs(seed, workdir)
    done = time.perf_counter()
    print(json.dumps({"import_s": IMPORTED - START, "setup_s": done - START,
                      "digest": workloads.digest(specs, workdir)}))


if __name__ == "__main__":
    main()
