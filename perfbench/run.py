"""The cpick benchmark: one seeded, single-process, closed-loop run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs one workload (``solve``, ``refute``, ``verify`` or ``cli``) against
the ``src`` tree of the checkout this file sits in, for at least
``--seconds`` seconds of whole passes over the workload's pool, checks
every outcome against the benchmark's own oracle and prints a report whose
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` half the time runs untraced and half with spans around
the library's public functions, and the metrics are the per-layer ones
plus the tracing overhead.  README.md explains each workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Seeded closed-loop benchmark of the cpick library and CLI.")
    p.add_argument("--workload", required=True, choices=["solve", "refute", "verify", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpick" / "__init__.py").is_file():
        print(f"error: no cpick sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Set before numpy loads; children inherit the environment.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CPICK_LOG", None)
    # One CPU for this process and its children, so the reference kernel
    # runs where the measured work runs (see harness.Speed).
    with contextlib.suppress(OSError):  # a platform that refuses runs unpinned
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    import cpick

    if Path(cpick.__file__).resolve().parent != (SRC / "cpick").resolve():
        print(f"error: imported cpick from {cpick.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        harness.run(args, SRC, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
