"""Workloads, the closed loop, metrics and the report of the cpick benchmark.

Imported by ``run.py`` after it has pinned BLAS to one thread and imported
cpick from the checkout's ``src``.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy

import cpick
import cpick.cli
import instances
import tracing

SETUP_REPS = 9
WARMUP_OPS = 4
# An operation's figure is its median over the passes; with fewer than three
# it would be a mean that one slow pass can pull.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60
# The reference kernel is sampled after an operation once this much wall
# time has passed since the last sample (every operation on ``cli``), and a
# sample is scaled by the median of the SPEED_WINDOW samples nearest to it.
SPEED_EVERY_S = 0.02
SPEED_WINDOW = 15
# CPU time of the reference kernel on the machine the benchmark was written
# on (Intel Xeon, 2 vCPU) with quiet neighbours; it only sets the scale.
REFERENCE_NOMINAL_MS = 0.25

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_ms_per_op": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "feasibility.find_lambda.calls": "1/op",
    "feasibility.find_lambda.ms": "ms",
    "feasibility.evals_per_call": "count",
    "feasibility.grid_evals_per_call": "count",
    "feasibility.refine_evals_per_call": "count",
    "feasibility.us_per_eval": "us",
    "feasibility.pinned_share": "ratio",
    "feasibility.found_ratio": "ratio",
    "pickmat.constrained_pick.calls": "1/op",
    "pickmat.constrained_pick.ms": "ms",
    "pickmat.psd_check.calls": "1/op",
    "pickmat.psd_check.ms": "ms",
    "analytic.np_solve.calls": "1/op",
    "analytic.np_solve.ms": "ms",
    "analytic.np_solve.fail_ratio": "ratio",
    "analytic.sup_norm_estimate.calls": "1/op",
    "analytic.sup_norm_estimate.ms": "ms",
    "analytic.taylor_coeffs.calls": "1/op",
    "analytic.taylor_coeffs.ms": "ms",
    "bruno.compose_derivative.calls": "1/op",
    "bruno.compose_derivative.ms": "ms",
    "interp.construct.self_ms": "ms",
    "interp.verify_interpolant.self_ms": "ms",
    "interp.verify.residual_rejects": "count",
    "interp.verify.norm_rejects": "count",
    "interp.verify.taylor_rejects": "count",
    "cli.process_ms_p50": "ms",
    "cli.startup_ms_p50": "ms",
    "cli.inproc_ms_p50": "ms",
    "cli.feasible.ms": "ms",
    "cli.interpolate.ms": "ms",
    "cli.verify.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Sample(NamedTuple):
    """One operation's timing: latency as the workload defines it, CPU cost, wall time, and when it started."""

    latency_ms: float
    cpu_ms: float
    wall_ms: float
    at: float


def child_env(src: Path) -> dict[str, str]:
    """This process's environment (BLAS already pinned) with the absolute ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)  # absolute, so a child's working directory does not matter
    return env


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------- workloads


def paired(tracer, index: int, work):
    """Run ``work`` untraced and traced, alternating which goes first; returns (untraced, traced)."""
    if index % 2:
        with tracing.patched(tracer):
            traced = work()
        return work(), traced
    plain = work()
    with tracing.patched(tracer):
        return plain, work()


class InProcess:
    """A workload whose operations call the library in this process.

    An operation's latency is the process CPU time of its library calls;
    judging the result against the oracle happens outside that window.  In
    the traced run every operation runs twice, untraced and traced, so the
    overhead is measured on identical work.
    """

    def __init__(self, make_pool, run, judge, tail_pct: float, defect_pool=None):
        self.make_pool, self.run, self.judge, self.tail_pct = make_pool, run, judge, tail_pct
        self.defect_pool = defect_pool
        self.pairs: list[tuple[float, float]] = []
        self.mismatches = 0

    def setup(self, seed: int, workdir: Path):
        pool = self.make_pool(seed)
        for case in pool[:WARMUP_OPS]:
            self.judge(case, self.run(case))
        return pool

    def _timed(self, case):
        w0, c0 = time.perf_counter(), time.process_time()
        raw = self.run(case)
        cpu_ms, wall_ms = (time.process_time() - c0) * 1e3, (time.perf_counter() - w0) * 1e3
        return Sample(cpu_ms, cpu_ms, wall_ms, w0), self.judge(case, raw)

    def op(self, case, tracer):
        if tracer is None:
            return self._timed(case)
        tracer.op = case.id
        (sample, outcome), (traced, traced_outcome) = paired(tracer, len(self.pairs), lambda: self._timed(case))
        self.pairs.append((sample.cpu_ms, traced.cpu_ms))
        self.mismatches += traced_outcome.digest_line(case.id) != outcome.digest_line(case.id)
        return sample, outcome

    def layer_metrics(self) -> dict[str, float]:
        return {}

    def known_defects(self, seed: int) -> dict | None:
        """One untimed pass over the regimes left out of the pool because the library fails there."""
        if self.defect_pool is None:
            return None
        cases = self.defect_pool(seed)
        outcomes = [self.judge(case, self.run(case)) for case in cases]
        kinds = collections.Counter(o.verdict for o in outcomes if not o.ok)
        return {
            "attempted": len(cases),
            "failed": sum(kinds.values()),
            "kinds": dict(sorted(kinds.items())),
            "sound": all(o.sound for o in outcomes),
        }


class Cli:
    """``python -m cpick`` children, one at a time, on files written in setup.

    An operation's latency is the child's user+sys time from rusage; its
    CPU cost adds this process's own time spent starting and reaping it.
    The traced run also runs ``cli.main`` in-process on the same argv,
    untraced and traced, and an ``import cpick`` child after every third
    operation.
    """

    tail_pct = 75.0

    def __init__(self, src: Path):
        self.env = child_env(src)
        self.wall_ms: dict[str, list[float]] = {}
        self.inproc_ms: list[float] = []
        self.startup_ms: list[float] = []
        self.pairs: list[tuple[float, float]] = []
        self.mismatches = 0
        self.workdir = None

    def setup(self, seed: int, workdir: Path):
        self.workdir = workdir
        pool = instances.cli_pool(seed, workdir)
        self._child(pool[0].argv)
        return pool

    def _child(self, argv):
        """Run one child to completion; returns (exit code or None on timeout, stdout, wall ms, child cpu ms)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        w0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, stdout = None, ""
        wall_ms = (time.perf_counter() - w0) * 1e3
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_ms = (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime) * 1e3
        return code, stdout, wall_ms, child_ms

    @staticmethod
    def _inproc(argv):
        """``cli.main`` in this process; returns (exit code, stdout, wall ms, cpu ms)."""
        sink = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = cpick.cli.main(list(argv))
        return code, sink.getvalue(), (time.perf_counter() - w0) * 1e3, (time.process_time() - c0) * 1e3

    def op(self, case, tracer):
        w0, c0 = time.perf_counter(), time.process_time()
        code, stdout, wall_ms, child_ms = self._child(case.argv)
        sample = Sample(child_ms, child_ms + (time.process_time() - c0) * 1e3, wall_ms, w0)
        outcome = instances.judge_cli(case, code, stdout)
        if tracer is not None:
            self.wall_ms.setdefault(case.argv[2], []).append(wall_ms)
            tracer.op = case.id
            plain, traced = paired(tracer, len(self.pairs), lambda: self._inproc(case.argv[2:]))
            self.inproc_ms.append(plain[2])
            self.pairs.append((plain[3], traced[3]))
            self.mismatches += plain[:2] != traced[:2]
            if len(self.inproc_ms) % 3 == 0:
                self.startup_ms.append(self._child(["-c", "import cpick"])[2])
        return sample, outcome

    def layer_metrics(self) -> dict[str, float]:
        walls = [w for ws in self.wall_ms.values() for w in ws]
        out = {
            "cli.process_ms_p50": statistics.median(walls),
            "cli.startup_ms_p50": statistics.median(self.startup_ms),
            "cli.inproc_ms_p50": statistics.median(self.inproc_ms),
        }
        for sub in ("feasible", "interpolate", "verify"):
            out[f"cli.{sub}.ms"] = statistics.median(self.wall_ms[sub])
        return out

    def known_defects(self, seed: int) -> None:
        return None


def make_workload(name: str, src: Path):
    if name == "solve":
        return InProcess(
            lambda s: instances.solve_pool(s, 30),
            instances.run_solve,
            instances.judge_solve,
            90.0,
            lambda s: instances.defect_pool("solve", s),
        )
    if name == "refute":
        return InProcess(lambda s: instances.refute_pool(s, 12, 6), instances.run_refute, instances.judge_refute, 95.0)
    if name == "verify":
        return InProcess(
            lambda s: instances.verify_pool(s, 50),
            instances.run_verify,
            instances.judge_verify,
            98.0,
            lambda s: instances.defect_pool("verify", s),
        )
    return Cli(src)


# ---------------------------------------------------------------- loop


class Speed:
    """How fast the machine runs at each moment, from a fixed reference kernel.

    The kernel is twelve evaluations of a Pick-type objective, shaped like
    one step of the parameter search: outer products, a division and a
    Hermitian eigensolve for n = 2, 4 and 8.  It does not call cpick.  It is
    timed between operations, at most every ``SPEED_EVERY_S``.  ``scale``
    turns a time measured at a given moment into the time it would have
    taken at the nominal speed, using the median of the reference samples
    nearest to that moment.
    """

    def __init__(self):
        self.blocks = []
        for n in (2, 4, 8):
            z = 0.8 * numpy.exp(2j * numpy.pi * numpy.arange(n) / n) * numpy.linspace(0.5, 1.0, n)
            ze = z**3
            w = 0.5 * numpy.exp(1j * numpy.arange(n))
            self.blocks.append((w, numpy.outer(ze, ze.conj()), 1.0 - numpy.outer(z, z.conj())))
        self.times: list[float] = []
        self.samples_ms: list[float] = []

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < SPEED_EVERY_S:
            return
        c0 = time.process_time()
        for r in range(4):
            lam = complex(0.1 * r, 0.05 * r)
            for w, powers, den in self.blocks:
                phi = (w - lam) / (1.0 - numpy.conj(lam) * w)
                m = (powers - numpy.outer(phi, phi.conj())) / den
                numpy.linalg.eigvalsh(0.5 * (m + m.conj().T))
        self.samples_ms.append((time.process_time() - c0) * 1e3)
        self.times.append(now)

    def scale(self, at: float) -> float:
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - SPEED_WINDOW // 2, len(self.times) - SPEED_WINDOW))
        return REFERENCE_NOMINAL_MS / statistics.median(self.samples_ms[lo : lo + SPEED_WINDOW])


class Phase:
    """Whole passes over the pool until ``seconds`` of wall time have elapsed, and at least ``MIN_PASSES``.

    On a shared two-core machine, neighbours slow every instruction by up to
    40% for stretches of a second to over a minute, in CPU time as much as
    in wall time.  So each sample is scaled to the nominal speed measured
    around it, and an operation's figure is its median over the passes.
    """

    def __init__(self, wl, pool, seconds: float, speed: Speed, tracer=None):
        self.pool = pool
        self.samples: list[list[Sample]] = []
        self.outcomes = []
        self.speed = speed
        start = time.perf_counter()
        while True:
            samples = []
            for case in pool:
                sample, outcome = wl.op(case, tracer)
                samples.append(sample)
                self.outcomes.append(outcome)
                self.speed.tick()
            self.samples.append(samples)
            if time.perf_counter() - start >= seconds and len(self.samples) >= MIN_PASSES:
                break

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def sound(self) -> bool:
        return all(o.sound for o in self.outcomes)

    @property
    def passes(self) -> int:
        return len(self.samples)

    def digest(self) -> str:
        first = self.outcomes[: len(self.pool)]
        return instances.digest(o.digest_line(c.id) for c, o in zip(self.pool, first))

    def per_op(self, field: str, scaled: bool) -> list[float]:
        """Each operation's median of ``field`` over the passes, in pool order."""
        scale = self.speed.scale if scaled else (lambda at: 1.0)
        return [statistics.median(getattr(s, field) * scale(s.at) for s in column) for column in zip(*self.samples)]

    def end_to_end(self, tail_pct: float, scaled: bool = True) -> dict[str, float]:
        latency = self.per_op("latency_ms", scaled)
        return {
            "op_ms_p50": statistics.median(latency),
            "op_ms_tail": nearest_rank(latency, tail_pct),
            "cpu_ms_per_op": statistics.fmean(self.per_op("cpu_ms", scaled)),
            "ops_per_s": 1e3 / statistics.fmean(self.per_op("wall_ms", scaled)),
        }


# ---------------------------------------------------------------- report


def environment(seed: int, pool_size: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "pool_ops": pool_size,
    }


def blas_info() -> dict:
    """BLAS name and version from numpy's build, and the thread count in effect."""
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    with contextlib.suppress(KeyError, TypeError):  # the "dicts" mode needs numpy >= 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "lib*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def emit(metrics: dict[str, float], units: dict[str, str], correct: bool, attempted: int, failed: int, report: dict):
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def run(args, src: Path, workdir: Path) -> None:
    wl = make_workload(args.workload, src)
    speed = Speed()
    # Set-up is a fresh interpreter importing numpy and cpick, then input
    # generation and warm-up here; the import cannot be repeated in this
    # process, so a child pays it.  Reference samples around each round
    # scale it like the operations.
    setup = []
    for _ in range(SETUP_REPS):
        for _ in range(max(2, SPEED_WINDOW // SETUP_REPS)):
            speed.tick(force=True)
        s0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy, cpick"], cwd=workdir, env=child_env(src), check=True, timeout=CHILD_TIMEOUT_S
        )
        pool = wl.setup(args.seed, workdir)
        setup.append((s0, time.perf_counter() - s0))
    speed.tick(force=True)

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    report["env"] = environment(args.seed, len(pool))
    tracer = tracing.Tracer() if args.trace else None
    phase = Phase(wl, pool, args.seconds, speed, tracer)
    if tracer is None:
        metrics = phase.end_to_end(wl.tail_pct)
        report["unscaled"] = phase.end_to_end(wl.tail_pct, scaled=False)
        metrics["setup_s"] = statistics.median(seconds * speed.scale(at) for at, seconds in setup)
        report["unscaled"]["setup_s"] = statistics.median(seconds for _, seconds in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        report["tail"] = {
            "percentile": wl.tail_pct,
            "samples": len(pool),
            "beyond": sum(x > metrics["op_ms_tail"] for x in phase.per_op("latency_ms", scaled=True)),
        }
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        grid = tracing.grid_size(cpick.SearchConfig())
        metrics.update(tracing.layer_metrics(tracer.spans, len(wl.pairs), phase.passes, grid))
        metrics.update(wl.layer_metrics())
        metrics["trace.overhead_ratio"] = sum(t for _, t in wl.pairs) / sum(p for p, _ in wl.pairs)
        units = PER_LAYER
        report["spans"] = len(tracer.spans)
        report["trace_mismatches"] = wl.mismatches

    # Tracing must not change a verdict: a mismatch marks the run incorrect.
    correct = phase.sound and not wl.mismatches
    defects = wl.known_defects(args.seed)
    if defects is not None:
        report["known_defects"] = defects
        correct = correct and defects["sound"]
    report["speed"] = {
        "reference_ms_p50": statistics.median(phase.speed.samples_ms),
        "nominal_ms": REFERENCE_NOMINAL_MS,
        "samples": len(phase.speed.samples_ms),
    }
    report.update(
        digest=phase.digest(),
        verdicts=len(pool),
        passes=phase.passes,
        attempted=phase.attempted,
        failed=phase.failed,
        fail_ratio=phase.failed / phase.attempted,
        failures=sorted({o.verdict for o in phase.outcomes if not o.ok}),
    )
    emit(metrics, units, correct, phase.attempted, phase.failed, report)
