"""Benchmark of qqwalk: spectrum routes, zeta identities, theorem8 deflation
and CLI latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One job runs at a time (closed loop).  After building the seeded inputs the
run warms up on the workload's first jobs (untimed, unchecked), then makes
timed passes over all its jobs until the next pass would end after S
seconds, and at least MIN_ROUNDS of them.  The process and its children
stay on one CPU.  After every job, set-up repetitions included, a
``hostclock.HostClock`` runs its calibration unit for a share of the job's
time, and the job's time is divided by the mean slowdown the units
measured just before and just after it: every reported time reads as
seconds at the reference host speed.  Every output is kept and, once the
timed passes are over and their peak memory read, checked against a
computation made apart from the program (``checks.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; details, raw times and slowdowns included, go to
``perfbench/out/``.

With ``--trace 1`` the timed passes alternate between plain and traced ones;
the per-layer metrics come from the traced passes and
``trace.overhead_pct`` compares the two kinds.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads; CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import WARM_UP_JOBS, WORKLOADS, cli_env  # noqa: E402

MIN_ROUNDS = 2
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qqwalk.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {"pass_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The host's vCPUs change speed independently, so the calibration units
    measure the speed a job saw only when they run on its CPU; CLI children
    and the set-up's fresh interpreter run there too.  One job runs at a
    time, so nothing waits for the CPU but the idle parent."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:  # the CPU the scheduler has put this process on
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
        sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
        cpu = sched_getcpu()
    except (OSError, AttributeError):
        cpu = -1
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})


def fresh_import():
    """Run a fresh interpreter that imports qqwalk.cli; returns the import
    time it measured itself."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import qqwalk from {SRC}:\n{proc.stderr}")
    return float(proc.stdout)


def setup(workload, seed, workdir, clock):
    """Build the seeded inputs SETUP_REPEATS times, each after a fresh
    interpreter import; returns the last jobs and each repetition's
    ``(seconds, slowdown before, slowdown after)``."""
    timings = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        fresh_import()
        jobs = WORKLOADS[workload](np.random.default_rng(seed), workdir)
        elapsed = time.perf_counter() - start
        timings.append((elapsed, *clock.follow(elapsed)))
    return jobs, timings


def run_round(jobs, tracer, outputs, clock):
    """One pass over the jobs, each followed by calibration; returns each
    job's ``(seconds, slowdown before, slowdown after)``.

    Outputs are kept, unchecked, in ``outputs[i]`` for job i: checking waits
    until the peak memory of the timed passes has been read."""
    timings = []
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            out = job.run(tracer)
        except Exception as exc:  # a job that raises is a failed operation
            out = RaisedError(repr(exc))
        elapsed = time.perf_counter() - start
        outputs[i].append(out)
        timings.append((elapsed, *clock.follow(elapsed)))
    return timings


class RaisedError(str):
    """The output of a job that raised."""


class Tally:
    """Checks every kept output and counts attempted and failed operations.

    An output byte-identical to one already checked for the same job gets
    the same verdict without being checked again."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.faults = {}

    def check_all(self, jobs, outputs):
        for job, outs in zip(jobs, outputs):
            seen = {}
            for out in outs:
                self.attempted += 1
                if isinstance(out, RaisedError):
                    self.failed += 1
                    self.faults[job.name] = f"raised {out}"
                    continue
                key = hashlib.sha256(pickle.dumps(out)).digest()
                if key not in seen:
                    seen[key] = job.check(out)
                problems, fault = seen[key]
                self.problems += [f"{job.name}: {p}" for p in problems]
                if fault:
                    self.failed += 1
                    self.faults[job.name] = fault


def measure(jobs, seconds, trace, warm_up, clock):
    """Warm-up on the first ``warm_up`` jobs, then timed passes; with trace,
    plain and traced alternate.

    Returns the plain and traced passes' timings, the layer values of each
    traced pass, the absent trace targets and every timed output."""
    run_round(jobs[:warm_up], None, [[] for _ in jobs], clock)
    outputs = [[] for _ in jobs]
    plain, traced, layers = [], [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    last = 0.0
    while True:
        short = len(plain) < MIN_ROUNDS or (trace and len(traced) < MIN_ROUNDS)
        if not short and time.perf_counter() - start + last > seconds:
            break
        begin = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer.take()
            if not jobs[0].subprocess:
                tracer.install()
            try:
                traced.append(run_round(jobs, tracer, outputs, clock))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_values(tracer.take(), tracer.absent))
        else:
            plain.append(run_round(jobs, None, outputs, clock))
        last = time.perf_counter() - begin
    absent = tracer.absent if trace else set()
    return plain, traced, layers, absent, outputs


def per_job_means(rounds, scaled=True):
    """Each job's mean time over the passes, each time scaled to the
    reference speed unless ``scaled`` is false.  A mean, not a median: the
    host's speed is bimodal, and a median over few passes follows whichever
    speed held most."""
    return [statistics.fmean(scale(timing) if scaled else timing[0]
                             for timing in col)
            for col in zip(*rounds)]


def scale(timing):
    """A job's time at the reference speed: its seconds over the mean
    slowdown of the calibration slots just before and just after it.  Both
    sides, because the host's speed can change during a job of seconds."""
    seconds, before, after = timing
    return seconds * 2.0 / (before + after)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qqwalk" / "__init__.py").is_file():
        raise SystemExit(f"no qqwalk package under {SRC}")
    import qqwalk.cli  # noqa: F401  load the program before timing set-up
    pin_to_one_cpu()

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        clock = HostClock()
        jobs, setup_timings = setup(args.workload, args.seed, workdir, clock)
        if args.trace:
            imports = [fresh_import() for _ in range(3)]
            import_s = statistics.median(scale((t, *clock.follow(t))) for t in imports)
        plain, traced, layers, absent, outputs = measure(
            jobs, args.seconds, args.trace, WARM_UP_JOBS[args.workload], clock)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if jobs[0].subprocess
                                   else resource.RUSAGE_SELF)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    tally.check_all(jobs, outputs)

    means = per_job_means(plain)
    raw_means = per_job_means(plain, scaled=False)
    values = {"pass_s": sum(means), "job_p50_s": statistics.median(means),
              "setup_s": statistics.median(map(scale, setup_timings)),
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": [job.name for job in jobs], "setup_timings": setup_timings,
              "plain_rounds": plain, "job_means": means,
              "raw_job_means": raw_means, "values": values,
              "problems": tally.problems, "faults": tally.faults}
    print(f"HOST raw pass {sum(raw_means):.4g} s, slowdown "
          f"{sum(raw_means) / sum(means):.3f}; raw set-up "
          f"{statistics.median(t for t, _, _ in setup_timings):.4g} s",
          file=sys.stderr)
    if args.trace:
        traced_means = per_job_means(traced)
        slowdown = sum(per_job_means(traced, scaled=False)) / sum(traced_means)
        metrics = {"cli.import_s": {"value": import_s, "unit": "s"}}
        for name, (unit, _, _) in tracing.LAYERS.items():
            got = [row[name] for row in layers if row[name] is not None]
            value = statistics.median(got) if got else None
            if value is not None and unit == "s":
                value /= slowdown
            metrics[name] = {"value": value, "unit": unit}
        overhead = 100.0 * (sum(traced_means) / sum(means) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        env = environment()
        print("ENVIRONMENT", json.dumps(env), file=sys.stderr)
        detail.update(environment=env, traced_rounds=traced,
                      traced_job_means=traced_means, layer_rounds=layers,
                      absent=sorted(absent), layers=metrics)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, default=str))

    for line in tally.problems[:20]:
        print("PROBLEM", line, file=sys.stderr)
    for job, why in sorted(tally.faults.items()):
        print("FAILED", job, why, file=sys.stderr)
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
