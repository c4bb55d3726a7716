"""Measurement loop and report for one workload (see README.md).

Timing protocol of one run:

1. trace 0 only: `SETUP_PROBES + 1` fresh child processes each import
   driftlab, generate the inputs, load the config and build the field; the
   first warms the page and bytecode caches and is dropped. A probe's time
   runs from spawn to the child's ready stamp (CLOCK_MONOTONIC is shared
   across processes); `setup_s` is the median calibrated probe time.
2. Timed repetitions while a further one fits in `--seconds` (at least
   `MIN_REPS`). `peak_rss_mb` is read right after the first, before its
   outputs get the full check. Every later repetition must reproduce the
   first's outputs bit for bit; `wall_s` is the median calibrated
   repetition time. With `--trace 1` traced and untraced repetitions alternate;
   the traced ones feed the per-layer metrics and the difference of the
   two medians is `trace.overhead_s`.

Calibration: on the shared 2-core VM this was built on, the same work
took up to 3.6x longer from one stretch of seconds to the next, with CPU
time equal to wall time (the core itself slows; nothing is descheduled).
So every timed piece is bracketed by a fixed calibration kernel, and its
time is reported rescaled to the kernel's nominal speed:
`t * CAL_NOMINAL_S / mean(kernel before, after)`. The pieces are the
set-up probes and the stages of a repetition (one seed's pipeline, also
inside a CLI call, or one CLI invocation), so that no piece runs much
longer than the slowdown stays put; a repetition's time is the sum of its
stages. The kernel never
changes, so a faster driftlab still shows as a smaller time. Two pieces
measured at the same moment are divided by the same factor, so their
ratio is the ratio of raw seconds; `calibration_check.py` measures how far
code of each kind slows with the kernel. Raw times are printed
alongside, and the traced run reports them as `wall_raw_s`.
"""

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import driftlab
import bootstrap
import tracing
import workloads

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Run conditions the traced run reports next to the layer metrics
CONDITIONS = (("wall_raw_s", "s"), ("calibration.kernel_s", "s"))
PER_LAYER = tracing.PER_LAYER_METRICS + CONDITIONS
SETUP_PROBES = 9
MIN_REPS = 2
CAL_NOMINAL_S = 0.055  # about the kernel's time on the reference VM when unloaded
HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "setup_probe.py")

# Predicted dominant layer per workload: (label, metric names whose per-rep
# seconds are summed). io is summed over self times so nested writers are
# not counted twice.
_IO_SELF = tuple(f"{p}.self_s" for p, _, _ in tracing.ENTRY_POINTS if p.startswith("io."))
PREDICTIONS = {
    "ensemble_relay": ("sa", ("sa.run_sa.busy_s",)),
    "pipeline_example1": ("io + tracking", _IO_SELF + ("tracking.tracking_profile.busy_s",)),
    "study_spurious": ("io + tracking", _IO_SELF + ("tracking.tracking_profile.busy_s",)),
    "integrate_corner": ("fields.project", ("fields.project.busy_s",)),
}
_SHARES = {
    "sa": ("sa.run_sa.busy_s",),
    "tracking": ("tracking.tracking_profile.busy_s",),
    "io": _IO_SELF,
    "measures": tuple(f"{p}.self_s" for p, _, _ in tracing.ENTRY_POINTS
                      if p.startswith("measures.")),
    "inclusion.integrate_filippov": ("inclusion.integrate_filippov.busy_s",),
    "fields.project": ("fields.project.busy_s",),
}


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_pinned": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def calibration_kernel():
    """Fixed work of the three kinds driftlab does, in about equal parts:
    stepping a small numpy state (the SA and integrator loops), formatting
    floats to text and parsing them back (trace CSV files), and sorting and
    summing an array of 20000 numbers (the measure diagnostics). Each kind
    slows by a different amount when the VM is contended; see
    calibration_check.py."""
    rng = np.random.Generator(np.random.Philox(20230308))
    noise = rng.standard_normal((4000, 2))
    x = np.array([0.5, -0.5])
    for row in noise:
        x = x + 0.01 * (np.where(x > 0, -1.0, 1.0) + row)
        if float(x @ x) > 1e12:
            raise FloatingPointError("calibration walk diverged")
    # one row of text at a time and a small array, so that the kernel adds
    # next to nothing to the process's peak memory
    total = 0.0
    for row in rng.standard_normal((2500, 4)):
        line = ",".join(repr(float(v)) for v in row)
        total += sum(float(v) for v in line.split(","))
    big = rng.standard_normal(20_000)
    for _ in range(50):
        total += float(np.cumsum(np.sort(big) ** 2)[-1])
    return float(x.sum()) + total


def calibration_s():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def bracketed(times, kernels):
    """Each time rescaled by the mean of the kernel runs just before and
    after it (kernels holds one more entry than times)."""
    return [t * CAL_NOMINAL_S / (0.5 * (a + b))
            for t, a, b in zip(times, kernels[:-1], kernels[1:])]


def setup_times(name, seed, work_dir):
    """(raw seconds from spawn to ready per kept probe, calibration kernel
    times taken before the first and after every probe)."""
    raw, kernels = [], [calibration_s()]
    for i in range(SETUP_PROBES + 1):
        argv = [sys.executable, PROBE, "--workload", name, "--seed", str(seed),
                "--dir", os.path.join(work_dir, f"setup{i}")]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              cwd=bootstrap.ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        elapsed = float(proc.stdout.strip().splitlines()[-1]) - start
        kernels.append(calibration_s())
        if i:
            raw.append(elapsed)
        else:  # the warm-up probe's kernels are dropped with it
            kernels = kernels[1:]
    return raw, kernels


class Stopwatch:
    """Times the stages of one repetition; `mark` closes a stage and runs
    the calibration kernel before the next one starts. A stage may end
    inside a traced call, so the kernel runs inside the `pause` context,
    which keeps it out of the tracer's spans."""

    def __init__(self, pause=contextlib.nullcontext):
        self.raw = []
        self.kernels = [calibration_s()]
        self._pause = pause
        self._start = time.perf_counter()

    def mark(self):
        self.raw.append(time.perf_counter() - self._start)
        with self._pause():
            self.kernels.append(calibration_s())
        self._start = time.perf_counter()

    def calibrated(self):
        return sum(bracketed(self.raw, self.kernels))


class Run:
    """Outcome of the measurement loop of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.plain = []  # calibrated repetition times
        self.traced = []
        self.raw = []  # untraced repetition times as measured
        self.kernels = []  # calibration kernel times
        self.attempted = 0
        self.failed = 0
        self.check = None
        self.peak_rss_mb = None


def _one_rep(workload, ctx, out_dir, pause):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    watch = Stopwatch(pause)
    try:
        result = workload.run_rep(ctx, out_dir, watch.mark)
    except Exception:  # one repetition failing must not stop the run
        traceback.print_exc()
        result = None
    watch.mark()
    return result, watch


def _first_check(workload, ctx, seed, result, out_dir):
    """Full output check of the first repetition, and the fingerprint every
    later one must reproduce."""
    if result is None:
        check = workloads.Check(workload.op_names(ctx))
        check.fail(None, "first repetition raised")
        return check, None
    check = workload.check(ctx, result, out_dir)
    workloads.apply_reference(check, workload.name, seed, workloads.load_reference())
    return check, workload.fingerprint(ctx, result, out_dir)


def measure(workload, ctx, seed, seconds, traced, work_dir, tracer):
    out_dir = os.path.join(work_dir, "out")
    run = Run(workload.op_names(ctx))
    deadline = time.perf_counter() + seconds
    spans = []  # wall time of each loop turn, kernels and checks included
    while True:
        turn_start = time.perf_counter()
        use_tracer = traced and len(run.traced) < len(run.plain)
        rep_tracer = tracing.Tracer()
        result = None
        with rep_tracer.installed() if use_tracer else contextlib.nullcontext():
            result, watch = _one_rep(workload, ctx, out_dir, rep_tracer.excluded)
        calibrated = watch.calibrated()
        run.kernels += watch.kernels
        if use_tracer:
            run.traced.append(calibrated)
            tracer.merge(rep_tracer, calibrated / sum(watch.raw))
        else:
            run.plain.append(calibrated)
            run.raw.append(sum(watch.raw))
        if run.check is None:
            # the program's peak: set-up plus one repetition, before any checking
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            run.check, expected = _first_check(workload, ctx, seed, result, out_dir)
        run.attempted += len(run.ops)
        same = result is not None and workload.fingerprint(ctx, result, out_dir) == expected
        run.failed += len(run.check.failed_ops) if same else len(run.ops)
        spans.append(time.perf_counter() - turn_start)
        enough = len(run.plain) >= MIN_REPS and (not traced or len(run.traced) >= MIN_REPS)
        if enough and time.perf_counter() + statistics.median(spans) > deadline:
            break
    return run


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _share(metrics, names, rep_s):
    return sum(metrics[n] for n in names) / rep_s


def report_layers(name, metrics, rep_s):
    lines = ["inclusive shares of a traced repetition ({:.4g} s):".format(rep_s)]
    for label, names in _SHARES.items():
        lines.append(f"  {label:<30} {_share(metrics, names, rep_s):7.1%}")
    label, names = PREDICTIONS[name]
    share = _share(metrics, names, rep_s)
    verdict = "CONFIRMED" if share > 0.5 else "REFUTED"
    lines.append(f"prediction: {label} dominates {name} (> 50 % of a repetition): "
                 f"{verdict} at {share:.1%}")
    if name == "study_spurious":
        frac = metrics["sa.guard_hit_frac.atomic_noise"]
        verdict = "CONFIRMED" if frac == 1.0 else "REFUTED"
        lines.append(f"prediction: sa.guard_hit_frac is 1 in the atomic arm: {verdict} "
                     f"({frac:.6g}; density arm {metrics['sa.guard_hit_frac.density_noise']:.6g})")
    return lines


def run_workload(name, seed, seconds, trace):
    if not str(driftlab.__file__).startswith(str(bootstrap.SRC)):
        raise RuntimeError(f"driftlab imported from {driftlab.__file__}, not {bootstrap.SRC}")
    workload = workloads.WORKLOADS[name]
    os.makedirs(bootstrap.WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=bootstrap.WORK_ROOT)
    try:
        setups_raw, setup_kernels = ([], []) if trace else setup_times(name, seed, work_dir)
        ctx = workloads.setup(name, seed, os.path.join(work_dir, "inputs"))
        tracer = tracing.Tracer()
        run = measure(workload, ctx, seed, seconds, trace, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [f"workload {name} (seed {seed}): {workload.why}",
             "machine " + json.dumps(machine_facts(), sort_keys=True)]
    lo, hi = _quartiles(run.plain)
    lines.append(f"repetition wall time, untraced, calibrated: median "
                 f"{statistics.median(run.plain):.4f} s, quartiles {lo:.4f}..{hi:.4f} s, "
                 f"n = {len(run.plain)}; raw median {statistics.median(run.raw):.4f} s; "
                 f"calibration kernel median {statistics.median(run.kernels):.4f} s")
    lines.append("untraced repetitions, raw s: " + " ".join(f"{t:.4f}" for t in run.raw))
    lines.append("calibration kernels, s: " + " ".join(f"{t:.4f}" for t in run.kernels))
    if trace:
        overhead = statistics.median(run.traced) - statistics.median(run.plain)
        metrics = tracer.metrics(len(run.traced), overhead)
        metrics["wall_raw_s"] = statistics.median(run.raw)
        metrics["calibration.kernel_s"] = statistics.median(run.kernels)
        units = dict(PER_LAYER)
        lines.append(f"repetition wall time, traced, calibrated: median "
                     f"{statistics.median(run.traced):.4f} s, n = {len(run.traced)}; "
                     f"overhead {overhead:.4f} s")
        lines += report_layers(name, metrics, statistics.fmean(run.traced))
    else:
        setups = bracketed(setups_raw, setup_kernels)
        metrics = {
            "wall_s": statistics.median(run.plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run.peak_rss_mb,
        }
        units = dict(END_TO_END)
        lines.append("setup probes, calibrated s: " + " ".join(f"{t:.4f}" for t in setups))
        lines.append("setup probes, raw s: " + " ".join(f"{t:.4f}" for t in setups_raw))
        lines.append("setup calibration kernels, s: "
                     + " ".join(f"{t:.4f}" for t in setup_kernels))
    fail_rate = run.failed / run.attempted
    lines.append(f"fail_rate: {fail_rate:.6g} ({run.failed} failed / {run.attempted} operations; "
                 f"{len(run.ops)} per repetition)")
    lines += [f"check note: {note}" for note in run.check.notes]
    lines += [f"check FAILED {msg}" for msg in run.check.messages()]
    lines.append("output check: " + ("ok" if run.failed == 0 else "FAILED"))
    for line in lines:
        print(line)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload, each in its own process, then one summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                              cwd=bootstrap.ROOT, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary:")
    ok = True
    for name, res in rows:
        if res is None:
            print(f"  {name:<18} run failed")
            ok = False
            continue
        metrics = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()
                           if not trace or k == "trace.overhead_s")
        print(f"  {name:<18} {metrics} fail_rate={res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']}) check={'ok' if res['correct'] else 'FAILED'}")
        ok &= res["correct"]
    return 0 if ok else 1
