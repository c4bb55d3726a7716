"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public entry points of each driftlab module
(every binding of the function in every loaded driftlab module, and the
class attribute for methods), records a span per call, and restores the
originals on exit. Self time is a span's duration minus the time of its
direct child spans. Counters are taken from arguments and return values at
the same boundaries; the time spent computing them is excluded from every
enclosing span.
"""

import contextlib
import inspect
import sys
import time

import numpy as np

from driftlab.errors import DivergedIterate, WindowExceedsTrace

# (metric prefix, module, attribute path)
ENTRY_POINTS = (
    ("fields.evaluate", "fields", "PiecewiseField.evaluate"),
    ("fields.evaluate_batch", "fields", "PiecewiseField.evaluate_batch"),
    ("fields.filippov_map", "fields", "filippov_map"),
    ("fields.krasovskii_map", "fields", "krasovskii_map"),
    ("fields.project", "fields", "ConvexVelocitySet.project"),
    ("sa.run_sa", "sa", "run_sa"),
    ("inclusion.integrate_filippov", "inclusion", "integrate_filippov"),
    ("inclusion.integrate_tracking_selection", "inclusion", "integrate_tracking_selection"),
    ("tracking.tracking_profile", "tracking", "tracking_profile"),
    ("measures.averaged_measure", "measures", "averaged_measure"),
    ("measures.stationarity_residual", "measures", "stationarity_residual"),
    ("measures.graph_support_fraction", "measures", "graph_support_fraction"),
    ("measures.martingale_diagnostic", "measures", "martingale_diagnostic"),
    ("measures.residual_decay_study", "measures", "residual_decay_study"),
    ("io.write_trace_csv", "io", "write_trace_csv"),
    ("io.read_trace_csv", "io", "read_trace_csv"),
    ("io.write_trajectory_csv", "io", "write_trajectory_csv"),
    ("io.write_tracking_csv", "io", "write_tracking_csv"),
    ("io.write_residuals_csv", "io", "write_residuals_csv"),
    ("io.write_support_csv", "io", "write_support_csv"),
    ("io.write_json", "io", "write_json"),
    ("io.atomic_write_text", "io", "atomic_write_text"),
    ("config.load_config", "config", "load_config"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
    ("experiments.compare_noise_study", "experiments", "compare_noise_study"),
    ("cli.main", "cli", "main"),
)

PROJECT_CLASSES = ("interior", "surface", "corner")  # hull vertex count 1, 2, > 2

DERIVED = (
    ("sa.steps", "count"),
    ("sa.us_per_step", "us/step"),
    ("sa.guard_hit_frac", "fraction"),
    ("sa.guard_hit_frac.density_noise", "fraction"),
    ("sa.guard_hit_frac.atomic_noise", "fraction"),
    ("sa.diverged", "count"),
    *((f"fields.project.{c}_calls", "count") for c in PROJECT_CLASSES),
    *((f"fields.project.{c}_us", "us") for c in PROJECT_CLASSES),
    ("inclusion.integrate_filippov.s_per_time", "s/time"),
    ("inclusion.corner_frac", "fraction"),
    ("inclusion.slide_frac", "fraction"),
    ("tracking.windows", "count"),
    ("tracking.s_per_window", "s/window"),
    ("tracking.skipped", "count"),
    ("measures.atoms", "count"),
    ("measures.s_per_1e5_atoms", "s/1e5atoms"),
    ("io.rows_written", "count"),
    ("io.bytes_written", "bytes"),
    ("io.write_s_per_1e5_rows", "s/1e5rows"),
    ("io.rows_read", "count"),
    ("io.read_s_per_1e5_rows", "s/1e5rows"),
    ("trace.overhead_s", "s"),
)

PER_LAYER_METRICS = tuple(
    (f"{prefix}.{stat}", unit)
    for prefix, _, _ in ENTRY_POINTS
    for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
) + DERIVED

_IO_WRITERS = tuple(p for p, _, a in ENTRY_POINTS if p.startswith("io.") and a != "read_trace_csv")
_MEASURES = tuple(p for p, _, _ in ENTRY_POINTS if p.startswith("measures."))


def guard_hits(field, states):
    """Number of iterates x(n), n < N, lying exactly on some guard zero set,
    where evaluate takes the boundary-value path."""
    if not field.guards:
        return 0
    gv = np.column_stack([g.value_batch(states[:-1]) for g in field.guards])
    return int(np.count_nonzero(np.any(gv == 0.0, axis=1)))


def _resolve(module_name, path):
    owner = sys.modules[f"driftlab.{module_name}"]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Stat:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0


class Tracer:
    """Span and counter accumulator; install it around the traced reps."""

    def __init__(self):
        self.stats = {prefix: _Stat() for prefix, _, _ in ENTRY_POINTS}
        self.project = {c: _Stat() for c in PROJECT_CLASSES}
        self.counts = {
            "steps": 0, "guard_hits": 0, "diverged": 0,
            "density_steps": 0, "density_hits": 0, "atomic_steps": 0, "atomic_hits": 0,
            "integrated_time": 0.0, "corner_time": 0.0, "slide_time": 0.0,
            "windows": 0, "skipped": 0, "atoms": 0,
            "rows_written": 0, "bytes_written": 0, "rows_read": 0,
        }
        self._stack = []
        self._hook_s = 0.0
        self._hooks = {
            "sa.run_sa": self._after_run_sa,
            "fields.project": self._after_project,
            "inclusion.integrate_filippov": self._after_integrate,
            "tracking.tracking_profile": self._after_tracking,
            "measures.stationarity_residual": self._after_measure_arg,
            "measures.graph_support_fraction": self._after_measure_arg,
            "measures.martingale_diagnostic": self._after_martingale,
            "io.atomic_write_text": self._after_write,
            "io.read_trace_csv": self._after_read,
        }

    # -- spans ----------------------------------------------------------

    def _wrap(self, prefix, fn):
        stat = self.stats[prefix]
        hook = self._hooks.get(prefix)
        signature = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            hook_before = self._hook_s
            start = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - start - (self._hook_s - hook_before)
                stat.calls += 1
                stat.busy += busy
                stat.self += busy - child[0]
                if stack:
                    stack[-1][0] += busy
                if hook is not None:
                    hook_start = clock()
                    hook(signature.bind(*args, **kwargs).arguments, outcome, busy)
                    self._hook_s += clock() - hook_start

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "driftlab" or name.startswith("driftlab."))]
        patched = []
        try:
            for prefix, module_name, path in ENTRY_POINTS:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                wrapper = self._wrap(prefix, original)
                if owner is sys.modules[f"driftlab.{module_name}"]:
                    sites = [m for m in modules if getattr(m, attr, None) is original]
                else:  # a method: the class attribute is the only binding
                    sites = [owner]
                for site in sites:
                    setattr(site, attr, wrapper)
                    patched.append((site, attr, original))
            yield self
        finally:
            for site, attr, original in reversed(patched):
                setattr(site, attr, original)

    @contextlib.contextmanager
    def excluded(self):
        """Leave the time of the block out of every enclosing span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._hook_s += time.perf_counter() - start

    # -- counters (run outside every span's time) ----------------------------

    def _after_run_sa(self, args, outcome, busy):
        if isinstance(outcome, DivergedIterate):
            self.counts["diverged"] += 1
        if isinstance(outcome, BaseException):
            return
        n = outcome.n_steps
        hits = guard_hits(args["field"], outcome.states)
        arm = "density" if args["noise"].density_flag else "atomic"
        self.counts["steps"] += n
        self.counts["guard_hits"] += hits
        self.counts[f"{arm}_steps"] += n
        self.counts[f"{arm}_hits"] += hits

    def _after_project(self, args, outcome, busy):
        m = args["self"].vertices.shape[0]
        stat = self.project[PROJECT_CLASSES[min(m, 3) - 1]]
        stat.calls += 1
        stat.busy += busy

    def _after_integrate(self, args, outcome, busy):
        if isinstance(outcome, BaseException):
            return
        durations = np.diff(outcome.times)
        self.counts["integrated_time"] += float(durations.sum())
        for label, dt in zip(outcome.mode_labels, durations):
            if label.startswith("slide:"):
                self.counts["slide_time"] += float(dt)
            elif "0" in label:
                self.counts["corner_time"] += float(dt)

    def _after_tracking(self, args, outcome, busy):
        if isinstance(outcome, WindowExceedsTrace):
            self.counts["skipped"] += 1
        elif not isinstance(outcome, BaseException):
            self.counts["windows"] += int(outcome.errors.size)

    def _after_measure_arg(self, args, outcome, busy):
        self.counts["atoms"] += int(args["measure"].n_atoms)

    def _after_martingale(self, args, outcome, busy):
        self.counts["atoms"] += int(args["trace"].n_steps)

    def _after_write(self, args, outcome, busy):
        text = args["text"]
        self.counts["rows_written"] += text.count("\n")
        self.counts["bytes_written"] += len(text.encode())

    def _after_read(self, args, outcome, busy):
        if not isinstance(outcome, BaseException):
            self.counts["rows_read"] += int(outcome.times.size)

    def merge(self, other, time_scale):
        """Add another tracer's totals, its span times multiplied by time_scale."""
        for mine, theirs in zip((*self.stats.values(), *self.project.values()),
                                (*other.stats.values(), *other.project.values())):
            mine.calls += theirs.calls
            mine.busy += theirs.busy * time_scale
            mine.self += theirs.self * time_scale
        for key, value in other.counts.items():
            self.counts[key] += value

    # -- report --------------------------------------------------------------

    def metrics(self, reps, overhead_s):
        """Every per-layer metric, per traced repetition."""
        c = self.counts
        out = {}
        for prefix, stat in self.stats.items():
            out[f"{prefix}.calls"] = stat.calls / reps
            out[f"{prefix}.busy_s"] = stat.busy / reps
            out[f"{prefix}.self_s"] = stat.self / reps
        busy = {p: s.busy for p, s in self.stats.items()}
        out["sa.steps"] = c["steps"] / reps
        out["sa.us_per_step"] = _ratio(busy["sa.run_sa"] * 1e6, c["steps"])
        out["sa.guard_hit_frac"] = _ratio(c["guard_hits"], c["steps"])
        for arm in ("density", "atomic"):
            out[f"sa.guard_hit_frac.{arm}_noise"] = _ratio(c[f"{arm}_hits"], c[f"{arm}_steps"])
        out["sa.diverged"] = c["diverged"] / reps
        for cls, stat in self.project.items():
            out[f"fields.project.{cls}_calls"] = stat.calls / reps
            out[f"fields.project.{cls}_us"] = _ratio(stat.busy * 1e6, stat.calls)
        out["inclusion.integrate_filippov.s_per_time"] = _ratio(
            busy["inclusion.integrate_filippov"], c["integrated_time"])
        out["inclusion.corner_frac"] = _ratio(c["corner_time"], c["integrated_time"])
        out["inclusion.slide_frac"] = _ratio(c["slide_time"], c["integrated_time"])
        out["tracking.windows"] = c["windows"] / reps
        out["tracking.s_per_window"] = _ratio(busy["tracking.tracking_profile"], c["windows"])
        out["tracking.skipped"] = c["skipped"] / reps
        out["measures.atoms"] = c["atoms"] / reps
        out["measures.s_per_1e5_atoms"] = _ratio(
            sum(self.stats[p].self for p in _MEASURES) * 1e5, c["atoms"])
        out["io.rows_written"] = c["rows_written"] / reps
        out["io.bytes_written"] = c["bytes_written"] / reps
        out["io.write_s_per_1e5_rows"] = _ratio(
            sum(self.stats[p].self for p in _IO_WRITERS) * 1e5, c["rows_written"])
        out["io.rows_read"] = c["rows_read"] / reps
        out["io.read_s_per_1e5_rows"] = _ratio(busy["io.read_trace_csv"] * 1e5, c["rows_read"])
        out["trace.overhead_s"] = overhead_s
        return out


def _ratio(num, den):
    """num/den, and 0 for a layer this workload never reached."""
    return num / den if den else 0.0

