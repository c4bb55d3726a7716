"""Sup-norm deviation between interpolated iterates and inclusion solutions.

Each window [t(n), t(m(n))] compares the interpolated iterate path against
the reference-biased inclusion solution started at x(n); the max is taken on
the union of trace and integrator grids, where both paths are piecewise
affine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowExceedsTrace
from .fields import _is_integer
from .inclusion import Trajectory, integrate_tracking_selection
from .sa import window_index


@dataclass
class TrackingReport:
    window_starts: np.ndarray  # indices n
    t_starts: np.ndarray
    window_T: float
    errors: np.ndarray
    noise_flag: bool

    def to_rows(self):
        rows = []
        for j in range(self.window_starts.size):
            rows.append(
                {
                    "window_index": j,
                    "n_start": int(self.window_starts[j]),
                    "t_start": float(self.t_starts[j]),
                    "T": self.window_T,
                    "error": float(self.errors[j]),
                    "noise_flag": self.noise_flag,
                }
            )
        return rows


def window_reference(trace, n, m):
    """The interpolated iterate path restricted to [t(n), t(m)], keeping the
    last node of each time: a zero step repeats t(k) and leaves x(k) as is."""
    times = trace.times[n : m + 1]
    last = np.append(np.diff(times) > 0, True)
    return Trajectory(times[last], trace.states[n : m + 1][last], ["interp"] * (last.sum() - 1))


def tracking_error(trace, field, n, T, dt):
    """max over the window grid of |interpolated path - inclusion comparator|."""
    m = window_index(trace, n, T)
    ref = window_reference(trace, n, m)
    comparator = integrate_tracking_selection(field, ref, dt)
    ref_on_grid = ref.value_at(comparator.times)
    return float(np.max(np.linalg.norm(ref_on_grid - comparator.points, axis=1)))


def tracking_profile(trace, field, T, n_windows, dt, noise_flag=False):
    """Per-window tracking errors with starts spaced evenly in t.

    noise_flag is the density flag of the noise model that produced the
    trace, carried along for downstream comparisons.
    """
    if not _is_integer(n_windows) or n_windows < 1:
        raise ValueError(f"n_windows must be an integer >= 1, got {n_windows!r}")
    t_total = float(trace.times[-1])
    if t_total < n_windows * T - 1e-12:
        raise WindowExceedsTrace(
            f"t(N) = {t_total:g} too short for {n_windows} disjoint windows of length {T:g}"
        )
    if n_windows == 1:
        targets = np.array([0.0])
    else:
        targets = np.linspace(0.0, t_total - T, n_windows)
    # snap down so every window [t(n), t(n)+T] stays inside the trace
    starts = np.searchsorted(trace.times, targets, side="right") - 1
    starts = np.clip(starts, 0, trace.times.size - 1)
    errors = np.array([tracking_error(trace, field, int(n), T, dt) for n in starts])
    return TrackingReport(
        window_starts=starts.astype(int),
        t_starts=trace.times[starts],
        window_T=float(T),
        errors=errors,
        noise_flag=bool(noise_flag),
    )
