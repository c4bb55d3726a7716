"""Robbins-Monro iteration with martingale-difference noise.

Runs x(n+1) = x(n) + a(n) (h(x(n)) + M(n+1)) for a piecewise field h,
records the full trace with its algorithmic timescale t(n) = sum_{m<n} a(m),
and interpolates the path linearly between the nodes (t(n), x(n)).

run_sa takes one of two paths, picked by the field's structure alone; both
give traces bit-identical to the numpy loop x = x + a * (evaluate(x) + M).
When fields.PiecewiseField.guard_table gives a table (relay, example1,
spurious_equilibrium), the drift is one of its three constant rows, picked
by the sign of one coordinate. Only the guarded coordinate steps in Python,
with the three drifts' guarded coordinates held in local floats and each
step's sign code appended to a list; the picked rows are then read from the
table at code + 1, and the states are one sequential np.add.accumulate of
the increments a * (z + M), a block at a time: the same IEEE operations in
the same order.
Every other field, a one-guard field missing a region piece included, steps
all coordinates on Python floats, one sign_pattern and piece_for per step.

A StepsizeSchedule is immutable, and it keeps the read-only steps and times
that run_sa gives its traces: traces of one schedule object and n_steps
share one pair, held while some trace holds it. A caller who wants to edit
them copies them first.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergedIterate,
    IndexOutOfRange,
    OutOfDomain,
    WindowExceedsTrace,
)
from .fields import ConstantPiece, _read_only, _row_sums

DEFAULT_BLOWUP_BOUND = 1e6
_BLOCK_ROWS = 4096  # steps and noises are read, states and drifts written, per block


# ---------------------------------------------------------------------------
# stepsize schedules

@dataclass(frozen=True, eq=False)
class StepsizeSchedule:
    """a(n) = a0 / (n+1)^gamma for the power kind; constant and custom too.
    Immutable: a custom sequence is the schedule's own read-only copy, so
    the run arrays it keeps stay those of values().  Two schedules are equal,
    and hash alike, only when they are one object, as they share run arrays."""

    kind: str = "power"
    a0: float = 1.0
    gamma: float = 1.0
    sequence: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("power", "constant", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not math.isfinite(self.a0) or (self.kind != "custom" and not self.a0 > 0):
            raise ValueError("a0 must be finite, and > 0 unless the schedule is custom")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.kind != "custom" and self.sequence is not None:
            raise ValueError(f"sequence: only a custom schedule takes one, not a {self.kind} one")
        if self.kind == "custom":
            if self.sequence is None:
                raise ValueError("custom schedule needs a sequence")
            sequence = _read_only(np.array(self.sequence, dtype=float))
            if sequence.ndim != 1:
                raise ValueError("a custom schedule's sequence must be 1-d")
            if not np.all((sequence >= 0) & (sequence < np.inf)):
                raise ValueError("custom stepsizes must be finite and >= 0")
            object.__setattr__(self, "sequence", sequence)
        # run_arrays' steps and times by n_steps, each kept while some caller holds it
        object.__setattr__(self, "_steps", weakref.WeakValueDictionary())
        object.__setattr__(self, "_times", weakref.WeakValueDictionary())

    def values(self, n_steps):
        """A fresh array of a(0), ..., a(n_steps - 1)."""
        if not _is_integer(n_steps) or n_steps < 0:
            raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
        if self.kind == "power":
            return self.a0 / (np.arange(1, n_steps + 1, dtype=float)) ** self.gamma
        if self.kind == "constant":
            return np.full(n_steps, self.a0)
        if n_steps > self.sequence.size:
            raise IndexOutOfRange("custom schedule exhausted")
        return self.sequence[:n_steps].copy()

    def run_arrays(self, n_steps):
        """Read-only values(n_steps) and its times t(n) = sum_{m<n} a(m), the
        same two objects for every caller while some caller holds them."""
        steps, times = self._steps.get(n_steps), self._times.get(n_steps)
        if steps is None or times is None:
            steps = self._steps[n_steps] = _read_only(self.values(n_steps))
            times = self._times[n_steps] = _read_only(np.concatenate([[0.0], np.cumsum(steps)]))
        return steps, times

    def to_dict(self):
        d = {"kind": self.kind, "a0": self.a0, "gamma": self.gamma}
        if self.kind == "custom":
            d["sequence"] = self.sequence.tolist()
        return d


@dataclass
class ScheduleDiagnostics:
    partial_sum: float
    partial_square_sum: float
    sum_divergent: bool | None
    square_sum_finite: bool | None
    heuristic: bool
    notes: list

    @property
    def satisfies_conditions(self):
        if self.sum_divergent is None or self.square_sum_finite is None:
            return None
        return self.sum_divergent and self.square_sum_finite

    def to_dict(self):
        return {
            "partial_sum": self.partial_sum,
            "partial_square_sum": self.partial_square_sum,
            "sum_divergent": self.sum_divergent,
            "square_sum_finite": self.square_sum_finite,
            "satisfies_conditions": self.satisfies_conditions,
            "heuristic": self.heuristic,
            "notes": list(self.notes),
        }


def validate_schedule(schedule, horizon):
    """Partial sums up to horizon plus p-series verdicts for the two
    conditions (sum divergent, square sum finite)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    steps = schedule.values(horizon)
    partial = float(np.sum(steps))
    partial_sq = float(np.sum(steps**2))
    notes = []
    if schedule.kind == "power":
        sum_div = schedule.gamma <= 1.0
        sq_fin = 2.0 * schedule.gamma > 1.0
        if not sum_div:
            notes.append("sum converges: gamma > 1")
        if not sq_fin:
            notes.append("square-sum diverges: gamma <= 1/2")
        return ScheduleDiagnostics(partial, partial_sq, sum_div, sq_fin, False, notes)
    if schedule.kind == "constant":
        notes.append("square-sum diverges: constant stepsize")
        return ScheduleDiagnostics(partial, partial_sq, True, False, False, notes)
    # custom: estimate a power-law tail from the last decade and apply the
    # p-series rule; numeric only, flagged heuristic
    tail = steps[max(1, horizon // 10):]
    idx = np.arange(max(1, horizon // 10), horizon, dtype=float) + 1.0
    positive = tail > 0
    if positive.sum() >= 8:
        slope = np.polyfit(np.log(idx[positive]), np.log(tail[positive]), 1)[0]
        p = -slope
        sum_div = bool(p <= 1.0)
        sq_fin = bool(2.0 * p > 1.0)
        notes.append(f"heuristic tail exponent ~ {p:.3f}")
    else:
        sum_div = sq_fin = None
        notes.append("too few positive tail terms for a heuristic verdict")
    return ScheduleDiagnostics(partial, partial_sq, sum_div, sq_fin, True, notes)


# ---------------------------------------------------------------------------
# noise models

_DENSITY_KINDS = ("gaussian", "uniform_ball")
_ATOMIC_KINDS = ("rademacher", "zero")


@dataclass
class NoiseModel:
    """Martingale-difference noise with conditional second moment
    bounded by scale^2 * d * (1 + |x|^2).  Zero noise draws nothing from the
    seed's stream (seed_free), so run_experiment simulates a zero-noise run
    once and writes its files for every seed."""

    kind: str = "gaussian"
    scale: float = 0.1

    def __post_init__(self):
        if self.kind not in _DENSITY_KINDS + _ATOMIC_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 <= self.scale < math.inf:
            raise ValueError("scale must be finite and >= 0")

    @property
    def density_flag(self):
        """True iff the conditional law is absolutely continuous; at scale 0
        every kind is a Dirac mass."""
        return self.kind in _DENSITY_KINDS and self.scale > 0

    @property
    def seed_free(self):
        """True iff every seed gives the same noise: only the zero kind,
        which draws nothing.  At scale 0 the other kinds still draw, and a
        negative draw times 0.0 is -0.0, which a trace file writes as -0."""
        return self.kind == "zero"

    def sample_batch(self, n, dimension, rng):
        if self.kind == "zero":
            return np.zeros((n, dimension))
        if self.kind == "gaussian":
            return self.scale * rng.standard_normal((n, dimension))
        if self.kind == "rademacher":
            return self.scale * (2.0 * rng.integers(0, 2, size=(n, dimension)) - 1.0)
        # uniform in the ball of radius scale
        u = rng.standard_normal((n, dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.random(n) ** (1.0 / dimension)
        return self.scale * u * r[:, None]

    def to_dict(self):
        return {"kind": self.kind, "scale": self.scale, "density_flag": self.density_flag}


def make_rng(seed):
    """Counter-based deterministic stream owned by a single run."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# traces

@dataclass
class IterateTrace:
    """Full record of an SA run; satisfies the replay identity
    x(n+1) = x(n) + a(n) (z(n) + M(n+1)) bit-exactly.  run_sa's traces of
    one schedule object and n_steps share that schedule's read-only steps
    and times: copy them to edit them."""

    states: np.ndarray  # (N+1, d)
    drifts: np.ndarray  # (N, d)
    noises: np.ndarray  # (N, d)  noise M(n+1) applied at step n
    steps: np.ndarray  # (N,)
    times: np.ndarray  # (N+1,)
    seed: int
    field_name: str = ""

    @property
    def n_steps(self):
        return self.steps.size

    @property
    def dimension(self):
        return self.states.shape[1]

    def replay_residual(self):
        """Max norm of x(n+1) - x(n) - a(n)(z(n)+M(n+1)); zero for emitted traces."""
        recon = self.states[:-1] + self.steps[:, None] * (self.drifts + self.noises)
        return float(np.max(np.abs(recon - self.states[1:]))) if self.n_steps else 0.0


def run_sa(field, x0, schedule, noise, n_steps, seed, blowup_bound=DEFAULT_BLOWUP_BOUND):
    """Run the iteration for n_steps from x0; deterministic given seed.

    Raises DivergedIterate when an iterate leaves the blow-up ball or stops
    being finite, which signals a violation of the almost-sure boundedness
    assumption that the asymptotic theory conditions on.
    """
    x0 = np.asarray(x0, dtype=float)
    if not _is_integer(n_steps):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    d = field.dimension
    if x0.size != d:
        raise ValueError(f"x0 has size {x0.size}, field dimension is {d}")
    if not 0 < blowup_bound < np.inf:
        raise ValueError(f"blowup_bound must be positive and finite, got {blowup_bound}")
    rng = make_rng(seed)
    steps, times = schedule.run_arrays(n_steps)
    noises = noise.sample_batch(n_steps, d, rng)
    states = np.empty((n_steps + 1, d))
    drifts = np.empty((n_steps, d))
    states[0] = x0
    guard_table = field.guard_table()
    if guard_table is None:
        _step_loop(field, states, drifts, steps, noises, blowup_bound)
    else:
        _step_table(*guard_table, states, drifts, steps, noises, blowup_bound)
    return IterateTrace(
        states=states,
        drifts=drifts,
        noises=noises,
        steps=steps,
        times=times,
        seed=int(seed),
        field_name=field.name,
    )


def _is_integer(n):
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _sure_bound(blowup_bound):
    """|x| up to this passes the exact test of _check_blowup, which then need
    not run: the margin covers the rounding of |x| and of x @ x, except near
    the subnormal range, where the exact test always runs."""
    return blowup_bound * (1.0 - 1e-12) if blowup_bound * blowup_bound > 1e-280 else 0.0


def _check_blowup(x, n, blowup_bound):
    """Raise DivergedIterate unless x(n), a float array, has
    float(x @ x) <= blowup_bound^2."""
    # a finite x above about 1.3e154 overflows x @ x to inf, which fails the
    # test as it should; written as not-<= so that a NaN iterate fails it too
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = float(x @ x)
    if not norm_sq <= blowup_bound * blowup_bound:
        if not np.all(np.isfinite(x)):
            raise DivergedIterate(f"x({n}) is not finite: {x.tolist()}")
        raise DivergedIterate(f"|x({n})| exceeded the blow-up bound {blowup_bound:g}")


def _step_loop(field, states, drifts, steps, noises, blowup_bound):
    """Any field: one sign_pattern and piece_for per step."""
    n_steps = steps.size
    # the recursion runs on Python floats: xi + a * (zi + mi) per component
    # is the same IEEE operations, in the same order, as the array update
    # x + a * (z + m), and a float op costs far less than a small-array ufunc
    x = states[0].tolist()
    sign_pattern, piece_for = field.sign_pattern, field.piece_for
    constant_rows = {}  # pattern -> drift row of a ConstantPiece, for this call only
    sure_bound = _sure_bound(blowup_bound)
    for start in range(0, n_steps, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_steps)
        block_states, block_drifts = [], []
        block = zip(range(start, stop), steps[start:stop].tolist(), noises[start:stop].tolist())
        for n, a, m in block:
            pattern = sign_pattern(x)
            z = constant_rows.get(pattern)
            if z is None:
                piece = piece_for(pattern)
                z = piece.value(np.array(x)).tolist()
                if isinstance(piece, ConstantPiece):
                    constant_rows[pattern] = z
            x = [xi + a * (zi + mi) for xi, zi, mi in zip(x, z, m)]
            block_drifts.append(z)
            block_states.append(x)
            if not math.hypot(*x) <= sure_bound:
                _check_blowup(np.array(x), n + 1, blowup_bound)
        states[start + 1:stop + 1] = block_states
        drifts[start:stop] = block_drifts


# ---------------------------------------------------------------------------
# the table path: constant pieces behind one coordinate guard

def _walk(v, guarded, a, m, codes):
    """Step the guarded coordinate v as v + a * (z + m) over the pairs of the
    lists a and m, with z = guarded[code + 1] for v's sign code (1 for v > 0,
    0 for v == 0 and -1 otherwise, NaN included, as fields.sign_pattern
    labels it), and append each step's code to codes."""
    z_neg, z_zero, z_pos = guarded
    append = codes.append
    for ai, mi in zip(a, m):
        if v > 0.0:
            code, z = 1, z_pos
        elif v == 0.0:
            code, z = 0, z_zero
        else:
            code, z = -1, z_neg
        v += ai * (z + mi)
        append(code)


def _step_table(column, table, states, drifts, steps, noises, blowup_bound):
    """The table path on a field's guard_table (column, table): only the
    guarded coordinate steps in Python, to pick each step's sign code; the
    states are then one sequential np.add.accumulate over the increments
    a * (z + m) of the picked drift rows, a block at a time."""
    n_steps = steps.size
    guarded = table[:, column].tolist()
    sure_bound = _sure_bound(blowup_bound)
    for start in range(0, n_steps, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_steps)
        a, m = steps[start:stop], noises[start:stop]
        codes = []
        _walk(float(states[start, column]), guarded, a.tolist(), m[:, column].tolist(), codes)
        zs = table[np.fromiter(codes, np.intp, stop - start) + 1]
        block = states[start:stop + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a[:, None], zs + m, out=block[1:])
            np.add.accumulate(block, axis=0, out=block)
            sure = np.sqrt(_row_sums(block[1:] * block[1:])) <= sure_bound
        for i in np.flatnonzero(~sure).tolist():
            _check_blowup(block[1 + i], start + i + 1, blowup_bound)
        drifts[start:stop] = zs


def interpolate_path(times, points, t):
    """The piecewise-affine path through (times[k], points[k]) at t: exact at
    the nodes (the last of a repeated time's), constant across an empty span,
    and OutOfDomain more than 1e-12 outside [times[0], times[-1]].  Between
    nodes the two points are scaled by a power of two, so no difference overflows."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all((t_arr >= times[0] - 1e-12) & (t_arr <= times[-1] + 1e-12)):  # NaN too
        raise OutOfDomain(f"t outside [{times[0]:g}, {times[-1]:g}]")
    t_arr = np.clip(t_arr, times[0], times[-1])
    idx = np.searchsorted(times, t_arr, side="right") - 1
    nxt = np.minimum(idx + 1, times.size - 1)
    span = times[nxt] - times[idx]
    safe = np.where(span > 0, span, 1.0)
    w = np.where(span > 0, (t_arr - times[idx]) / safe, 0.0)[:, None]
    p0, p1 = points[idx], points[nxt]
    e = np.frexp(np.maximum(np.abs(p0), np.abs(p1)).max(axis=1, keepdims=True))[1]
    s0 = np.ldexp(p0, -e)
    out = np.where(w == 0, p0, np.ldexp(s0 + w * (np.ldexp(p1, -e) - s0), e))
    return out[0] if scalar else out


_WINDOW_SLACK = 1e-9


def window_index(trace, n, T):
    """Smallest k with t(k) >= t(n) + T (within a roundoff slack) and
    t(k) > t(n), so that the window [t(n), t(k)] spans two times or more;
    WindowExceedsTrace when there is no such k."""
    if not T > 0:  # NaN too
        raise ValueError("T must be > 0")
    if n < 0 or n >= trace.times.size:
        raise IndexOutOfRange(f"index {n} outside [0, {trace.times.size - 1}]")
    target = trace.times[n] + T
    slack = _WINDOW_SLACK * max(1.0, abs(target))
    if target > trace.times[-1] + slack:
        raise WindowExceedsTrace(f"t(n)+T = {target:g} exceeds t(N) = {trace.times[-1]:g}")
    after_n = math.nextafter(trace.times[n], math.inf)
    k = int(np.searchsorted(trace.times, max(target - slack, after_n)))
    if k == trace.times.size:
        raise WindowExceedsTrace(f"no node of the trace comes after t(n) = {trace.times[n]:g}")
    return k
