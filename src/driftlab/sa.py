"""Robbins-Monro iteration with martingale-difference noise.

Runs x(n+1) = x(n) + a(n) (h(x(n)) + M(n+1)) for a piecewise field h,
records the full trace with its algorithmic timescale t(n) = sum_{m<n} a(m),
and interpolates the path linearly between the nodes (t(n), x(n)).

run_sa takes one of two paths, picked by the field's structure alone; both
give traces bit-identical to the numpy loop x = x + a * (evaluate(x) + M).
When the field has exactly one guard, a CoordinateGuard, both region pieces,
and every piece is a ConstantPiece (relay, example1, spurious_equilibrium),
the drift is one of three constant rows picked by the sign of one
coordinate. The three rows are built into a table before the first step;
only the guarded coordinate steps in Python, with the three drifts' guarded
coordinates held in local floats and each step's sign code appended to a
list; the picked rows are then read from the table at code + 1, and the
states are one sequential np.add.accumulate of the increments a * (z + M),
a block at a time. These are the same IEEE operations in the same order.
Every other field, a one-guard field missing a region piece included, steps
all coordinates on Python floats, one sign_pattern and piece_for per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergedIterate,
    IndexOutOfRange,
    OutOfDomain,
    WindowExceedsTrace,
)
from .fields import ConstantPiece, CoordinateGuard

DEFAULT_BLOWUP_BOUND = 1e6
_BLOCK_ROWS = 4096  # steps and noises are read, states and drifts written, per block


# ---------------------------------------------------------------------------
# stepsize schedules

@dataclass
class StepsizeSchedule:
    """a(n) = a0 / (n+1)^gamma for the power kind; constant and custom too."""

    kind: str = "power"
    a0: float = 1.0
    gamma: float = 1.0
    sequence: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("power", "constant", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("power", "constant") and self.a0 <= 0:
            raise ValueError("a0 must be > 0")
        if self.kind == "custom":
            if self.sequence is None:
                raise ValueError("custom schedule needs a sequence")
            self.sequence = np.asarray(self.sequence, dtype=float)
            if np.any(self.sequence < 0):
                raise ValueError("custom stepsizes must be >= 0")

    def values(self, n_steps):
        if self.kind == "power":
            return self.a0 / (np.arange(1, n_steps + 1, dtype=float)) ** self.gamma
        if self.kind == "constant":
            return np.full(n_steps, self.a0)
        if n_steps > self.sequence.size:
            raise IndexOutOfRange("custom schedule exhausted")
        return self.sequence[:n_steps].copy()

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
    bounded by scale^2 * d * (1 + |x|^2)."""

    kind: str = "gaussian"
    scale: float = 0.1

    def __post_init__(self):
        if self.kind not in _DENSITY_KINDS + _ATOMIC_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be >= 0")

    @property
    def density_flag(self):
        """True iff the conditional law is absolutely continuous; at scale 0
        every kind is a Dirac mass."""
        return self.kind in _DENSITY_KINDS and self.scale > 0

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
    x(n+1) = x(n) + a(n) (z(n) + M(n+1)) bit-exactly."""

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
    steps = schedule.values(n_steps)
    noises = noise.sample_batch(n_steps, d, rng)
    states = np.empty((n_steps + 1, d))
    drifts = np.empty((n_steps, d))
    states[0] = x0
    column = _guard_column(field)
    if column is None:
        _step_loop(field, states, drifts, steps, noises, blowup_bound)
    else:
        _step_table(field, column, states, drifts, steps, noises, blowup_bound)
    times = np.concatenate([[0.0], np.cumsum(steps)])
    return IterateTrace(
        states=states,
        drifts=drifts,
        noises=noises,
        steps=steps,
        times=times,
        seed=int(seed),
        field_name=field.name,
    )


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


def _guard_column(field):
    """The coordinate the field's one guard reads, when that guard is a
    CoordinateGuard, both region pieces are assigned and every piece is a
    ConstantPiece, so that the drift is one of three constants picked by the
    sign of that coordinate; None otherwise. Boundary values are
    ConstantPieces already."""
    if len(field.guards) != 1 or len(field.pieces) != 2 or not field.is_piecewise_constant():
        return None
    (guard,) = field.guards
    if type(guard) is not CoordinateGuard:
        return None
    return guard.index % field.dimension


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


def _step_table(field, column, states, drifts, steps, noises, blowup_bound):
    """Constant pieces behind one coordinate guard: only the guarded
    coordinate steps in Python, to pick each step's sign code; the states
    are then one sequential np.add.accumulate over the increments a * (z + m)
    of the picked drift rows, a block at a time."""
    n_steps = steps.size
    # row code + 1 is the drift of that code; a ConstantPiece's value does not depend on x
    table = np.array([field.piece_for(label).value(None) for label in "-0+"])
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
            sure = np.sqrt((block[1:] * block[1:]).sum(axis=1)) <= sure_bound
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
    if np.any(t_arr < times[0] - 1e-12) or np.any(t_arr > times[-1] + 1e-12):
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
    """Smallest k with t(k) >= t(n) + T (within a roundoff slack)."""
    if T <= 0:
        raise ValueError("T must be > 0")
    if n < 0 or n >= trace.times.size:
        raise IndexOutOfRange(f"index {n} outside [0, {trace.times.size - 1}]")
    target = trace.times[n] + T
    slack = _WINDOW_SLACK * max(1.0, abs(target))
    if target > trace.times[-1] + slack:
        raise WindowExceedsTrace(
            f"t(n)+T = {target:g} exceeds t(N) = {trace.times[-1]:g}"
        )
    k = int(np.searchsorted(trace.times, target - slack, side="left"))
    return min(k, trace.times.size - 1)
