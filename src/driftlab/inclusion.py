"""Integration of the limiting differential inclusion for piecewise fields.

Inside a region the field is smooth and an explicit midpoint step (order 2)
applies; a guard sign change is located by bisection, classified as crossing
or attracting via the adjacent normal components, and attracting surfaces are
followed with the tangent convex-combination velocity until the combination
coefficient leaves its admissible band.  A full step that leaves the point
(bit for bit) and the mode unchanged is a rest point of the stepper, whose
later full steps would repeat it: they are written out without stepping,
on any field.  A region of a constant piece, and a slide on an affine guard
between two constant pieces, step by a fixed translation x + dt*v; after a
full step that made it, the later ones are built in one array pass and
stop before the first node that crosses a guard, leaves the surface by
more than 1e-14 on a slide, or no full step reaches, which the loop then
takes.
The tracking comparator steps a member of the same solution set, pulled
toward a reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, SlopeOverflow, StepTooLarge
from .fields import (
    DEFAULT_RADIUS_TOL, AffineGuard, ConstantPiece, CoordinateGuard, _row_norms, filippov_map,
)
from .sa import interpolate_path

DEFAULT_SURFACE_TOL = 1e-10
_ALPHA_EXIT_LO = 0.001  # hysteresis band against chattering re-entry
_ALPHA_EXIT_HI = 0.999
_MAX_BISECT = 200
_MAX_BLOCK = 4096  # nodes per block of the stepper's repeated steps and the comparator's walk


@dataclass
class Trajectory:
    """A continuous-time path: strictly increasing finite times, one finite
    point each, and a per-segment mode tag (a sign pattern or 'slide:k')."""

    times: np.ndarray
    points: np.ndarray
    mode_labels: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.times.size != self.points.shape[0]:
            raise ValueError("times and points must have equal length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.points))):
            raise ValueError("times and points must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dimension(self):
        return self.points.shape[1]

    def value_at(self, t):
        """Affine interpolation; exact at the grid nodes."""
        return interpolate_path(self.times, self.points, t)

    def segment_slopes(self):
        return _slopes(self.times, self.points)


def _slopes(times, points):
    """Each segment's slope; SlopeOverflow names the first that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(points, axis=0) / np.diff(times)[:, None]
    bad = np.flatnonzero(~np.isfinite(slopes).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise SlopeOverflow(f"segment {i} (t = {times[i]:g} to {times[i + 1]:g}): its slope overflows")
    return slopes


@dataclass
class SlidingDecision:
    kind: str  # "sliding" | "crossing" | "tangent" | "repulsive"
    velocity: np.ndarray
    alpha: float | None
    side: str | None
    normal_plus: float
    normal_minus: float


def sliding_velocity(f_plus, f_minus, grad_g):
    """Classify a switching surface from the two adjacent field values.

    With p = <grad, f_plus>, m = <grad, f_minus>: p < 0 < m is attracting and
    the tangent velocity is alpha*f_plus + (1-alpha)*f_minus with
    alpha = m/(m-p); equal strict signs cross toward the downstream side;
    a vanishing normal component is tangent on that side.
    """
    f_plus = np.asarray(f_plus, dtype=float)
    f_minus = np.asarray(f_minus, dtype=float)
    grad_g = np.asarray(grad_g, dtype=float)
    if np.linalg.norm(grad_g) < 1e-14:
        raise DegenerateGeometry("guard gradient is numerically zero")
    p = float(grad_g @ f_plus)
    m = float(grad_g @ f_minus)
    if p < 0.0 < m:
        alpha = m / (m - p)
        v = alpha * f_plus + (1.0 - alpha) * f_minus
        return SlidingDecision("sliding", v, alpha, None, p, m)
    if p == 0.0:
        return SlidingDecision("tangent", f_plus.copy(), None, "+", p, m)
    if m == 0.0:
        return SlidingDecision("tangent", f_minus.copy(), None, "-", p, m)
    if p > 0.0 and m > 0.0:
        return SlidingDecision("crossing", f_plus.copy(), None, "+", p, m)
    if p < 0.0 and m < 0.0:
        return SlidingDecision("crossing", f_minus.copy(), None, "-", p, m)
    # p > 0 > m: both sides point away; deterministic '+' side
    return SlidingDecision("repulsive", f_plus.copy(), None, "+", p, m)


def _with_slot(pattern, k, char):
    chars = list(pattern)
    chars[k] = char
    return "".join(chars)


def _bisect(residual, h, tol):
    """A step s in [0, h] with |residual(s)| <= tol/4, by bisection, for a
    residual that is positive at 0 and negative at h; the last midpoint if
    _MAX_BISECT halvings do not get there."""
    lo, hi = 0.0, h
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        val = residual(mid)
        if abs(val) <= 0.25 * tol:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _FilippovStepper:
    """Event-driven stepping state machine behind integrate_filippov."""

    def __init__(self, field, x0, dt):
        self.field = field
        self.dt = dt
        self.x = np.asarray(x0, dtype=float).copy()
        self.t = 0.0
        self.times = [0.0]
        self.points = [self.x[None]]  # (n, d) blocks; no step writes into self.x
        self.labels = []
        self.mode = None  # ("region", pattern) | ("slide", k, pattern_with_0)
        self._resolve_mode()

    # -- bookkeeping --------------------------------------------------------

    def _record(self, t_new, x_new, label):
        if t_new <= self.t:
            return
        self.t = t_new
        self.x = x_new
        self.times.append(t_new)
        self.points.append(x_new[None])
        self.labels.append(label)

    def _record_block(self, times, points, label):
        """_record for each row of a block of nodes with one label."""
        self.times += times.tolist()
        self.points.append(points)
        self.labels += [label] * len(times)
        self.t, self.x = self.times[-1], points[-1]

    def _trajectory(self):
        return Trajectory(np.array(self.times), np.concatenate(self.points), self.labels)

    # -- mode resolution ----------------------------------------------------

    def _crossed(self, pattern, x):
        """Guards that x lies beyond, by more than DEFAULT_SURFACE_TOL, on
        the side opposite to their sign in pattern ('0' slots are skipped)."""
        labels = self.field.sign_pattern(x, zero_tol=DEFAULT_SURFACE_TOL)
        return [
            k for k, (c, new) in enumerate(zip(pattern, labels)) if c != new and "0" not in (c, new)
        ]

    def _resolve_mode(self, pattern=None):
        """The mode of self.x from its sign pattern at DEFAULT_SURFACE_TOL, or
        from a given pattern whose '0' slots are the guards x keeps."""
        if pattern is None:
            pattern = self.field.sign_pattern(self.x, zero_tol=DEFAULT_SURFACE_TOL)
        active = [k for k, c in enumerate(pattern) if c == "0"]
        if not active:
            self.mode = ("region", pattern)
        elif len(active) == 1:
            self._classify_surface(active[0], pattern)
        else:
            self.mode = ("corner", pattern)

    def _refuse_repulsive(self, dec, k, pattern):
        """Raise DegenerateGeometry when dec, the decision at self.x, is
        repulsive: both sides point away, so the Filippov solution leaving
        surface k is not unique."""
        if dec.kind == "repulsive":
            raise DegenerateGeometry(
                f"surface {k} is repulsive at x = {self.x.tolist()} (pattern {pattern!r}): "
                "the Filippov solution leaving it is not unique"
            )

    def _classify_surface(self, k, pattern):
        dec = self._sliding_decision(self.x, k, pattern)
        self._refuse_repulsive(dec, k, pattern)
        if dec.kind == "sliding":
            # strictly attracting; the slide step handles band-edge exits
            self.mode = ("slide", k, _with_slot(pattern, k, "0"))
        else:
            self.mode = ("region", _with_slot(pattern, k, dec.side))

    # -- stepping along a path ----------------------------------------------

    def _step_along(self, path, pattern, h, label):
        """Advance along path(s), s in [0, h], from self.x (path(0)) to the
        first guard it reaches: record the path up to that event, then go to
        a corner when several guards are reached at once or when the path
        already keeps a surface ('0' in pattern), else classify the surface
        that was reached."""
        x_try = path(h)
        crossed = self._crossed(pattern, x_try)
        if not crossed:
            self._record(self.t + h, x_try, label)
            return
        events = []
        for k in crossed:
            guard = self.field.guards[k]
            sigma = 1.0 if pattern[k] == "+" else -1.0
            if sigma * guard.value(self.x) <= DEFAULT_SURFACE_TOL:
                events.append((0.0, k))
                continue
            s_star = _bisect(lambda s: sigma * guard.value(path(s)), h, DEFAULT_SURFACE_TOL)
            if abs(sigma * guard.value(path(s_star))) > DEFAULT_SURFACE_TOL:
                raise StepTooLarge(
                    f"could not bisect guard {k} onto the surface within tolerance"
                )
            events.append((s_star, k))
        events.sort()
        s_star, k_star = events[0]
        simultaneous = [k for s, k in events if s <= s_star + 1e-12 * max(h, 1.0)]
        if s_star > 0.0:
            self._record(self.t + s_star, path(s_star), label)
        if len(simultaneous) > 1 or "0" in pattern:
            self.mode = ("corner", self.field.sign_pattern(self.x, zero_tol=DEFAULT_SURFACE_TOL))
            return
        self._classify_surface(k_star, _with_slot(pattern, k_star, "0"))

    def _region_step(self, h):
        pattern = self.mode[1]
        piece = self.field.piece_for(pattern)
        x = self.x

        def advance(s):
            mid = x + 0.5 * s * piece.value(x)
            return x + s * piece.value(mid)

        self._step_along(advance, pattern, h, pattern)

    # -- sliding ------------------------------------------------------------

    def _sliding_decision(self, x, k, pattern0):
        f_plus = self.field.piece_for(_with_slot(pattern0, k, "+")).value(x)
        f_minus = self.field.piece_for(_with_slot(pattern0, k, "-")).value(x)
        return sliding_velocity(f_plus, f_minus, self.field.guards[k].gradient(x))

    def _project_to_surface(self, x, k):
        guard = self.field.guards[k]
        for _ in range(2):
            g = guard.value(x)
            if abs(g) <= 1e-14:
                break
            grad = np.asarray(guard.gradient(x), dtype=float)
            denom = float(grad @ grad)
            if denom < 1e-28:
                break
            x = x - (g / denom) * grad
        return x

    def _slide_step(self, h):
        _, k, pattern0 = self.mode
        dec = self._sliding_decision(self.x, k, pattern0)
        self._refuse_repulsive(dec, k, pattern0)
        if dec.kind != "sliding":
            self.mode = ("region", _with_slot(pattern0, k, dec.side))
            return
        if not (_ALPHA_EXIT_LO <= dec.alpha <= _ALPHA_EXIT_HI):
            # band-edge exit: one tangential grace step keeps the stepper
            # moving while the surface is still (weakly) attracting
            x_new = self._project_to_surface(self.x + h * dec.velocity, k)
            self._record(self.t + h, x_new, f"slide:{k}")
            side = "+" if dec.alpha > 0.5 else "-"
            self.mode = ("region", _with_slot(pattern0, k, side))
            return
        v = dec.velocity
        mid = self.x + 0.5 * h * v
        dec_mid = self._sliding_decision(mid, k, pattern0)
        if dec_mid.kind == "sliding":
            v = dec_mid.velocity
        x = self.x
        # other guards may be hit while sliding
        self._step_along(
            lambda s: self._project_to_surface(x + s * v, k), pattern0, h, f"slide:{k}"
        )

    # -- corner fallback ----------------------------------------------------

    def _corner_step(self, h):
        # least-norm hull element up to the first guard reached (at rest,
        # none is), then re-classify.  Where it strictly leaves active guards
        # and at most one stays active, no step: re-classify at once with them
        # on the sides it leaves to, unless that mode's own velocity does not
        # leave them alike (coincident guards can turn it back into the corner)
        v = filippov_map(self.field, self.x, DEFAULT_RADIUS_TOL).least_norm
        x, corner = self.x, self.mode
        pattern = corner[1]
        kept = self._kept_guards(pattern, v)
        if kept != pattern and kept.count("0") <= 1:
            self._resolve_mode(kept)
            if self._kept_guards(pattern, self._mode_velocity()) == kept:
                return
            self.mode = corner
        if any(v.tolist()):
            self._step_along(lambda s: x + s * v, pattern, h, pattern)
        else:
            self._record(self.t + h, x + h * v, pattern)
        self._resolve_mode()

    def _mode_velocity(self):
        """The velocity of the region or slide mode at self.x."""
        if self.mode[0] == "region":
            return self.field.piece_for(self.mode[1]).value(self.x)
        _, k, pattern0 = self.mode
        return self._sliding_decision(self.x, k, pattern0).velocity

    def _kept_guards(self, pattern, v):
        """pattern with each '0' slot whose guard v strictly leaves, at a
        normal speed above DEFAULT_SURFACE_TOL, set to the side it leaves to."""
        chars = list(pattern)
        for k, c in enumerate(pattern):
            if c == "0":
                grad = np.asarray(self.field.guards[k].gradient(self.x), dtype=float)
                speed = float(grad @ v)
                if abs(speed) > DEFAULT_SURFACE_TOL * float(np.linalg.norm(grad)):
                    chars[k] = "+" if speed > 0.0 else "-"
        return "".join(chars)

    # -- repeated steps -------------------------------------------------------

    def _translation(self):
        """v when every full step of the current mode is x + dt*v, up to the
        events the step itself finds, with v fixed by the mode: a region
        whose piece is a ConstantPiece, or a slide that it keeps on an
        AffineGuard or CoordinateGuard between two ConstantPieces (its
        decision and band do not depend on x, and its projection returns
        x + dt*v where |g| <= 1e-14); else None."""
        if self.mode[0] == "region":
            piece = self.field.piece_for(self.mode[1])
            return piece.c if type(piece) is ConstantPiece else None
        if self.mode[0] == "slide":
            _, k, pattern0 = self.mode
            sides = [self.field.pieces.get(_with_slot(pattern0, k, c)) for c in "+-"]
            if type(self.field.guards[k]) in (AffineGuard, CoordinateGuard) and all(
                type(p) is ConstantPiece for p in sides
            ):
                dec = self._sliding_decision(self.x, k, pattern0)
                if dec.kind == "sliding" and _ALPHA_EXIT_LO <= dec.alpha <= _ALPHA_EXIT_HI:
                    return dec.velocity
        return None

    def _full_step_times(self, t_end, size):
        """The times of the run loop's next full steps (h == dt), at most
        size: each the sequential add t + dt of the last, while
        t < t_end - 1e-14, t_end - t >= dt and t + dt > t."""
        # the sequential adds may fit one step more than the quotient says
        size = int(min(size, (t_end - self.t) / self.dt + 2))
        times = np.full(size + 1, self.dt)
        times[0] = self.t
        with np.errstate(over="ignore"):
            np.add.accumulate(times, out=times)
        before, after = times[:-1], times[1:]
        full = (before < t_end - 1e-14) & (t_end - before >= self.dt) & (after > before)
        return after[: _leading(full)]

    def _translated(self, v, count):
        """The nodes x + dt*v, (x + dt*v) + dt*v, ... of count full steps
        (the step's own sequential adds), and how many the step reaches
        that way: up to the first that is not finite, lies beyond a guard
        of the mode's pattern by more than DEFAULT_SURFACE_TOL (one
        labeled '0' is not crossed) or, on a slide, has |g| > 1e-14."""
        points = np.empty((count + 1, self.x.size))
        points[0] = self.x
        points[1:] = self.dt * v
        with np.errstate(over="ignore"):
            np.add.accumulate(points, axis=0, out=points)
        points = points[1:]
        points = points[: _leading(np.isfinite(points).all(axis=1))]
        signs = np.array(["-0+".index(c) - 1 for c in self.mode[-1]], dtype=np.int8)
        # a guard is crossed where its label and the pattern's sign are opposite
        kept = ~(self.field.sign_labels(points, DEFAULT_SURFACE_TOL) * signs < 0).any(axis=1)
        return points, _leading(kept & self._in_band(points))

    def _in_band(self, points):
        """Which rows of points a slide keeps as they are (|g| <= 1e-14);
        every row in a region."""
        if self.mode[0] != "slide":
            return np.ones(len(points), dtype=bool)
        return np.abs(self.field.guards[self.mode[1]].value_batch(points)) <= 1e-14

    def _repeat_steps(self, x_before, t_end):
        """After a full step from x_before that kept the mode, append the
        later full steps that repeat it, in blocks that double from 16
        nodes to _MAX_BLOCK.  A step reads (x, mode, h), never t: one that
        kept x (bit for bit) is a rest point, and every later full step
        keeps x too.  One that moved x by exactly dt*v, the mode's
        translation, is followed by its translates while each is one (see
        _translated); the step after them goes through the loop."""
        if self.x.tobytes() == x_before.tobytes():
            v = None
        else:
            v = self._translation()
            if v is None or (x_before + self.dt * v).tobytes() != self.x.tobytes():
                return
            # a slide that alternates translation and projection leaves the
            # band at the next node: skip the block that would keep none
            if not self._in_band((self.x + self.dt * v)[None])[0]:
                return
        label, size = self.labels[-1], 16
        while True:
            times = self._full_step_times(t_end, size)
            if v is None:
                points, n = np.repeat(self.x[None], times.size, axis=0), times.size
            else:
                points, n = self._translated(v, times.size)
            if n:
                self._record_block(times[:n], points[:n], label)
            if n < size:
                return
            size = min(2 * size, _MAX_BLOCK)

    # -- driver -------------------------------------------------------------

    def run(self, t_end):
        stall_guard = 0
        while self.t < t_end - 1e-14:
            h = min(self.dt, t_end - self.t)
            t_before, x_before, mode_before = self.t, self.x, self.mode
            if self.mode[0] == "region":
                self._region_step(h)
            elif self.mode[0] == "slide":
                self._slide_step(h)
            else:
                self._corner_step(h)
            if self.t <= t_before:
                stall_guard += 1
                if stall_guard > 100:
                    raise StepTooLarge("integration stalled at a switching surface")
                continue
            stall_guard = 0
            if h == self.dt and self.mode == mode_before:
                self._repeat_steps(x_before, t_end)
        return self._trajectory()


def _leading(flags):
    """How many entries of the boolean array flags are True before the
    first False."""
    return flags.size if flags.all() else int(flags.argmin())


def integrate_filippov(field, x0, t_end, dt):
    """One canonical solution of the inclusion dx/dt in F(x) from x0.

    Explicit midpoint inside regions, bisection event location onto switching
    surfaces, sliding with the tangent combination on attracting surfaces,
    least-norm fallback at corners.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if x0.size != field.dimension:
        raise ValueError(f"x0 has size {x0.size}, field dimension is {field.dimension}")
    stepper = _FilippovStepper(field, x0.reshape(-1), dt)
    return stepper.run(float(t_end))


def integrate_tracking_selection(field, reference, dt):
    """Approximate inclusion solution biased toward a reference path, over
    the reference's own span.

    At each node the velocity is the hull projection of the reference's
    local slope onto the Filippov set at the current point, so the output is
    the member of the solution set pulled toward the reference; where that
    set is a single vertex, the velocity is the vertex and nothing is
    projected.  Each node is labeled with its sign pattern at
    DEFAULT_RADIUS_TOL; on a field where fields.maps_follow_pattern holds,
    filippov_map decides the set once per such pattern and keeps it.  On a
    field with a guard table (fields.PiecewiseField.guard_table), the '+'
    and '-' sets are the table's rows, so every node off the guard by more
    than DEFAULT_RADIUS_TOL is stepped by _walk_nodes, bit for bit as the
    node-by-node step would; the other nodes take that step.  The step grid
    is the union of the uniform dt grid and the reference's own nodes, which
    keeps exact reference trajectories reproducible; a reference slope over
    it that overflows raises SlopeOverflow.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if reference.times.size < 2:
        raise ValueError("the reference needs at least two nodes")
    t0, t1 = float(reference.times[0]), float(reference.times[-1])
    grid = np.arange(t0, t1, dt)
    grid = np.unique(np.concatenate([grid, reference.times]))
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * max(1.0, t1 - t0)])
    grid = grid[keep]
    if grid[-1] < t1:
        grid[-1] = t1

    spans = np.diff(grid)
    slopes = _slopes(grid, reference.value_at(grid))
    points = np.empty((grid.size, reference.dimension))
    points[0] = reference.points[0]
    labels = []
    guard_table = field.guard_table()
    span_list = None if guard_table is None else spans.tolist()
    i = 0
    while i < spans.size:
        if guard_table is not None:
            stepped = _walk_nodes(points, spans, span_list, i, *guard_table, labels)
            if stepped:
                i += stepped
                continue
        y = points[i]
        labels.append(field.sign_pattern(y, zero_tol=DEFAULT_RADIUS_TOL))
        hull = filippov_map(field, y, DEFAULT_RADIUS_TOL)
        if hull.distinct_vertices.shape[0] > 1:
            v, _ = hull.project(slopes[i])
        else:
            v = hull.distinct_vertices[0]
        points[i + 1] = y + spans[i] * v
        i += 1
    return Trajectory(grid, points, labels)


def _walk_nodes(points, spans, span_list, i, column, table, labels):
    """Step nodes from node i, on a field whose guard_table is (column,
    table), while the guarded coordinate g keeps |g| > DEFAULT_RADIUS_TOL
    (sign code 1, label '+', or -1, '-'); fill their points and labels and
    return how many nodes were stepped, 0 at once when node i is not such a
    node.  Only g steps on a Python float, g + span * v[column], a block of
    _MAX_BLOCK nodes at a time; each block's points are then one np.multiply
    of span * v and one np.add.accumulate, the same IEEE operations in the
    same order as the one-node step y + span * v."""
    hi, lo = DEFAULT_RADIUS_TOL, -DEFAULT_RADIUS_TOL
    g = float(points[i, column])
    if not (g > hi or g < lo):
        return 0
    g_neg, _, g_pos = table[:, column].tolist()
    start = i
    while i < spans.size:
        g, stop = float(points[i, column]), min(i + _MAX_BLOCK, spans.size)
        codes = []
        append = codes.append
        for span in span_list[i:stop]:
            if g > hi:
                g += span * g_pos
                append(1)
            elif g < lo:
                g += span * g_neg
                append(-1)
            else:
                break
        kept = len(codes)
        if kept:
            block = points[i : i + kept + 1]
            rows = table[np.fromiter(codes, np.intp, kept) + 1]  # row code + 1 of a guard table
            np.multiply(spans[i : i + kept, None], rows, out=block[1:])
            np.add.accumulate(block, axis=0, out=block)
            labels += ["-0+"[code + 1] for code in codes]
            i += kept
        if i < stop:
            break
    return i - start


def max_slope_residual(field, trajectory):
    """A-posteriori inclusion check: max over segments of the hull distance
    of the finite-difference slope from the Filippov set at the segment
    midpoint, with the adjacency ball widened by half the segment chord."""
    slopes = trajectory.segment_slopes()
    worst = 0.0
    for i in range(slopes.shape[0]):
        a, b = trajectory.points[i], trajectory.points[i + 1]
        mid = 0.5 * (a + b)
        band = DEFAULT_RADIUS_TOL + 0.5 * float(_row_norms((b - a)[None])[0])
        worst = max(worst, filippov_map(field, mid, band).distance(slopes[i]))
    return worst
