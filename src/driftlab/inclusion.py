"""Integration of the limiting differential inclusion for piecewise fields.

Inside a region the field is smooth and an explicit midpoint step (order 2)
applies; a guard sign change is located by bisection, classified as crossing
or attracting via the adjacent normal components, and attracting surfaces are
followed with the tangent convex-combination velocity until the combination
coefficient leaves its admissible band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, OutOfDomain, StepTooLarge
from .fields import DEFAULT_RADIUS_TOL, PatternMaps

DEFAULT_SURFACE_TOL = 1e-10
_ALPHA_EXIT_LO = 0.001  # hysteresis band against chattering re-entry
_ALPHA_EXIT_HI = 0.999
_MAX_BISECT = 200


@dataclass
class Trajectory:
    """A continuous-time path: strictly increasing times, one point each,
    and a per-segment mode tag (region pattern, 'slide:k', or a corner tag)."""

    times: np.ndarray
    points: np.ndarray
    mode_labels: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.times.size != self.points.shape[0]:
            raise ValueError("times and points must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dimension(self):
        return self.points.shape[1]

    def value_at(self, t):
        """Affine interpolation; exact at the grid nodes."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if np.any(t_arr < self.times[0] - 1e-12) or np.any(t_arr > self.times[-1] + 1e-12):
            raise OutOfDomain(f"t outside [{self.times[0]:g}, {self.times[-1]:g}]")
        t_arr = np.clip(t_arr, self.times[0], self.times[-1])
        idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0, self.times.size - 2)
        span = self.times[idx + 1] - self.times[idx]
        w = (t_arr - self.times[idx]) / span
        out = self.points[idx] + w[:, None] * (self.points[idx + 1] - self.points[idx])
        return out[0] if scalar else out

    def segment_slopes(self):
        dt = np.diff(self.times)[:, None]
        return np.diff(self.points, axis=0) / dt


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

    def __init__(self, field, x0, dt, surface_tol, radius_tol):
        self.field = field
        self.dt = dt
        self.surface_tol = surface_tol
        self.radius_tol = radius_tol
        self.maps = PatternMaps(field)
        self.x = np.asarray(x0, dtype=float).copy()
        self.t = 0.0
        self.times = [0.0]
        self.points = [self.x.copy()]
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
        self.points.append(x_new.copy())
        self.labels.append(label)

    # -- mode resolution ----------------------------------------------------

    def _crossed(self, pattern, x):
        """Guards that x lies beyond, by more than surface_tol, on the side
        opposite to their sign in pattern ('0' slots are skipped)."""
        labels = self.field.sign_pattern(x, zero_tol=self.surface_tol)
        return [
            k for k, (c, new) in enumerate(zip(pattern, labels)) if c != new and "0" not in (c, new)
        ]

    def _resolve_mode(self):
        pattern = self.field.sign_pattern(self.x, zero_tol=self.surface_tol)
        active = [k for k, c in enumerate(pattern) if c == "0"]
        if not active:
            self.mode = ("region", pattern)
        elif len(active) == 1:
            self._classify_surface(active[0], pattern)
        else:
            self.mode = ("corner", pattern)

    def _classify_surface(self, k, pattern):
        dec = self._sliding_decision(self.x, k, pattern)
        if dec.kind == "sliding":
            # strictly attracting; the slide step handles band-edge exits
            self.mode = ("slide", k, _with_slot(pattern, k, "0"))
        else:
            self.mode = ("region", _with_slot(pattern, k, dec.side))

    # -- region stepping ----------------------------------------------------

    def _region_step(self, h):
        pattern = self.mode[1]
        piece = self.field.piece_for(pattern)
        x = self.x

        def advance(s):
            mid = x + 0.5 * s * piece.value(x)
            return x + s * piece.value(mid)

        x_try = advance(h)
        crossed = self._crossed(pattern, x_try)
        if not crossed:
            self._record(self.t + h, x_try, pattern)
            return
        events = []
        for k in crossed:
            guard = self.field.guards[k]
            sigma = 1.0 if pattern[k] == "+" else -1.0
            e0 = sigma * guard.value(x)
            if e0 <= self.surface_tol:
                events.append((0.0, k))
                continue
            s_star = _bisect(lambda s: sigma * guard.value(advance(s)), h, self.surface_tol)
            if abs(sigma * guard.value(advance(s_star))) > self.surface_tol:
                raise StepTooLarge(
                    f"could not bisect guard {k} onto the surface within tolerance"
                )
            events.append((s_star, k))
        events.sort()
        s_star, k_star = events[0]
        simultaneous = [k for s, k in events if s <= s_star + 1e-12 * max(h, 1.0)]
        if s_star > 0.0:
            self._record(self.t + s_star, advance(s_star), pattern)
        if len(simultaneous) > 1:
            self.mode = ("corner", self.field.sign_pattern(self.x, zero_tol=self.surface_tol))
            return
        surf_pattern = _with_slot(pattern, k_star, "0")
        self._classify_surface(k_star, surf_pattern)

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
        x_try = self._project_to_surface(self.x + h * v, k)
        # other guards may be hit while sliding
        crossed = self._crossed(pattern0, x_try)
        if crossed:
            j = crossed[0]
            guard = self.field.guards[j]
            sigma = 1.0 if pattern0[j] == "+" else -1.0
            s_star = _bisect(
                lambda s: sigma * guard.value(self._project_to_surface(self.x + s * v, k)),
                h,
                self.surface_tol,
            )
            if s_star > 0:
                self._record(
                    self.t + s_star,
                    self._project_to_surface(self.x + s_star * v, k),
                    f"slide:{k}",
                )
            self.mode = ("corner", self.field.sign_pattern(self.x, zero_tol=self.surface_tol))
            return
        self._record(self.t + h, x_try, f"slide:{k}")

    # -- corner fallback ----------------------------------------------------

    def _corner_step(self, h):
        # least-norm hull element for one step, then re-classify
        hull = self.maps.filippov(self.x, max(self.radius_tol, self.surface_tol))
        self._record(self.t + h, self.x + h * hull.least_norm, self.mode[1])
        self._resolve_mode()

    # -- driver -------------------------------------------------------------

    def run(self, t_end):
        stall_guard = 0
        while self.t < t_end - 1e-14:
            h = min(self.dt, t_end - self.t)
            t_before = self.t
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
            else:
                stall_guard = 0
        return Trajectory(np.array(self.times), np.array(self.points), self.labels)


def integrate_filippov(
    field,
    x0,
    t_end,
    dt,
    surface_tol=DEFAULT_SURFACE_TOL,
    radius_tol=DEFAULT_RADIUS_TOL,
):
    """One canonical solution of the inclusion dx/dt in F(x) from x0.

    Explicit midpoint inside regions, bisection event location onto switching
    surfaces, sliding with the tangent combination on attracting surfaces,
    least-norm fallback at corners.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    stepper = _FilippovStepper(field, x0, dt, surface_tol, radius_tol)
    return stepper.run(float(t_end))


def integrate_tracking_selection(
    field,
    reference,
    t_span,
    dt,
    radius_tol=DEFAULT_RADIUS_TOL,
):
    """Approximate inclusion solution biased toward a reference path.

    At each node the velocity is the hull projection of the reference's
    local slope onto the Filippov set at the current point, so the output is
    the member of the solution set pulled toward the reference; each node is
    labeled with its sign pattern at radius_tol, and on a field where
    fields.maps_follow_pattern holds that label also picks the Filippov set,
    decided once per pattern.  The step grid is the union of the uniform dt
    grid and the reference's own nodes, which keeps exact reference
    trajectories reproducible.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if t0 < reference.times[0] - 1e-12 or t1 > reference.times[-1] + 1e-12:
        raise OutOfDomain("reference does not cover t_span")
    grid = np.arange(t0, t1, dt)
    inside = reference.times[(reference.times > t0) & (reference.times < t1)]
    grid = np.unique(np.concatenate([grid, inside, [t0, t1]]))
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * max(1.0, t1 - t0)])
    grid = grid[keep]
    if grid[-1] < t1:
        grid[-1] = t1

    y = np.asarray(reference.value_at(t0), dtype=float).copy()
    points = [y.copy()]
    labels = []
    ref_pts = reference.value_at(grid)
    maps = PatternMaps(field)
    for i in range(grid.size - 1):
        span = grid[i + 1] - grid[i]
        slope = (ref_pts[i + 1] - ref_pts[i]) / span
        label = field.sign_pattern(y, zero_tol=radius_tol)
        v, _ = maps.filippov(y, radius_tol, label).project(slope)
        labels.append(label)
        y = y + span * v
        points.append(y.copy())
    return Trajectory(grid, np.array(points), labels)


def max_slope_residual(field, trajectory, radius_tol=DEFAULT_RADIUS_TOL):
    """A-posteriori inclusion check: max over segments of the hull distance
    of the finite-difference slope from the Filippov set at the segment
    midpoint, with the adjacency ball widened by half the segment chord."""
    slopes = trajectory.segment_slopes()
    maps = PatternMaps(field)
    worst = 0.0
    for i in range(slopes.shape[0]):
        a, b = trajectory.points[i], trajectory.points[i + 1]
        mid = 0.5 * (a + b)
        band = radius_tol + 0.5 * float(np.linalg.norm(b - a))
        hull = maps.filippov(mid, band)
        worst = max(worst, hull.distance(slopes[i]))
    return worst
