import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    CoordinateGuard,
    PiecewiseField,
)
from driftlab.errors import StepTooLarge
from driftlab.inclusion import DEFAULT_SURFACE_TOL, Trajectory, _FilippovStepper


class TestSlidingVelocity:
    def test_example1_surface(self):
        dec = dl.sliding_velocity([1.0, -1.0], [1.0, 1.0], [0.0, 1.0])
        # solve <grad, v> = 0: 1 - 2 alpha = 0
        assert dec.kind == "sliding"
        assert dec.alpha == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(dec.velocity, [1.0, 0.0], atol=1e-15)

    def test_crossing_upward(self):
        dec = dl.sliding_velocity([1.0, 1.0], [1.0, 1.0], [0.0, 1.0])
        assert dec.kind == "crossing" and dec.side == "+"
        assert np.array_equal(dec.velocity, [1.0, 1.0])

    def test_relay_symmetric_surface(self):
        dec = dl.sliding_velocity([-1.0], [1.0], [1.0])
        assert dec.kind == "sliding" and dec.alpha == pytest.approx(0.5)
        assert np.allclose(dec.velocity, [0.0], atol=1e-15)
        # brute force: v = 0 is the unique tangent element of hull{-1, 1}
        candidates = np.linspace(-1.0, 1.0, 2001)
        tangent = candidates[np.abs(candidates * 1.0) < 5e-4]
        assert tangent.size == 1 and tangent[0] == pytest.approx(0.0, abs=5e-4)

    def test_crossing_downward_and_repulsive(self):
        down = dl.sliding_velocity([-1.0, -1.0], [0.0, -2.0], [0.0, 1.0])
        assert down.kind == "crossing" and down.side == "-"
        rep = dl.sliding_velocity([0.0, 1.0], [0.0, -1.0], [0.0, 1.0])
        assert rep.kind == "repulsive" and rep.side == "+"

    def test_tangent_sides(self):
        tan_plus = dl.sliding_velocity([1.0, 0.0], [1.0, 1.0], [0.0, 1.0])
        assert tan_plus.kind == "tangent" and tan_plus.side == "+"
        tan_minus = dl.sliding_velocity([1.0, -1.0], [1.0, 0.0], [0.0, 1.0])
        assert tan_minus.kind == "tangent" and tan_minus.side == "-"

    def test_degenerate_gradient_raises(self):
        with pytest.raises(dl.DegenerateGeometry):
            dl.sliding_velocity([1.0], [-1.0], [0.0])

    def test_sliding_output_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f_plus = rng.normal(size=2)
            f_minus = rng.normal(size=2)
            grad = rng.normal(size=2)
            if np.linalg.norm(grad) < 1e-3:
                continue
            dec = dl.sliding_velocity(f_plus, f_minus, grad)
            if dec.kind != "sliding":
                continue
            hull = dl.ConvexVelocitySet(np.array([f_plus, f_minus]))
            assert hull.contains(dec.velocity, 1e-12)
            assert abs(grad @ dec.velocity) <= 1e-12


class TestIntegrateFilippov:
    def test_example1_slides_to_three(self):
        fld = dl.builtin_field("example1")
        traj = dl.integrate_filippov(fld, [0.0, 1.0], 3.0, 1e-3)
        assert np.linalg.norm(traj.points[-1] - [3.0, 0.0]) < 1e-3
        # hits y=0 at t ~ 1 at x ~ 1, then slides with v = [1, 0]
        first_slide = next(
            i for i, lab in enumerate(traj.mode_labels) if lab == "slide:0"
        )
        assert traj.times[first_slide] == pytest.approx(1.0, abs=2e-3)
        assert traj.points[first_slide][0] == pytest.approx(1.0, abs=2e-3)
        slide_slopes = traj.segment_slopes()[
            [i for i, lab in enumerate(traj.mode_labels) if lab == "slide:0"]
        ]
        assert np.allclose(slide_slopes, [1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_repulsive_start_raises(self, dimension):
        # both sides of x_0 = 0 point away from it: no unique Filippov solution
        away = np.eye(dimension)[0]
        fld = PiecewiseField(
            dimension,
            [CoordinateGuard(0, dimension)],
            {"+": ConstantPiece(away), "-": ConstantPiece(-away)},
        )
        with pytest.raises(dl.DegenerateGeometry, match=r"surface 0 is repulsive at x = \[0\.0.*'0'"):
            dl.integrate_filippov(fld, np.zeros(dimension), 0.5, 1e-3)
        assert dl.sliding_velocity(away, -away, away).kind == "repulsive"

    def test_surface_turning_repulsive_mid_slide_raises(self):
        # y = 0 attracts for x < 1 and repels for x > 1: the slide from the
        # origin reaches x = 1, where the solution leaving it is not unique
        fld = PiecewiseField(
            2,
            [CoordinateGuard(1, 2)],
            {"+": AffinePiece([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0]),
             "-": AffinePiece([[0.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])},
        )
        with pytest.raises(dl.DegenerateGeometry, match=r"surface 0 is repulsive at x = \[1\.0.*'0'"):
            dl.integrate_filippov(fld, [0.0, 0.0], 2.0, 1e-3)

    def test_relay_reaches_and_stays(self):
        traj = dl.integrate_filippov(dl.builtin_field("relay"), [0.5], 2.0, 1e-3)
        after = traj.points[traj.times >= 1.1]
        assert np.all(np.abs(after) <= 1e-3)
        assert abs(traj.value_at(1.1)[0]) <= 1e-3

    def test_linear_flow_accuracy(self):
        traj = dl.integrate_filippov(dl.builtin_field("linear"), [1.0], 1.0, 1e-3)
        assert abs(traj.points[-1][0] - np.exp(-1.0)) < 1e-5

    def test_second_order_convergence(self):
        lin = dl.builtin_field("linear")
        errors = []
        for dt in (2e-2, 1e-2):
            traj = dl.integrate_filippov(lin, [1.0], 1.0, dt)
            errors.append(np.max(np.abs(traj.points[:, 0] - np.exp(-traj.times))))
        assert errors[0] / errors[1] >= 3.5

    def test_slope_membership_invariant(self):
        # lipschitz constants of the pieces: constant pieces 0, h(x) = -x 1
        for name, x0, lipschitz in (
            ("example1", [0.0, 1.0], 0.0), ("relay", [0.5], 0.0), ("linear", [1.0], 1.0)
        ):
            fld = dl.builtin_field(name)
            dt = 1e-3
            traj = dl.integrate_filippov(fld, x0, 2.0, dt)
            tol = max(10.0 * dt * lipschitz, 1e-12)
            assert dl.max_slope_residual(fld, traj) <= tol

    @pytest.mark.filterwarnings("error")
    def test_slope_residual_of_huge_points_does_not_overflow(self):
        # the chord's length is about 1e283, and its square overflows
        fld = dl.builtin_field("example1")
        points = np.array([[1.0, 2.57e283], [1.0 + 1e270, 1.57e283]])
        traj = Trajectory(np.array([0.0, 1.0]), points, [""])
        assert dl.max_slope_residual(fld, traj) == pytest.approx(1e283, rel=1e-12)

    def test_sliding_nodes_on_surface(self):
        fld = dl.builtin_field("example1")
        traj = dl.integrate_filippov(fld, [0.0, 1.0], 3.0, 1e-3)
        sliding = [i for i, lab in enumerate(traj.mode_labels) if lab.startswith("slide")]
        nodes = traj.points[[i + 1 for i in sliding]]
        assert np.max(np.abs(nodes[:, 1])) <= DEFAULT_SURFACE_TOL

    def test_attracting_surface_invariance_until_exit(self):
        # f+ = [1, -1 + 0.6 x]: surface attracting until x = 5/3, then tangent
        fld = PiecewiseField(
            2,
            [CoordinateGuard(1, 2)],
            {"+": AffinePiece([[0.0, 0.0], [0.6, 0.0]], [1.0, -1.0]),
             "-": ConstantPiece([1.0, 1.0])},
        )
        traj = dl.integrate_filippov(fld, [0.0, 0.5], 3.0, 1e-3)
        slide = [i for i, lab in enumerate(traj.mode_labels) if lab.startswith("slide")]
        entry_x = traj.points[slide[0]][0]
        exit_x = traj.points[slide[-1] + 1][0]
        # entry at the analytic impact point, exit at the tangency x = 5/3
        assert entry_x == pytest.approx((1.0 - np.sqrt(0.4)) / 0.6, abs=2e-3)
        assert exit_x == pytest.approx(5.0 / 3.0, abs=2e-3)
        on_surface = traj.points[[i + 1 for i in slide[:-1]]]
        assert np.max(np.abs(on_surface[:, 1])) <= DEFAULT_SURFACE_TOL
        # leaves upward afterwards: analytic y(3) = 0.5333...
        assert traj.points[-1][1] == pytest.approx(8.0 / 15.0, abs=2e-3)

    def test_corner_least_norm_rest(self):
        quads = {
            "++": [-1.0, -1.0], "+-": [-1.0, 1.0],
            "-+": [1.0, -1.0], "--": [1.0, 1.0],
        }
        fld = PiecewiseField(
            2,
            [CoordinateGuard(0, 2), CoordinateGuard(1, 2)],
            {k: ConstantPiece(v) for k, v in quads.items()},
        )
        traj = dl.integrate_filippov(fld, [0.5, 0.5], 2.0, 1e-3)
        assert np.linalg.norm(traj.points[-1]) <= 1e-6
        traj2 = dl.integrate_filippov(fld, [0.5, 0.3], 2.0, 1e-3)
        assert np.linalg.norm(traj2.points[-1]) <= 1e-6
        assert any(lab == "slide:1" for lab in traj2.mode_labels)

    def test_slide_stops_at_first_guard(self):
        # one slide step from x = 0.999 crosses x = 0.9993 before x = 0.9998;
        # the guard with the lower index must not win.  At each of the two
        # corners the least-norm element (1, 0) leaves the x guard, so the
        # slide goes on without a corner step: at speed 1 to x = 0.9998, and
        # at speed 2 past it, to 0.9998 + 2 * 0.0102 = 1.0202.
        guards = [AffineGuard([1.0, 0.0], -0.9998), CoordinateGuard(1, 2),
                  AffineGuard([1.0, 0.0], -0.9993)]
        pieces = {
            a + b + c: ConstantPiece([1.0 + (a == "+"), -1.0 if b == "+" else 1.0])
            for a in "+-" for b in "+-" for c in "+-"
        }
        traj = dl.integrate_filippov(PiecewiseField(2, guards, pieces), [0.99, 0.0], 0.02, 1e-3)
        assert np.min(np.abs(traj.points[:, 0] - 0.9993)) <= DEFAULT_SURFACE_TOL
        assert np.min(np.abs(traj.points[:, 0] - 0.9998)) <= DEFAULT_SURFACE_TOL
        assert abs(traj.points[-1, 0] - 1.0202) <= DEFAULT_SURFACE_TOL
        assert set(traj.mode_labels) == {"slide:1"}

    def test_parameter_validation(self):
        lin = dl.builtin_field("linear")
        with pytest.raises(ValueError):
            dl.integrate_filippov(lin, [1.0], 1.0, -1e-3)
        with pytest.raises(ValueError):
            dl.integrate_filippov(lin, [np.inf], 1.0, 1e-3)

    @pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0], []])
    def test_x0_of_the_wrong_size_is_refused(self, x0):
        # [1.0] raised a bare IndexError in the stepper, [1, 2, 3] a broadcast error
        with pytest.raises(ValueError, match=f"x0 has size {len(x0)}, field dimension is 2"):
            dl.integrate_filippov(dl.builtin_field("example1"), x0, 1.0, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_dt_and_t_end_are_refused(self, bad):
        # a NaN dt used to give times [0, nan], and a NaN t_end one point
        fld = dl.builtin_field("example1")
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dl.integrate_filippov(fld, [0.0, 1.0], 1.0, bad)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            dl.integrate_filippov(fld, [0.0, 1.0], bad, 1e-3)
        reference = Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), [""])
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dl.integrate_tracking_selection(fld, reference, bad)


def _sign_field():
    """h(x) = -sign(x) in 2-d, with the value 0 at the corner (perfbench's
    CORNER_FIELD): a solution from off the axes rests at the origin."""
    pieces = {a + b: ConstantPiece([-1.0 if a == "+" else 1.0, -1.0 if b == "+" else 1.0])
              for a in "+-" for b in "+-"}
    guards = [CoordinateGuard(0, 2), CoordinateGuard(1, 2)]
    return PiecewiseField(2, guards, pieces, {"00": [0.0, 0.0]})


class _StepByStep(_FilippovStepper):
    """The stepper driven one step per dt to the end, rest points included."""

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
        return self._trajectory()


_COORDINATE = st.one_of(
    st.sampled_from([0.0, -0.0, 3e-11, -1e-9, 0.25]), st.floats(-1.5, 1.5, allow_subnormal=False)
)
_VALUE = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.3, 3.0]), st.floats(-3.0, 3.0))
_ANGLE = st.one_of(st.sampled_from([np.pi / 4, 2.0]), st.floats(0.1, 1.47), st.floats(1.67, 3.04))


@st.composite
def _fields_and_starts(draw):
    """A built-in field or the corner field from x0 of _COORDINATE; or, as
    often, a field of ConstantPieces (values other than +-1) with one or two
    AffineGuards off the axes, so that a slide step projects, each passing
    within 1 of x0, whose scale reaches 1e17, where x + dt*v == x.  A pull
    of 4.5 toward the first guard makes it attracting, so the run slides,
    and at scale 1e3 its nodes leave |g| <= 1e-14 every few steps."""
    names = ["relay", "example1", "spurious_equilibrium", "corner"]
    name = draw(st.sampled_from(names + ["tilted"] * len(names)))
    if name != "tilted":
        fld = _sign_field() if name == "corner" else dl.builtin_field(name)
        return fld, draw(st.lists(_COORDINATE, min_size=fld.dimension, max_size=fld.dimension))
    x0 = np.array(draw(st.lists(_COORDINATE, min_size=2, max_size=2)))
    x0 *= draw(st.sampled_from([1.0, 1e3, 1e17]))
    guards = []
    for _ in range(draw(st.integers(1, 2))):
        angle = draw(_ANGLE)
        a = np.array([np.cos(angle), np.sin(angle)])
        guards.append(AffineGuard(a, draw(st.floats(-1.0, 1.0)) - float(a @ x0)))
    pull = draw(st.sampled_from([0.0, 4.5])) * guards[0].a
    pieces = {
        "".join(p): ConstantPiece(np.array(draw(st.lists(_VALUE, min_size=2, max_size=2)))
                                  + (-pull if p[0] == "+" else pull))
        for p in itertools.product("+-", repeat=len(guards))
    }
    return PiecewiseField(2, guards, pieces), x0.tolist()


def _outcome(run):
    """run()'s trajectory as bytes and labels, or its error's type and message."""
    try:
        traj = run()
    except dl.DriftlabError as exc:
        return type(exc).__name__, str(exc)
    return traj.times.tobytes(), traj.points.tobytes(), traj.mode_labels


def _count_steps(monkeypatch):
    """A dict that counts the stepper's _region_step and _slide_step calls."""
    calls = {"_region_step": 0, "_slide_step": 0}
    for method in calls:
        def counted(self, h, step=getattr(_FilippovStepper, method), method=method):
            calls[method] += 1
            return step(self, h)
        monkeypatch.setattr(_FilippovStepper, method, counted)
    return calls


class TestRepeatedSteps:
    @settings(max_examples=100, deadline=None)
    @given(
        field_and_start=_fields_and_starts(),
        t_end=st.one_of(st.floats(0.001, 2.5), st.sampled_from([1.0, 2.0, 0.1])),
        dt=st.sampled_from([1e-3, 3e-3, 1e-2, 0.07]),
    )
    def test_matches_the_step_by_step_loop(self, field_and_start, t_end, dt):
        fld, x0 = field_and_start
        oracle = _outcome(lambda: _StepByStep(fld, x0, dt).run(t_end))
        assert _outcome(lambda: dl.integrate_filippov(fld, x0, t_end, dt)) == oracle

    def test_relay_run_and_rest_take_few_steps(self, monkeypatch):
        # the run to the surface (x = -4.4e-16 at t = 0.501) is built in array
        # blocks, and the first slide step there keeps x, so the rest is filled in
        calls = _count_steps(monkeypatch)
        traj = dl.integrate_filippov(dl.builtin_field("relay"), [0.5], 2.0, 1e-3)
        assert calls["_region_step"] + calls["_slide_step"] <= 10
        rest = traj.points[traj.times > 0.5]
        assert np.all(rest == rest[0]) and abs(rest[0, 0]) <= DEFAULT_SURFACE_TOL
        assert traj.times[-1] == 2.0 and traj.mode_labels[-1] == "slide:0"

    def test_example1_run_and_slide_take_few_steps(self, monkeypatch):
        # 1000 region steps to y = 0 and 2000 slide steps along it: each run
        # takes two loop steps, and array blocks build the rest
        calls = _count_steps(monkeypatch)
        traj = dl.integrate_filippov(dl.builtin_field("example1"), [0.0, 1.0], 3.0, 1e-3)
        assert calls["_region_step"] + calls["_slide_step"] <= 10
        assert traj.times.size == 3002 and traj.times[-1] == 3.0
        assert np.linalg.norm(traj.points[-1] - [3.0, 0.0]) < 1e-12


class TestTrajectoryType:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), ["", ""])

    @pytest.mark.parametrize("times, points", [
        ([0.0, np.nan], [[0.0], [1.0]]),
        ([0.0, np.inf], [[0.0], [1.0]]),
        ([0.0, 1.0], [[0.0], [np.nan]]),
        ([0.0, 1.0], [[-np.inf], [1.0]]),
    ])
    def test_rejects_times_or_points_that_are_not_finite(self, times, points):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times, points, [""])

    def test_slope_overflow_names_its_segment(self):
        """1e300 over 1e-10 overflows: segment 1's slope is refused, not
        passed on as inf."""
        traj = Trajectory([0.0, 1.0, 1.0 + 1e-10], [[0.0], [0.0], [1e300]], ["", ""])
        for run in (traj.segment_slopes, lambda: dl.max_slope_residual(dl.builtin_field("relay"), traj)):
            with pytest.raises(dl.SlopeOverflow, match="segment 1 "):
                run()

    def test_tracking_refuses_a_reference_slope_that_overflows(self):
        """The relay set at 0 is [-1, 1], so node 0 projects the reference
        slope, (5e307 - 0) / 0.25, which overflows."""
        reference = Trajectory([0.0, 0.5], [[0.0], [1e308]], [""])
        with pytest.raises(dl.SlopeOverflow, match="segment 0 "):
            dl.integrate_tracking_selection(dl.builtin_field("relay"), reference, 0.25)

    def test_value_at_interpolates(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [2.0, 4.0]]), ["+"])
        assert np.allclose(traj.value_at(0.5), [1.0, 2.0])
        with pytest.raises(dl.OutOfDomain):
            traj.value_at(1.5)


class TestTrackingSelection:
    def test_reproduces_exact_filippov_trajectory(self):
        fld = dl.builtin_field("example1")
        reference = dl.integrate_filippov(fld, [0.0, 1.0], 3.0, 1e-3)
        out = dl.integrate_tracking_selection(fld, reference, 1e-3)
        err = np.max(np.linalg.norm(reference.value_at(out.times) - out.points, axis=1))
        assert err < 1e-6

    def test_constant_reference_at_equilibrium(self):
        lin = dl.builtin_field("linear")
        reference = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), ["" ])
        out = dl.integrate_tracking_selection(lin, reference, 1e-2)
        assert np.max(np.abs(out.points)) == 0.0

    def test_infeasible_slope_clamps_to_hull(self):
        # slope 5 against the relay field: velocity clamps into [-1, 1] and
        # the divergence grows linearly
        relay = dl.builtin_field("relay")
        reference = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [5.0]]), [""])
        out = dl.integrate_tracking_selection(relay, reference, 1e-2)
        slopes = out.segment_slopes()
        assert np.max(np.abs(slopes)) <= 1.0 + 1e-12
        gaps = reference.value_at(out.times)[:, 0] - out.points[:, 0]
        # linear growth: gap at t is ~ (5 - v) t
        assert gaps[-1] >= 3.9
        half = out.times.size // 2
        assert gaps[half] == pytest.approx(gaps[-1] * out.times[half], rel=0.15)

    def test_output_satisfies_slope_membership(self):
        fld = dl.builtin_field("example1")
        reference = dl.integrate_filippov(fld, [0.0, 1.0], 2.0, 1e-3)
        out = dl.integrate_tracking_selection(fld, reference, 5e-3)
        assert dl.max_slope_residual(fld, out) <= 1e-9
