import numpy as np
import pytest

import driftlab as dl
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    CoordinateGuard,
    PiecewiseField,
)
from driftlab.inclusion import DEFAULT_SURFACE_TOL, Trajectory


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
        # the guard with the lower index must not win.  The corner step from
        # x = 0.9993 must stop at x = 0.9998 too, past which the speed doubles.
        guards = [AffineGuard([1.0, 0.0], -0.9998), CoordinateGuard(1, 2),
                  AffineGuard([1.0, 0.0], -0.9993)]
        pieces = {
            a + b + c: ConstantPiece([1.0 + (a == "+"), -1.0 if b == "+" else 1.0])
            for a in "+-" for b in "+-" for c in "+-"
        }
        traj = dl.integrate_filippov(PiecewiseField(2, guards, pieces), [0.99, 0.0], 0.02, 1e-3)
        assert np.min(np.abs(traj.points[:, 0] - 0.9993)) <= DEFAULT_SURFACE_TOL
        assert np.min(np.abs(traj.points[:, 0] - 0.9998)) <= DEFAULT_SURFACE_TOL

    def test_parameter_validation(self):
        lin = dl.builtin_field("linear")
        with pytest.raises(ValueError):
            dl.integrate_filippov(lin, [1.0], 1.0, -1e-3)
        with pytest.raises(ValueError):
            dl.integrate_filippov(lin, [np.inf], 1.0, 1e-3)


class TestTrajectoryType:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), ["", ""])

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
