import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    ConvexVelocitySet,
    CoordinateGuard,
    NormGuard,
    PiecewiseField,
)


_QUADRANTS = {
    "++": [-1.0, -1.0],
    "+-": [-1.0, 1.0],
    "-+": [1.0, -1.0],
    "--": [1.0, 1.0],
}


def _quadrant_field():
    """Two coordinate guards and no boundary values."""
    return PiecewiseField(
        2,
        [CoordinateGuard(0, 2), CoordinateGuard(1, 2)],
        {k: ConstantPiece(v) for k, v in _QUADRANTS.items()},
    )


def _disc_field(radius):
    """Inside/outside a circle about the origin, with a value on the circle."""
    return PiecewiseField(
        2,
        [NormGuard([0.0, 0.0], radius)],
        {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])},
        {"0": [5.0, 5.0]},
    )


@pytest.fixture(scope="module")
def example1():
    return dl.builtin_field("example1")


@pytest.fixture(scope="module")
def relay():
    return dl.builtin_field("relay")


@pytest.fixture(scope="module")
def spurious():
    return dl.builtin_field("spurious_equilibrium")


class TestEvaluateField:
    def test_example1_upper_region(self, example1):
        assert np.array_equal(example1.evaluate([0.0, 0.5]), [1.0, -1.0])

    def test_example1_boundary_value(self, example1):
        assert np.array_equal(example1.evaluate([0.0, 0.0]), [-1.0, 0.0])

    def test_constant_field(self):
        fld = PiecewiseField(2, [], {"": ConstantPiece([2.0, 3.0])})
        for x in ([0.0, 0.0], [5.0, -1.0]):
            assert np.array_equal(fld.evaluate(x), [2.0, 3.0])

    def test_boundary_without_value_uses_lex_smallest_adjacent(self):
        # '+' sorts before '-', so the + piece wins on the surface
        fld = PiecewiseField(
            1,
            [CoordinateGuard(0, 1)],
            {"+": ConstantPiece([-1.0]), "-": ConstantPiece([1.0])},
        )
        assert np.array_equal(fld.evaluate([0.0]), [-1.0])

    def test_unassigned_pattern_raises(self):
        fld = PiecewiseField(1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([1.0])})
        with pytest.raises(dl.UnassignedPattern):
            fld.evaluate([-1.0])
        with pytest.raises(dl.UnassignedPattern):
            # boundary with no value and no assigned adjacent piece on either side
            PiecewiseField(1, [CoordinateGuard(0, 1)], {}).evaluate([0.0])

    def test_batch_matches_pointwise(self, example1):
        # rows on guard surfaces take the boundary value or, without one,
        # the lexicographic fallback, in the batch exactly as pointwise
        xs = np.array(
            [[0.0, 0.5], [2.0, -0.3], [1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [-1.0, 2.0]]
        )
        cases = [
            (fld, xs)
            for fld in (example1, _quadrant_field(), _disc_field(1.0), dl.builtin_field("linear", 2))
        ]
        # rows placed on random planes and circles, where the guard value is
        # a rounding error away from 0: the two evaluators must round alike
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            a, b = rng.normal(size=d), rng.normal()
            pts = rng.normal(size=(500, d)) * 3.0
            pts -= np.outer((pts @ a + b) / (a @ a), a)
            plane = PiecewiseField(
                d, [AffineGuard(a, b)],
                {"+": ConstantPiece(np.ones(d)), "-": ConstantPiece(-np.ones(d))},
                {"0": np.zeros(d)},
            )
            cases.append((plane, pts))
        theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        cases.append((_disc_field(1.0), circle))
        cases.append((_disc_field(2.5), 2.5 * circle))
        for fld, points in cases:
            batch = fld.evaluate_batch(points)
            pointwise = np.array([fld.evaluate(x) for x in points])
            assert np.array_equal(batch, pointwise)


class TestFilippovMap:
    def test_example1_origin_drops_null_set_value(self, example1):
        hull = dl.filippov_map(example1, [0.0, 0.0], 1e-9)
        expected = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert hull.equals(expected, tol=1e-12)
        # the boundary value is genuinely excluded
        assert not hull.contains([-1.0, 0.0], 1e-6)

    def test_example1_interior_singleton(self, example1):
        hull = dl.filippov_map(example1, [0.0, 0.5], 1e-9)
        assert hull.equals(ConvexVelocitySet(np.array([[1.0, -1.0]])), tol=1e-12)

    def test_relay_interval_with_mollify_cross_check(self, relay):
        hull = dl.filippov_map(relay, [0.0], 1e-9)
        assert hull.equals(ConvexVelocitySet(np.array([[-1.0], [1.0]])), tol=1e-12)
        # independent check: mollified values at 0 stay inside [-1, 1]
        rng = dl.make_rng(42)
        for _ in range(10):
            v = dl.mollify(relay, [0.0], 0.05, 200, rng)
            assert hull.contains(v, 1e-9)

    def test_tol_monotonicity(self, example1):
        # vertices at the smaller tol stay inside the hull at the larger tol
        for x in ([0.3, 1e-10], [0.0, 5e-7], [1.0, 0.2]):
            small = dl.filippov_map(example1, x, 1e-10)
            large = dl.filippov_map(example1, x, 1e-6)
            for v in small.vertices:
                assert large.contains(v, 1e-12)

    def test_corner_collects_all_quadrants(self):
        hull = dl.filippov_map(_quadrant_field(), [0.0, 0.0], 1e-9)
        for v in _QUADRANTS.values():
            assert hull.contains(v, 1e-12)
        assert hull.contains([0.0, 0.0], 1e-12)

    def test_unassigned_adjacent_pattern_raises(self):
        half = PiecewiseField(1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([1.0])})
        with pytest.raises(dl.UnassignedPattern):
            dl.filippov_map(half, [0.0], 1e-9)

    def test_infeasible_wedge_excluded(self):
        # parallel guards: the (+,-) and (-,+) wedges are empty
        fld = PiecewiseField(
            1,
            [AffineGuard([1.0], 0.0), AffineGuard([2.0], 0.0)],
            {
                "++": ConstantPiece([1.0]),
                "--": ConstantPiece([-1.0]),
                "+-": ConstantPiece([99.0]),
                "-+": ConstantPiece([-99.0]),
            },
        )
        hull = dl.filippov_map(fld, [0.0], 1e-9)
        assert hull.equals(ConvexVelocitySet(np.array([[1.0], [-1.0]])), tol=1e-12)


class TestNormGuards:
    def test_center_of_radius_zero_guard(self):
        # the normal vanishes at the center: only the outside region is adjacent
        fld = _disc_field(0.0)
        fil = dl.filippov_map(fld, [0.0, 0.0], 1e-9)
        kra = dl.krasovskii_map(fld, [0.0, 0.0], 1e-9)
        assert fil.equals(ConvexVelocitySet(np.array([[1.0, 0.0]])), tol=1e-12)
        assert kra.equals(ConvexVelocitySet(np.array([[1.0, 0.0], [5.0, 5.0]])), tol=1e-12)

    def test_on_the_circle(self):
        fld = _disc_field(1.0)
        for x in ([1.0, 0.0], [0.0, -1.0]):
            fil = dl.filippov_map(fld, x, 1e-9)
            kra = dl.krasovskii_map(fld, x, 1e-9)
            assert fil.equals(ConvexVelocitySet(np.array([[1.0, 0.0], [0.0, 1.0]])), tol=1e-12)
            assert kra.equals(
                ConvexVelocitySet(np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])), tol=1e-12
            )

    def test_with_coordinate_guard_at_origin(self):
        fld = PiecewiseField(
            2,
            [NormGuard([0.0, 0.0], 0.0), CoordinateGuard(1, 2)],
            {k: ConstantPiece(v) for k, v in _QUADRANTS.items()},
            {"0+": [2.0, 2.0], "00": [3.0, 3.0], "+0": [4.0, 4.0], "-0": [6.0, 6.0]},
        )
        x = np.zeros(2)
        assert fld.adjacent_patterns(x) == ["++", "+-"]
        # '-0' needs the inside of a radius-0 circle, which is empty
        assert fld.adjacent_boundary_patterns(x) == ["0+", "00", "+0"]


class TestKrasovskiiMap:
    def test_example1_origin_keeps_boundary_value(self, example1):
        hull = dl.krasovskii_map(example1, [0.0, 0.0], 1e-9)
        expected = ConvexVelocitySet(
            np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 0.0]])
        )
        assert hull.equals(expected, tol=1e-12)

    def test_interior_singleton(self, example1):
        hull = dl.krasovskii_map(example1, [0.0, 0.5], 1e-9)
        assert hull.equals(ConvexVelocitySet(np.array([[1.0, -1.0]])), tol=1e-12)

    def test_spurious_equilibrium_hull(self, spurious):
        hull = dl.krasovskii_map(spurious, [0.0], 1e-9)
        # brute-force oracle: field values over a punctured neighborhood
        # plus the assigned on-surface value
        sampled = {float(spurious.evaluate([x])[0]) for x in (-0.1, -1e-6, 1e-6, 0.1)}
        sampled.add(float(spurious.boundary_values["0"][0]))
        expected = ConvexVelocitySet(np.array([[v] for v in sorted(sampled)]))
        assert hull.equals(expected, tol=1e-12)
        assert hull.contains([0.0], 0.0)
        assert hull.contains([1.0], 0.0)

    def test_filippov_subset_of_krasovskii(self, example1, relay, spurious):
        points = {
            "example1": [[0.0, 0.0], [0.2, 0.7], [1.0, -0.4], [3.0, 1e-12]],
            "relay": [[0.0], [0.5], [-1e-11]],
            "spurious_equilibrium": [[0.0], [2.0]],
        }
        for fld in (example1, relay, spurious):
            for x in points[fld.name]:
                fil = dl.filippov_map(fld, x, 1e-9)
                kra = dl.krasovskii_map(fld, x, 1e-9)
                for v in fil.vertices:
                    assert kra.contains(v, 1e-12)


class TestMollify:
    def test_constant_is_exact(self):
        fld = PiecewiseField(2, [], {"": ConstantPiece([2.0, 3.0])})
        out = dl.mollify(fld, [0.4, -1.0], 0.25, 64, dl.make_rng(0))
        assert np.allclose(out, [2.0, 3.0], atol=1e-14)

    def test_interior_ball_single_region(self, example1):
        out = dl.mollify(example1, [0.0, 0.5], 0.1, 128, dl.make_rng(1))
        assert np.allclose(out, [1.0, -1.0], atol=1e-14)

    def test_symmetric_average_on_surface(self, example1):
        n = 20000
        out = dl.mollify(example1, [0.0, 0.0], 0.1, n, dl.make_rng(2))
        # first coordinate is 1 in both regions; second averages +-1
        assert out[0] == pytest.approx(1.0, abs=1e-14)
        assert abs(out[1]) <= 3.0 / np.sqrt(n)

    def test_estimate_stays_in_local_hull(self, example1):
        n = 400
        local_hull = dl.filippov_map(example1, [0.0, 0.0], 1e-9)
        field_range = 2.0  # max pairwise distance of piece values
        for seed in range(5):
            out = dl.mollify(example1, [0.0, 0.0], 0.1, n, dl.make_rng(seed))
            assert local_hull.contains(out, 5.0 / np.sqrt(n) * field_range)

    def test_parameter_validation(self, example1):
        with pytest.raises(ValueError):
            dl.mollify(example1, [0.0, 0.0], -0.1, 10, dl.make_rng(0))
        with pytest.raises(ValueError):
            dl.mollify(example1, [0.0, 0.0], 0.1, 0, dl.make_rng(0))


class TestHullOperations:
    def test_contains_midpoint(self):
        hull = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert hull.contains([1.0, 0.0], 1e-9)

    def test_excludes_off_line_point(self):
        hull = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert not hull.contains([0.0, 0.0], 1e-6)

    def test_vertex_with_zero_tol(self):
        hull = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert hull.contains([1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            hull.contains([1.0, 1.0], -1e-12)

    def test_distances(self):
        hull = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert hull.distance([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert hull.distance([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        singleton = ConvexVelocitySet(np.array([[0.0]]))
        assert singleton.distance([3.0]) == pytest.approx(3.0, abs=1e-12)

    def test_empty_set_raises(self):
        with pytest.raises(dl.EmptySet):
            ConvexVelocitySet(np.zeros((0, 2)))

    def test_triangle_projection_accuracy(self):
        hull = ConvexVelocitySet(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        # analytic: projection of (2,2) onto the edge x+y=2 is (1,1)
        point, dist = hull.project([2.0, 2.0])
        assert np.allclose(point, [1.0, 1.0], atol=1e-12)
        assert dist == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @given(
        w=st.floats(min_value=0.0, max_value=1.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_convex_combinations_are_inside(self, w, scale):
        verts = scale * np.array([[1.0, -1.0], [1.0, 1.0], [-2.0, 0.5]])
        hull = ConvexVelocitySet(verts)
        combo = w * verts[0] + (1.0 - w) * 0.5 * (verts[1] + verts[2])
        assert hull.contains(combo, 1e-9 * scale)


def _random_affine_field(coeffs):
    (a1, a2, b), pieces = coeffs
    guard = AffineGuard([a1, a2], b)
    table = {
        "+": AffinePiece(np.array(pieces[0]).reshape(2, 2), pieces[1]),
        "-": AffinePiece(np.array(pieces[2]).reshape(2, 2), pieces[3]),
    }
    return PiecewiseField(2, [guard], table)


_coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_guard_coeff = st.floats(min_value=0.2, max_value=3.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)
_field_strategy = st.tuples(
    st.tuples(_guard_coeff, _guard_coeff, _coeff),
    st.tuples(
        st.lists(_coeff, min_size=4, max_size=4),
        st.lists(_coeff, min_size=2, max_size=2),
        st.lists(_coeff, min_size=4, max_size=4),
        st.lists(_coeff, min_size=2, max_size=2),
    ),
)
_point = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestSetValuedProperties:
    @given(coeffs=_field_strategy, xy=_point)
    @settings(max_examples=60, deadline=None)
    def test_filippov_inside_krasovskii(self, coeffs, xy):
        fld = _random_affine_field(coeffs)
        fil = dl.filippov_map(fld, xy, 1e-9)
        kra = dl.krasovskii_map(fld, xy, 1e-9)
        for v in fil.vertices:
            assert kra.contains(v, 1e-9)

    @given(coeffs=_field_strategy, xy=_point)
    @settings(max_examples=60, deadline=None)
    def test_interior_points_give_singletons(self, coeffs, xy):
        fld = _random_affine_field(coeffs)
        x = np.array(xy)
        if abs(fld.guards[0].value(x)) <= 1e-9:
            return
        value = fld.evaluate(x)
        for hull in (dl.filippov_map(fld, x, 1e-9), dl.krasovskii_map(fld, x, 1e-9)):
            assert hull.vertices.shape[0] == 1
            assert np.allclose(hull.vertices[0], value)

    @given(coeffs=_field_strategy, xy=_point)
    @settings(max_examples=60, deadline=None)
    def test_off_surface_value_in_filippov_map(self, coeffs, xy):
        fld = _random_affine_field(coeffs)
        x = np.array(xy)
        if abs(fld.guards[0].value(x)) <= 1e-9:
            return
        hull = dl.filippov_map(fld, x, 1e-9)
        assert hull.contains(fld.evaluate(x), 1e-9)
