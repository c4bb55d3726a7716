import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
from driftlab.config import load_config
from driftlab.fields import (
    _CONE_TOL,
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    ConvexVelocitySet,
    CoordinateGuard,
    NormGuard,
    PiecewiseField,
    _hull_project,
    _min_norm_point,
    _strict_cone_feasible,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _same_hull(a, b, tol=1e-12):
    """Mutual hull containment, the right equality for redundant vertex lists."""
    return all(b.contains(w, tol) for w in a.vertices) and all(a.contains(w, tol) for w in b.vertices)


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

    @pytest.mark.parametrize(
        "guard, size",
        [
            (AffineGuard([0.0, 1.0, 0.0]), 3),
            (CoordinateGuard(-1, 1), 1),
            (NormGuard([0.0, 0.0, 0.0], 1.0), 3),
        ],
        ids=["affine", "coordinate", "norm"],
    )
    def test_guard_of_wrong_size_is_refused(self, guard, size):
        # such a guard failed only on the first evaluation, or, as a
        # coordinate guard, read one coordinate with a gradient of size 1
        pieces = {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}
        with pytest.raises(ValueError, match=f"guard 0 takes points of size {size}, not 2"):
            PiecewiseField(2, [guard], pieces)

    @pytest.mark.parametrize(
        "pieces, boundary_values, message",
        [
            ({"+": [1.0], "x": [0.0]}, {}, "piece pattern 'x' is not a full sign pattern"),
            ({"+": [1.0], "-": [0.0]}, {"o": [0.0]}, "boundary pattern 'o' is not a sign pattern"),
        ],
        ids=["piece", "boundary"],
    )
    def test_pattern_of_another_character_is_refused(self, pieces, boundary_values, message):
        # an 'x' piece used to load, never be read, and leave '-' unassigned
        pieces = {k: ConstantPiece(v) for k, v in pieces.items()}
        with pytest.raises(ValueError, match=message):
            PiecewiseField(1, [CoordinateGuard(0, 1)], pieces, boundary_values)

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


# random piecewise-constant fields, some patterns left unassigned, against
# per-row evaluate

_vals = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def _constant_fields(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    vec = st.lists(_vals, min_size=d, max_size=d)
    guards = []
    for _ in range(k):
        kind = draw(st.sampled_from(["coordinate", "affine", "norm"]))
        if kind == "coordinate":
            guards.append(CoordinateGuard(draw(st.integers(0, d - 1)), d))
        elif kind == "affine":
            guards.append(AffineGuard(draw(st.lists(_vals, min_size=d, max_size=d).filter(any)),
                                      draw(_vals)))
        else:
            guards.append(NormGuard(draw(vec), draw(st.sampled_from([0.5, 1.0]))))
    full = ["".join(p) for p in itertools.product("+-", repeat=k)]
    pieces = {p: ConstantPiece(draw(vec)) for p in full if draw(st.integers(0, 4))}
    boundary = {
        "".join(p): draw(vec)
        for p in itertools.product("+-0", repeat=k)
        if "0" in p and draw(st.booleans())
    }
    return PiecewiseField(d, guards, pieces, boundary)


def _rows(draw, field, n):
    """Rows drawn from a small grid, so that many lie on guard surfaces, some
    with -0.0 coordinates, and on circles of the norm guards."""
    d = field.dimension
    coord = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])
    rows = []
    for _ in range(n):
        x = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        norms = [g for g in field.guards if isinstance(g, NormGuard)]
        if norms and draw(st.booleans()):
            g = draw(st.sampled_from(norms))
            x = g.center.copy()
            x[draw(st.integers(0, d - 1))] += g.radius
        rows.append(x)
    return np.array(rows).reshape(n, d)


def _outcome(call):
    try:
        return call()
    except dl.UnassignedPattern:
        return "unassigned"


class TestEvaluateBatchTable:
    @given(field=_constant_fields(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_evaluate(self, field, data):
        xs = _rows(data.draw, field, data.draw(st.integers(0, 12)))
        batch = _outcome(lambda: field.evaluate_batch(xs))
        pointwise = _outcome(lambda: np.array([field.evaluate(x) for x in xs]).reshape(-1, field.dimension))
        # UnassignedPattern from the batch iff some row raises it alone
        if isinstance(pointwise, str):
            assert batch == pointwise
        else:
            assert not isinstance(batch, str)
            assert batch.dtype == np.float64 and batch.shape == pointwise.shape
            assert np.array_equal(batch, pointwise)

    def test_only_occurring_patterns_are_resolved(self, monkeypatch):
        fld = PiecewiseField(
            2, [CoordinateGuard(0, 2), CoordinateGuard(1, 2)],
            {"++": ConstantPiece([1.0, 2.0]), "--": ConstantPiece([3.0, 4.0])},
        )
        resolved = []
        piece_for = PiecewiseField.piece_for
        monkeypatch.setattr(PiecewiseField, "piece_for",
                            lambda self, p: resolved.append(p) or piece_for(self, p))
        xs = np.array([[1.0, 1.0], [-1.0, -2.0], [2.0, 3.0]])
        assert np.array_equal(fld.evaluate_batch(xs), [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        assert sorted(resolved) == ["++", "--"]
        with pytest.raises(dl.UnassignedPattern, match="'-\\+'"):
            fld.evaluate_batch(np.vstack([xs, [[-1.0, 1.0]]]))

    def test_constant_pieces_are_read_from_the_table(self, monkeypatch):
        monkeypatch.setattr(ConstantPiece, "value_batch", None)
        fld = _quadrant_field()
        xs = np.array([[1.0, 1.0], [-1.0, 0.5], [0.5, -1.0], [-1.0, -1.0]])
        assert np.array_equal(fld.evaluate_batch(xs), [fld.evaluate(x) for x in xs])

    def test_many_guards_take_the_per_pattern_loop(self, monkeypatch):
        k = dl.fields._TABLE_GUARDS + 1
        fld = PiecewiseField(
            1, [AffineGuard([1.0], -0.1 * j) for j in range(k)],
            {"+" * i + "-" * (k - i): ConstantPiece([float(i)]) for i in range(k + 1)},
        )
        xs = np.linspace(-0.05, 0.1 * k, 50)[:, None]
        expected = np.array([fld.evaluate(x) for x in xs])
        calls = []
        value_batch = ConstantPiece.value_batch
        monkeypatch.setattr(ConstantPiece, "value_batch",
                            lambda self, ys: calls.append(1) or value_batch(self, ys))
        assert np.array_equal(fld.evaluate_batch(xs), expected)
        assert calls


class TestGuardTable:
    def test_example1_table(self, example1):
        column, table = example1.guard_table()
        assert column == 1
        assert table.tolist() == [[1.0, 1.0], [-1.0, 0.0], [1.0, -1.0]]  # '-', '0', '+'

    def test_negative_index_and_surface_without_value(self):
        # the guard's index -1 reads column 1; '0' without a value takes '+'
        field = PiecewiseField(2, [CoordinateGuard(-1, 2)],
                               {"+": ConstantPiece([0.0, -1.0]), "-": ConstantPiece([2.0, 3.0])})
        column, table = field.guard_table()
        assert column == 1 and table.tolist() == [[2.0, 3.0], [0.0, -1.0], [0.0, -1.0]]

    @pytest.mark.parametrize(
        "guards, pieces",
        [
            ([AffineGuard([0.0, 1.0])], {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}),
            ([NormGuard([0.0, 0.0], 1.0)], {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}),
            ([CoordinateGuard(0, 2)], {"+": AffinePiece(-np.eye(2)), "-": ConstantPiece([0.0, 1.0])}),
            ([CoordinateGuard(0, 2)], {"+": ConstantPiece([1.0, 0.0])}),
        ],
        ids=["affine-guard", "norm-guard", "affine-piece", "missing-piece"],
    )
    def test_other_fields_have_none(self, guards, pieces):
        # fields with no guard or two take run_sa's loop (tests/test_sa.py)
        assert PiecewiseField(2, guards, pieces).guard_table() is None


class TestFilippovMap:
    def test_example1_origin_drops_null_set_value(self, example1):
        hull = dl.filippov_map(example1, [0.0, 0.0], 1e-9)
        expected = ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert _same_hull(hull, expected)
        # the boundary value is genuinely excluded
        assert not hull.contains([-1.0, 0.0], 1e-6)

    def test_example1_interior_singleton(self, example1):
        hull = dl.filippov_map(example1, [0.0, 0.5], 1e-9)
        assert _same_hull(hull, ConvexVelocitySet(np.array([[1.0, -1.0]])))

    def test_the_field_under_a_kept_set_is_read_only(self):
        # the map keeps the set it decides at the origin's pattern on the field
        pieces = {"+": ConstantPiece([1.0, -1.0]), "-": ConstantPiece([1.0, 1.0])}
        value = np.array([-1.0, 0.0])
        fld = PiecewiseField(2, [CoordinateGuard(1, 2)], pieces, {"0": value})
        kept = dl.filippov_map(fld, [0.0, 0.0]).vertices.tobytes()
        with pytest.raises(TypeError):
            fld.pieces["+"] = ConstantPiece([5.0, -1.0])
        with pytest.raises(TypeError):
            fld.boundary_values["+0"] = np.zeros(2)
        with pytest.raises(ValueError, match="read-only"):
            fld.boundary_values["0"][0] = 5.0
        with pytest.raises(AttributeError):
            fld.guards.append(CoordinateGuard(0, 2))
        # the caller's dict and array are not the field's
        pieces["+"] = ConstantPiece([5.0, -1.0])
        value[:] = 5.0
        assert fld.evaluate([0.0, 1.0]).tolist() == [1.0, -1.0]
        assert fld.evaluate([0.0, 0.0]).tolist() == [-1.0, 0.0]
        assert dl.filippov_map(fld, [0.0, 0.0]).vertices.tobytes() == kept

    def test_relay_interval_with_mollify_cross_check(self, relay):
        hull = dl.filippov_map(relay, [0.0], 1e-9)
        assert _same_hull(hull, ConvexVelocitySet(np.array([[-1.0], [1.0]])))
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
        assert _same_hull(hull, ConvexVelocitySet(np.array([[1.0], [-1.0]])))


class TestNormGuards:
    def test_center_of_radius_zero_guard(self):
        # the normal vanishes at the center: only the outside region is adjacent
        fld = _disc_field(0.0)
        fil = dl.filippov_map(fld, [0.0, 0.0], 1e-9)
        kra = dl.krasovskii_map(fld, [0.0, 0.0], 1e-9)
        assert _same_hull(fil, ConvexVelocitySet(np.array([[1.0, 0.0]])))
        assert _same_hull(kra, ConvexVelocitySet(np.array([[1.0, 0.0], [5.0, 5.0]])))

    def test_on_the_circle(self):
        fld = _disc_field(1.0)
        for x in ([1.0, 0.0], [0.0, -1.0]):
            fil = dl.filippov_map(fld, x, 1e-9)
            kra = dl.krasovskii_map(fld, x, 1e-9)
            assert _same_hull(fil, ConvexVelocitySet(np.array([[1.0, 0.0], [0.0, 1.0]])))
            assert _same_hull(kra, ConvexVelocitySet(np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])))

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
        assert _same_hull(hull, expected)

    def test_interior_singleton(self, example1):
        hull = dl.krasovskii_map(example1, [0.0, 0.5], 1e-9)
        assert _same_hull(hull, ConvexVelocitySet(np.array([[1.0, -1.0]])))

    def test_spurious_equilibrium_hull(self, spurious):
        hull = dl.krasovskii_map(spurious, [0.0], 1e-9)
        # brute-force oracle: field values over a punctured neighborhood
        # plus the assigned on-surface value
        sampled = {float(spurious.evaluate([x])[0]) for x in (-0.1, -1e-6, 1e-6, 0.1)}
        sampled.add(float(spurious.boundary_values["0"][0]))
        expected = ConvexVelocitySet(np.array([[v] for v in sorted(sampled)]))
        assert _same_hull(hull, expected)
        assert hull.contains([0.0], 0.0)
        assert hull.contains([1.0], 0.0)

    def test_boundary_pattern_of_an_empty_set_excluded(self):
        # on y = 0, 0.6x + 0.8y > 0 and 0.6x - 0.8y < 0 ask for x > 0 and
        # x < 0 at once: the "0+-" carrier set is empty.  Projected off the
        # '0' normal, its two strict normals are antiparallel but not unit.
        fld = PiecewiseField(
            2,
            [CoordinateGuard(1, 2), AffineGuard([0.6, 0.8]), AffineGuard([0.6, -0.8])],
            {"".join(p): ConstantPiece([1.0, 0.0]) for p in itertools.product("+-", repeat=3)},
            {"0+-": [7.0, 7.0], "0++": [5.0, 5.0]},
        )
        assert fld.adjacent_boundary_patterns([0.0, 0.0]) == ["0++"]
        kra = dl.krasovskii_map(fld, [0.0, 0.0], 1e-9)
        assert not kra.contains([7.0, 7.0], 1e-6)
        assert kra.contains([5.0, 5.0], 0.0)

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
        for tol in (-1e-12, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                hull.contains([1.0, 1.0], tol)

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


# ---------------------------------------------------------------------------
# the min-norm-point routine against exhaustive face enumeration

def _enumerate_project(verts, v):
    """Nearest point of conv(verts) to v by enumeration: the nearest point
    lies on a face spanned by at most d+1 affinely independent vertices, so
    the best feasible affine projection onto the vertex subsets of that size
    is exact up to roundoff.  Exponential in the vertex count; the oracle
    for _min_norm_point."""
    m, d = verts.shape
    best_p, best_d = None, np.inf
    for size in range(1, min(m, d + 1) + 1):
        for subset in itertools.combinations(range(m), size):
            w = verts[list(subset)]
            if size == 1:
                p = w[0]
            else:
                basis = w[1:] - w[0]
                try:
                    coeff = np.linalg.solve(basis @ basis.T, basis @ (v - w[0]))
                except np.linalg.LinAlgError:
                    continue
                if min(1.0 - coeff.sum(), coeff.min()) < -1e-12:
                    continue
                p = w[0] + coeff @ basis
            dist = float(np.linalg.norm(v - p))
            if dist < best_d:
                best_p, best_d = np.array(p, dtype=float), dist
    return best_p, best_d


@st.composite
def _point_sets(draw):
    """(verts, v): 1-6 vertices in R^1..R^4, either seeded normal draws or
    small integers, whose exact ties, repeats and collinear vertices are
    the degenerate cases."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return 2.0 * rng.standard_normal((m, d)), 2.0 * rng.standard_normal(d)
    ints = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    verts = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
    return verts, np.array(draw(ints), dtype=float)


@st.composite
def _unit_normal_sets(draw):
    """1-6 unit vectors in R^1..R^4: signed axes, normalized vectors with
    entries in {-1, 0, 1} (diagonals), or seeded random directions."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["axis", "diagonal", "random"]))
    if kind == "axis":
        rows = np.zeros((m, d))
        for row in rows:
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        return rows
    if kind == "diagonal":
        entries = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=d, max_size=d).filter(any)
        rows = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    else:
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestMinNormPoint:
    @given(case=_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, case):
        verts, v = case
        p, dist = _min_norm_point(verts, v)
        assert dist == pytest.approx(_enumerate_project(verts, v)[1], abs=1e-12)
        assert dist == float(np.linalg.norm(v - p))
        assert _enumerate_project(verts, p)[1] <= 1e-12  # p is in the hull

    @given(normals=_unit_normal_sets())
    @settings(max_examples=300, deadline=None)
    def test_cone_test_is_the_hull_distance_from_zero(self, normals):
        oracle = _enumerate_project(normals, np.zeros(normals.shape[1]))[1] > _CONE_TOL
        assert _strict_cone_feasible(normals) == oracle

    def test_affinely_dependent_face(self):
        # once the third of these nearly collinear vertices joins the face,
        # its Gram matrix is singular in floating point
        verts, v = np.array([[0.0, 1.0], [0.0, 0.5], [1e-10, 0.0]]), np.array([-1.0, 0.0])
        p, dist = _min_norm_point(verts, v)
        assert dist == pytest.approx(_enumerate_project(verts, v)[1], abs=1e-12)
        assert _enumerate_project(verts, p)[1] <= 1e-12

    def test_cone_test_cases(self):
        assert _strict_cone_feasible(np.zeros((0, 2)))
        assert _strict_cone_feasible(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        assert not _strict_cone_feasible(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert not _strict_cone_feasible(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert not _strict_cone_feasible(np.array([[1.0, 0.0], [-0.5, 0.6], [-0.5, -0.6]]))

    def test_segment_point_is_the_enumerated_one(self):
        # example1's surface set, bit for bit: the point comes from the face
        seg = np.array([[1.0, -1.0], [1.0, 1.0]])
        for v in 2.0 * np.random.default_rng(5).standard_normal((2000, 2)):
            p, dist = _hull_project(seg, v)
            q, expected = _enumerate_project(seg, v)
            assert p.tobytes() == q.tobytes() and dist == expected

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_do_not_overflow(self):
        one = ConvexVelocitySet([[0.0, 0.0, 2.57e283]])
        p, dist = one.project(np.zeros(3))
        assert p.tobytes() == one.vertices[0].tobytes() and dist == 2.57e283
        # the segment's nearest point to 0 is about (1e270, 0, 3.9e256), found
        # to within the stop rule's 1e-12 of the largest vertex norm
        p, dist = _hull_project(np.array([[0.0, 0.0, 2.57e283], [1e270, 0.0, 0.0]]), np.zeros(3))
        assert dist == pytest.approx(1e270, rel=1e-12)
        assert p[0] == pytest.approx(1e270, rel=1e-12) and abs(p[2]) <= 1e-12 * 2.57e283

    @pytest.mark.filterwarnings("error")
    def test_distance_far_below_the_vertices_does_not_underflow(self):
        # scaled by 2^-942, the distance 1 squares to 2^-1884, which is 0.0
        p, dist = _min_norm_point(np.array([[0.0, 0.0, 2.57e283], [1.0, 0.0, 0.0]]), np.zeros(3))
        assert p.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes() and dist == 1.0

    @given(case=_point_sets(), k=st.integers(-900, 900))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_projection_commutes_with_power_of_two_scaling(self, case, k):
        verts, v = case
        p, dist = _hull_project(verts, v)
        p_k, dist_k = _hull_project(np.ldexp(verts, k), np.ldexp(v, k))
        assert p_k.tobytes() == np.ldexp(p, k).tobytes() and dist_k == np.ldexp(dist, k)

    def test_corner_least_norm_in_every_vertex_order(self):
        corner = np.array(list(_QUADRANTS.values()))
        for order in itertools.permutations(range(4)):
            hull = ConvexVelocitySet(corner[list(order)])
            assert hull.least_norm.tobytes() == np.zeros(2).tobytes()
            assert hull.distance([0.0, 0.0]) == 0.0

    def test_five_guard_corner(self):
        # the corner of five coordinate guards in R^5 with 2^5 random
        # constant pieces: 32 vertices, and over a million sets of up to 6
        rng = np.random.default_rng(3)
        fld = PiecewiseField(
            5,
            [CoordinateGuard(k, 5) for k in range(5)],
            {"".join(p): ConstantPiece(rng.standard_normal(5))
             for p in itertools.product("+-", repeat=5)},
        )
        hull = dl.filippov_map(fld, np.zeros(5), 1e-9)
        assert hull.vertices.shape == (32, 5)
        v = rng.standard_normal(5)
        p, dist = hull.project(v)
        # optimality: no vertex lies beyond the plane through p normal to v - p
        assert np.max((hull.vertices - p) @ (v - p)) <= 1e-12
        assert dist == pytest.approx(np.linalg.norm(v - p), abs=0.0)


# ---------------------------------------------------------------------------
# maps where every guard is a coordinate guard of its own coordinate

def _coordinate_maps(field, x, tol):
    """The Filippov and Krasovskii vertices that adjacency must give when
    each guard is a coordinate guard of its own coordinate: every fill of
    the '0' slots of sign_pattern(x, tol) with '+' and '-' (lexicographic),
    then every boundary value whose pattern keeps the other slots."""
    base = field.sign_pattern(x, tol)
    zeros = [k for k, c in enumerate(base) if c == "0"]
    full = []
    for fill in itertools.product("+-", repeat=len(zeros)):
        cand = list(base)
        for k, c in zip(zeros, fill):
            cand[k] = c
        full.append(field.piece_for("".join(cand)).value(x))
    extra = [
        v for p, v in field.boundary_values.items()
        if all(c == b for c, b in zip(p, base) if b != "0")
    ]
    return np.array(full), np.array(full + extra)


def _sign_corner(d):
    """h(x) = -sign(x) in R^d, a value at the corner and one on a surface."""
    pieces = {
        "".join(p): ConstantPiece([-1.0 if c == "+" else 1.0 for c in p])
        for p in itertools.product("+-", repeat=d)
    }
    boundary = {"0" * d: [0.0] * d, "0" + "+" * (d - 1): [0.5] * d}
    return PiecewiseField(d, [CoordinateGuard(k, d) for k in range(d)], pieces, boundary)


_SHIPPED = sorted((ROOT / "configs").glob("*.json"))
_COORD = st.sampled_from([0.0, 0.0, 4e-10, -4e-10, 0.3, -0.3, 1.5, -1.5])


class TestMapsOnCoordinateGuards:
    @pytest.mark.parametrize(
        "field",
        [_sign_corner(2), _sign_corner(3)] + [load_config(str(p)).build_field() for p in _SHIPPED],
        ids=["sign-corner-2d", "sign-corner-3d"] + [p.stem for p in _SHIPPED],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_maps_are_the_adjacent_fills(self, field, data):
        x = np.array([data.draw(_COORD) for _ in range(field.dimension)])
        fil, kra = _coordinate_maps(field, x, 1e-9)
        assert np.array_equal(dl.filippov_map(field, x, 1e-9).vertices, fil)
        assert np.array_equal(dl.krasovskii_map(field, x, 1e-9).vertices, kra)

    def test_sign_corner_least_norm(self):
        for d in (2, 3):
            hull = dl.filippov_map(_sign_corner(d), np.zeros(d), 1e-9)
            assert hull.least_norm.tobytes() == np.zeros(d).tobytes()


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import itertools
import numpy as np
import driftlab as dl
from driftlab.fields import AffineGuard, ConstantPiece, CoordinateGuard, PiecewiseField

signs = list(itertools.product("+-", repeat=3))
corner = PiecewiseField(
    3, [CoordinateGuard(k, 3) for k in range(3)],
    {"".join(p): ConstantPiece([-1.0 if c == "+" else 1.0 for c in p]) for p in signs},
    {"000": [0.0, 0.0, 0.0], "0+-": [0.5, 0.5, 0.5]},
)
assert dl.filippov_map(corner, [0.0, 0.0, 0.0]).vertices.shape == (8, 3)
assert dl.krasovskii_map(corner, [0.0, 0.0, 0.0]).vertices.shape == (10, 3)
slanted = PiecewiseField(
    2, [CoordinateGuard(1, 2), AffineGuard([0.6, 0.8]), AffineGuard([0.6, -0.8])],
    {"".join(p): ConstantPiece([1.0, 0.0]) for p in signs},
    {"0+-": [7.0, 7.0], "0++": [5.0, 5.0]},
)
assert slanted.adjacent_boundary_patterns([0.0, 0.0]) == ["0++"]
square = PiecewiseField(
    2, [CoordinateGuard(0, 2), CoordinateGuard(1, 2)],
    {p: ConstantPiece([-1.0 if p[0] == "+" else 1.0, -1.0 if p[1] == "+" else 1.0])
     for p in ("++", "+-", "-+", "--")},
)
traj = dl.integrate_filippov(square, [0.5, 0.3], 2.0, 1e-3)
assert np.linalg.norm(traj.points[-1]) <= 1e-6
assert sys.modules["scipy"] is None
print("ok")
"""


def test_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
