"""PatternMaps decides the set-valued maps once per sign pattern on fields
whose maps follow the pattern; the per-point maps are its oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
import driftlab.fields as fields_module
from driftlab import inclusion
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    ConvexVelocitySet,
    CoordinateGuard,
    NormGuard,
    PatternMaps,
    PiecewiseField,
    maps_follow_pattern,
)
from driftlab.inclusion import Trajectory, integrate_tracking_selection, max_slope_residual
from driftlab.measures import EmpiricalMeasure, GraphSupport, graph_support_fraction
from driftlab.tracking import window_reference

_QUADRANTS = {"++": [-1.0, -1.0], "+-": [-1.0, 1.0], "-+": [1.0, -1.0], "--": [1.0, 1.0]}


def _corner_field():
    """h(x) = -sign(x) in 2-d with a value at the corner."""
    return PiecewiseField(
        2,
        [CoordinateGuard(0, 2), CoordinateGuard(1, 2)],
        {k: ConstantPiece(v) for k, v in _QUADRANTS.items()},
        {"00": [0.0, 0.0]},
    )


class TestWhichFields:
    @pytest.mark.parametrize("name", ["example1", "relay", "spurious_equilibrium"])
    def test_builtin_constant_fields_follow_the_pattern(self, name):
        assert maps_follow_pattern(dl.builtin_field(name))

    def test_corner_and_affine_guard_fields_follow_the_pattern(self):
        assert maps_follow_pattern(_corner_field())
        pieces = {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}
        assert maps_follow_pattern(PiecewiseField(2, [AffineGuard([1.0, -2.0], 0.5)], pieces))

    def test_other_fields_do_not(self):
        assert not maps_follow_pattern(dl.builtin_field("linear", 2))
        constant = {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}
        assert not maps_follow_pattern(PiecewiseField(2, [NormGuard([0.0, 0.0], 1.0)], constant))
        affine = {"+": AffinePiece(-np.eye(2)), "-": ConstantPiece([0.0, 1.0])}
        assert not maps_follow_pattern(PiecewiseField(2, [CoordinateGuard(1, 2)], affine))


def _counting_filippov(monkeypatch, field):
    """Patch fields.filippov_map to record the sign pattern of every call."""
    calls = []
    filippov_map = fields_module.filippov_map

    def counted(fld, x, tol=dl.fields.DEFAULT_RADIUS_TOL):
        calls.append(field.sign_pattern(x, tol))
        return filippov_map(fld, x, tol)

    monkeypatch.setattr(fields_module, "filippov_map", counted)
    return calls


def _counting_calls(monkeypatch, cls, name):
    """Patch cls.name to record one entry per call."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _per_node(field, run):
    """run() with the per-pattern maps switched off: every node of a tracking
    comparator then takes the per-node loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields_module, "maps_follow_pattern", lambda fld: False)
        assert not PatternMaps(field).by_pattern
        return run()


def _tracking(field, reference, t_span, dt):
    """The comparator's times and points as bytes, and its labels."""
    out = integrate_tracking_selection(field, reference, t_span, dt)
    return out.times.tobytes(), out.points.tobytes(), out.mode_labels


def _sa_window(name, x0, noise, n, m):
    schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    trace = dl.run_sa(dl.builtin_field(name), x0, schedule, noise, m, seed=1)
    return window_reference(trace, n, m)


class TestFastPathTaken:
    def test_corner_steps_map_once_per_pattern(self, monkeypatch):
        field = _corner_field()
        calls = _counting_filippov(monkeypatch, field)
        traj = dl.integrate_filippov(field, [0.5, 0.3], 2.0, 1e-3)
        corner_steps = sum(label.count("0") > 1 for label in traj.mode_labels)
        assert corner_steps > 1000
        assert 1 <= len(calls) == len(set(calls))

    def test_tracking_nodes_map_once_per_pattern(self, monkeypatch):
        field = dl.builtin_field("example1")
        schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
        trace = dl.run_sa(field, [0.0, 1.0], schedule, dl.NoiseModel("gaussian", 0.1), 3000, seed=1)
        calls = _counting_filippov(monkeypatch, field)
        ref = window_reference(trace, 1000, 3000)
        out = integrate_tracking_selection(field, ref, (ref.times[0], ref.times[-1]), 1e-3)
        assert len(out.mode_labels) > 1000
        assert {"+", "-"} <= set(out.mode_labels)
        assert 1 <= len(calls) == len(set(calls)) <= len(set(out.mode_labels))

    def test_tracking_run_is_stepped_in_blocks(self, monkeypatch):
        """Zero noise keeps the iterates at the spurious rest point x = 0; the
        comparator leaves it at velocity 1 and keeps the label '+'."""
        field = dl.builtin_field("spurious_equilibrium")
        ref = _sa_window("spurious_equilibrium", [0.0], dl.NoiseModel("zero", 0.0), 1000, 3000)
        projected = _counting_calls(monkeypatch, ConvexVelocitySet, "project")
        labelled = _counting_calls(monkeypatch, PiecewiseField, "sign_pattern")
        out = integrate_tracking_selection(field, ref, (ref.times[0], ref.times[-1]), 1e-3)
        nodes = len(out.mode_labels)
        assert nodes > 1000
        assert out.mode_labels[0] == "0" and set(out.mode_labels[1:]) == {"+"}
        assert projected == []
        assert 0 < len(labelled) < 0.05 * nodes

    def test_chattering_window_matches_per_node_loop(self):
        field = dl.builtin_field("example1")
        ref = _sa_window("example1", [0.0, 1.0], dl.NoiseModel("gaussian", 0.1), 1000, 3000)
        run = lambda: _tracking(field, ref, (ref.times[0], ref.times[-1]), 1e-3)
        memo = run()
        assert {"+", "-"} <= set(memo[2])
        assert memo == _per_node(field, run)


# ---------------------------------------------------------------------------
# random fields whose maps follow the pattern, against the per-point maps

_coef = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0))


@st.composite
def _fields(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    vec = st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)
    guards = []
    for _ in range(k):
        if draw(st.booleans()):
            guards.append(CoordinateGuard(draw(st.integers(-d, d - 1)), d))
        else:
            a = draw(st.lists(_coef, min_size=d, max_size=d).filter(any))
            guards.append(AffineGuard(a, draw(_coef)))
    pieces = {"".join(p): ConstantPiece(draw(vec)) for p in itertools.product("+-", repeat=k)}
    boundary = {
        "".join(p): draw(vec)
        for p in itertools.product("+-0", repeat=k)
        if "0" in p and draw(st.booleans())
    }
    return PiecewiseField(d, guards, pieces, boundary)


def _points(draw, field, n):
    """Random points, some moved onto the zero set of a random set of guards:
    onto a surface or a corner, exactly for coordinate guards."""
    d, k = field.dimension, len(field.guards)
    out = []
    for _ in range(n):
        x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        on = sorted(draw(st.sets(st.integers(0, k - 1))))
        if on:
            a = np.array([field.guards[j].a for j in on])
            b = np.array([field.guards[j].b for j in on])
            x = x - np.linalg.lstsq(a, a @ x + b, rcond=None)[0]
            for j in on:
                if isinstance(field.guards[j], CoordinateGuard):
                    x[field.guards[j].index] = 0.0
        out.append(x)
    return out


def _outcome(run):
    """run()'s result as arrays, or its error's type and message."""
    try:
        result = run()
    except (dl.DriftlabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Trajectory):
        return result.times, result.points, result.mode_labels
    if isinstance(result, GraphSupport):
        return result.filippov, result.krasovskii
    return result


def _assert_same(memo, oracle):
    assert type(memo) is type(oracle)
    if isinstance(memo, tuple):
        assert len(memo) == len(oracle)
        for m, o in zip(memo, oracle):
            _assert_same(m, o)
    elif isinstance(memo, np.ndarray):
        assert np.array_equal(memo, oracle)
    else:
        assert memo == oracle


class TestAgainstPerPointMaps:
    @given(field=_fields(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sets_match_the_maps(self, field, data):
        assert maps_follow_pattern(field)
        maps = PatternMaps(field)
        # repeated points hit the sets decided earlier, also at another tol
        points = _points(data.draw, field, 6)
        for x in points + points[::-1]:
            tol = data.draw(st.sampled_from([1e-9, 1e-6, 0.1]))
            fil, kra = maps.filippov(x, tol), maps.krasovskii(x, tol)
            assert np.array_equal(fil.vertices, dl.filippov_map(field, x, tol).vertices)
            assert np.array_equal(kra.vertices, dl.krasovskii_map(field, x, tol).vertices)

    @given(field=_fields(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_callers_match_per_point_maps(self, field, data):
        points = _points(data.draw, field, 6)
        d = field.dimension
        zs = np.array([data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
                       for _ in points])
        ws = np.full(len(points), 1.0 / len(points))
        box = np.array([np.min(points, axis=0), np.max(points, axis=0)])
        measure = EmpiricalMeasure(np.array(points), zs, ws, box, box)
        reference = Trajectory([0.0, 0.1, 0.2, 0.3], points[:4], ["ref"] * 3)
        eps = data.draw(st.sampled_from([0.05, 0.5]))
        runs = [
            lambda: dl.integrate_filippov(field, points[0], 0.3, 0.01),
            lambda: integrate_tracking_selection(field, reference, (0.0, 0.3), 0.02),
            lambda: max_slope_residual(field, reference),
            lambda: max_slope_residual(field, dl.integrate_filippov(field, points[1], 0.3, 0.01)),
            lambda: graph_support_fraction(measure, field, eps),
        ]
        memo = [_outcome(run) for run in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields_module, "maps_follow_pattern", lambda fld: False)
            assert not PatternMaps(field).by_pattern
            oracle = [_outcome(run) for run in runs]
        for m, o in zip(memo, oracle):
            _assert_same(m, o)


# ---------------------------------------------------------------------------
# block-stepped tracking runs against the per-node loop

def _block_edges():
    """The node where a comparator run's first block starts (after the
    streak) and the next three block ends, each with its two neighbours:
    6..8, 70..72, 198..200 and 454..456 at the module's constants."""
    edge, size, nodes = inclusion._STREAK_NODES - 1, inclusion._FIRST_BLOCK, []
    for _ in range(4):
        nodes += [edge - 1, edge, edge + 1]
        edge, size = edge + size, 2 * size
    return nodes


class TestTrackingBlocks:
    @pytest.mark.parametrize("k", _block_edges() + [599, 600, 10_000])
    @pytest.mark.parametrize("second_guard", [False, True], ids=["one-guard", "second-guard"])
    def test_label_change_at_node(self, k, second_guard):
        """On a grid of 1/128 the comparator from x0 = -(k - 1/2)/128 at
        velocity 1 reaches x > 0 exactly at node k: around the ends of the
        first blocks, at the last node and never (10_000).  With
        second_guard, x is x_1 in 2-d, read by an affine guard behind a
        coordinate guard on x_2 that keeps its sign."""
        x0 = -(k - 0.5) / 128
        if second_guard:
            field = PiecewiseField(
                2, [CoordinateGuard(1, 2), AffineGuard([1.0, 0.0])],
                {"++": ConstantPiece([0.5, 0.0]), "+-": ConstantPiece([1.0, 0.0]),
                 "-+": ConstantPiece([0.0, 1.0]), "--": ConstantPiece([0.0, 1.0])},
            )
            reference = Trajectory([0.0, 600 / 128], [[x0, 1.0], [x0 + 1.0, 1.0]], ["ref"])
            before, after = "+-", "++"
        else:
            field = PiecewiseField(
                1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([0.5]), "-": ConstantPiece([1.0])}
            )
            reference = Trajectory([0.0, 600 / 128], [[x0], [x0 + 1.0]], ["ref"])
            before, after = "-", "+"
        run = lambda: _tracking(field, reference, (0.0, 600 / 128), 1 / 128)
        memo = run()
        labels, cut = memo[2], min(k, 600)
        assert labels == [before] * cut + [after] * (600 - cut)
        assert memo == _per_node(field, run)

    @given(field=_fields(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_node_loop(self, field, data):
        """Windows of hundreds of nodes from a random start, on a surface or
        corner at times, along a random-walk reference."""
        start = _points(data.draw, field, 1)[0]
        span = data.draw(st.sampled_from([0.5, 2.0, 6.0]))
        nodes = data.draw(st.integers(100, 1500))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(2, 400))
        walk = rng.normal(scale=span / m, size=(m - 1, field.dimension))
        reference = Trajectory(
            np.linspace(0.0, span, m), start + np.vstack([0 * start, np.cumsum(walk, axis=0)]),
            ["ref"] * (m - 1),
        )
        run = lambda: _tracking(field, reference, (0.0, span), span / nodes)
        assert run() == _per_node(field, run)
