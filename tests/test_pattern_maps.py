"""filippov_map and krasovskii_map decide their sets once per sign pattern
on fields whose maps follow the pattern, and keep them on the field; the
same maps deciding at every point are their oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
import driftlab.fields as fields_module
from driftlab import inclusion, measures
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    ConvexVelocitySet,
    CoordinateGuard,
    NormGuard,
    PiecewiseField,
    maps_follow_pattern,
)
from driftlab.inclusion import Trajectory, integrate_tracking_selection, max_slope_residual
from driftlab.experiments import write_seed_diagnostics
from driftlab.measures import (
    EmpiricalMeasure,
    GraphSupport,
    averaged_measure,
    graph_distances,
    graph_support_fraction,
)
from driftlab.sa import window_index
from driftlab.tracking import tracking_profile, window_reference

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


def _counting_filippov(monkeypatch):
    """Patch the filippov_map that inclusion calls to record every call."""
    calls = []
    filippov_map = inclusion.filippov_map

    def counted(fld, x, tol=dl.fields.DEFAULT_RADIUS_TOL):
        calls.append(x)
        return filippov_map(fld, x, tol)

    monkeypatch.setattr(inclusion, "filippov_map", counted)
    return calls


def _counting_decisions(monkeypatch, name="adjacent_patterns"):
    """Record the sign pattern of each set decided: a Filippov set calls
    PiecewiseField.adjacent_patterns once, and a Krasovskii set calls
    adjacent_boundary_patterns once."""
    calls = []
    method = getattr(PiecewiseField, name)

    def counted(self, x, radius_tol=dl.fields.DEFAULT_RADIUS_TOL):
        calls.append(self.sign_pattern(np.asarray(x, dtype=float), radius_tol))
        return method(self, x, radius_tol)

    monkeypatch.setattr(PiecewiseField, name, counted)
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


_keeping_pattern_set = fields_module._pattern_set


def _decide_afresh(fld, decide, x, radius_tol):
    """fields._pattern_set with the field's kept sets switched off: the same
    checks of x and radius_tol, then the undecided computation."""
    kept, fld._pattern_sets = fld._pattern_sets, None
    try:
        return _keeping_pattern_set(fld, decide, x, radius_tol)
    finally:
        fld._pattern_sets = kept


def _per_point(run):
    """run() with filippov_map and krasovskii_map deciding at every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields_module, "_pattern_set", _decide_afresh)
        return run()


def _per_node(field, run):
    """run() with the kept sets, graph_distances' dedupe and the guard table
    switched off: every node of a tracking comparator then takes the
    node-by-node step, with a set decided for it alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "maps_follow_pattern", lambda fld: False)
        mp.setattr(PiecewiseField, "guard_table", lambda fld: None)
        assert field.guard_table() is None
        return _per_point(run)


def _tracking(field, reference, dt):
    """The comparator's times and points as bytes, and its labels."""
    out = integrate_tracking_selection(field, reference, dt)
    return out.times.tobytes(), out.points.tobytes(), out.mode_labels


def _sa_window(name, x0, noise, n, m):
    schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    trace = dl.run_sa(dl.builtin_field(name), x0, schedule, noise, m, seed=1)
    return window_reference(trace, n, m)


def _tracking_map_calls(monkeypatch, field):
    """The filippov_map calls of a tracking window of 2000 steps of field,
    by sign pattern, and the window's labels."""
    schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    trace = dl.run_sa(field, [0.0, 1.0], schedule, dl.NoiseModel("gaussian", 0.1), 3000, seed=1)
    calls = _counting_decisions(monkeypatch)
    labels = integrate_tracking_selection(field, window_reference(trace, 1000, 3000), 1e-3).mode_labels
    assert len(labels) > 1000
    return calls, labels


class TestFastPathTaken:
    def test_corner_steps_map_once_per_pattern(self, monkeypatch):
        field = _corner_field()
        calls = _counting_decisions(monkeypatch)
        traj = dl.integrate_filippov(field, [0.5, 0.3], 2.0, 1e-3)
        corner_steps = sum(label.count("0") > 1 for label in traj.mode_labels)
        assert corner_steps > 1000
        assert 1 <= len(calls) == len(set(calls))

    def test_tracking_nodes_map_once_per_pattern(self, monkeypatch):
        """The walk steps every '+' and '-' node of example1 without a map,
        so only a node within DEFAULT_RADIUS_TOL of y = 0 is mapped."""
        calls, labels = _tracking_map_calls(monkeypatch, dl.builtin_field("example1"))
        assert {"+", "-"} <= set(labels)
        assert len(calls) == len(set(calls)) and set(calls) <= {"0"}

    def test_corner_tracking_nodes_map_once_per_pattern(self, monkeypatch):
        """The corner field has no guard table: every node is stepped one by
        one, and each of its patterns is mapped once."""
        calls, labels = _tracking_map_calls(monkeypatch, _corner_field())
        assert len(set(labels)) >= 2
        assert len(calls) == len(set(calls)) and set(calls) == set(labels)

    def test_tracking_run_is_stepped_in_blocks(self, monkeypatch):
        """Zero noise keeps the iterates at the spurious rest point x = 0; the
        comparator leaves it at velocity 1 and keeps the label '+'."""
        field = dl.builtin_field("spurious_equilibrium")
        ref = _sa_window("spurious_equilibrium", [0.0], dl.NoiseModel("zero", 0.0), 1000, 3000)
        projected = _counting_calls(monkeypatch, ConvexVelocitySet, "project")
        labelled = _counting_calls(monkeypatch, PiecewiseField, "sign_pattern")
        out = integrate_tracking_selection(field, ref, 1e-3)
        nodes = len(out.mode_labels)
        assert nodes > 1000
        assert out.mode_labels[0] == "0" and set(out.mode_labels[1:]) == {"+"}
        assert projected == []
        assert 0 < len(labelled) < 0.05 * nodes

    def test_chattering_window_matches_per_node_loop(self):
        field = dl.builtin_field("example1")
        ref = _sa_window("example1", [0.0, 1.0], dl.NoiseModel("gaussian", 0.1), 1000, 3000)
        run = lambda: _tracking(field, ref, 1e-3)
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
        # repeated points hit the sets decided earlier, also at another tol;
        # a point that is not finite is refused on both sides
        points = _points(data.draw, field, 6)
        for x in points + points[::-1]:
            tol = data.draw(st.sampled_from([1e-9, 1e-6, 0.1]))
            for set_map in (dl.filippov_map, dl.krasovskii_map):
                run = lambda: _outcome(lambda: set_map(field, x, tol).vertices)
                kept, fresh = run(), _per_point(run)
                assert type(kept) is type(fresh)
                if isinstance(kept, np.ndarray):
                    assert kept.shape == fresh.shape and kept.tobytes() == fresh.tobytes()
                else:
                    assert kept == fresh

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
        # built in each run: a point that is not finite is refused there
        reference = lambda: Trajectory([0.0, 0.1, 0.2, 0.3], points[:4], ["ref"] * 3)
        eps = data.draw(st.sampled_from([0.05, 0.5]))
        runs = [
            lambda: dl.integrate_filippov(field, points[0], 0.3, 0.01),
            lambda: integrate_tracking_selection(field, reference(), 0.02),
            lambda: max_slope_residual(field, reference()),
            lambda: max_slope_residual(field, dl.integrate_filippov(field, points[1], 0.3, 0.01)),
            lambda: graph_support_fraction(measure, field, eps),
        ]
        memo = [_outcome(run) for run in runs]
        oracle = _per_node(field, lambda: [_outcome(run) for run in runs])
        for m, o in zip(memo, oracle):
            _assert_same(m, o)


# ---------------------------------------------------------------------------
# the graph distance pass against the per-atom maps

_NON_PATTERN_FIELDS = [
    # a norm guard: the unit circle, crossed by the x_2 = 0 line
    PiecewiseField(
        2, [NormGuard([0.0, 0.0], 1.0), CoordinateGuard(1, 2)],
        {"++": ConstantPiece([-1.0, 0.5]), "+-": ConstantPiece([-1.0, -0.5]),
         "-+": ConstantPiece([1.0, -1.0]), "--": ConstantPiece([0.5, 1.0])},
        {"0+": [0.0, 0.0], "00": [0.0, 1.0]},
    ),
    # an affine piece behind a coordinate guard
    PiecewiseField(
        2, [CoordinateGuard(0, 2)],
        {"+": AffinePiece([[-1.0, 0.0], [0.5, -1.0]]), "-": ConstantPiece([1.0, 0.0])},
        {"0": [0.0, 0.0]},
    ),
]


def _on_guards(draw, field, n):
    """Random points, some moved onto the zero sets of a random set of guards
    (a surface or a corner) or to within 1e-10 of them.  Each guard moves one
    coordinate that no earlier guard moved, the one of its largest
    coefficient when that is at least 0.1, so every coordinate stays below a
    few hundred; a norm guard (in 2-d) puts the point on its circle, at angle
    0, pi or a drawn one."""
    d, k = field.dimension, len(field.guards)
    out = []
    for _ in range(n):
        x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        moved = set()
        for j in sorted(draw(st.sets(st.integers(0, k - 1)))):
            guard = field.guards[j]
            if isinstance(guard, NormGuard):
                angle = draw(st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2 * np.pi)))
                x = guard.center + guard.radius * np.array([np.cos(angle), np.sin(angle)])
                continue
            free = [i for i in range(d) if i not in moved]
            i = max(free, key=lambda i: abs(guard.a[i]), default=None)
            if i is None or abs(guard.a[i]) < 0.1:
                continue
            x[i] -= guard.value(x) / guard.a[i]
            x[i] += draw(st.sampled_from([0.0, 0.0, 1e-10, -1e-10]))
            moved.add(i)
        out.append(x)
    return out


def _graph_measure(draw, field):
    """Atoms at a few points of _on_guards, each point taken more than once,
    with drifts drawn mostly from the field's own constant values, so that
    atoms share their (sign pattern, drift) pair."""
    d = field.dimension
    points = _on_guards(draw, field, 5)
    values = [p.c for p in field.pieces.values() if isinstance(p, ConstantPiece)]
    values += list(field.boundary_values.values())
    drift = st.one_of(
        st.sampled_from(values),
        st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d).map(np.array),
    )
    m = draw(st.integers(1, 24))
    xs = np.array([points[draw(st.integers(0, len(points) - 1))] for _ in range(m)])
    zs = np.array([draw(drift) for _ in range(m)], dtype=float)
    ws = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    ws /= ws.sum()
    return EmpiricalMeasure(xs, zs, ws, np.array([xs.min(0), xs.max(0)]), np.array([zs.min(0), zs.max(0)]))


def _assert_matches_per_atom_maps(field, measure, tol):
    """Each distance is the per-atom map's, bit for bit.  In a region
    interior both maps are {h(x)}, and the distance is the row norm of
    h(x) - z taken at its own scale, which the one-vertex hull also takes."""
    distances = graph_distances(measure, field, tol)
    fil, kra = [], []
    for x, z in zip(measure.xs, measure.zs):
        fil_map, kra_map = _per_point(lambda: (dl.filippov_map(field, x, tol),
                                               dl.krasovskii_map(field, x, tol)))
        if "0" in field.sign_pattern(x, tol):
            fil.append(fil_map.distance(z))
            kra.append(kra_map.distance(z))
        else:
            diff = field.evaluate(x) - z
            e = np.frexp(np.abs(diff).max())[1]
            row = np.ldexp(np.linalg.norm([np.ldexp(diff, -e)], axis=1)[0], e)
            assert row == fil_map.distance(z)
            assert len(fil_map.vertices) == len(kra_map.vertices) == 1
            fil.append(row)
            kra.append(row)
    assert np.array_equal(distances.filippov, fil)
    assert np.array_equal(distances.krasovskii, kra)
    for eps in (1e-12, 0.05, 0.5, 2.0):
        support = distances.support(eps)
        assert support == graph_support_fraction(measure, field, eps, tol)
        assert support.filippov == float(measure.weights[np.array(fil) <= eps].sum())
        assert support.krasovskii == float(measure.weights[np.array(kra) <= eps].sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGraphDistances:
    @given(field=_fields(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pattern_fields_match_per_atom_maps(self, field, data):
        tol = data.draw(st.sampled_from([1e-9, 1e-6, 0.1]))
        _assert_matches_per_atom_maps(field, _graph_measure(data.draw, field), tol)

    @given(field=st.sampled_from(_NON_PATTERN_FIELDS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_other_fields_match_per_atom_maps(self, field, data):
        assert not maps_follow_pattern(field)
        tol = data.draw(st.sampled_from([1e-9, 1e-6, 0.1]))
        _assert_matches_per_atom_maps(field, _graph_measure(data.draw, field), tol)

    def test_interior_distance_is_the_one_vertex_distance(self):
        """On this atom the 1-d np.linalg.norm of z - h(x), a BLAS dot, and
        the row norm of h(x) - z round apart in the last bit; the one-vertex
        hull and graph_distances both take the row norm."""
        field = dl.builtin_field("example1")
        x, z = np.array([0.3, 0.5]), np.array([-1.508, -0.035])
        measure = EmpiricalMeasure(x[None], z[None], np.ones(1), np.array([x, x]), np.array([z, z]))
        row = np.linalg.norm([field.evaluate(x) - z], axis=1)[0]
        assert graph_distances(measure, field).filippov[0] == row
        assert dl.filippov_map(field, x).distance(z) == row
        assert dl.krasovskii_map(field, x).distance(z) == row

    @pytest.mark.parametrize("scale", [1e-300, 1.3737553184896947e-235, 1e-160, 1.0, 1e200])
    def test_tiny_and_huge_interior_distances_keep_their_norm(self, scale):
        """The row norm squared underflows below about 1e-154 and overflows
        above about 1e154; graph_distances takes each row at its own scale,
        as the one-vertex hull does."""
        field = PiecewiseField(2, [CoordinateGuard(0, 2)], {"+": ConstantPiece([3.0 * scale, 4.0 * scale]),
                                                           "-": ConstantPiece([0.0, 0.0])})
        xs = np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]])
        zs = np.zeros((3, 2))
        measure = EmpiricalMeasure(xs, zs, np.full(3, 1 / 3), np.array([xs.min(0), xs.max(0)]),
                                   np.array([zs.min(0), zs.max(0)]))
        distances = graph_distances(measure, field)
        assert distances.filippov.tolist() == [dl.filippov_map(field, x).distance(z) for x, z in zip(xs, zs)]
        assert distances.filippov[0] == pytest.approx(5.0 * scale, rel=1e-15) and distances.filippov[2] == 0.0

    def test_seed_diagnostics_project_once_per_pair(self, monkeypatch, tmp_path):
        """From x0 = [0, 1] with a(0) = 1 the first step of example1 lands on
        y = 0, and without noise every later iterate stays there at the
        boundary value: one (pattern, drift) pair, one F and one K projection
        for all eps."""
        field = dl.builtin_field("example1")
        schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
        trace = dl.run_sa(field, [0.0, 1.0], schedule, dl.NoiseModel("zero", 0.0), 2000, seed=1)
        assert np.all(trace.states[1:, 1] == 0.0)
        eps_list = [0.01, 0.05, 0.1]
        paths = {"residuals": str(tmp_path / "residuals.csv"), "support": str(tmp_path / "support.csv")}
        projected = _counting_calls(monkeypatch, ConvexVelocitySet, "project")
        rows = write_seed_diagnostics(trace, field, [500, 2000], eps_list, paths)
        assert len(projected) == 2
        measure = averaged_measure(trace, trace.n_steps)
        for row, eps in zip(rows, eps_list):
            support = graph_support_fraction(measure, field, eps)
            assert (row["filippov_fraction"], row["krasovskii_fraction"]) == (
                support.filippov, support.krasovskii)
        # the first atom, [0, 1] at velocity h = [1, -1], is the only one on F
        assert rows[0]["filippov_fraction"] == pytest.approx(trace.steps[0] / trace.times[-1])
        assert rows[0]["krasovskii_fraction"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# tracking comparator runs against the per-node loop

# nodes where a straight comparator changes label: early, around the walk's
# block edges and never
_LABEL_CHANGES = [6, 7, 8, 70, 71, 72, 198, 199, 200, 454, 455, 456, 599, 600] + [
    j * inclusion._MAX_BLOCK + e for j in (1, 2) for e in (-1, 0, 1)
] + [10_000]


class TestTrackingBlocks:
    @pytest.mark.parametrize("k", _LABEL_CHANGES)
    @pytest.mark.parametrize("second_guard", [False, True], ids=["one-guard", "second-guard"])
    def test_label_change_at_node(self, k, second_guard):
        """On a grid of 1/128 the comparator from x0 = -(k - 1/2)/128 at
        velocity 1 reaches x > 0 exactly at node k and then moves at 0.5.
        Every point is a small multiple of 1/256, so the path is exact.  The
        one-guard field is walked, over 2 * _MAX_BLOCK + 3 nodes.  With
        second_guard, x is x_1 in 2-d, read by an affine guard behind a
        coordinate guard on x_2 that keeps its sign; that field has no guard
        table, and its 600 nodes take the node-by-node step."""
        x0 = -(k - 0.5) / 128
        if second_guard:
            field = PiecewiseField(
                2, [CoordinateGuard(1, 2), AffineGuard([1.0, 0.0])],
                {"++": ConstantPiece([0.5, 0.0]), "+-": ConstantPiece([1.0, 0.0]),
                 "-+": ConstantPiece([0.0, 1.0]), "--": ConstantPiece([0.0, 1.0])},
            )
            nodes, before, after = 600, "+-", "++"
        else:
            field = PiecewiseField(
                1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([0.5]), "-": ConstantPiece([1.0])}
            )
            nodes, before, after = 2 * inclusion._MAX_BLOCK + 3, "-", "+"
        start = [x0, 1.0][: field.dimension]
        reference = Trajectory([0.0, nodes / 128], [start, [x0 + 1.0, 1.0][: field.dimension]], ["ref"])
        out = integrate_tracking_selection(field, reference, 1 / 128)
        cut, j = min(k, nodes), np.arange(nodes + 1)
        assert out.mode_labels == [before] * cut + [after] * (nodes - cut)
        assert np.array_equal(out.points[:, 0], x0 + (np.minimum(j, cut) + 0.5 * np.maximum(j - cut, 0)) / 128)
        assert np.all(out.points[:, 1:] == 1.0)

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
        walk = np.vstack([np.zeros(field.dimension), np.cumsum(
            rng.normal(scale=span / m, size=(m - 1, field.dimension)), axis=0)])
        # built in each run: a start that is not finite is refused there
        run = lambda: _outcome(lambda: _tracking(
            field, Trajectory(np.linspace(0.0, span, m), start + walk, ["ref"] * (m - 1)), span / nodes))
        assert run() == _per_node(field, run)


# ---------------------------------------------------------------------------
# the float walk of one-coordinate-guard fields against the per-node loop

def _example1_windows():
    """configs/example1.json's seed-1 trace and the references of its
    tracking_profile windows."""
    field = dl.builtin_field("example1")
    schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    trace = dl.run_sa(field, [0.0, 1.0], schedule, dl.NoiseModel("gaussian", 0.1), 20000, seed=1)
    starts = tracking_profile(trace, field, 1.0, 5, 1e-3).window_starts
    return field, [window_reference(trace, int(n), window_index(trace, int(n), 1.0)) for n in starts]


def _line(x0, slope, nodes):
    """A 1-d straight reference over nodes steps of 1/128."""
    return Trajectory([0.0, nodes / 128], [[x0], [x0 + slope * nodes / 128]], ["ref"])


def _one_guard(plus, minus):
    return PiecewiseField(1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([plus]), "-": ConstantPiece([minus])})


class TestTrackingWalk:
    def test_example1_windows_match_per_node_loop(self):
        field, references = _example1_windows()
        switches = []
        for ref in references:
            run = lambda: _tracking(field, ref, 1e-3)
            memo = run()
            switches.append(sum(a != b for a, b in zip(memo[2], memo[2][1:])))
            assert memo == _per_node(field, run)
        assert max(switches) > 1000

    def test_chattering_window_labels_a_bounded_number_of_nodes(self, monkeypatch):
        """Only a node within DEFAULT_RADIUS_TOL of y = 0 is labelled by
        sign_pattern; this window has none, so every node, the first one
        included, is walked."""
        field, references = _example1_windows()
        labelled = _counting_calls(monkeypatch, PiecewiseField, "sign_pattern")
        mapped = _counting_filippov(monkeypatch)
        labels = integrate_tracking_selection(field, references[3], 1e-3).mode_labels
        assert sum(a != b for a, b in zip(labels, labels[1:])) > 1000
        assert "0" not in labels and labelled == [] and mapped == []

    def test_walk_takes_node_0(self, monkeypatch):
        """A relay window that never comes within DEFAULT_RADIUS_TOL of the
        guard is walked from its first node: no node is labelled or mapped."""
        field = dl.builtin_field("relay")
        run = lambda: _tracking(field, _line(1.0, 0.0, 64), 1 / 128)
        labelled = _counting_calls(monkeypatch, PiecewiseField, "sign_pattern")
        mapped = _counting_filippov(monkeypatch)
        memo = run()
        assert memo[2] == ["+"] * 64 and np.frombuffer(memo[1])[-1] == 0.5
        assert labelled == [] and mapped == []
        assert memo == _per_node(field, run)

    def test_relay_window_matches_per_node_loop(self):
        field = dl.builtin_field("relay")
        ref = _sa_window("relay", [0.5], dl.NoiseModel("gaussian", 0.1), 5000, 8000)
        run = lambda: _tracking(field, ref, 1e-3)
        memo = run()
        assert {"+", "-"} <= set(memo[2])
        assert memo == _per_node(field, run)

    @pytest.mark.parametrize("chatter", [False, True], ids=["one-label", "chattering"])
    def test_walk_across_block_edges(self, monkeypatch, chatter):
        """Two block edges: from x0 = 1/256 the relay chatters between
        +-1/256, and the field with velocity 1 on both sides runs away."""
        nodes = 2 * inclusion._MAX_BLOCK + 3
        field = dl.builtin_field("relay") if chatter else _one_guard(1.0, 1.0)
        run = lambda: _tracking(field, _line(1 / 256, 0.0, nodes), 1 / 128)
        labelled = _counting_calls(monkeypatch, PiecewiseField, "sign_pattern")
        memo = run()
        assert len(labelled) <= 4
        assert memo[2] == ((["+", "-"] * nodes)[:nodes] if chatter else ["+"] * nodes)
        assert memo == _per_node(field, run)

    @pytest.mark.parametrize("k", [inclusion._MAX_BLOCK + j for j in range(3)] + [3])
    def test_landing_on_the_guard(self, k):
        """From x0 = k/128 at velocity -1 the walk reaches x = 0 at node k: the
        last node of the first block, the first of the second, the one after
        it, and early.  There the set is the segment [-1, 0.5], the slope -1
        is projected, and the comparator then chatters, landing on 0 every
        third node."""
        field = _one_guard(-1.0, 0.5)
        nodes = k + 100
        run = lambda: _tracking(field, _line(k / 128, -1.0, nodes), 1 / 128)
        memo = run()
        assert memo[2][: k + 4] == ["+"] * k + ["0", "-", "-", "0"]
        assert memo == _per_node(field, run)

    def test_within_tolerance_mid_walk(self, monkeypatch):
        """The walk reaches 5e-10, within DEFAULT_RADIUS_TOL but not 0, at node
        3; that node is projected, and the walk resumes across both labels."""
        field = _one_guard(-1.0, 0.5)
        run = lambda: _tracking(field, _line(3 / 128 + 5e-10, 0.25, 600), 1 / 128)
        projected = _counting_calls(monkeypatch, ConvexVelocitySet, "project")
        memo = run()
        assert 0 < abs(np.frombuffer(memo[1])[3]) <= dl.fields.DEFAULT_RADIUS_TOL
        assert memo[2][:7] == ["+", "+", "+", "0", "+", "-", "-"]
        assert projected == ["project"] and "0" not in memo[2][4:]
        assert memo == _per_node(field, run)


# ---------------------------------------------------------------------------
# sets kept on the field outlive the call that decided them

def _zero_noise_example1():
    """configs/example1.json without noise: from x0 = [0, 1] the first step
    lands on y = 0, and every later iterate stays there."""
    return dl.builtin_field("example1"), [0.0, 1.0], dl.NoiseModel("zero", 0.0)


def _noisy_corner():
    return _corner_field(), [0.5, 0.3], dl.NoiseModel("gaussian", 0.1)


_LIFETIME_CASES = pytest.mark.parametrize("case", [_zero_noise_example1, _noisy_corner],
                                          ids=["example1", "corner"])


def _every_caller(field, x0, noise):
    """A 5-window tracking_profile of a 20000-step run, then graph_distances
    on its measure, at a radius that puts atoms of the noisy run near the
    guards, and max_slope_residual on an inclusion solution, all on one
    field object; the run's states."""
    schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    trace = dl.run_sa(field, x0, schedule, noise, 20000, seed=1)
    report = tracking_profile(trace, field, 1.0, 5, 1e-3)
    assert len(report.window_starts) == 5
    graph_distances(averaged_measure(trace, trace.n_steps), field, 0.05)
    max_slope_residual(field, dl.integrate_filippov(field, x0, 2.0, 1e-3))
    return trace.states


_QUADRANT_HULL = {dl.filippov_map: list(_QUADRANTS.values()),
                  dl.krasovskii_map: list(_QUADRANTS.values()) + [[0.0, 0.0]]}


class TestSetsKeptOnTheField:
    @_LIFETIME_CASES
    def test_each_pattern_is_decided_once_across_callers(self, monkeypatch, case):
        field, x0, noise = case()
        filippov = _counting_decisions(monkeypatch)
        krasovskii = _counting_decisions(monkeypatch, "adjacent_boundary_patterns")
        _every_caller(field, x0, noise)
        assert "0" in "".join(filippov) and "0" in "".join(krasovskii)
        assert len(filippov) == len(set(filippov)) and len(krasovskii) == len(set(krasovskii))

    @_LIFETIME_CASES
    def test_kept_sets_equal_the_per_point_sets(self, case):
        """Bit for bit and in the same order, at the tolerance a set was
        decided at and at others; one pattern gets one set object."""
        field, x0, noise = case()
        states = _every_caller(field, x0, noise)[::97]
        for tol in (1e-9, 1e-6, 0.1):
            for set_map in (dl.filippov_map, dl.krasovskii_map):
                kept = {}
                for x in states:
                    found = set_map(field, x, tol)
                    assert kept.setdefault(field.sign_pattern(x, tol), found) is found
                    fresh = _per_point(lambda: set_map(field, x, tol)).vertices
                    assert found.vertices.shape == fresh.shape
                    assert found.vertices.tobytes() == fresh.tobytes()

    def test_kept_sets_are_read_only(self):
        """A write raises, so the set kept for the pattern stays as decided."""
        field = _corner_field()
        for set_map in (dl.filippov_map, dl.krasovskii_map):
            found = set_map(field, [0.0, 0.0])
            for array in (found.vertices, found.distinct_vertices, found.least_norm):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0
            assert set_map(field, [0.0, 0.0]).vertices.tolist() == _QUADRANT_HULL[set_map]

    def test_a_set_keeps_its_own_vertices(self):
        vertices = np.array([[1.0, -1.0], [1.0, 1.0]])
        hull = ConvexVelocitySet(vertices)
        vertices[0] = 7.0
        assert hull.vertices.tolist() == [[1.0, -1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("field", [
        dl.builtin_field("linear", 2),
        PiecewiseField(2, [NormGuard([0.0, 0.0], 1.0)],
                       {"+": ConstantPiece([1.0, 0.0]), "-": ConstantPiece([0.0, 1.0])}),
    ], ids=["linear", "norm-guard"])
    def test_other_fields_decide_at_every_point(self, field):
        x = [1.0, 0.0]
        for set_map in (dl.filippov_map, dl.krasovskii_map):
            assert set_map(field, x) is not set_map(field, x)

    @pytest.mark.parametrize("set_map", [dl.filippov_map, dl.krasovskii_map])
    def test_maps_refuse_a_nan_tolerance(self, set_map):
        """At a NaN tolerance no guard is labelled '0': example1's origin
        would get the one-vertex set of its '+' side.  Also once a set is
        kept for the origin's pattern."""
        field = dl.builtin_field("example1")
        with pytest.raises(ValueError, match="radius_tol"):
            set_map(field, [0.0, 0.0], float("nan"))
        assert set_map(field, [0.0, 0.0]).vertices.shape[0] >= 2
        with pytest.raises(ValueError, match="radius_tol"):
            set_map(field, [0.0, 0.0], float("nan"))

    @pytest.mark.parametrize("set_map", [dl.filippov_map, dl.krasovskii_map])
    @pytest.mark.parametrize("field, x", [
        (dl.builtin_field("relay"), [np.nan]),
        (dl.builtin_field("relay"), [-np.inf]),
        (dl.builtin_field("example1"), [np.inf, 0.0]),
        (dl.builtin_field("linear", 2), [np.nan, 1.0]),
        (PiecewiseField(2, [AffineGuard([1.0, 0.0])],
                        {"+": ConstantPiece([-1.0, 0.0]), "-": ConstantPiece([1.0, 0.0])}),
         [1.0, np.inf]),
    ], ids=["relay-nan", "relay-inf", "example1-inf", "linear-nan", "affine-inf"])
    def test_maps_refuse_a_point_that_is_not_finite(self, set_map, field, x):
        """NaN labels '-', so relay's NaN got the '-' set [[1.]]; at
        [1, inf] the guard a = [1, 0] computed inf * 0."""
        with pytest.raises(ValueError, match="x must be finite"):
            set_map(field, x)
