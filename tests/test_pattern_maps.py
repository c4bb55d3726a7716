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
from driftlab.experiments import write_seed_diagnostics
from driftlab.measures import (
    EmpiricalMeasure,
    GraphSupport,
    averaged_measure,
    graph_distances,
    graph_support_fraction,
)
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


def _tracking(field, reference, dt):
    """The comparator's times and points as bytes, and its labels."""
    out = integrate_tracking_selection(field, reference, dt)
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
        out = integrate_tracking_selection(field, ref, 1e-3)
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
            lambda: integrate_tracking_selection(field, reference, 0.02),
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
        fil_map, kra_map = dl.filippov_map(field, x, tol), dl.krasovskii_map(field, x, tol)
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
        run = lambda: _tracking(field, reference, 1 / 128)
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
        run = lambda: _tracking(field, reference, span / nodes)
        assert run() == _per_node(field, run)
