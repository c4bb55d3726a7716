import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import driftlab as dl
from driftlab import measures
from driftlab.fields import AffineGuard, ConstantPiece, PiecewiseField
from driftlab.measures import _merge_duplicate_atoms, _padded_box, velocity_mass_split


def _measure(xs, zs, ws):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    ws = np.asarray(ws, dtype=float)
    pad = np.ones(xs.shape[1])
    return dl.EmpiricalMeasure(
        xs, zs, ws,
        np.array([xs.min(axis=0) - pad, xs.max(axis=0) + pad]),
        np.array([zs.min(axis=0) - pad, zs.max(axis=0) + pad]),
    )


class TestAveragedMeasure:
    def test_equal_steps_equal_weights(self):
        fld = dl.builtin_field("spurious_equilibrium")
        trace = dl.run_sa(
            fld, [0.1],
            dl.StepsizeSchedule("custom", sequence=[0.5, 0.5]),
            dl.NoiseModel("zero", 0.0), 2, seed=0,
        )
        m = dl.averaged_measure(trace, 2)
        assert np.allclose(sorted(m.weights), [0.5, 0.5])

    def test_weights_proportional_to_steps(self):
        fld = dl.builtin_field("spurious_equilibrium")
        trace = dl.run_sa(
            fld, [0.1],
            dl.StepsizeSchedule("custom", sequence=[1.0, 1.0, 2.0]),
            dl.NoiseModel("zero", 0.0), 3, seed=0,
        )
        m = dl.averaged_measure(trace, 3)
        assert np.allclose(sorted(m.weights), [0.25, 0.25, 0.5])
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_trace_merges_to_single_atom(self):
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [0.0], dl.StepsizeSchedule("constant", a0=0.5),
            dl.NoiseModel("zero", 0.0), 40, seed=0,
        )
        m = dl.averaged_measure(trace, 40)
        assert m.n_atoms == 1
        assert m.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(m.xs[0], [0.0]) and np.array_equal(m.zs[0], [0.0])

    def test_weights_are_exact_step_ratios(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=0.3, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 200, seed=1,
        )
        n = 150
        m = dl.averaged_measure(trace, n)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # distinct atoms: weights are exactly a(k)/t(n)
        expected = np.sort(trace.steps[:n] / trace.times[n])
        assert np.allclose(np.sort(m.weights), expected, rtol=0, atol=1e-18)

    def test_atoms_inside_boxes(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=0.5, gamma=0.75),
            dl.NoiseModel("gaussian", 0.2), 300, seed=4,
        )
        m = dl.averaged_measure(trace, 300)
        assert np.all(m.xs >= m.box_states[0]) and np.all(m.xs <= m.box_states[1])
        assert np.all(m.zs >= m.box_velocities[0]) and np.all(m.zs <= m.box_velocities[1])

    def test_empty_trace_guard(self):
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [1.0], dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("zero", 0.0), 5, seed=0,
        )
        with pytest.raises(ValueError):
            dl.averaged_measure(trace, 0)
        with pytest.raises(ValueError):
            dl.averaged_measure(trace, 6)


@st.composite
def _duplicate_traces(draw):
    """Traces whose states repeat exactly, tie in x_0 with a different x_1,
    lie within 1e-15 of an earlier state, flip the sign of a zero or are
    NaN, with drifts from a small pool and some zero stepsizes."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 30))
    fresh = st.floats(-2.0, 2.0)
    states = []
    for _ in range(n + 1):
        kind = draw(st.sampled_from(["fresh", "copy", "tie", "near", "zero", "nan"]))
        prev = draw(st.sampled_from(states)).copy() if states else None
        if prev is None or kind == "fresh":
            x = np.array([draw(fresh) for _ in range(d)])
        elif kind == "copy":
            x = prev
        elif kind == "tie":
            x = prev
            x[-1] = draw(fresh)
        elif kind == "near":
            x = prev
            x[0] += draw(st.sampled_from([4e-16, -4e-16, 1e-15, -1e-15, 2e-15]))
        elif kind == "zero":
            x = prev
            x[0] = draw(st.sampled_from([0.0, -0.0]))
        else:
            x = prev
            x[draw(st.integers(0, d - 1))] = np.nan
        states.append(x)
    pool = st.sampled_from([-1.0, 0.0, -0.0, 1.0])
    drifts = [[draw(st.one_of(pool, fresh)) for _ in range(d)] for _ in range(n)]
    steps = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.3]), min_size=n, max_size=n)))
    up_to = draw(st.integers(1, n))
    if not steps[:up_to].any():
        steps[up_to - 1] = 0.5
    trace = dl.IterateTrace(
        states=np.array(states), drifts=np.array(drifts, dtype=float).reshape(n, d),
        noises=np.zeros((n, d)), steps=steps, times=np.concatenate([[0.0], np.cumsum(steps)]),
        seed=0,
    )
    return trace, up_to


def _merged_oracle(trace, n):
    """averaged_measure's atoms through _merge_duplicate_atoms alone."""
    ws = trace.steps[:n] / float(trace.times[n])
    keep = ws > 0
    xs, zs, ws = _merge_duplicate_atoms(trace.states[:n][keep], trace.drifts[:n][keep], ws[keep])
    return xs, zs, ws, _padded_box(xs), _padded_box(zs)


class TestDistinctAtomSort:
    @given(case=_duplicate_traces())
    @settings(max_examples=150, deadline=None)
    @example(case=(dl.IterateTrace(
        states=np.array([[0.0], [-0.0], [1.0]]), drifts=np.array([[1.0], [1.0]]),
        noises=np.zeros((2, 1)), steps=np.array([0.5, 0.5]), times=np.array([0.0, 0.5, 1.0]),
        seed=0), 2))
    def test_matches_the_merge_oracle(self, case):
        trace, n = case
        m = dl.averaged_measure(trace, n)
        got = (m.xs, m.zs, m.weights, m.box_states, m.box_velocities)
        for fast, slow in zip(got, _merged_oracle(trace, n)):
            assert fast.dtype == slow.dtype
            assert np.array_equal(fast, slow, equal_nan=True)
            # bit for bit, signed zeros included
            assert np.array_equal(np.signbit(fast), np.signbit(slow))

    def test_distinct_atoms_skip_the_merge(self, monkeypatch):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 5000, seed=3,
        )
        expected = _merged_oracle(trace, trace.n_steps)
        monkeypatch.setattr(measures, "_merge_duplicate_atoms", None)
        m = dl.averaged_measure(trace, trace.n_steps)
        assert np.array_equal(m.xs, expected[0]) and np.array_equal(m.zs, expected[1])
        assert np.array_equal(m.weights, expected[2])
        assert not np.shares_memory(m.xs, trace.states)

    def test_ties_merge(self, monkeypatch):
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [0.0], dl.StepsizeSchedule("constant", a0=0.5),
            dl.NoiseModel("zero", 0.0), 10, seed=0,
        )
        calls = []
        merge = measures._merge_duplicate_atoms
        monkeypatch.setattr(measures, "_merge_duplicate_atoms",
                            lambda *args: calls.append(1) or merge(*args))
        assert dl.averaged_measure(trace, 10).n_atoms == 1
        assert calls == [1]


# ---------------------------------------------------------------------------
# the one-pass family gradient against the per-member form it replaced

def _gradient_batch(family, beta, xs):
    """d/dx_j of the family's member beta: (beta_j / y_j - y_j / sigma^2) * f,
    handled without dividing by zero via explicit monomial factors.  The
    per-member gradient TestFunctionFamily.gradients replaced, kept as its
    oracle."""
    y = np.atleast_2d(xs) - family.center
    beta = np.array(beta)
    bump = np.exp(-np.sum(y * y, axis=1) / (2.0 * family.sigma**2))
    mono = np.prod(y ** beta, axis=1)
    grads = np.empty_like(y)
    for j in range(y.shape[1]):
        if beta[j] == 0:
            dmono = 0.0
        else:
            reduced = beta.copy()
            reduced[j] -= 1
            dmono = beta[j] * np.prod(y**reduced, axis=1)
        grads[:, j] = (dmono - mono * y[:, j] / family.sigma**2) * bump
    return grads


def _stacked_oracle(family, xs):
    return np.stack([_gradient_batch(family, beta, xs) for beta in family.betas])


def _value(family, beta, x):
    """f_beta(x) = prod (x-c)_i^beta_i * exp(-|x-c|^2 / (2 sigma^2))."""
    y = np.asarray(x, dtype=float) - family.center
    mono = np.prod(y ** np.array(beta))
    return float(mono * np.exp(-(y @ y) / (2.0 * family.sigma**2)))


def _bounds_oracle(family):
    """The value and gradient bound of each member, by the per-member
    formulas the family's bound arrays replaced."""
    radial_max, sigma = measures._radial_max, family.sigma
    values, gradients = [], []
    for beta in family.betas:
        k = sum(beta)
        values.append(radial_max(k, sigma))
        gradients.append(k * radial_max(max(k - 1, 0), sigma) + radial_max(k + 1, sigma) / sigma**2)
    return np.array(values), np.array(gradients)


def _martingale_oracle(trace, family):
    """martingale_diagnostic's per-member loop before the one-pass family."""
    n, d = trace.noises.shape
    xs = trace.states[:n]
    xi = np.zeros((n + 1, len(family), d))
    qv = np.zeros((n + 1, len(family)))
    noise_sq = np.sum(trace.noises**2, axis=1)
    for i, grads in enumerate(_stacked_oracle(family, xs)):
        terms = trace.steps[:, None] * grads * trace.noises
        xi[1:, i, :] = np.cumsum(terms, axis=0)
        qv_terms = trace.steps**2 * np.sum(grads**2, axis=1) * noise_sq
        qv[1:, i] = np.cumsum(qv_terms)
    return xi, qv


def _bitwise_equal(a, b):
    """Equal shapes, values (nan matching nan) and sign bits."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _relay_trace(n_steps=200, seed=0):
    return dl.run_sa(
        dl.builtin_field("relay"), [0.5], dl.StepsizeSchedule("power", a0=0.5, gamma=0.75),
        dl.NoiseModel("gaussian", 0.1), n_steps, seed=seed,
    )


class TestFamilyGradients:
    @given(
        d=st.integers(1, 3),
        n=st.integers(1, 10_000),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-2.0, 2.0),
        special=st.sampled_from([0.0, -0.0, np.nan]),
        centered=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(d=2, n=10_000, seed=1, log_scale=0.0, special=np.nan, centered=False)
    @example(d=1, n=1, seed=0, log_scale=-2.0, special=-0.0, centered=True)
    def test_matches_the_per_member_oracle_bit_for_bit(self, d, n, seed, log_scale, special, centered):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, d)) * 10.0**log_scale
        # whole rows and single coordinates at the special value
        xs[rng.random(n) < 0.05] = special
        xs[rng.random(n) < 0.05, rng.integers(d)] = special
        center = rng.standard_normal(d) if centered else None
        fam = dl.TestFunctionFamily(d, 10.0 ** rng.uniform(-1.0, 1.0), center)
        with np.errstate(invalid="ignore"):
            assert _bitwise_equal(fam.gradients(xs), _stacked_oracle(fam, xs))

    def test_empty_point_set(self):
        fam = dl.TestFunctionFamily(2, sigma=1.0)
        assert fam.gradients(np.zeros((0, 2))).shape == (len(fam), 0, 2)

    @pytest.mark.parametrize("name,x0,kind", [
        ("relay", [0.5], "gaussian"),
        ("relay", [0.0], "rademacher"),
        ("example1", [0.0, 1.0], "gaussian"),
        ("spurious_equilibrium", [0.0], "zero"),
    ])
    def test_martingale_matches_the_per_member_loop(self, name, x0, kind):
        trace = dl.run_sa(
            dl.builtin_field(name), x0, dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel(kind, 0.0 if kind == "zero" else 0.1), 3000, seed=4,
        )
        fam = dl.TestFunctionFamily.from_box(dl.averaged_measure(trace, 3000).box_states)
        diag = dl.martingale_diagnostic(trace, fam)
        xi, qv = _martingale_oracle(trace, fam)
        assert np.array_equal(diag.xi, xi)
        assert np.array_equal(diag.quadratic_variation, qv)

    @pytest.mark.parametrize("dimension", [1.5, 2.0, True, 0, -1])
    def test_dimension_must_be_an_integer_ge_1(self, dimension):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            dl.TestFunctionFamily(dimension, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            dl.TestFunctionFamily(1, sigma)

    @pytest.mark.parametrize("center", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], [0.0, np.nan],
                                        [np.inf, 0.0]])
    def test_center_must_be_dimension_finite_numbers(self, center):
        with pytest.raises(ValueError, match="center must be 2 finite numbers"):
            dl.TestFunctionFamily(2, 1.0, center)

    @pytest.mark.parametrize("d, betas", [
        (1, [(0,), (1,), (2,)]),
        (2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
        (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1),
             (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
    ])
    def test_members_are_the_group_of_degree_le_2(self, d, betas):
        center = np.arange(d) - 0.5
        fam = dl.TestFunctionFamily(d, 0.5, center)
        assert isinstance(fam.betas, tuple)
        assert list(fam.betas) == betas == measures._multi_indices(d)
        assert len(fam) == len(betas)
        assert fam.sigma == 0.5
        assert fam.center.tobytes() == center.tobytes()
        assert fam.value_bounds().shape == fam.gradient_bounds().shape == (len(betas),)

    def test_the_center_is_the_familys_own_copy(self):
        center = np.array([0.5, -0.25])
        fam = dl.TestFunctionFamily(2, 1.0, center)
        xs = np.random.default_rng(2).standard_normal((50, 2))
        before = fam.gradients(xs)
        center[:] = 9.0
        assert not np.shares_memory(fam.center, center)
        assert _bitwise_equal(fam.gradients(xs), before)

    def test_the_center_is_read_only(self):
        fam = dl.TestFunctionFamily(2, 1.0, [0.5, -0.25])
        with pytest.raises(ValueError, match="read-only"):
            fam.center[0] = 9.0
        assert fam.center.tolist() == [0.5, -0.25]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_bounds_match_the_per_member_formulas_bit_for_bit(self, d, sigma):
        fam = dl.TestFunctionFamily(d, sigma, np.arange(d) * 0.25)
        values, gradients = _bounds_oracle(fam)
        assert fam.value_bounds().dtype == fam.gradient_bounds().dtype == np.float64
        assert _bitwise_equal(fam.value_bounds(), values)
        assert _bitwise_equal(fam.gradient_bounds(), gradients)

    def test_the_per_member_class_is_gone(self):
        assert not hasattr(dl, "GaussianMonomial")
        assert "GaussianMonomial" not in dl.__all__
        assert not hasattr(measures, "GaussianMonomial")
        assert not hasattr(dl.TestFunctionFamily(1, 1.0), "members")

    def test_one_family_pass_per_call_and_no_per_member_pass(self, monkeypatch):
        passes = []
        one_pass = dl.TestFunctionFamily.gradients
        monkeypatch.setattr(dl.TestFunctionFamily, "gradients",
                            lambda fam, xs: passes.append(len(xs)) or one_pass(fam, xs))
        trace = _relay_trace()
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        dl.checkpoint_residuals(trace, fam, [50, 100, 200])
        assert passes == [200]
        dl.martingale_diagnostic(trace, fam)
        dl.stationarity_residual(dl.averaged_measure(trace, 200), fam)
        dl.residual_decay_study([trace, trace], fam, [100, 200])
        assert len(passes) == 5

    def test_family_of_the_wrong_dimension_fails_loudly(self):
        relay_trace = _relay_trace()
        wide = dl.TestFunctionFamily(2, 1.0)
        msg = "points have 1 coordinates, the family has 2"
        with pytest.raises(ValueError, match=msg):
            dl.checkpoint_residuals(relay_trace, wide, [100, 200])
        with pytest.raises(ValueError, match=msg):
            dl.martingale_diagnostic(relay_trace, wide)
        example1_trace = dl.run_sa(
            dl.builtin_field("example1"), [0.0, 1.0], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 200, seed=0,
        )
        narrow = dl.TestFunctionFamily(1, 1.0)
        with pytest.raises(ValueError, match="points have 2 coordinates, the family has 1"):
            dl.checkpoint_residuals(example1_trace, narrow, [200])


class TestStationarityResidual:
    def test_zero_velocity_atom(self):
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        m = _measure([[0.3]], [[0.0]], [1.0])
        assert np.array_equal(dl.stationarity_residual(m, fam), np.zeros(len(fam)))

    def test_symmetric_velocities_cancel(self):
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        m = _measure([[0.0], [0.0]], [[1.0], [-1.0]], [0.5, 0.5])
        assert np.allclose(dl.stationarity_residual(m, fam), 0.0, atol=1e-15)

    def test_unit_gradient_member(self):
        # the degree-1 member has gradient exactly 1 at the center
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        m = _measure([[0.0]], [[1.0]], [1.0])
        res = dl.stationarity_residual(m, fam)
        idx = fam.betas.index((1,))
        assert res[idx] == pytest.approx(1.0, abs=1e-15)

    @given(lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_the_measure(self, lam):
        fam = dl.TestFunctionFamily(1, sigma=2.0)
        m1 = _measure([[0.2], [1.0]], [[1.0], [-0.5]], [0.3, 0.7])
        m2 = _measure([[-0.4]], [[2.0]], [1.0])
        mixed = _measure(np.vstack([m1.xs, m2.xs]), np.vstack([m1.zs, m2.zs]),
                         np.concatenate([lam * m1.weights, (1 - lam) * m2.weights]))
        r_mixed = dl.stationarity_residual(mixed, fam)
        r_split = lam * dl.stationarity_residual(m1, fam) + (1 - lam) * dl.stationarity_residual(m2, fam)
        assert np.allclose(r_mixed, r_split, atol=1e-12)

    def test_family_bounds_hold_empirically(self):
        fam = dl.TestFunctionFamily(2, sigma=0.8)
        xs = np.random.default_rng(0).normal(scale=2.0, size=(500, 2))
        value_bounds, gradient_bounds = fam.value_bounds(), fam.gradient_bounds()
        for i, beta in enumerate(fam.betas):
            vals = np.array([_value(fam, beta, x) for x in xs])
            grads = _gradient_batch(fam, beta, xs)
            assert np.all(np.abs(vals) <= value_bounds[i] + 1e-12)
            assert np.all(np.linalg.norm(grads, axis=1) <= 2.0 * gradient_bounds[i] + 1e-12)


class TestGraphSupport:
    def test_trace_measure_supported_on_filippov_graph(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=0.5, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 2000, seed=2,
        )
        m = dl.averaged_measure(trace, 2000)
        support = dl.graph_support_fraction(m, relay, eps=1e-6)
        assert support.filippov == pytest.approx(1.0, abs=1e-12)
        assert support.krasovskii == pytest.approx(1.0, abs=1e-12)

    def test_spurious_atom_split(self):
        sp = dl.builtin_field("spurious_equilibrium")
        m = _measure([[0.0]], [[0.0]], [1.0])
        support = dl.graph_support_fraction(m, sp, eps=1e-6)
        assert support.filippov == 0.0
        assert support.krasovskii == 1.0

    def test_far_atoms_zero_fraction(self):
        relay = dl.builtin_field("relay")
        m = _measure([[0.5]], [[5.0]], [1.0])
        support = dl.graph_support_fraction(m, relay, eps=0.5)
        assert support.filippov == 0.0 and support.krasovskii == 0.0

    def test_monotone_in_eps_and_krasovskii_dominates(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.5), 3000, seed=6,
        )
        m = dl.averaged_measure(trace, 3000)
        prev = 0.0
        for eps in (1e-3, 0.01, 0.1, 1.0):
            support = dl.graph_support_fraction(m, relay, eps)
            assert support.filippov >= prev - 1e-15
            assert support.krasovskii >= support.filippov - 1e-15
            prev = support.filippov


    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_must_be_positive(self, eps):
        relay = dl.builtin_field("relay")
        m = _measure([[0.5]], [[-1.0]], [1.0])
        with pytest.raises(ValueError, match="eps"):
            dl.graph_support_fraction(m, relay, eps)
        with pytest.raises(ValueError, match="eps"):
            dl.graph_distances(m, relay).support(eps)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_radius_tol_must_be_positive(self, tol):
        m = _measure([[0.5]], [[-1.0]], [1.0])
        with pytest.raises(ValueError, match="radius_tol"):
            dl.graph_distances(m, dl.builtin_field("relay"), tol)

    @pytest.mark.parametrize("x, z", [
        ([1.0, np.inf], [0.0, 0.0]),
        ([np.nan, 0.5], [0.0, 0.0]),
        ([1.0, 0.5], [-np.inf, 0.0]),
    ])
    def test_atoms_that_are_not_finite_are_refused(self, x, z):
        # at [1, inf] the guard a = [1, 0] computed inf * 0, a RuntimeWarning
        fld = PiecewiseField(2, [AffineGuard([1.0, 0.0])],
                             {"+": ConstantPiece([-1.0, 0.0]), "-": ConstantPiece([1.0, 0.0])})
        m = _measure([x, [0.5, 0.5]], [z, [0.0, 0.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite atoms"):
            dl.graph_distances(m, fld)

    @pytest.mark.parametrize("name", ["relay", "example1", "linear"])
    def test_atoms_are_labelled_once(self, monkeypatch, name):
        fld = dl.builtin_field(name, dimension=2)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(200, fld.dimension))
        xs[::7, -1] = 0.0
        m = _measure(xs, rng.normal(size=xs.shape), np.full(200, 1 / 200))
        expected = dl.graph_distances(m, fld)
        labelled = []
        sign_labels = PiecewiseField.sign_labels
        monkeypatch.setattr(PiecewiseField, "sign_labels",
                            lambda self, *args: labelled.append(1) or sign_labels(self, *args))
        got = dl.graph_distances(m, fld)
        assert labelled == [1]
        assert np.array_equal(got.filippov, expected.filippov)
        assert np.array_equal(got.krasovskii, expected.krasovskii)


class TestMartingaleDiagnostic:
    def test_zero_noise_gives_zero_paths(self):
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [1.0], dl.StepsizeSchedule("power", a0=0.1, gamma=0.75),
            dl.NoiseModel("zero", 0.0), 300, seed=0,
        )
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        diag = dl.martingale_diagnostic(trace, fam)
        assert np.all(diag.xi == 0.0)
        assert np.all(diag.tail_oscillation(0) == 0.0)

    def test_tail_index_out_of_range_raises(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("gaussian", 0.1), 20, seed=0,
        )
        diag = dl.martingale_diagnostic(trace, dl.TestFunctionFamily(1, sigma=1.0))
        for n0 in (-1, 21, 100):
            with pytest.raises(dl.IndexOutOfRange):
                diag.tail_oscillation(n0)
            with pytest.raises(dl.IndexOutOfRange):
                diag.tail_quadratic_variation(n0)
        assert np.all(diag.tail_oscillation(20) == 0.0)
        assert np.all(diag.tail_quadratic_variation(20) == 0.0)
        assert np.all(diag.tail_oscillation(0) > 0.0)

    @pytest.mark.parametrize("name, x0", [("relay", [0.5]), ("example1", [0.0, 1.0])])
    def test_tail_oscillation_matches_the_axis_0_reduction(self, name, x0):
        # the reduction over axis 0 of xi that tail_oscillation replaced
        def oracle(xi, n0):
            return np.max(np.abs(xi[n0:] - xi[n0]), axis=0)

        trace = dl.run_sa(
            dl.builtin_field(name), x0, dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 3000, seed=4,
        )
        fam = dl.TestFunctionFamily.from_box(dl.averaged_measure(trace, trace.n_steps).box_states)
        diag = dl.martingale_diagnostic(trace, fam)
        xi = diag.xi.copy()
        xi[2000, 0, 0] = np.nan  # after n0 = 1500 only
        xi[100, 1, -1] = np.nan  # before it
        xi[1500, -1, 0] = np.nan  # at it: the whole row is NaN
        nan_diag = measures.MartingaleDiagnostic(xi, diag.quadratic_variation)
        for d, n0 in itertools.product((diag, nan_diag), (0, 1500, 2999, 3000)):
            got = d.tail_oscillation(n0)
            assert got.shape == d.xi.shape[1:]
            assert np.array_equal(got, oracle(d.xi, n0), equal_nan=True)
        assert np.isnan(nan_diag.tail_oscillation(1500)[[0, -1], 0]).all()

    def test_invalid_constant_schedule_linear_qv_growth(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.0], dl.StepsizeSchedule("constant", a0=1.0),
            dl.NoiseModel("rademacher", 1.0), 5000, seed=3,
        )
        fam = dl.TestFunctionFamily.from_box(
            dl.averaged_measure(trace, trace.n_steps).box_states
        )
        diag = dl.martingale_diagnostic(trace, fam)
        n = np.arange(diag.quadratic_variation.shape[0], dtype=float)
        for i in range(len(fam)):
            qv = diag.quadratic_variation[:, i]
            slope, intercept = np.polyfit(n, qv, 1)
            pred = slope * n + intercept
            r2 = 1.0 - np.sum((qv - pred) ** 2) / np.sum((qv - qv.mean()) ** 2)
            assert slope > 0 and r2 >= 0.99

    def test_maximal_inequality_bound(self):
        relay = dl.builtin_field("relay")
        fails = 0
        for seed in range(10):
            trace = dl.run_sa(
                relay, [0.5], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
                dl.NoiseModel("gaussian", 0.1), 20000, seed=seed,
            )
            fam = dl.TestFunctionFamily.from_box(
                dl.averaged_measure(trace, trace.n_steps).box_states
            )
            diag = dl.martingale_diagnostic(trace, fam)
            n0 = trace.n_steps // 2
            osc = diag.tail_oscillation(n0).max(axis=1)
            qv_tail = diag.tail_quadratic_variation(n0)
            fails += not np.all(osc <= 4.0 * np.sqrt(qv_tail) + 1e-300)
        assert fails == 0


class TestIndicesAreIntegers:
    """Every trace index a diagnostic takes is an integer, not a float or a
    bool; numpy integers are integers."""

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_up_to_n(self, bad):
        with pytest.raises(ValueError, match="up_to_n must be an integer"):
            dl.averaged_measure(_relay_trace(), bad)

    @pytest.mark.parametrize("bad", [[2.7], [1, 2.0], [True], [50, np.float64(100.5)]])
    def test_checkpoints(self, bad):
        trace, fam = _relay_trace(), dl.TestFunctionFamily(1, 1.0)
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            dl.checkpoint_residuals(trace, fam, bad)
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            dl.residual_decay_study([trace], fam, bad)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_n0(self, bad):
        diag = dl.martingale_diagnostic(_relay_trace(), dl.TestFunctionFamily(1, 1.0))
        with pytest.raises(ValueError, match="n0 must be an integer"):
            diag.tail_oscillation(bad)
        with pytest.raises(ValueError, match="n0 must be an integer"):
            diag.tail_quadratic_variation(bad)

    def test_numpy_integers_are_accepted(self):
        trace, fam = _relay_trace(), dl.TestFunctionFamily(1, 1.0)
        measure = dl.averaged_measure(trace, np.int64(100))
        assert np.array_equal(measure.weights, dl.averaged_measure(trace, 100).weights)
        fast = dl.checkpoint_residuals(trace, fam, np.array([50, 100]))
        assert np.array_equal(fast, dl.checkpoint_residuals(trace, fam, [50, 100]))
        table = dl.residual_decay_study([trace], fam, [np.int32(100), np.int64(200)])
        assert table.checkpoints.tolist() == [100, 200]
        diag = dl.martingale_diagnostic(trace, fam)
        assert np.array_equal(diag.tail_oscillation(np.int64(100)), diag.tail_oscillation(100))


class TestResidualDecay:
    def test_constant_trace_residuals_zero_everywhere(self):
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [0.0], dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("zero", 0.0), 400, seed=0,
        )
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        table = dl.residual_decay_study([trace], fam, [100, 200, 400])
        assert np.array_equal(table.median_residuals, np.zeros(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_traces_or_checkpoints_raise(self):
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        with pytest.raises(dl.EmptyTrace):
            dl.residual_decay_study([], fam, [1, 10])
        trace = dl.run_sa(
            dl.builtin_field("relay"), [0.5], dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("gaussian", 0.1), 20, seed=0,
        )
        with pytest.raises(ValueError, match="checkpoint"):
            dl.residual_decay_study([trace], fam, [])

    def test_linear_field_residual_small_at_horizon(self):
        # unit-scale family; box-adapted members self-normalize to the jitter
        # scale and sit near 1.4e-2 at this horizon regardless of a0
        lin = dl.builtin_field("linear")
        trace = dl.run_sa(
            lin, [0.0], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 10**5, seed=0,
        )
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        table = dl.residual_decay_study([trace], fam, [10**5])
        assert table.median_residuals[0] <= 1e-2

    def test_relay_median_residual_halves(self):
        relay = dl.builtin_field("relay")
        traces = [
            dl.run_sa(
                relay, [0.5], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
                dl.NoiseModel("gaussian", 0.1), 60000, seed=seed,
            )
            for seed in range(5)
        ]
        fam = dl.TestFunctionFamily.from_box(
            dl.averaged_measure(traces[0], traces[0].n_steps).box_states
        )
        checkpoints = [300, 60000]  # t ratio ~ 4.5 for gamma = 0.75
        table = dl.residual_decay_study(traces, fam, checkpoints)
        assert table.t_values[-1] >= 4.0 * table.t_values[0]
        assert table.median_residuals[-1] <= 0.5 * table.median_residuals[0]
        assert table.envelope[0] == pytest.approx(table.median_residuals[0])


_STARTS = {"example1": [0.0, 1.0], "relay": [0.5], "spurious_equilibrium": [0.0], "linear": [1.0]}
_NOISES = {"gaussian": 0.1, "rademacher": 0.1, "zero": 0.0}


class TestCheckpointResiduals:
    @given(
        name=st.sampled_from(sorted(_STARTS)),
        kind=st.sampled_from(sorted(_NOISES)),
        seed=st.integers(0, 1000),
        n_steps=st.integers(1, 3000),
        zero_every=st.sampled_from([0, 2, 3]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    # zero-noise spurious_equilibrium sits on the guard every step
    @example(name="spurious_equilibrium", kind="zero", seed=0, n_steps=500, zero_every=0,
             data=None)
    # zero stepsizes: averaged_measure drops those atoms
    @example(name="relay", kind="gaussian", seed=1, n_steps=500, zero_every=3, data=None)
    def test_matches_averaged_measure_oracle(self, name, kind, seed, n_steps, zero_every, data):
        fld = dl.builtin_field(name)
        steps = 0.5 / np.arange(1, n_steps + 1) ** 0.75
        if zero_every:
            steps[1::zero_every] = 0.0
        trace = dl.run_sa(
            fld, _STARTS[name], dl.StepsizeSchedule("custom", sequence=steps),
            dl.NoiseModel(kind, _NOISES[kind]), n_steps, seed=seed,
        )
        if data is None:
            checkpoints = sorted({1, n_steps // 3 + 1, n_steps})
        else:
            checkpoints = sorted(data.draw(
                st.sets(st.integers(1, n_steps), min_size=1, max_size=4), label="checkpoints"
            ))
        fam = dl.TestFunctionFamily.from_box(dl.averaged_measure(trace, n_steps).box_states)
        fast = dl.checkpoint_residuals(trace, fam, checkpoints)
        assert fast.shape == (len(checkpoints), len(fam))
        for j, n in enumerate(checkpoints):
            oracle = dl.stationarity_residual(dl.averaged_measure(trace, n), fam)
            assert np.allclose(fast[j], oracle, rtol=1e-9, atol=1e-12)

    def test_argument_checks(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("gaussian", 0.1), 10, seed=0,
        )
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        for bad in ([0, 5], [5, 11], [5, 5], [6, 5]):
            with pytest.raises(ValueError):
                dl.checkpoint_residuals(trace, fam, bad)
        empty = dl.IterateTrace(
            states=np.zeros((1, 1)), drifts=np.zeros((0, 1)), noises=np.zeros((0, 1)),
            steps=np.zeros(0), times=np.zeros(1), seed=0,
        )
        with pytest.raises(dl.EmptyTrace):
            dl.checkpoint_residuals(empty, fam, [1])

    def test_checkpoint_at_zero_time_raises(self):
        # a leading zero stepsize leaves t(1) = 0: the average up to 1 has no mass
        trace = dl.run_sa(
            dl.builtin_field("relay"), [0.5], dl.StepsizeSchedule("custom", sequence=[0.0, 0.5, 0.5]),
            dl.NoiseModel("gaussian", 0.1), 3, seed=0,
        )
        fam = dl.TestFunctionFamily(1, sigma=1.0)
        with pytest.raises(dl.EmptyTrace, match=r"t\(1\) = 0"):
            dl.averaged_measure(trace, 1)
        with pytest.raises(dl.EmptyTrace, match=r"t\(1\) = 0"):
            dl.checkpoint_residuals(trace, fam, [1, 3])


class TestVelocityMassSplit:
    def test_relay_split_is_balanced(self):
        relay = dl.builtin_field("relay")
        trace = dl.run_sa(
            relay, [0.5], dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1), 10**5, seed=8,
        )
        m = dl.averaged_measure(trace, trace.n_steps)
        split = velocity_mass_split(m, 0.05)
        assert 0.4 <= split.split_fraction <= 0.6
        assert abs(split.barycenter[0]) <= 0.1

    def test_no_atoms_in_band(self):
        m = _measure([[5.0]], [[1.0]], [1.0])
        split = velocity_mass_split(m, 0.1)
        assert np.isnan(split.split_fraction)
