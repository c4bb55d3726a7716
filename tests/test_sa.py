import functools
import gc
import itertools
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import driftlab as dl
from driftlab.fields import (
    AffineGuard,
    AffinePiece,
    ConstantPiece,
    CoordinateGuard,
    NormGuard,
    PiecewiseField,
    QuadraticPiece,
)
from driftlab.sa import _BLOCK_ROWS, DEFAULT_BLOWUP_BOUND, interpolate_path


class TestStepsize:
    def test_power_examples(self):
        assert dl.StepsizeSchedule("power", a0=1.0, gamma=1.0).values(4)[3] == 0.25
        assert dl.StepsizeSchedule("power", a0=0.1, gamma=0.75).values(1)[0] == 0.1

    def test_constant(self):
        assert dl.StepsizeSchedule("constant", a0=0.5).values(8)[7] == 0.5

    def test_custom_sequence(self):
        sched = dl.StepsizeSchedule("custom", sequence=[0.5, 0.25])
        assert sched.values(2)[1] == 0.25
        with pytest.raises(dl.IndexOutOfRange):
            sched.values(3)

    @pytest.mark.parametrize("schedule", [
        dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
        dl.StepsizeSchedule("constant", a0=0.5),
        dl.StepsizeSchedule("custom", sequence=[0.5, 0.25, 0.125]),
    ], ids=["power", "constant", "custom"])
    def test_values_refuses_a_count_not_an_integer_ge_0(self, schedule):
        # power once gave 3 steps for 2.5 and custom all but the last for -1
        for n in (2.5, -1, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="n_steps must be an integer >= 0"):
                schedule.values(n)
        assert schedule.values(np.int64(2)).size == 2 and schedule.values(0).size == 0

    @pytest.mark.parametrize("kind", ["power", "constant"])
    @pytest.mark.parametrize("a0", [np.nan, np.inf, 0.0, -1.0])
    def test_a0_must_be_finite_and_positive(self, kind, a0):
        with pytest.raises(ValueError, match="a0"):
            dl.StepsizeSchedule(kind, a0=a0)

    @pytest.mark.parametrize("a0", [np.nan, np.inf, -np.inf])
    def test_custom_a0_must_be_finite(self, a0):
        with pytest.raises(ValueError, match="a0"):
            dl.StepsizeSchedule("custom", a0=a0, sequence=[0.1, 0.1])

    @pytest.mark.parametrize("a0", [0.0, -1.0])
    def test_custom_a0_may_be_nonpositive(self, a0):
        """A custom schedule never reads a0, and a config with a0 <= 0 loads."""
        schedule = dl.StepsizeSchedule("custom", a0=a0, sequence=[0.1, 0.1])
        assert dl.io.canonical_json(schedule.to_dict())

    @pytest.mark.parametrize("kind", ["power", "constant"])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_gamma_must_be_finite(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma"):
            dl.StepsizeSchedule(kind, a0=1.0, gamma=gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_custom_stepsizes_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="custom stepsizes"):
            dl.StepsizeSchedule("custom", sequence=[0.5, bad, 0.25])

    @pytest.mark.parametrize("sequence", [[[0.1, 0.1], [0.1, 0.1]], 0.1, [[0.1]]])
    def test_custom_sequence_must_be_1d(self, sequence):
        with pytest.raises(ValueError, match="1-d"):
            dl.StepsizeSchedule("custom", sequence=sequence)

    @pytest.mark.parametrize("kind", ["power", "constant"])
    def test_only_a_custom_schedule_takes_a_sequence(self, kind):
        with pytest.raises(ValueError, match="sequence: only a custom schedule"):
            dl.StepsizeSchedule(kind, a0=0.5, sequence=[0.5, 0.5])


class TestValidateSchedule:
    def test_small_gamma_breaks_square_sum(self):
        diag = dl.validate_schedule(dl.StepsizeSchedule("power", a0=1.0, gamma=0.4), 1000)
        assert diag.sum_divergent is True
        assert diag.square_sum_finite is False
        assert diag.satisfies_conditions is False

    def test_gamma_one_satisfies_both(self):
        diag = dl.validate_schedule(dl.StepsizeSchedule("power", a0=1.0, gamma=1.0), 1000)
        assert diag.sum_divergent is True and diag.square_sum_finite is True
        assert diag.satisfies_conditions is True
        assert not diag.heuristic

    def test_large_gamma_breaks_divergence(self):
        diag = dl.validate_schedule(dl.StepsizeSchedule("power", a0=1.0, gamma=1.5), 1000)
        assert diag.sum_divergent is False

    def test_constant_square_sum_diverges(self):
        diag = dl.validate_schedule(dl.StepsizeSchedule("constant", a0=0.1), 1000)
        assert diag.sum_divergent is True and diag.square_sum_finite is False

    def test_custom_is_heuristic(self):
        seq = 1.0 / (np.arange(2000) + 1.0) ** 0.75
        diag = dl.validate_schedule(dl.StepsizeSchedule("custom", sequence=seq), 2000)
        assert diag.heuristic
        assert diag.sum_divergent is True and diag.square_sum_finite is True

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_horizon_must_be_an_integer(self, horizon):
        # 2.5 once summed 3 steps
        with pytest.raises(ValueError, match="must be an integer"):
            dl.validate_schedule(dl.StepsizeSchedule("power", a0=1.0, gamma=0.75), horizon)

    def test_partial_sums_are_exact(self):
        sched = dl.StepsizeSchedule("constant", a0=0.5)
        diag = dl.validate_schedule(sched, 10)
        assert diag.partial_sum == pytest.approx(5.0)
        assert diag.partial_square_sum == pytest.approx(2.5)


class TestNoiseModels:
    def test_zero_model(self):
        out = dl.NoiseModel("zero", 0.0).sample_batch(1, 2, dl.make_rng(0))[0]
        assert np.array_equal(out, [0.0, 0.0])

    def test_gaussian_clt_mean(self):
        # empirical mean of 1e5 draws within 4 sigma/sqrt(n) per coordinate
        n, scale = 10**5, 0.1
        draws = dl.NoiseModel("gaussian", scale).sample_batch(n, 2, dl.make_rng(123))
        bound = 4.0 * scale / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < bound)

    def test_rademacher_support(self):
        draws = dl.NoiseModel("rademacher", 1.0).sample_batch(500, 1, dl.make_rng(5))
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_uniform_ball_radius_and_mean(self):
        scale = 0.7
        draws = dl.NoiseModel("uniform_ball", scale).sample_batch(4000, 3, dl.make_rng(9))
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= scale + 1e-12
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 * scale / np.sqrt(4000))

    def test_second_moment_bound(self):
        # E|M|^2 <= scale^2 * d * (1 + |x|^2) with x-independent draws
        for kind in ("gaussian", "uniform_ball", "rademacher"):
            model = dl.NoiseModel(kind, 0.3)
            draws = model.sample_batch(20000, 2, dl.make_rng(17))
            second = np.mean(np.sum(draws**2, axis=1))
            assert second <= 0.3**2 * 2 * 1.05

    def test_density_flags(self):
        assert dl.NoiseModel("gaussian", 0.1).density_flag
        assert dl.NoiseModel("uniform_ball", 0.1).density_flag
        assert not dl.NoiseModel("rademacher", 0.1).density_flag
        assert not dl.NoiseModel("zero", 0.0).density_flag
        # a density law at scale 0 is a Dirac mass
        assert not dl.NoiseModel("gaussian", 0.0).density_flag
        assert not dl.NoiseModel("uniform_ball", 0.0).density_flag

    @pytest.mark.parametrize("kind", ["gaussian", "uniform_ball", "rademacher", "zero"])
    @pytest.mark.parametrize("scale", [np.nan, np.inf, -0.1])
    def test_scale_must_be_finite_and_nonnegative(self, kind, scale):
        # a NaN-scaled gaussian once read density_flag False, i.e. atomic
        with pytest.raises(ValueError, match="scale"):
            dl.NoiseModel(kind, scale)

    def test_only_zero_noise_is_seed_free(self):
        assert dl.NoiseModel("zero", 0.0).seed_free
        for kind in ("gaussian", "uniform_ball", "rademacher"):
            assert not dl.NoiseModel(kind, 0.1).seed_free
            # at scale 0 these still draw: a negative draw times 0.0 is -0.0
            assert not dl.NoiseModel(kind, 0.0).seed_free
        draws = dl.NoiseModel("gaussian", 0.0).sample_batch(100, 1, dl.make_rng(1))
        assert np.signbit(draws).any() and not np.signbit(draws).all()


class TestRunSA:
    def test_single_step_linear(self):
        trace = dl.run_sa(
            dl.builtin_field("linear"),
            [1.0],
            dl.StepsizeSchedule("constant", a0=0.5),
            dl.NoiseModel("zero", 0.0),
            1,
            seed=0,
        )
        assert trace.states[1][0] == 0.5

    def test_spurious_zero_noise_stays_trapped(self):
        trace = dl.run_sa(
            dl.builtin_field("spurious_equilibrium"),
            [0.0],
            dl.StepsizeSchedule("power", a0=0.1, gamma=0.75),
            dl.NoiseModel("zero", 0.0),
            500,
            seed=0,
        )
        assert np.all(trace.states == 0.0)

    def test_spurious_escapes_with_gaussian_noise(self):
        # drift is 1 off the origin, which density noise leaves immediately
        sched = dl.StepsizeSchedule("power", a0=0.1, gamma=0.75)
        escapes = 0
        for seed in range(20):
            trace = dl.run_sa(
                dl.builtin_field("spurious_equilibrium"),
                [0.0],
                sched,
                dl.NoiseModel("gaussian", 0.1),
                10**4,
                seed=seed,
            )
            escapes += trace.states[-1][0] > 0.5 * trace.times[-1]
        assert escapes == 20

    def test_replay_identity_bit_exact(self):
        trace = dl.run_sa(
            dl.builtin_field("relay"),
            [0.5],
            dl.StepsizeSchedule("power", a0=1.0, gamma=0.75),
            dl.NoiseModel("gaussian", 0.1),
            2000,
            seed=7,
        )
        assert trace.replay_residual() == 0.0

    def test_determinism(self):
        kwargs = dict(
            x0=[0.0, 1.0],
            schedule=dl.StepsizeSchedule("power", a0=0.5, gamma=0.8),
            noise=dl.NoiseModel("gaussian", 0.2),
            n_steps=500,
            seed=99,
        )
        a = dl.run_sa(dl.builtin_field("example1"), **kwargs)
        b = dl.run_sa(dl.builtin_field("example1"), **kwargs)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.noises, b.noises)

    def test_blowup_raises(self):
        expanding = PiecewiseField(1, [], {"": AffinePiece([[2.0]])}, name="expanding")
        with pytest.raises(dl.DivergedIterate):
            dl.run_sa(
                expanding,
                [1.0],
                dl.StepsizeSchedule("constant", a0=1.0),
                dl.NoiseModel("zero", 0.0),
                100,
                seed=0,
                blowup_bound=1e3,
            )

    def test_non_finite_iterate_raises(self):
        # NaN compares false with everything, so it must not slip past the bound
        nan_field = PiecewiseField(1, [], {"": AffinePiece([[np.nan]])}, name="nan")
        with pytest.raises(dl.DivergedIterate, match="not finite"):
            dl.run_sa(
                nan_field,
                [1.0],
                dl.StepsizeSchedule("constant", a0=0.1),
                dl.NoiseModel("zero", 0.0),
                50,
                seed=0,
            )

    def test_infinite_blowup_bound_rejected(self):
        # inf <= inf, so an infinite bound would let the iterate reach inf
        growing = PiecewiseField(1, [], {"": AffinePiece([[10.0]])}, name="growing")
        for bound in (float("inf"), float("nan"), 0.0):
            with pytest.raises(ValueError, match="blowup_bound"):
                dl.run_sa(
                    growing,
                    [1.0],
                    dl.StepsizeSchedule("constant", a0=1.0),
                    dl.NoiseModel("zero", 0.0),
                    400,
                    seed=0,
                    blowup_bound=bound,
                )

    def test_lengths_consistent(self):
        trace = dl.run_sa(
            dl.builtin_field("relay"),
            [0.5],
            dl.StepsizeSchedule("constant", a0=0.1),
            dl.NoiseModel("zero", 0.0),
            50,
            seed=0,
        )
        assert trace.states.shape[0] == trace.steps.size + 1
        assert trace.noises.shape[0] == trace.steps.size
        assert trace.times.size == trace.states.shape[0]
        assert np.all(np.diff(trace.times) > 0)

    @pytest.mark.parametrize(
        "n_steps", [2.5, 3.0, True, np.float64(3.0), "3"], ids=["2.5", "3.0", "True", "float64", "str"]
    )
    def test_n_steps_must_be_an_integer(self, n_steps):
        class NoDraws(dl.NoiseModel):
            def sample_batch(self, n, dimension, rng):
                raise AssertionError("noise drawn before n_steps was checked")

        with pytest.raises(ValueError, match="n_steps must be an integer"):
            dl.run_sa(dl.builtin_field("relay"), [0.5], dl.StepsizeSchedule("constant", a0=0.1),
                      NoDraws("zero", 0.0), n_steps, seed=0)

    def test_numpy_integer_n_steps_is_accepted(self):
        args = (dl.builtin_field("relay"), [0.5], dl.StepsizeSchedule("constant", a0=0.1),
                dl.NoiseModel("gaussian", 0.1))
        trace = dl.run_sa(*args, np.int64(3), seed=0)
        assert trace.n_steps == 3
        assert trace.states.tobytes() == dl.run_sa(*args, 3, seed=0).states.tobytes()


def _zero_noise_trace(schedule, n_steps):
    return dl.run_sa(dl.builtin_field("relay"), [0.5], schedule, dl.NoiseModel("zero", 0.0),
                     n_steps, seed=0)


def _assert_schedule_arrays(trace, schedule, n_steps):
    """trace's steps and times are read-only and bit-identical to
    schedule.values(n_steps) and its cumulative sum from 0."""
    steps = schedule.values(n_steps)
    times = np.concatenate([[0.0], np.cumsum(steps)])
    for got, expected in ((trace.steps, steps), (trace.times, times)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert not got.flags.writeable


# the three kinds; custom sequences with -0.0 entries, which differ from 0.0
# only in their bytes, and an int a0, whose constant steps are int64
_SHARED_SCHEDULES = st.one_of(
    st.builds(
        lambda a0, gamma: dl.StepsizeSchedule("power", a0=a0, gamma=gamma),
        st.sampled_from([0.5, 1.0]),
        st.sampled_from([0.75, 1.0]),
    ),
    st.sampled_from([0.5, 1.0, 1]).map(lambda a0: dl.StepsizeSchedule("constant", a0=a0)),
    st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=4, max_size=4).map(
        lambda seq: dl.StepsizeSchedule("custom", sequence=seq)
    ),
)


class TestSharedScheduleArrays:
    """A schedule is immutable and keeps its own read-only sequence; traces
    of one schedule object and n_steps share its read-only steps/times pair,
    held only while some trace holds it."""

    @settings(max_examples=60, deadline=None)
    @given(schedule=_SHARED_SCHEDULES, n_steps=st.sampled_from([3, 4]))
    @example(schedule=dl.StepsizeSchedule("constant", a0=1), n_steps=3)
    @example(schedule=dl.StepsizeSchedule("custom", sequence=[0.5, -0.0, 0.5, 0.0]), n_steps=4)
    def test_traces_share_bit_identical_read_only_arrays(self, schedule, n_steps):
        a, b = _zero_noise_trace(schedule, n_steps), _zero_noise_trace(schedule, n_steps)
        for trace in (a, b):
            _assert_schedule_arrays(trace, schedule, n_steps)
        assert a.steps is b.steps and a.times is b.times
        # an equal schedule gives the same bits, shared or not
        twin = _zero_noise_trace(replace(schedule), n_steps)
        assert twin.steps.tobytes() == a.steps.tobytes()
        assert twin.times.tobytes() == a.times.tobytes()

    def test_an_int_a0_keeps_int64_steps(self):
        trace = _zero_noise_trace(dl.StepsizeSchedule("constant", a0=1), 3)
        assert trace.steps.dtype == np.int64 and trace.steps.tolist() == [1, 1, 1]
        assert trace.times.dtype == np.float64 and trace.times.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("name, value", [("kind", "constant"), ("a0", 0.5), ("gamma", 0.75),
                                             ("sequence", np.array([0.25, 0.25]))])
    def test_a_field_cannot_be_assigned(self, name, value):
        schedule = dl.StepsizeSchedule("custom", sequence=[0.5, 0.5])
        with pytest.raises(FrozenInstanceError):
            setattr(schedule, name, value)
        assert schedule.values(2).tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("make", [
        lambda: dl.StepsizeSchedule("power", a0=0.9, gamma=0.75),
        lambda: dl.StepsizeSchedule("constant", a0=0.5),
        lambda: dl.StepsizeSchedule("custom", sequence=[0.1, 0.2]),
    ], ids=["power", "constant", "custom"])
    def test_equality_and_hash_are_by_identity(self, make):
        # sharing run arrays is per object, so equality is too
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_the_sequence_is_a_read_only_copy(self):
        given = np.array([0.5, 0.0, 0.25, 0.0])
        schedule = dl.StepsizeSchedule("custom", sequence=given)
        with pytest.raises(ValueError, match="read-only"):
            schedule.sequence[1] = 0.125
        given[:] = 1.0  # the caller's array is not the schedule's
        assert schedule.values(4).tolist() == [0.5, 0.0, 0.25, 0.0]
        assert _zero_noise_trace(schedule, 4).times.tolist() == [0.0, 0.5, 0.5, 0.75, 0.75]

    def test_live_traces_hold_one_pair(self):
        relay = dl.builtin_field("relay")
        noise, n_steps = dl.NoiseModel("gaussian", 0.1), 10_003
        array = 8 * n_steps  # bytes of one 1-d array of a trace, to within one row
        for schedule in (
            dl.StepsizeSchedule("power", a0=0.9, gamma=0.75),
            dl.StepsizeSchedule("custom", sequence=np.full(n_steps, 0.01)),
        ):
            dl.run_sa(relay, [0.5], schedule, noise, n_steps, seed=0)  # first-call caches
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traces = [dl.run_sa(relay, [0.5], schedule, noise, n_steps, seed)
                          for seed in range(10)]
                held = tracemalloc.get_traced_memory()[0] - base
                del traces
                gc.collect()
                left = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            # states, drifts and noises per trace, and one steps/times pair for
            # all ten, with no further copy of the steps; 5 arrays per trace
            # would be 50
            assert 31.5 < held / array < 32.6, schedule.kind
            assert left < array  # the pair went with the last trace


class TestTimescale:
    def _tiny_trace(self, steps, x=None):
        steps = np.asarray(steps, dtype=float)
        n = steps.size
        states = np.zeros((n + 1, 1)) if x is None else np.asarray(x, dtype=float)[:, None]
        return dl.IterateTrace(
            states=states,
            drifts=np.zeros((n, 1)),
            noises=np.zeros((n, 1)),
            steps=steps,
            times=np.concatenate([[0.0], np.cumsum(steps)]),
            seed=0,
        )

    def test_algorithmic_time_examples(self):
        # a trace's times are t(n) = sum_{m<n} a(m); window_index refuses an n outside them
        linear, zero = dl.builtin_field("linear"), dl.NoiseModel("zero", 0.0)
        custom = dl.StepsizeSchedule("custom", sequence=[0.5, 0.25, 0.125])
        trace = dl.run_sa(linear, [1.0], custom, zero, 3, seed=0)
        assert trace.times[3] == 0.875 and trace.times[0] == 0.0
        const = dl.run_sa(linear, [1.0], dl.StepsizeSchedule("constant", a0=0.1), zero, 100, seed=0)
        assert const.times[100] == pytest.approx(10.0, rel=1e-12)
        for n in (-1, 4):
            with pytest.raises(dl.IndexOutOfRange):
                dl.window_index(trace, n, 0.1)

    def test_interpolate_anchors_and_midpoint(self):
        trace = self._tiny_trace([1.0, 1.0], x=[0.0, 2.0, 2.0])
        assert interpolate_path(trace.times, trace.states, 0.5)[0] == 1.0
        for n in range(3):
            assert np.array_equal(interpolate_path(trace.times, trace.states, trace.times[n]), trace.states[n])
        with pytest.raises(dl.OutOfDomain):
            interpolate_path(trace.times, trace.states, 2.5)

    def test_interpolate_end_slack_and_empty_span(self):
        # a zero step repeats t(1): the path is constant across the empty span
        trace = self._tiny_trace([1.0, 0.0, 1.0], x=[0.0, 2.0, 2.0, 4.0])
        path = functools.partial(interpolate_path, trace.times, trace.states)
        assert np.array_equal(path([1.0, 1.5]), [[2.0], [3.0]])
        assert np.array_equal(path(-1e-13), [0.0])
        assert np.array_equal(path(2.0 + 1e-13), [4.0])
        for t in (-1e-11, 2.0 + 1e-11):
            with pytest.raises(dl.OutOfDomain):
                path(t)

    def test_interpolate_refuses_nan(self):
        # NaN once passed the range check and gave the last node
        trace = self._tiny_trace([1.0, 1.0], x=[0.0, 2.0, 2.0])
        path = functools.partial(interpolate_path, trace.times, trace.states)
        for t in (np.nan, [0.5, np.nan]):
            with pytest.raises(dl.OutOfDomain):
                path(t)
        traj = dl.Trajectory(trace.times, trace.states, ["", ""])
        with pytest.raises(dl.OutOfDomain):
            traj.value_at(np.nan)

    def test_interpolate_is_exact_at_the_last_node(self):
        # the last span was evaluated at weight 1: 0.64 + (0.105 - 0.64) != 0.105
        assert interpolate_path(np.array([0.0, 1.0]), np.array([[0.64], [0.105]]), 1.0)[0] == 0.105
        # a repeated final time gives the last node of its group, as any repeated time does
        times, points = np.array([0.0, 1.0, 1.0]), np.array([[0.0], [2.0], [5.0]])
        assert np.array_equal(interpolate_path(times, points, [0.5, 1.0]), [[1.0], [5.0]])

    @pytest.mark.filterwarnings("error")
    def test_interpolate_across_an_overflowing_difference(self):
        # 1e308 - (-1e308) overflows: the parent returned nan at t = 0
        times, points = np.array([0.0, 1.0]), np.array([[1e308], [-1e308]])
        path = functools.partial(interpolate_path, times, points)
        assert np.array_equal(path([0.0, 0.25, 0.5, 1.0]), [[1e308], [0.5 * 1e308], [0.0], [-1e308]])

    def test_window_index_examples(self):
        trace = self._tiny_trace([0.5, 0.25, 0.125, 0.125])
        assert dl.window_index(trace, 0, 0.7) == 2
        const = self._tiny_trace(np.full(30, 0.1))
        assert dl.window_index(const, 10, 1.0) == 20
        exact = self._tiny_trace([0.5, 0.5, 0.5])
        assert dl.window_index(exact, 0, 1.0) == 2  # boundary inclusion
        with pytest.raises(dl.WindowExceedsTrace):
            dl.window_index(trace, 0, 100.0)

    def test_window_index_is_after_n(self):
        # T inside the roundoff slack: the window still reaches the next time,
        # past a repeated one, and there is none after the last node
        trace = self._tiny_trace([0.5, 0.0, 0.5])
        assert dl.window_index(trace, 0, 1e-10) == 1
        assert dl.window_index(trace, 1, 1e-10) == 3
        with pytest.raises(dl.WindowExceedsTrace, match="no node"):
            dl.window_index(trace, 3, 1e-10)

    @pytest.mark.parametrize("n", [2.5, 1.0, True])
    def test_window_index_refuses_an_index_that_is_not_an_integer(self, n):
        # 2.5 once died in a bare numpy IndexError, True in an ambiguous truth value
        trace = self._tiny_trace([0.5, 0.25, 0.125, 0.125])
        with pytest.raises(ValueError, match="n must be an integer"):
            dl.window_index(trace, n, 0.1)
        with pytest.raises(ValueError, match="n must be an integer"):
            dl.tracking_error(trace, dl.builtin_field("linear"), n, 0.1, 1e-3)

    def test_window_index_takes_numpy_integers(self):
        trace = self._tiny_trace([0.5, 0.25, 0.125, 0.125])
        assert dl.window_index(trace, np.int64(0), 0.7) == 2
        with pytest.raises(dl.IndexOutOfRange):
            dl.window_index(trace, np.int64(5), 0.1)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
    def test_window_index_refuses_a_length_not_above_zero(self, T):
        # NaN once passed the T <= 0 check and raised WindowExceedsTrace
        trace = self._tiny_trace([0.5, 0.25, 0.125, 0.125])
        with pytest.raises(ValueError, match="T must be > 0"):
            dl.window_index(trace, 0, T)

    def test_power_timescale_rate(self):
        # t(n) ~ a0 n^(1-gamma) / (1-gamma), within 5% at n = 1e5
        sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
        n = 10**5
        t_n = float(np.sum(sched.values(n)))
        analytic = 1.0 * n**0.25 / 0.25
        assert abs(t_n / analytic - 1.0) < 0.05

    @given(steps=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=30),
           frac=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_window_index_is_minimal(self, steps, frac):
        trace = self._tiny_trace(steps)
        T = frac * float(trace.times[-1] - trace.times[0])
        k = dl.window_index(trace, 0, T)
        assert trace.times[k] >= T - 1e-9 * max(1.0, T)
        if k > 0:
            assert trace.times[k - 1] < T

    def test_euler_halving_against_exact_flow(self):
        # zero-noise run on the linear field vs the exact flow e^{-t}
        lin = dl.builtin_field("linear")
        sups = {}
        for a in (1e-3, 5e-4):
            trace = dl.run_sa(
                lin, [1.0], dl.StepsizeSchedule("constant", a0=a),
                dl.NoiseModel("zero", 0.0), int(round(1.0 / a)), seed=0,
            )
            exact = np.exp(-trace.times)
            sups[a] = float(np.max(np.abs(trace.states[:, 0] - exact)))
        ratio = sups[1e-3] / sups[5e-4]
        assert 1.8 <= ratio <= 2.5


class TestReplayProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        a0=st.floats(min_value=0.01, max_value=0.5),
        scale=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_identity_random_configs(self, seed, a0, scale):
        trace = dl.run_sa(
            dl.builtin_field("relay"),
            [0.3],
            dl.StepsizeSchedule("power", a0=a0, gamma=0.75),
            dl.NoiseModel("gaussian", scale),
            200,
            seed=seed,
        )
        assert trace.replay_residual() == 0.0


def _run_sa_oracle(field, x0, schedule, noise, n_steps, seed, blowup_bound=DEFAULT_BLOWUP_BOUND):
    """The per-step numpy loop that run_sa replaced, kept as its reference:
    (states, drifts, noises, steps, times)."""
    rng = dl.make_rng(seed)
    steps = schedule.values(n_steps)
    noises = noise.sample_batch(n_steps, field.dimension, rng)
    states = np.empty((n_steps + 1, field.dimension))
    drifts = np.empty((n_steps, field.dimension))
    states[0] = x = np.asarray(x0, dtype=float)
    for n in range(n_steps):
        z = field.evaluate(x)
        drifts[n] = z
        # a diverging draw overflows here; the check below raises for it
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + steps[n] * (z + noises[n])
            sq_norm = float(x @ x)
        states[n + 1] = x
        if not sq_norm <= blowup_bound * blowup_bound:
            if not np.all(np.isfinite(x)):
                raise dl.DivergedIterate(f"x({n + 1}) is not finite: {x.tolist()}")
            raise dl.DivergedIterate(f"|x({n + 1})| exceeded the blow-up bound {blowup_bound:g}")
    times = np.concatenate([[0.0], np.cumsum(steps)])
    return states, drifts, noises, steps, times


def _assert_matches_oracle(field, x0, schedule, noise, n_steps, seed, blowup_bound=DEFAULT_BLOWUP_BOUND):
    """run_sa gives the oracle's arrays byte for byte, or its exception."""
    args = (field, x0, schedule, noise, n_steps, seed, blowup_bound)
    try:
        expected = _run_sa_oracle(*args)
    except Exception as exc:  # any failure of the oracle must be reproduced
        with pytest.raises(type(exc)) as info:
            dl.run_sa(*args)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    trace = dl.run_sa(*args)
    got = (trace.states, trace.drifts, trace.noises, trace.steps, trace.times)
    for name, a, b in zip(("states", "drifts", "noises", "steps", "times"), got, expected):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


_N_STEPS = st.sampled_from(
    [1, 2, 3, 40, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5]
)
_NOISES = st.builds(
    dl.NoiseModel,
    st.sampled_from(["gaussian", "uniform_ball", "rademacher", "zero"]),
    st.sampled_from([0.0, 0.1, 0.5]),
)
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])  # dyadic values land on guards
_COEFFS = _GRID | st.floats(min_value=-2.0, max_value=2.0)


def _schedules(n_steps):
    return st.one_of(
        st.builds(
            lambda a0, gamma: dl.StepsizeSchedule("power", a0=a0, gamma=gamma),
            st.floats(min_value=0.01, max_value=1.0),
            st.floats(min_value=0.5, max_value=1.0),
        ),
        st.sampled_from([0.5, 0.25, 0.1]).map(lambda a0: dl.StepsizeSchedule("constant", a0=a0)),
        # a repeated pattern with zero stepsizes in it
        st.lists(st.sampled_from([0.0, 0.5, 0.125, 0.3]), min_size=1, max_size=6).map(
            lambda seq: dl.StepsizeSchedule("custom", sequence=np.resize(seq, n_steps))
        ),
    )


def _vectors(size, elements=_COEFFS):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def _random_fields(draw, x0):
    """Coordinate, affine and norm guards; constant, affine and quadratic
    pieces; boundary values on a random subset of the boundary patterns."""
    d = len(x0)
    guards = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["coordinate", "affine", "norm"]))
        if kind == "coordinate":
            guards.append(CoordinateGuard(draw(st.integers(min_value=0, max_value=d - 1)), d))
        elif kind == "affine":
            guards.append(AffineGuard(draw(_vectors(d, _GRID).filter(any)), draw(_GRID)))
        else:
            center = draw(st.just(x0) | _vectors(d, _GRID))
            guards.append(NormGuard(center, draw(st.sampled_from([0.0, 0.5, 1.0]))))
    small = st.floats(min_value=-0.5, max_value=0.5) | _GRID
    piece = st.one_of(
        _vectors(d).map(ConstantPiece),
        st.tuples(_vectors(d * d, small), _vectors(d)).map(
            lambda t: AffinePiece(np.reshape(t[0], (d, d)), t[1])
        ),
        _vectors(d * d * d, small).map(lambda q: QuadraticPiece(np.reshape(q, (d, d, d)))),
    )
    signs = len(guards)
    pieces = {"".join(p): draw(piece) for p in itertools.product("+-", repeat=signs)}
    boundary_values = {
        "".join(p): draw(_vectors(d))
        for p in itertools.product("+-0", repeat=signs)
        if "0" in p and draw(st.booleans())
    }
    return PiecewiseField(d, guards, pieces, boundary_values, name="random")


@st.composite
def _table_fields(draw, x0):
    """One coordinate guard and constant pieces, one full pattern in five
    without a piece, a boundary value or not; values of size d, one in five
    [inf] * d, which diverges at the first step that takes it. A field with
    both pieces takes run_sa's table path, one without takes its loop."""
    d = len(x0)
    guard = CoordinateGuard(draw(st.integers(min_value=-d, max_value=d - 1)), d)
    value = st.one_of(*[_vectors(d)] * 4, st.just([np.inf] * d))
    pieces = {
        p: ConstantPiece(draw(value))
        for p in "+-"
        if draw(st.integers(min_value=0, max_value=4))  # one in five has no piece
    }
    boundary_values = {"0": draw(value)} if draw(st.booleans()) else {}
    return PiecewiseField(d, [guard], pieces, boundary_values, name="table")


class TestRunSAOracle:
    """Both paths of run_sa against the per-step numpy loop they replaced."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_builtin_fields_match_oracle(self, data):
        name = data.draw(st.sampled_from(dl.BUILTIN_FIELDS))
        field = dl.builtin_field(name)
        n_steps = data.draw(_N_STEPS)
        _assert_matches_oracle(
            field,
            data.draw(_vectors(field.dimension, _GRID)),
            data.draw(_schedules(n_steps)),
            data.draw(_NOISES),
            n_steps,
            data.draw(st.integers(min_value=0, max_value=2**31)),
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_fields_match_oracle(self, data):
        x0 = data.draw(_vectors(data.draw(st.integers(min_value=1, max_value=3)), _GRID))
        n_steps = data.draw(_N_STEPS)
        _assert_matches_oracle(
            data.draw(_random_fields(x0)),
            x0,
            data.draw(_schedules(n_steps)),
            data.draw(_NOISES),
            n_steps,
            data.draw(st.integers(min_value=0, max_value=2**31)),
            data.draw(st.sampled_from([DEFAULT_BLOWUP_BOUND, 10.0, 2.0])),
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_table_fields_match_oracle(self, data):
        x0 = data.draw(_vectors(data.draw(st.integers(min_value=1, max_value=3)), _GRID))
        field = data.draw(_table_fields(x0))
        assert (field.guard_table() is not None) == (len(field.pieces) == 2)
        n_steps = data.draw(_N_STEPS)
        _assert_matches_oracle(
            field,
            x0,
            data.draw(_schedules(n_steps)),
            data.draw(_NOISES),
            n_steps,
            data.draw(st.integers(min_value=0, max_value=2**31)),
            data.draw(st.sampled_from([DEFAULT_BLOWUP_BOUND, 10.0, 2.0])),
        )

    @pytest.mark.parametrize("minus", [{"-": ConstantPiece([np.inf])}, {}], ids=["inf", "unassigned"])
    @pytest.mark.parametrize("scale", [0.0, 0.01])
    def test_table_failure_mid_block_matches_oracle(self, minus, scale):
        # x drifts down from 0.5 and reaches the '-' region after about 2000
        # steps: a non-finite iterate on the table path, or, on the per-step
        # loop that a field missing a piece takes, a pattern without a piece
        field = PiecewiseField(1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([-1.0]), **minus})
        schedule = dl.StepsizeSchedule("constant", a0=1.0 / _BLOCK_ROWS)
        with pytest.raises((dl.DivergedIterate, dl.UnassignedPattern)):
            dl.run_sa(field, [0.5], schedule, dl.NoiseModel("gaussian", scale), 2 * _BLOCK_ROWS, 0)
        _assert_matches_oracle(field, [0.5], schedule, dl.NoiseModel("gaussian", scale), 2 * _BLOCK_ROWS, 0)

    def test_first_visit_on_a_block_boundary_matches_oracle(self):
        # x(n) = 0.5 - n / (2 * _BLOCK_ROWS) is exact: the field misses '-',
        # so it takes the per-step loop; the pattern '0', which takes the '+'
        # piece, is first reached at local step 0 of the second block, and
        # the unassigned '-' one step later
        field = PiecewiseField(1, [CoordinateGuard(0, 1)], {"+": ConstantPiece([-1.0])})
        schedule = dl.StepsizeSchedule("constant", a0=0.5 / _BLOCK_ROWS)
        noise = dl.NoiseModel("zero", 0.0)
        with pytest.raises(dl.UnassignedPattern):
            dl.run_sa(field, [0.5], schedule, noise, 2 * _BLOCK_ROWS, 0)
        _assert_matches_oracle(field, [0.5], schedule, noise, 2 * _BLOCK_ROWS, 0)

    @pytest.mark.parametrize(
        "name, x0, noise",
        [
            ("relay", [0.5], dl.NoiseModel("gaussian", 0.1)),
            ("example1", [0.0, 1.0], dl.NoiseModel("gaussian", 0.1)),
            ("spurious_equilibrium", [0.0], dl.NoiseModel("zero", 0.0)),
        ],
    )
    def test_constant_fields_take_the_table_path(self, monkeypatch, name, x0, noise):
        # the table path resolves the three patterns once per call and labels
        # no iterate with sign_pattern; the per-step loop labels every one
        field = dl.builtin_field(name)
        values, labels = [], []
        value, sign_pattern = ConstantPiece.value, field.sign_pattern
        monkeypatch.setattr(ConstantPiece, "value", lambda piece, x: values.append(piece) or value(piece, x))
        monkeypatch.setattr(field, "sign_pattern", lambda x: labels.append(x) or sign_pattern(x))
        schedule = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
        dl.run_sa(field, x0, schedule, noise, 3 * _BLOCK_ROWS + 7, seed=11)
        assert labels == []
        assert len(values) == 3

    @pytest.mark.parametrize("n_guards", [0, 2])
    def test_other_constant_fields_keep_the_loop(self, n_guards):
        guards = [CoordinateGuard(k, 2) for k in range(n_guards)]
        pieces = {"".join(p): ConstantPiece([-1.0, 1.0]) for p in itertools.product("+-", repeat=n_guards)}
        assert PiecewiseField(2, guards, pieces).guard_table() is None

    @pytest.mark.parametrize(
        "piece",
        [ConstantPiece([1.0, 0.0]), AffinePiece([[0.0, 0.0], [0.0, -1.0]], [1.0, 0.0])],
        ids=["constant", "affine"],
    )
    def test_surface_without_value_matches_oracle(self, piece):
        # the iterate slides along y = 0, so every step takes the pattern '0',
        # which has no value and so gets the piece of '+'
        field = PiecewiseField(2, [CoordinateGuard(1, 2)], {"+": piece, "-": ConstantPiece([-1.0, 0.0])})
        schedule = dl.StepsizeSchedule("power", a0=0.5, gamma=0.75)
        _assert_matches_oracle(field, [0.0, 0.0], schedule, dl.NoiseModel("zero", 0.0), _BLOCK_ROWS + 1, 0)
        trace = dl.run_sa(field, [0.0, 0.0], schedule, dl.NoiseModel("zero", 0.0), 10, 0)
        assert np.all(trace.states[:, 1] == 0.0) and np.all(trace.drifts[:, 0] == 1.0)

    @pytest.mark.parametrize("value", [[0.5], 0.5], ids=["size-1", "scalar"])
    def test_size_one_piece_is_refused(self, value):
        # a size-1 drift in a 2-d field was broadcast by run_sa and
        # evaluate_batch but not by evaluate; the field now refuses it
        with pytest.raises(ValueError, match=r"'\+' has a value of shape"):
            PiecewiseField(2, [CoordinateGuard(0, 2)], {"+": ConstantPiece(value),
                                                        "-": AffinePiece(np.eye(2))})

    def test_nan_iterate_matches_oracle(self):
        nan_field = PiecewiseField(2, [], {"": AffinePiece([[np.nan, 0.0], [0.0, 1.0]])}, name="nan")
        schedule = dl.StepsizeSchedule("constant", a0=0.1)
        _assert_matches_oracle(nan_field, [1.0, 1.0], schedule, dl.NoiseModel("zero", 0.0), 50, 0)

    def test_exceeded_bound_matches_oracle(self):
        expanding = PiecewiseField(1, [], {"": AffinePiece([[2.0]])}, name="expanding")
        schedule = dl.StepsizeSchedule("constant", a0=1.0)
        _assert_matches_oracle(expanding, [1.0], schedule, dl.NoiseModel("zero", 0.0), 100, 0, 1e3)

    def test_subnormal_bound_matches_oracle(self):
        # |x(1)| is below the bound, but x @ x rounds in the subnormal range
        # to above bound * bound, so the iterate exceeds the bound
        bound = 2.2825593149915024e-161
        drift = ConstantPiece([7.233125606015e-162, 2.163317639899709e-161])
        field = PiecewiseField(2, [], {"": drift}, name="tiny")
        schedule = dl.StepsizeSchedule("constant", a0=1.0)
        with pytest.raises(dl.DivergedIterate, match="blow-up bound"):
            dl.run_sa(field, [0.0, 0.0], schedule, dl.NoiseModel("zero", 0.0), 1, 0, bound)
        _assert_matches_oracle(field, [0.0, 0.0], schedule, dl.NoiseModel("zero", 0.0), 1, 0, bound)

    def test_iterate_on_the_bound_passes(self):
        # x(n) = n: x(3) lies exactly on the bound 3, which passes; x(4) does not
        unit = PiecewiseField(1, [], {"": ConstantPiece([1.0])}, name="unit")
        schedule = dl.StepsizeSchedule("constant", a0=1.0)
        noise = dl.NoiseModel("zero", 0.0)
        assert dl.run_sa(unit, [0.0], schedule, noise, 3, 0, blowup_bound=3.0).states[-1, 0] == 3.0
        _assert_matches_oracle(unit, [0.0], schedule, noise, 4, 0, 3.0)
        with pytest.raises(dl.DivergedIterate, match="blow-up bound 3"):
            dl.run_sa(unit, [0.0], schedule, noise, 4, 0, blowup_bound=3.0)

    def test_huge_finite_iterate_diverges_without_warning(self):
        # x(1) = [0.5 + 1e308, 2e200] is finite, but x @ x overflows to inf;
        # the overflow is the test failing, not a warning to raise
        field = PiecewiseField(
            2, [CoordinateGuard(0, 2)],
            {"+": ConstantPiece([1e308, 1e200]), "-": ConstantPiece([np.inf, 0.0])},
        )
        schedule = dl.StepsizeSchedule("constant", a0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dl.DivergedIterate, match="blow-up bound"):
                dl.run_sa(field, [0.5, 1e200], schedule, dl.NoiseModel("zero", 0.0), 5, 0)
