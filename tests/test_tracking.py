import numpy as np
import pytest

import driftlab as dl
from driftlab import tracking
from driftlab.fields import ConstantPiece, PiecewiseField
from driftlab.sa import interpolate_path


def _run(field, x0, a0, n, kind="constant", noise=("zero", 0.0), seed=0, gamma=0.75):
    return dl.run_sa(
        field,
        x0,
        dl.StepsizeSchedule(kind, a0=a0, gamma=gamma),
        dl.NoiseModel(*noise),
        n,
        seed=seed,
    )


class TestTrackingError:
    def test_constant_trace_at_smooth_zero(self):
        lin = dl.builtin_field("linear")
        trace = _run(lin, [0.0], 1e-3, 1500)
        assert dl.tracking_error(trace, lin, 0, 1.0, 1e-4) == 0.0

    def test_zero_noise_linear_gronwall_bound(self):
        # oracle: Euler-vs-flow bound e * a * T
        lin = dl.builtin_field("linear")
        a = 1e-3
        trace = _run(lin, [1.0], a, 1500)
        err = dl.tracking_error(trace, lin, 0, 1.0, 1e-5)
        assert 0.0 < err <= np.e * a * 1.0
        assert err <= 5e-3

    def test_relay_window_bounded_by_iterate_band(self):
        relay = dl.builtin_field("relay")
        trace = _run(relay, [0.5], 1.0, 20000, kind="power", noise=("gaussian", 0.1), seed=3)
        n = 10**4
        m = dl.window_index(trace, n, 1.0)
        band = float(np.max(np.abs(trace.states[n : m + 1])))
        err = dl.tracking_error(trace, relay, n, 1.0, 1e-3)
        assert err <= 5.0 * band

    def test_window_monotone_in_T(self):
        relay = dl.builtin_field("relay")
        trace = _run(relay, [0.5], 0.01, 2000, noise=("gaussian", 0.1), seed=5)
        e_small = dl.tracking_error(trace, relay, 0, 0.5, 1e-3)
        e_large = dl.tracking_error(trace, relay, 0, 1.5, 1e-3)
        assert e_small <= e_large + 1e-15

    def test_window_beyond_trace_raises(self):
        lin = dl.builtin_field("linear")
        trace = _run(lin, [1.0], 1e-3, 100)
        with pytest.raises(dl.WindowExceedsTrace):
            dl.tracking_error(trace, lin, 0, 1.0, 1e-3)


class TestTrackingProfile:
    def test_time_homogeneous_windows_agree(self):
        # constant drift: every window reproduces the same picture exactly
        fld = PiecewiseField(1, [], {"": ConstantPiece([2.0])}, name="drift")
        trace = _run(fld, [0.0], 1e-2, 1000)
        report = dl.tracking_profile(trace, fld, T=1.0, n_windows=4, dt=1e-3)
        assert np.max(report.errors) - np.min(report.errors) <= 1e-12

    def test_equilibrium_windows_all_zero(self):
        lin = dl.builtin_field("linear")
        trace = _run(lin, [0.0], 1e-2, 1000)
        report = dl.tracking_profile(trace, lin, T=1.0, n_windows=5, dt=1e-3)
        assert np.array_equal(report.errors, np.zeros(5))

    def test_profile_carries_noise_flag(self):
        relay = dl.builtin_field("relay")
        trace = _run(relay, [0.5], 0.01, 500, noise=("gaussian", 0.1), seed=1)
        report = dl.tracking_profile(trace, relay, T=1.0, n_windows=2, dt=1e-2,
                                     noise_flag=True)
        assert report.noise_flag is True
        assert report.errors.size == report.window_starts.size == 2

    def test_zero_stepsizes_keep_the_last_node(self):
        # a zero step repeats t(n); the window reference keeps one node per time
        relay = dl.builtin_field("relay")
        sequence = np.tile([0.1, 0.0, 0.1], 200)
        trace = dl.run_sa(relay, [0.5], dl.StepsizeSchedule("custom", sequence=sequence),
                          dl.NoiseModel("gaussian", 0.1), sequence.size, seed=1)
        report = dl.tracking_profile(trace, relay, T=1.0, n_windows=3, dt=1e-2)
        assert np.all(np.isfinite(report.errors))
        ref = tracking.window_reference(trace, 0, 30)
        assert np.all(np.diff(ref.times) > 0)
        nodes = trace.times[:31]
        assert np.array_equal(ref.value_at(nodes), interpolate_path(trace.times, trace.states, nodes))

    @pytest.mark.parametrize("n_windows", [1, 3])
    def test_nan_window_length_raises(self, n_windows):
        lin = dl.builtin_field("linear")
        trace = _run(lin, [0.0], 1e-2, 1000)
        with pytest.raises(ValueError, match="T must be > 0"):
            dl.tracking_profile(trace, lin, T=np.nan, n_windows=n_windows, dt=1e-3)

    @pytest.mark.parametrize("n_windows", [True, 2.5, 2.0, 0])
    def test_n_windows_must_be_an_integer_ge_1(self, n_windows):
        # True once ran one window, 2.5 died in a TypeError
        lin = dl.builtin_field("linear")
        trace = _run(lin, [0.0], 1e-2, 1000)
        with pytest.raises(ValueError, match="n_windows must be an integer >= 1"):
            dl.tracking_profile(trace, lin, T=1.0, n_windows=n_windows, dt=1e-3)

    def test_too_short_trace_raises(self):
        lin = dl.builtin_field("linear")
        trace = _run(lin, [1.0], 1e-3, 1000)
        with pytest.raises(dl.WindowExceedsTrace):
            dl.tracking_profile(trace, lin, T=1.0, n_windows=3, dt=1e-3)

    def test_rademacher_spurious_windows_stay_large(self):
        # atoms trapped at 0 while the inclusion flow moves at speed 1:
        # every window error is at least 0.9 T
        sp = dl.builtin_field("spurious_equilibrium")
        trace = _run(sp, [0.0], 1.0, 4000, kind="power", noise=("rademacher", 0.0), seed=2)
        assert np.all(trace.states == 0.0)
        T = 1.0
        report = dl.tracking_profile(trace, sp, T=T, n_windows=3, dt=1e-3)
        assert np.all(report.errors >= 0.9 * T)

    def test_trapped_slope_explained_by_krasovskii_not_filippov(self):
        sp = dl.builtin_field("spurious_equilibrium")
        zero = np.zeros(1)
        assert dl.krasovskii_map(sp, zero, 1e-9).contains(zero, 1e-12)
        assert not dl.filippov_map(sp, zero, 1e-9).contains(zero, 1e-6)
