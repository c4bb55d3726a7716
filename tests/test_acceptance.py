"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.  The
relay ensemble behind criteria 6-8 is built once in a module fixture; its
build time is charged to criterion 6's budget.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import driftlab as dl
from driftlab.config import config_from_dict
from driftlab.experiments import interpretation_flags, run_experiment
from driftlab.measures import velocity_mass_split

RESULTS = []


def _same_hull(a, b, tol=1e-12):
    """Mutual hull containment, the right equality for redundant vertex lists."""
    return all(b.contains(w, tol) for w in a.vertices) and all(a.contains(w, tol) for w in b.vertices)


def _report(num, label, elapsed, budget, ok=True):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2}: {status} ({elapsed:6.2f}s / budget {budget:g}s) {label}"
    RESULTS.append(line)
    print("\n" + line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {line}"


@pytest.fixture(scope="module")
def relay_ensemble():
    """10 relay runs with gaussian noise reaching t ~ 100 (criteria 6-8)."""
    start = time.perf_counter()
    relay = dl.builtin_field("relay")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    noise = dl.NoiseModel("gaussian", 0.1)
    traces = [
        dl.run_sa(relay, [0.5], sched, noise, 450_000, seed=seed)
        for seed in range(10)
    ]
    return {"traces": traces, "field": relay, "build_time": time.perf_counter() - start}


def test_criterion_01_example1_maps():
    start = time.perf_counter()
    fld = dl.builtin_field("example1")
    kra_expected = dl.ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 0.0]]))
    fil_expected = dl.ConvexVelocitySet(np.array([[1.0, -1.0], [1.0, 1.0]]))
    ok = True
    for x in (-2.3, 0.0, 0.7, 11.0):
        ok &= _same_hull(dl.krasovskii_map(fld, [x, 0.0], 1e-9), kra_expected)
        ok &= _same_hull(dl.filippov_map(fld, [x, 0.0], 1e-9), fil_expected)
        up = dl.ConvexVelocitySet(np.array([[1.0, -1.0]]))
        down = dl.ConvexVelocitySet(np.array([[1.0, 1.0]]))
        ok &= _same_hull(dl.filippov_map(fld, [x, 0.5], 1e-9), up)
        ok &= _same_hull(dl.krasovskii_map(fld, [x, 0.5], 1e-9), up)
        ok &= _same_hull(dl.filippov_map(fld, [x, -0.5], 1e-9), down)
        ok &= _same_hull(dl.krasovskii_map(fld, [x, -0.5], 1e-9), down)
    _report(1, "example1 set-valued maps exact", time.perf_counter() - start, 1.0, ok)


def test_criterion_02_sliding_mode_integration():
    start = time.perf_counter()
    fld = dl.builtin_field("example1")
    traj = dl.integrate_filippov(fld, [0.0, 1.0], 3.0, 1e-3)
    ok = np.linalg.norm(traj.points[-1] - [3.0, 0.0]) <= 1e-3
    slide_segments = [i for i, lab in enumerate(traj.mode_labels) if lab == "slide:0"]
    ok &= len(slide_segments) > 0
    ok &= abs(traj.times[slide_segments[0]] - 1.0) <= 2e-3
    ok &= abs(traj.points[slide_segments[0]][0] - 1.0) <= 2e-3
    slopes = traj.segment_slopes()[slide_segments]
    ok &= bool(np.allclose(slopes, [1.0, 0.0], atol=1e-9))
    # the derived sliding value [1,0] is used; the alternative 1/sqrt(2) is
    # flagged in experiment reports
    ok &= any("1/sqrt(2)" in flag for flag in interpretation_flags(fld))

    relay_traj = dl.integrate_filippov(dl.builtin_field("relay"), [0.5], 2.0, 1e-3)
    after = relay_traj.points[relay_traj.times >= 1.1]
    ok &= bool(np.all(np.abs(after) <= 1e-3))
    _report(2, "sliding-mode integration (example1 + relay)", time.perf_counter() - start, 5.0, ok)


def test_criterion_03_density_dichotomy():
    start = time.perf_counter()
    sp = dl.builtin_field("spurious_equilibrium")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    zero_trace = dl.run_sa(sp, [0.0], sched, dl.NoiseModel("zero", 0.0), 10**4, seed=0)
    ok = bool(np.all(zero_trace.states == 0.0))
    escapes = 0
    noise = dl.NoiseModel("gaussian", 0.1)
    for seed in range(100):
        trace = dl.run_sa(sp, [0.0], sched, noise, 10**4, seed=seed)
        escapes += trace.states[-1][0] >= 0.5 * trace.times[-1]
    ok &= escapes >= 99
    _report(3, f"density dichotomy (escapes {escapes}/100, zero arm exact)",
            time.perf_counter() - start, 30.0, ok)


def test_criterion_04_tracking_decay():
    start = time.perf_counter()
    fld = dl.builtin_field("example1")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    noise = dl.NoiseModel("gaussian", 0.1)
    n_seeds, improved = 20, 0
    for seed in range(n_seeds):
        trace = dl.run_sa(fld, [0.0, 1.0], sched, noise, 10**5, seed=seed)
        report = dl.tracking_profile(trace, fld, T=1.0, n_windows=10, dt=1e-3,
                                     noise_flag=noise.density_flag)
        improved += np.median(report.errors[-3:]) < np.median(report.errors[:3])
    ok = improved >= 0.8 * n_seeds
    _report(4, f"tracking error decay ({improved}/{n_seeds} seeds improved)",
            time.perf_counter() - start, 300.0, ok)


def test_criterion_05_euler_consistency():
    start = time.perf_counter()
    lin = dl.builtin_field("linear")
    errors = {}
    for a in (1e-3, 5e-4):
        trace = dl.run_sa(lin, [1.0], dl.StepsizeSchedule("constant", a0=a),
                          dl.NoiseModel("zero", 0.0), int(1.2 / a), seed=0)
        errors[a] = dl.tracking_error(trace, lin, 0, 1.0, 1e-5)
    ratio = errors[1e-3] / errors[5e-4]
    ok = 1.8 <= ratio <= 2.5
    _report(5, f"euler consistency (halving ratio {ratio:.3f})",
            time.perf_counter() - start, 10.0, ok)


def test_criterion_06_residual_decay(relay_ensemble):
    start = time.perf_counter()
    traces = relay_ensemble["traces"]
    times = traces[0].times
    checkpoints = [int(np.searchsorted(times, t)) for t in (25.0, 50.0, 100.0)]
    checkpoints[-1] = min(checkpoints[-1], traces[0].n_steps)
    family = dl.TestFunctionFamily.from_box(
        dl.averaged_measure(traces[0], traces[0].n_steps).box_states
    )
    table = dl.residual_decay_study(traces, family, checkpoints)
    ok = table.median_residuals[-1] <= 0.5 * table.median_residuals[0]
    ok &= bool(np.allclose(table.t_values, (25.0, 50.0, 100.0), rtol=0.02))
    elapsed = time.perf_counter() - start + relay_ensemble["build_time"]
    _report(6, f"stationarity residual decay (medians {table.median_residuals[0]:.4f} "
               f"-> {table.median_residuals[-1]:.4f} over t {table.t_values[0]:.0f} "
               f"-> {table.t_values[-1]:.0f})", elapsed, 120.0, ok)


def test_criterion_07_graph_support(relay_ensemble):
    start = time.perf_counter()
    traces, relay = relay_ensemble["traces"], relay_ensemble["field"]
    ok = True
    fil_at_05 = []
    for trace in traces:
        distances = dl.graph_distances(dl.averaged_measure(trace, trace.n_steps), relay)
        for eps in (0.01, 0.05, 0.1):
            support = distances.support(eps)
            ok &= support.krasovskii >= support.filippov - 1e-15
            if eps == 0.05:
                fil_at_05.append(support.filippov)
                ok &= support.filippov >= 0.95
    _report(7, f"graph support (min F-fraction {min(fil_at_05):.4f} at eps=0.05)",
            time.perf_counter() - start, 30.0, ok)


def test_criterion_08_relaxed_control_shadow(relay_ensemble):
    start = time.perf_counter()
    traces = relay_ensemble["traces"]
    splits, barycenters = [], []
    for trace in traces:
        measure = dl.averaged_measure(trace, trace.n_steps)
        split = velocity_mass_split(measure, 0.05)
        splits.append(split.split_fraction)
        barycenters.append(abs(split.barycenter[0]))
    med_split = float(np.median(splits))
    med_bary = float(np.median(barycenters))
    ok = 0.4 <= med_split <= 0.6 and med_bary <= 0.1
    _report(8, f"relaxed-control shadow (median split {med_split:.3f}, "
               f"median |barycenter| {med_bary:.4f})",
            time.perf_counter() - start, 30.0, ok)


def test_criterion_09_martingale_diagnostics():
    start = time.perf_counter()
    relay = dl.builtin_field("relay")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    noise = dl.NoiseModel("gaussian", 0.1)
    within = 0
    for seed in range(100):
        trace = dl.run_sa(relay, [0.5], sched, noise, 10**5, seed=seed)
        family = dl.TestFunctionFamily.from_box(
            dl.averaged_measure(trace, trace.n_steps).box_states
        )
        diag = dl.martingale_diagnostic(trace, family)
        n0 = trace.n_steps // 2
        osc = diag.tail_oscillation(n0).max(axis=1)
        bound = 4.0 * np.sqrt(diag.tail_quadratic_variation(n0))
        within += bool(np.all(osc <= bound + 1e-300))
    ok = within >= 95

    # invalid constant schedule: quadratic-variation proxy grows linearly
    trace = dl.run_sa(relay, [0.0], dl.StepsizeSchedule("constant", a0=1.0),
                      dl.NoiseModel("rademacher", 1.0), 20_000, seed=1)
    family = dl.TestFunctionFamily.from_box(
        dl.averaged_measure(trace, trace.n_steps).box_states
    )
    diag = dl.martingale_diagnostic(trace, family)
    n = np.arange(diag.quadratic_variation.shape[0], dtype=float)
    r2_min = 1.0
    for i in range(diag.quadratic_variation.shape[1]):
        qv = diag.quadratic_variation[:, i]
        slope, intercept = np.polyfit(n, qv, 1)
        pred = slope * n + intercept
        r2 = 1.0 - np.sum((qv - pred) ** 2) / np.sum((qv - qv.mean()) ** 2)
        r2_min = min(r2_min, r2)
        ok &= slope > 0
    ok &= r2_min >= 0.99
    _report(9, f"martingale diagnostics ({within}/100 inside 4*sqrt(QV), "
               f"min R^2 {r2_min:.4f})", time.perf_counter() - start, 120.0, ok)


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    cfg = config_from_dict({
        "field": "spurious_equilibrium",
        "x0": [0.0],
        "schedule": {"kind": "power", "a0": 1.0, "gamma": 0.75},
        "noise": {"kind": "gaussian", "scale": 0.1},
        "n_steps": 10**4,
        "seeds": [1, 2],
        "tracking": {"T": 1.0, "n_windows": 3, "dt": 1e-3},
        "measures": {"checkpoints": [10**3, 10**4], "eps": [0.05]},
        "output_dir": str(tmp_path / "a"),
    })
    b1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    b2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    ok = True
    import os
    names = [n for n in sorted(os.listdir(b1.out_dir)) if n.endswith(".csv")]
    ok &= len(names) == 8
    for name in names:
        one = Path(b1.out_dir, name).read_bytes()
        two = (tmp_path / "b" / name).read_bytes()
        ok &= one == two
    _report(10, f"determinism ({len(names)} CSVs byte-identical on rerun)",
            time.perf_counter() - start, 60.0, ok)


def test_zz_print_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
    assert len(RESULTS) == 10
