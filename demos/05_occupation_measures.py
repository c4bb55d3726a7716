#!/usr/bin/env python3
"""Occupation measures of relay iterates and their limit diagnostics.

The step-weighted average of the Dirac path at (x(n), z(n)) concentrates,
for the noisy relay, near x=0 with velocity mass split evenly between -1
and +1: the empirical shadow of a stationary relaxed control.  Its
stationarity residuals against smooth test functions decay like 1/t, and
the noise martingale obeys its quadratic-variation bound.
"""

import numpy as np

import driftlab as dl
from driftlab.measures import velocity_mass_split


def main():
    relay = dl.builtin_field("relay")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    noise = dl.NoiseModel("gaussian", 0.1)
    traces = [dl.run_sa(relay, [0.5], sched, noise, 120_000, seed=s) for s in range(4)]

    full = dl.averaged_measure(traces[0], traces[0].n_steps)
    family = dl.TestFunctionFamily.from_box(full.box_states)
    print(f"measure for seed 0: {full.n_atoms} atoms, state box "
          f"[{full.box_states[0][0]:.3f}, {full.box_states[1][0]:.3f}]")

    print("\nstationarity residual decay (median over 4 seeds):")
    checkpoints = [1200, 12000, 120000]
    table = dl.residual_decay_study(traces, family, checkpoints)
    for row in table.to_rows():
        print(f"  n = {row['checkpoint_n']:>7}  t = {row['t_n']:7.1f}  "
              f"max residual {row['median_max_residual']:.4f}  "
              f"(C/t envelope {row['envelope']:.4f})")

    print("\ngraph support of the final measure (seed 0):")
    distances = dl.graph_distances(full, relay)
    for eps in (0.01, 0.05, 0.1):
        support = distances.support(eps)
        print(f"  eps = {eps:<5} F-fraction {support.filippov:.4f}  "
              f"K-fraction {support.krasovskii:.4f}")

    print("\nrelaxed-control shadow near the origin (|x| <= 0.05):")
    for i, trace in enumerate(traces):
        measure = dl.averaged_measure(trace, trace.n_steps)
        split = velocity_mass_split(measure, 0.05)
        print(f"  seed {i}: mass at -1 vs +1 = {split.mass_minus:.3f} / {split.mass_plus:.3f}"
              f"  (split {split.split_fraction:.3f}, barycenter {split.barycenter[0]:+.4f})")

    print("\nnoise-martingale diagnostic (seed 0):")
    diag = dl.martingale_diagnostic(traces[0], family)
    n0 = traces[0].n_steps // 2
    osc = diag.tail_oscillation(n0).max(axis=1)
    bound = 4.0 * np.sqrt(diag.tail_quadratic_variation(n0))
    for i, beta in enumerate(family.betas):
        print(f"  member beta={beta}: tail osc {osc[i]:.2e} <= "
              f"4 sqrt(QV tail) = {bound[i]:.2e}")


if __name__ == "__main__":
    main()
