#!/usr/bin/env python3
"""Why absolute continuity of the noise matters.

The spurious-equilibrium field has drift 1 everywhere except h(0)=0 on the
null set {0}.  Zero noise keeps the iterates glued to that Krasovskii-only
rest point forever; gaussian noise (whose law has a density) pushes them
off immediately and the iterates then track the Filippov flow of speed 1.
"""

import numpy as np

import driftlab as dl


def main():
    sp = dl.builtin_field("spurious_equilibrium")
    sched = dl.StepsizeSchedule("power", a0=1.0, gamma=0.75)
    n_steps = 10**4

    zero = dl.run_sa(sp, [0.0], sched, dl.NoiseModel("zero", 0.0), n_steps, seed=0)
    print("zero-noise arm:")
    print(f"  max |x(n)| over the whole run: {np.max(np.abs(zero.states))} (exactly trapped)")
    print(f"  t(N) = {zero.times[-1]:.1f}, so the Filippov flow ends near x = {zero.times[-1]:.1f}")

    print("\ngaussian arm (scale 0.1), 20 seeds:")
    finals = []
    for seed in range(20):
        trace = dl.run_sa(sp, [0.0], sched, dl.NoiseModel("gaussian", 0.1), n_steps, seed=seed)
        finals.append(trace.states[-1][0])
    finals = np.array(finals)
    print(f"  final states: min {finals.min():.2f}, median {np.median(finals):.2f}, "
          f"max {finals.max():.2f}  (t(N) = {trace.times[-1]:.1f})")
    print(f"  all escaped past 0.5 t(N)? {np.all(finals >= 0.5 * trace.times[-1])}")

    print("\nwhose graph explains the trapped path?")
    origin = np.zeros(1)
    kra = dl.krasovskii_map(sp, origin, 1e-9)
    fil = dl.filippov_map(sp, origin, 1e-9)
    print(f"  slope 0 in K(0)? {kra.contains(origin, 1e-12)}"
          f"   in F(0)? {fil.contains(origin, 1e-6)}")

    print("\noccupation-measure view (first gaussian seed):")
    measure = dl.averaged_measure(trace, trace.n_steps)
    support = dl.graph_support_fraction(measure, sp, eps=0.05)
    print(f"  Filippov graph fraction {support.filippov:.4f} "
          f"(the lone off-graph atom is the start at 0, weight a(0)/t(N))")
    print(f"  Krasovskii graph fraction {support.krasovskii:.4f}")


if __name__ == "__main__":
    main()
