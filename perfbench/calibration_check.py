"""How far code of different kinds slows down with the calibration kernel.

    python3 perfbench/calibration_check.py [--seconds 90]

Alternates the calibration kernel with three probes for `--seconds`:

- `serial`: `run_sa` on the relay field, 2e4 steps (driftlab's
  interpreter-bound hot loop);
- `batch100`: a relay walk of 100 seeds stepped at once on 100-element
  arrays (the shape of a seed-batched engine);
- `vector20k`: the same walk on 20000-element arrays (numpy-heavy code).

For each probe it fits log(time / fastest time) against log(kernel /
fastest kernel), using the mean of the kernels run just before and after
it. A slope of 1 means calibration removes the slowdown exactly. A slope
below 1 means the probe slows less than the kernel, so its calibrated time
reads low by kernel^(slope - 1) when the core is slowed. Two pieces of code
measured at the same moment are divided by the same kernel time, so their
calibrated ratio equals their raw ratio whatever the slopes are; the slopes
tell how much run-to-run spread calibration leaves in each kind of code.
"""

import argparse
import sys
import time

import bootstrap


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=90.0)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    import numpy as np

    import driftlab as dl
    import harness

    field = dl.builtin_field("relay")
    schedule = dl.StepsizeSchedule(kind="power", a0=1.0, gamma=0.75)
    noise = dl.NoiseModel(kind="gaussian", scale=0.1)

    def walk(n_seeds, n_steps):
        rng = np.random.Generator(np.random.Philox(3))
        x = np.full(n_seeds, 0.5)
        for n in range(n_steps):
            x = x + (n + 1.0) ** -0.75 * (np.where(x > 0, -1.0, 1.0)
                                          + 0.1 * rng.standard_normal(n_seeds))
        return x

    probes = {
        "serial": lambda: dl.run_sa(field, [0.5], schedule, noise, 20_000, 7),
        "batch100": lambda: walk(100, 8_000),
        "vector20k": lambda: walk(20_000, 600),
    }
    rows = {name: [] for name in probes}
    end = time.perf_counter() + args.seconds
    kernel = harness.calibration_s()
    while time.perf_counter() < end:
        for name, probe in probes.items():
            start = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - start
            after = harness.calibration_s()
            rows[name].append((elapsed, 0.5 * (kernel + after)))
            kernel = after
    fastest_kernel = min(k for pairs in rows.values() for _, k in pairs)
    for name, pairs in rows.items():
        times, kernels = np.array(pairs).T
        x, y = np.log(kernels / fastest_kernel), np.log(times / times.min())
        slope = np.polyfit(x, y, 1)[0]
        print(f"{name:<10} n = {len(times):3d}  fastest {times.min():.4f} s  "
              f"slope {slope:.2f}  corr {np.corrcoef(x, y)[0, 1]:.2f}  "
              f"kernel slowdown {np.exp(x.min()):.2f}..{np.exp(x.max()):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
