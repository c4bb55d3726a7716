"""driftlab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process and prints a report; the last line of
standard output is the JSON result. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones. `--workload all` runs every
workload, each in its own process, and prints a summary table.
"""

import argparse
import sys

import bootstrap


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness  # numpy loads here, after the thread pools are pinned

    if args.workload == "all":
        return harness.run_all(args.seed, args.seconds, args.trace)
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return harness.run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
