"""One set-up, as a CLI user pays it on every invocation.

    python3 perfbench/setup_probe.py --workload NAME --seed N --dir DIR

Imports driftlab, generates the workload's inputs into DIR, loads the
config and builds the field, then prints `time.monotonic()` at that ready
point. The caller subtracts its own monotonic clock at spawn.
"""

import argparse
import sys
import time

import bootstrap


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    import workloads  # imports driftlab; part of the measured set-up

    workloads.setup(args.workload, args.seed, args.dir)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
