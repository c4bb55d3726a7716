"""Record the reference outputs the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Runs one repetition of every workload at `workloads.DEFAULT_SEED` and writes
the trace digests and diagnostics into `perfbench/reference.json`. Re-record
only when a change to driftlab's outputs is intended and justified.
"""

import json
import os
import shutil
import sys
import tempfile

import bootstrap


def main():
    bootstrap.prepare()
    import workloads

    os.makedirs(bootstrap.WORK_ROOT, exist_ok=True)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        work_dir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=bootstrap.WORK_ROOT)
        try:
            ctx = workloads.setup(name, workloads.DEFAULT_SEED, os.path.join(work_dir, "inputs"))
            out_dir = os.path.join(work_dir, "out")
            os.makedirs(out_dir)
            check = workload.check(ctx, workload.run_rep(ctx, out_dir), out_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if check.failed_ops:
            print("\n".join(check.messages()), file=sys.stderr)
            return 1
        reference[name] = {
            "seed": workloads.DEFAULT_SEED,
            "digests": check.digests,
            "diagnostics": check.diagnostics,
        }
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
