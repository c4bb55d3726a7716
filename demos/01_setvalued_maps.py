#!/usr/bin/env python3
"""Set-valued regularizations of a discontinuous field.

The two-dimensional benchmark field switches between [1,-1] (upper half
plane) and [1,1] (lower half plane) and carries the value [-1,0] on the
line y=0 itself.  On that null set the two regularizations disagree: the
Krasovskii hull keeps the on-line value, the Filippov hull discards it.
"""

import numpy as np

import driftlab as dl


def main():
    fld = dl.builtin_field("example1")

    print("pointwise values")
    for point in ([0.0, 0.5], [0.0, -0.5], [0.0, 0.0]):
        print(f"  h({point}) = {fld.evaluate(point)}")

    print("\nhulls on the switching line (any x):")
    for x in (0.0, 1.7):
        fil = dl.filippov_map(fld, [x, 0.0], 1e-9)
        kra = dl.krasovskii_map(fld, [x, 0.0], 1e-9)
        print(f"  x={x}: F vertices {fil.vertices.tolist()}")
        print(f"        K vertices {kra.vertices.tolist()}")
    print("  -> [-1, 0] lives on a Lebesgue-null set: only K keeps it")

    print("\nmembership checks")
    fil = dl.filippov_map(fld, [0.0, 0.0], 1e-9)
    kra = dl.krasovskii_map(fld, [0.0, 0.0], 1e-9)
    for v in ([1.0, 0.0], [-1.0, 0.0]):
        print(f"  {v}: in F? {fil.contains(v, 1e-9)}   in K? {kra.contains(v, 1e-9)}")

    print("\nmollified field at the line (bump radius 0.1):")
    for n in (100, 10000):
        est = dl.mollify(fld, [0.0, 0.0], 0.1, n, dl.make_rng(7))
        print(f"  {n:>6} samples -> {est}  (limit [1, 0])")

    print("\nspurious equilibrium (d=1, h=1 off 0, h(0)=0):")
    sp = dl.builtin_field("spurious_equilibrium")
    print(f"  F(0) = {dl.filippov_map(sp, [0.0], 1e-9).vertices.ravel().tolist()}"
          f"   K(0) = {dl.krasovskii_map(sp, [0.0], 1e-9).vertices.ravel().tolist()}")
    print("  -> 0 is a rest point of the Krasovskii dynamics only")


if __name__ == "__main__":
    main()
