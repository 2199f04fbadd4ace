#!/usr/bin/env python3
"""Check the enumerated classes against an independent labelled count.

For each size and each frame f, counts the valid tables in the frame with
no symmetry breaking (tests/oracle_labelled.py) and compares the count
with the sum of |G_f| / |Aut(E)| over the enumerated classes E in that
frame.  Equality in every frame means the classes are complete and
pairwise non-isomorphic.

    python3 scripts/orbit_count.py --min-n 9 --max-n 11

Exits 1 if some frame disagrees.
"""

import argparse
import sys
import time
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))
sys.path.insert(0, str(root / "tests"))

from effalg.enumeration import EnumerationConfig, enumerate_algebras
from oracle_labelled import frame_of, frames, labelled_count, orbit_sums


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    print(f"{'n':>3} {'f':>3} {'classes':>8} {'orbit sum':>10} "
          f"{'labelled':>9} {'agree':>6} {'secs':>8}")
    ok = True
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.monotonic()
        classes = list(enumerate_algebras(EnumerationConfig(size=n)))
        t_enum = time.monotonic() - t0
        t0 = time.monotonic()
        sums = orbit_sums(classes, n)
        t_orbit = time.monotonic() - t0
        for f in frames(n):
            t0 = time.monotonic()
            labelled = labelled_count(n, f)
            secs = time.monotonic() - t0
            in_frame = sum(1 for E in classes if frame_of(E) == f)
            agree = sums[f] == labelled
            ok &= agree
            print(f"{n:>3} {f:>3} {in_frame:>8} {sums[f]:>10} {labelled:>9} "
                  f"{'yes' if agree else 'NO':>6} {secs:>8.2f}", flush=True)
        print(f"{n:>3} all {len(classes):>8}  enumerate {t_enum:.2f} s, "
              f"automorphisms {t_orbit:.2f} s", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
