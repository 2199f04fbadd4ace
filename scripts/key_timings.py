#!/usr/bin/env python3
"""Time the min-key search: canonical_key per frame, on symmetric algebras,
and inside enumerate.

Prints three tables, each row with a digest of its output, so that two
trees can be compared row by row:

* canonical_key over the size-9 classes (enumerated in-process) and 10
  seeded relabelings of each, one row per frame f (the number of
  self-paired middles);
* canonical_key of the horizontal sum of k copies of chain(2), whose k
  middles are all self-paired and interchangeable, for k = 7..9;
* the command `enumerate 11 --json --jobs J` in a fresh interpreter
  (start-up included), with the sha256 of its stdout.

    python3 scripts/key_timings.py
    python3 scripts/key_timings.py --jobs 2
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))
sys.path.insert(0, str(root / "perfbench"))

from effalg.construct import chain, horizontal_sum
from effalg.enumeration import EnumerationConfig, canonical_key, enumerate_algebras
from workloads import relabel

RELABELINGS = 10   # seeded relabelings per size-9 class
ENUMERATE = 11     # size of the timed enumerate command


def shuffled(E, rng):
    perm = list(range(E.size))
    rng.shuffle(perm)
    return relabel(E, perm)


def digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:12]


def timed_keys(algebras):
    t0 = time.perf_counter()
    keys = [canonical_key(E) for E in algebras]
    return time.perf_counter() - t0, keys


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs of the enumerate command (default 1)")
    args = parser.parse_args()

    rng = random.Random(9)
    by_frame = {}
    for E in enumerate_algebras(EnumerationConfig(size=9)):
        f = sum(x == y for x, y in enumerate(E.orth))
        copies = [E] + [shuffled(E, rng) for _ in range(RELABELINGS)]
        by_frame.setdefault(f, []).append(copies)
    print(f"size-9 classes, {RELABELINGS} relabelings each")
    print(f"{'f':>4} {'classes':>8} {'keys':>6} {'secs':>8}  digest")
    total, every = 0.0, []
    for f in sorted(by_frame):
        algebras = [A for copies in by_frame[f] for A in copies]
        secs, keys = timed_keys(algebras)
        total += secs
        every += keys
        print(f"{f:>4} {len(by_frame[f]):>8} {len(keys):>6} {secs:>8.3f}  "
              f"{digest(keys)}", flush=True)
    print(f"{'all':>4} {sum(map(len, by_frame.values())):>8} {len(every):>6} "
          f"{total:>8.3f}  {digest(every)}")

    print("\nk x chain(2)")
    print(f"{'k':>4} {'size':>5} {'secs':>8}  digest")
    for k in (7, 8, 9):
        E = horizontal_sum([chain(2)] * k)
        secs, keys = timed_keys([E])
        print(f"{k:>4} {E.size:>5} {secs:>8.4f}  {digest(keys)}", flush=True)

    command = ["enumerate", str(ENUMERATE), "--json", "--jobs", str(args.jobs)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "effalg.cli", *command],
                         env=env, capture_output=True, check=True).stdout
    secs = time.perf_counter() - t0
    print(f"\n{' '.join(command)}: {secs:.2f} s, "
          f"sha256 {hashlib.sha256(out).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
