#!/usr/bin/env python3
"""Time each claim of `theorems.check_all` on instances of the paper's
hypothesis class and on a stateless horizontal sum.

HS is horizontal_sum(chain(2), chain(2), chain(2)).  The instances are
hs40 = HS x chain(7), hs60 = HS x chain(3) x chain(2),
hs120 = HS x chain(3) x chain(5), hs200 = HS x chain(3) x chain(9) and
hs400 = HS x boolean(2) x chain(3) x chain(4), which are modular
Archimedean atomic lattices with unsharp elements, and stateless = the
horizontal sum of tests/fixtures/stateless9.alg and chain(3), which has
no state.  For each instance the script runs check_all once and prints,
per claim, whether the hypotheses are met, the verdict and the seconds
taken, then the total and a digest of the reports, so that two trees can
be compared instance by instance:

    python3 scripts/claim_timings.py
    python3 scripts/claim_timings.py --algebra hs40 --algebra stateless
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))

from effalg import theorems
from effalg.algfile import load_algebra
from effalg.construct import boolean_algebra, chain, horizontal_sum, product


def hs():
    return horizontal_sum([chain(2)] * 3)


ALGEBRAS = {
    "hs40": lambda: product([hs(), chain(7)]),
    "hs60": lambda: product([hs(), chain(3), chain(2)]),
    "hs120": lambda: product([hs(), chain(3), chain(5)]),
    "hs200": lambda: product([hs(), chain(3), chain(9)]),
    "hs400": lambda: product([hs(), boolean_algebra(2), chain(3), chain(4)]),
    "stateless": lambda: horizontal_sum(
        [load_algebra(root / "tests" / "fixtures" / "stateless9.alg"), chain(3)]),
}


def verdict(report) -> str:
    if report.error is not None:
        return "error"
    if not report.hypotheses_met:
        return "-"
    return "holds" if report.conclusion_holds else "FAILS"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--algebra", action="append", choices=sorted(ALGEBRAS),
                        help="instance to time (repeatable; default: all)")
    args = parser.parse_args()

    # check_all calls theorems.check once per claim, inside its per-instance
    # context; wrapping it times each claim as check_all runs it
    check = theorems.check
    secs = {}

    def timed_check(E, claim_id):
        t0 = time.perf_counter()
        try:
            return check(E, claim_id)
        finally:
            secs[claim_id] = time.perf_counter() - t0

    theorems.check = timed_check
    for name in args.algebra or list(ALGEBRAS):
        E = ALGEBRAS[name]()
        print(f"{name}: {E.size} elements")
        print(f"  {'claim':<38} {'hyps':<6} {'result':<6} {'secs':>8}")
        secs.clear()
        t0 = time.perf_counter()
        reports = theorems.check_all(E)
        total = time.perf_counter() - t0
        for r in reports:
            print(f"  {r.claim_id:<38} {str(r.hypotheses_met):<6} "
                  f"{verdict(r):<6} {secs.get(r.claim_id, 0.0):>8.3f}")
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()[:12]
        print(f"  {'check_all':<38} {'':<6} {'':<6} {total:>8.3f}  {digest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
