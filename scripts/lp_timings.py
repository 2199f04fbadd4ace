#!/usr/bin/env python3
"""Time the state LPs on the constructed algebras of the ROADMAP baseline.

Runs find_state, state_space_dimension and find_subadditive_state once
each on boolean(5), on the 40-, 60- and 120-element products, and on
hs120, hs200 and hs400, instances of the paper's hypothesis class with
120, 200 and 400 elements.  It prints the wall time of each call, its
verdict (state, certificate or the dimension) and a digest of the
result, so two trees can be compared call by call:

    python3 scripts/lp_timings.py
    python3 scripts/lp_timings.py --algebra boolean5 --algebra p40
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from effalg.construct import build, parse_construction
from effalg.states import (
    StateVector,
    find_state,
    find_subadditive_state,
    state_space_dimension,
)

HS = "horizontal_sum(chain(2), chain(2), chain(2))"
ALGEBRAS = {
    "boolean5": "boolean(5)",
    "p40": "product(boolean(3), chain(4))",
    "p60": "product(boolean(2), chain(2), chain(4))",
    "p120": "product(boolean(3), chain(4), chain(2))",
    "hs120": f"product({HS}, chain(3), chain(5))",
    "hs200": f"product({HS}, chain(3), chain(9))",
    "hs400": f"product({HS}, boolean(2), chain(3), chain(4))",
}
CALLS = {
    "find_state": find_state,
    "state_space_dimension": state_space_dimension,
    "find_subadditive_state": find_subadditive_state,
}


def verdict(result) -> str:
    """The dimension, or whether the call found a state."""
    if isinstance(result, int):
        return f"dim {result}"
    return "state" if isinstance(result, StateVector) else "certificate"


def digest(result) -> str:
    """A short fingerprint of a call's result: a hash of the state's values
    or of the certificate's multipliers; "-" for a dimension."""
    if isinstance(result, int):
        return "-"
    if isinstance(result, StateVector):
        values = result.values
    else:
        values = result.eq_mult + result.bound_mult + result.ineq_mult
    text = ",".join(f"{v.numerator}/{v.denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--algebra", action="append", choices=sorted(ALGEBRAS),
                        help="algebra to time (repeatable; default: all)")
    args = parser.parse_args()

    print(f"{'algebra':<9} {'size':>5} {'call':<23} {'secs':>8}  "
          f"{'verdict':<12} digest")
    for name in args.algebra or list(ALGEBRAS):
        E = build(parse_construction(ALGEBRAS[name]))
        for call, fn in CALLS.items():
            t0 = time.perf_counter()
            result = fn(E)
            secs = time.perf_counter() - t0
            print(f"{name:<9} {E.size:>5} {call:<23} {secs:>8.2f}  "
                  f"{verdict(result):<12} {digest(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
