#!/usr/bin/env python3
"""Time the state LPs on the constructed algebras of the ROADMAP baseline.

Runs find_state, state_space_dimension and find_subadditive_state once
each on boolean(5), on the 40-, 60- and 120-element products, and on
hs120, the 120-element instance of the paper's hypothesis class, and
prints the wall time of each call with a digest of its result, so two
trees can be compared call by call:

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

ALGEBRAS = {
    "boolean5": "boolean(5)",
    "p40": "product(boolean(3), chain(4))",
    "p60": "product(boolean(2), chain(2), chain(4))",
    "p120": "product(boolean(3), chain(4), chain(2))",
    "hs120": ("product(horizontal_sum(chain(2), chain(2), chain(2)), "
              "chain(3), chain(5))"),
}
CALLS = {
    "find_state": find_state,
    "state_space_dimension": state_space_dimension,
    "find_subadditive_state": find_subadditive_state,
}


def digest(result) -> str:
    """A short fingerprint of a call's result: the dimension, or a hash of
    the state's values or of the certificate's multipliers."""
    if isinstance(result, int):
        return f"dim {result}"
    if isinstance(result, StateVector):
        kind, values = "state", result.values
    else:
        kind = "certificate"
        values = result.eq_mult + result.bound_mult + result.ineq_mult
    text = ",".join(f"{v.numerator}/{v.denominator}" for v in values)
    return f"{kind} {hashlib.sha256(text.encode()).hexdigest()[:12]}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--algebra", action="append", choices=sorted(ALGEBRAS),
                        help="algebra to time (repeatable; default: all)")
    args = parser.parse_args()

    print(f"{'algebra':<9} {'size':>5} {'call':<23} {'secs':>8}  result")
    for name in args.algebra or list(ALGEBRAS):
        E = build(parse_construction(ALGEBRAS[name]))
        for call, fn in CALLS.items():
            t0 = time.perf_counter()
            result = fn(E)
            secs = time.perf_counter() - t0
            print(f"{name:<9} {E.size:>5} {call:<23} {secs:>8.2f}  {digest(result)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
