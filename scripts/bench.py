#!/usr/bin/env python3
"""Time effalg's heavy calls and fingerprint their results.

Every row names an instance and a call, with the call's verdict, a digest
of its result and the seconds it took, so that two trees can be compared
row by row.  The groups:

* lp: find_state, state_space_dimension and find_subadditive_state on
  boolean(5), three products (p40, p60, p120) and hs120, hs200, hs400;
  the digest hashes the state's values or the certificate's multipliers.
* claims: check_all on hs40 ... hs400 and on stateless, one row per claim
  and one for the whole call, whose digest hashes repr of the reports.
* keys: canonical_key on the size-9 classes and 10 seeded relabelings of
  each, per frame f (the number of self-paired middles), and on the
  horizontal sum of k copies of chain(2), k = 7..9.
* cli: a command in a fresh interpreter, start-up included, with the
  sha256 of its stdout.

HS is horizontal_sum(chain(2), chain(2), chain(2)); hsN is a product of
HS with chains (and boolean(2) in hs400), a modular Archimedean atomic
lattice with N elements and unsharp elements.  stateless is the horizontal
sum of tests/fixtures/stateless9.alg and chain(3), which has no state.

The rows form one JSON document on stdout, one row per line, with the
seconds last:

    python3 scripts/bench.py > bench.json
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from effalg import theorems
from effalg.algfile import load_algebra
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.enumeration import EnumerationConfig, canonical_key, enumerate_algebras
from effalg.states import (
    StateVector,
    find_state,
    find_subadditive_state,
    state_space_dimension,
)
from workloads import relabel


def hs():
    return horizontal_sum([chain(2)] * 3)


INSTANCES = {
    "boolean5": lambda: boolean_algebra(5),
    "p40": lambda: product([boolean_algebra(3), chain(4)]),
    "p60": lambda: product([boolean_algebra(2), chain(2), chain(4)]),
    "p120": lambda: product([boolean_algebra(3), chain(4), chain(2)]),
    "hs40": lambda: product([hs(), chain(7)]),
    "hs60": lambda: product([hs(), chain(3), chain(2)]),
    "hs120": lambda: product([hs(), chain(3), chain(5)]),
    "hs200": lambda: product([hs(), chain(3), chain(9)]),
    "hs400": lambda: product([hs(), boolean_algebra(2), chain(3), chain(4)]),
    "stateless": lambda: horizontal_sum(
        [load_algebra(ROOT / "tests" / "fixtures" / "stateless9.alg"), chain(3)]),
}
RELABELINGS = 10   # seeded relabelings per size-9 class


def row(instance, size, call, verdict, digest, seconds):
    return {"instance": instance, "size": size, "call": call,
            "verdict": verdict, "digest": digest, "seconds": round(seconds, 4)}


def digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:12]


def lp_digest(result) -> str:
    """A hash of the state's values or of the certificate's multipliers;
    "-" for a dimension."""
    if isinstance(result, int):
        return "-"
    if isinstance(result, StateVector):
        values = result.values
    else:
        values = result.eq_mult + result.bound_mult + result.ineq_mult
    text = ",".join(f"{v.numerator}/{v.denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def lp_rows(name):
    E = INSTANCES[name]()
    for fn in (find_state, state_space_dimension, find_subadditive_state):
        t0 = time.perf_counter()
        result = fn(E)
        secs = time.perf_counter() - t0
        if isinstance(result, int):
            verdict = f"dim {result}"
        else:
            verdict = "state" if isinstance(result, StateVector) else "certificate"
        yield row(name, E.size, fn.__name__, verdict, lp_digest(result), secs)


def claim_rows(name):
    E = INSTANCES[name]()
    # check_all calls theorems.check once per claim, and each claim reads
    # what earlier claims derived and E keeps; wrapping check times each
    # claim as check_all runs it
    check = theorems.check
    secs = {}

    def timed_check(E, claim_id):
        t0 = time.perf_counter()
        try:
            return check(E, claim_id)
        finally:
            secs[claim_id] = time.perf_counter() - t0

    theorems.check = timed_check
    try:
        t0 = time.perf_counter()
        reports = theorems.check_all(E)
        total = time.perf_counter() - t0
    finally:
        theorems.check = check
    holds = 0
    for r in reports:
        if r.error is not None:
            verdict = "error"
        elif not r.hypotheses_met:
            verdict = "-"
        else:
            verdict = "holds" if r.conclusion_holds else "FAILS"
        holds += verdict == "holds"
        yield row(name, E.size, r.claim_id, verdict, digest(r),
                  secs.get(r.claim_id, 0.0))
    yield row(name, E.size, "check_all", f"{holds} of {len(reports)} hold",
              digest(reports), total)


def timed_keys(algebras):
    t0 = time.perf_counter()
    keys = [canonical_key(E) for E in algebras]
    return keys, time.perf_counter() - t0


def frame_key_rows(size):
    rng = random.Random(9)
    by_frame = {}
    for E in enumerate_algebras(EnumerationConfig(size=size)):
        f = sum(x == y for x, y in enumerate(E.orth))
        copies = [E]
        for _ in range(RELABELINGS):
            perm = list(range(E.size))
            rng.shuffle(perm)
            copies.append(relabel(E, perm))
        by_frame.setdefault(f, []).append(copies)
    total, every = 0.0, []
    for f in sorted(by_frame):
        keys, secs = timed_keys([A for copies in by_frame[f] for A in copies])
        total += secs
        every += keys
        yield row(f"size{size} f={f}", size, "canonical_key",
                  f"{len(by_frame[f])} classes, {len(keys)} keys",
                  digest(keys), secs)
    yield row(f"size{size}", size, "canonical_key",
              f"{sum(map(len, by_frame.values()))} classes, {len(every)} keys",
              digest(every), total)


def chain_key_rows(k):
    E = horizontal_sum([chain(2)] * k)
    keys, secs = timed_keys([E])
    yield row(f"{k}xchain2", E.size, "canonical_key", "-", digest(keys), secs)


def cli_rows(argv):
    # with -m, the working directory heads sys.path, so src/ is imported
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "effalg.cli", *argv],
                          cwd=ROOT / "src", capture_output=True)
    secs = time.perf_counter() - t0
    yield row(" ".join(argv), None, "python -m effalg.cli",
              f"exit {done.returncode}",
              hashlib.sha256(done.stdout).hexdigest()[:16], secs)


PLAN = (
    ("lp", lp_rows, ("boolean5", "p40", "p60", "p120", "hs120", "hs200", "hs400")),
    ("claims", claim_rows, ("hs40", "hs60", "hs120", "hs200", "hs400", "stateless")),
    ("keys", frame_key_rows, (9,)),
    ("keys", chain_key_rows, (7, 8, 9)),
    ("cli", cli_rows, (("enumerate", "11", "--json"),
                       ("enumerate", "11", "--json", "--jobs", "2"),
                       ("enumerate", "12", "--json"))),
)


def main() -> int:
    sep = "["
    for group, rows, args in PLAN:
        for arg in args:
            for r in rows(arg):
                print(sep + json.dumps({"group": group, **r}), flush=True)
                sep = ","
    print("]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
