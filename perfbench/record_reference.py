"""Record the reference outputs the benchmark checks against.

Run once, from the root of a checkout of the commit whose outputs are the
reference (the seed commit of the benchmark):

    python3 perfbench/record_reference.py

It writes ``data/classes9.json`` (the size-9 classes, as enumerated) and
``data/reference.json`` (class counts, the exit code and stdout hash of
the enum10 and sweep9 commands, the sweep9 claim rows, the verdict of
every states_lp instance, and for each size-9 class the iso9
relabelings whose key differs from the class's key).  Rerunning it on a
later commit would make the benchmark accept whatever that commit
outputs, so do not.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from effalg.enumeration import (  # noqa: E402
    EnumerationConfig,
    canonical_key,
    enumerate_algebras,
)
from effalg.states import StateVector  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    classes9 = [[[-1 if v is None else v for v in row] for row in E.sum]
                for E in enumerate_algebras(EnumerationConfig(size=9))]
    (workloads.DATA / "classes9.json").write_text(json.dumps(classes9) + "\n")

    ref = {"class_counts": {"9": len(classes9)}}
    for name in ("enum10", "sweep9"):
        code, out = workloads.run_cli(workloads.WORKLOADS[name].ARGV,
                                      nullcontext)
        ref[name] = {"exit_code": code, "stdout_sha256": workloads.sha256(out)}
        if name == "enum10":
            ref["class_counts"]["10"] = json.loads(out)["count"]
        else:
            ref[name]["rows"] = json.loads(out)["claims"]

    verdicts = {}
    for query, text, E in workloads.StatesLP().setup(0, ref):
        got = getattr(workloads.states, query)(E)
        if query == "state_space_dimension":
            verdicts[f"{query} {text}"] = got
        else:
            verdicts[f"{query} {text}"] = ("state" if isinstance(got, StateVector)
                                           else "no_state")
    ref["states_lp"] = dict(sorted(verdicts.items()))

    mismatched = {}
    for i, E in enumerate(workloads.load_classes9()):
        base = canonical_key(E)
        mismatched[str(i)] = [
            j for j in range(workloads.ISO9_RELABELINGS)
            if canonical_key(workloads.relabel(
                E, workloads.iso9_perm(i, j, E.size))) != base]
    ref["iso9"] = {"relabelings": workloads.ISO9_RELABELINGS,
                   "mismatched": mismatched}
    (workloads.DATA / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
