"""Steadiness check: is run-to-run spread inside the benchmark's own bounds?

Runs the benchmark command of ``BENCHMARK.json`` on every workload, in
two independent sets of ten runs, each run with its own seed (1-20).
The sets are interleaved run by run, so that a change in machine load
hits them alike.  For every end-to-end metric and set it reports the
median and the spread (the distance between the first and third quartile
over the median), and between the first and each later set the drift of
the median in the metric's worse direction.  A spread or a drift above
the metric's bound fails the check; a spread above a third of the bound
is flagged as not steady.  The sets must also attempt and fail the same
number of ops.  It takes about half an hour on two cores.

    python3 perfbench/steady.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10  # runs per set
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect\n"
                           f"{proc.stdout[-2000:]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, (result["attempted"], result["failed"])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    end_to_end = bench["end_to_end"]
    ok = True
    report = {}
    for workload in names:
        sets = [[] for _ in range(SETS)]
        ops = [[0, 0] for _ in range(SETS)]
        for i in range(SEEDS):
            for s in range(SETS):
                seed = 1 + s * SEEDS + i
                metrics, counts = run_once(bench, workload, seed)
                sets[s].append(metrics)
                ops[s] = [a + b for a, b in zip(ops[s], counts)]
                print(f"{workload} set {s} seed {seed}: {counts} {metrics}",
                      file=sys.stderr, flush=True)
        same_ops = all(o == ops[0] for o in ops)
        ok = ok and same_ops
        print(f"{workload:10s} ops (attempted, failed) per set: "
              + "  ".join(map(str, ops)) + ("  ok" if same_ops else "  FAIL"),
              flush=True)
        report[workload] = {"ops": ops}
        for m in end_to_end:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            rows = [spread([r[name] for r in runs]) for runs in sets]
            drifts = [sign * (med - rows[0][0]) / rows[0][0] for med, _ in rows[1:]]
            bad_spread = any(sp > bound for _, sp in rows)
            bad_drift = any(d > bound for d in drifts)
            steady = all(sp < bound / 3 for _, sp in rows)
            ok = ok and not (bad_spread or bad_drift)
            verdict = ("FAIL" if bad_spread or bad_drift
                       else "ok" if steady else "ok (spread above bound/3)")
            report[workload][name] = {"bound": bound, "medians": [r[0] for r in rows],
                                      "spreads": [r[1] for r in rows],
                                      "drifts": drifts, "verdict": verdict}
            print(f"{workload:10s} {name:14s} bound {bound:5.3f}  "
                  + "  ".join(f"median {med:.5g} spread {sp:.4f}" for med, sp in rows)
                  + "".join(f"  drift {d:+.4f}" for d in drifts)
                  + f"  {verdict}", flush=True)
    out = ROOT / "perfbench" / "runs" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
