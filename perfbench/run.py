"""effalg benchmark: one workload, one seed, a fixed measuring window.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enum10 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): enum10, states_lp,
sweep9, iso9.  The run sets up its inputs from the seed, then runs timed
passes back to back (a closed loop, one caller) and starts another pass
only while it is expected to end inside the window; there is always at
least one.  Every pass is checked against the reference outputs in
``data/``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end figures: ``norm_wall_s`` (median pass time at the
reference machine speed, see below), ``setup_s`` (median of several
set-ups, each a fresh interpreter importing effalg plus building the
inputs, also at the reference speed), ``peak_rss_mib`` and ``ok_ratio``
(ops that matched their reference / ops attempted; ``failed_ratio`` =
1 - ``ok_ratio`` is printed above it and kept in the run record).  The
raw median pass time, ``wall_s``, is printed above it and kept in the
record, with every raw pass and set-up time.

The speed of the shared two-core machine the benchmark was written on
drifts by 20% and more from minute to minute, in CPU time as much as in
wall time, so raw times of runs minutes apart spread by more than any
useful bound.  The run therefore times a fixed pure-Python loop
(``calibration_s``) before the first and after every set-up and scales
the set-up by ``CAL_REF_S`` over the mean of the loop times on either
side of it.  There this cut the spread of run medians of set-up time
from 0.14 to 0.04 of the median.  A timed call into effalg can last
15 s, longer than the speed holds still, so it is scaled piece by piece
instead: a timer signal interrupts it every ``SAMPLE_EVERY_S`` to time a
shorter loop (``sampled``).  Over five enum10 runs in a row there, pass
times ranged over 0.35 of their median raw and over 0.11 scaled this
way.  The interruptions are not counted in pass times, but they fall
inside the spans of a traced run.

With ``--trace 1`` the first half of the window runs untraced passes; then
the run wraps the entry points of every layer (``layers.py``), sets up
again and fills the rest of the window with traced passes (at least one
of each).  The metrics are the per-layer figures plus the tracing
overhead: ``trace.overhead_factor`` is the traced over the untraced
median scaled pass time, and the record keeps their difference in
seconds.

Each run also writes a record (Python version, CPU count, seed, commit,
source digest, per-pass times, span summary) to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

SETUP_REPEATS = 11
CAL_ITERATIONS = 1_000_000
CAL_REF_S = 0.1  # the calibration loop's time at the reference speed
SAMPLE_EVERY_S = 0.5  # how often a timed call is interrupted to sample speed
SAMPLE_ITERATIONS = CAL_ITERATIONS // 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("enum10", "states_lp", "sweep9", "iso9"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to start and import effalg.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import effalg.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "effalg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_s(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds a fixed pure-Python loop of ``CAL_ITERATIONS`` takes at the
    machine's speed now; a shorter loop is timed and scaled up."""
    t0 = time.perf_counter()
    s = 0
    for i in range(iterations):
        s += i * i % 7
    return (time.perf_counter() - t0) * CAL_ITERATIONS / iterations


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpeedScale:
    """Scales a timed stretch to the reference speed by the calibration
    loops timed just before and just after it."""

    def __init__(self):
        self.cal = calibration_s()

    def __call__(self, seconds: float) -> float:
        cal = calibration_s()
        scaled = seconds * CAL_REF_S * 2 / (self.cal + cal)
        self.cal = cal
        return scaled


@contextmanager
def sampled(out: list):
    """Times the enclosed call and appends its (raw, scaled) seconds to
    ``out``.

    A short calibration loop is timed before the call, after it, and
    every ``SAMPLE_EVERY_S`` in between, when a timer signal interrupts
    the call; so a long call is scaled piece by piece, each piece by the
    loops timed on either side of it.  The time spent in the
    interruptions is not counted.
    """
    pieces = []
    before = calibration_s(SAMPLE_ITERATIONS)
    start = time.perf_counter()

    def sample(signum, frame):
        nonlocal before, start
        dt = time.perf_counter() - start
        cal = calibration_s(SAMPLE_ITERATIONS)
        pieces.append((dt, before, cal))
        before = cal
        start = time.perf_counter()

    old = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - start
        signal.signal(signal.SIGALRM, old)
        pieces.append((dt, before, calibration_s(SAMPLE_ITERATIONS)))
        out.append((sum(p[0] for p in pieces),
                    sum(dt * CAL_REF_S * 2 / (a + b) for dt, a, b in pieces)))


class Runner:
    """Runs passes of one workload inside a measuring window.

    It counts each op once per run: an op is attempted if any pass ran it
    and failed if it failed in any pass.  A pass that raised counts as one
    more op, failed.
    """

    def __init__(self, workload, ref):
        self.workload = workload
        self.ref = ref
        self.ops: set = set()
        self.failed_ops: set = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def one_pass(self, inputs, region):
        """Seconds of one checked pass, raw and at the reference speed, or
        None when the program raised."""
        raw = scaled = 0.0

        @contextmanager
        def timed():
            nonlocal raw, scaled
            out = []
            with region(), sampled(out):
                yield
            raw += out[0][0]
            scaled += out[0][1]

        try:
            res = self.workload.run_pass(inputs, self.ref, timed)
        except Exception:  # the program under test crashed: report, stop
            traceback.print_exc()
            self.ops.add("raised")
            self.failed_ops.add("raised")
            self.problems.append("pass raised " + traceback.format_exc(limit=1))
            return None
        self.ops.update(res.ops)
        self.failed_ops.update(res.failed)
        self.problems.extend(p for p in res.problems if p not in self.problems)
        return raw, scaled

    def window(self, inputs, seconds, region):
        """Passes back to back while the next one should fit the window.

        Returns the pass times and the same times at the reference speed.
        """
        start = time.perf_counter()
        times, scaled = [], []
        while True:
            dt = self.one_pass(inputs, region)
            if dt is None:
                break
            times.append(dt[0])
            scaled.append(dt[1])
            if time.perf_counter() - start + dt[0] > seconds:
                break
        return times, scaled


def median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def run_untraced(workload, ref, args):
    scale = SpeedScale()
    runner = Runner(workload, ref)
    setups, scaled_setups, builds = [], [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        imp = fresh_import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, ref)
        builds.append(time.perf_counter() - t0)
        setups.append(imp + builds[-1])
        scaled_setups.append(scale(setups[-1]))
    times, scaled = runner.window(inputs, args.seconds, nullcontext)
    ok = 1 - runner.failed / runner.attempted
    metrics = {
        "norm_wall_s": (median(scaled), "s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ok_ratio": (ok, "ratio"),
    }
    detail = {"wall_s": median(times), "pass_s": times, "norm_pass_s": scaled,
              "raw_setup_s": setups, "input_build_s": builds}
    return runner, metrics, detail


def run_traced(workload, ref, args):
    import layers
    from spans import Patches, Tracer

    runner = Runner(workload, ref)
    start = time.perf_counter()
    inputs = workload.setup(args.seed, ref)
    untraced, untraced_scaled = runner.window(inputs, args.seconds / 2, nullcontext)
    tracer = Tracer()
    ids = itertools.count(1)

    @contextmanager
    def region():
        tracer.run_id = next(ids)
        try:
            yield
        finally:
            tracer.run_id = None

    with Patches() as patches:
        layers.instrument(tracer, patches)
        tracer.run_id = "setup"
        try:
            inputs = workload.setup(args.seed, ref)
        finally:
            tracer.run_id = None
        traced, traced_scaled = runner.window(
            inputs, max(args.seconds - (time.perf_counter() - start), 0), region)
    metrics = {k: (v, layers.unit_of(k))
               for k, v in layers.per_layer_metrics(tracer, "setup", len(traced)).items()}
    wall, base = median(traced_scaled), median(untraced_scaled)
    n_spans = sum(1 for s in tracer.spans if s.run_id != "setup")
    metrics["trace.norm_wall_s"] = (wall, "s")
    metrics["trace.untraced_norm_wall_s"] = (base, "s")
    metrics["trace.overhead_factor"] = (wall / base, "ratio")
    metrics["trace.spans"] = (n_spans / max(len(traced), 1), "count")
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "untraced_norm_pass_s": untraced_scaled,
              "traced_norm_pass_s": traced_scaled,
              "trace_overhead_s": wall - base, "spans": tracer.summary()}
    return runner, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effalg" / "__init__.py").is_file():
        print(f"error: no effalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload.name)
    ref = load_reference()
    run = run_traced if args.trace else run_untraced
    runner, metrics, detail = run(workload, ref, args)

    failed_ratio = runner.failed / runner.attempted
    record = {
        "workload": workload.name,
        "why": why,
        "exercises": workload.exercises,
        "bypasses": workload.bypasses,
        "loop": "closed, one caller",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ratio": failed_ratio,
        "problems": runner.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"effalg benchmark  workload={workload.name} seed={args.seed} "
          f"trace={args.trace} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit'] or '-'}")
    print(f"  why: {why}")
    print(f"  ops attempted {runner.attempted}, failed {runner.failed}, "
          f"failed_ratio {failed_ratio:.6f}")
    for problem in runner.problems[:5]:
        print(f"  PROBLEM: {problem}")
    if "wall_s" in detail:
        print(f"  {'wall_s':48s} {detail['wall_s']:14.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
