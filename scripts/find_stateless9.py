#!/usr/bin/env python3
"""Hunt for the smallest stateless algebra and refresh the regression fixture.

Runs the isomorph-free scan size by size, deciding state existence for
every class with the exact solver, then cross-checks any hit with the
Fourier-Motzkin oracle before writing it to tests/fixtures/stateless9.alg.
Budgets and a checkpoint file make long runs resumable:

    python3 scripts/find_stateless9.py --max-n 9 --jobs 4 \
        --budget-seconds 3600 --checkpoint /tmp/hunt.json
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from effalg.algfile import dump_algebra
from effalg.enumeration import find_stateless, read_checkpoint, write_checkpoint
from effalg.errors import BudgetExceeded, CheckpointError
from effalg.states import fm_feasible, state_system


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--budget-nodes", type=int, default=None)
    parser.add_argument("--budget-seconds", type=float, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--checkpoint", metavar="PATH")
    parser.add_argument("--out", metavar="PATH",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "tests" / "fixtures" / "stateless9.alg"))
    args = parser.parse_args()

    try:
        checkpoint = read_checkpoint(args.checkpoint)
        if checkpoint is not None:
            print(f"resuming from {args.checkpoint}")
        result = find_stateless(
            args.max_n, node_budget=args.budget_nodes,
            time_budget=args.budget_seconds, jobs=args.jobs,
            checkpoint=checkpoint,
            progress=lambda E: print(f"  stateless candidate of size {E.size}"))
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}")
        return 3
    except BudgetExceeded as exc:
        if args.checkpoint:
            try:
                write_checkpoint(args.checkpoint, exc.checkpoint)
            except CheckpointError as err:
                print(f"checkpoint error: {err}")
                return 3
            print(f"budget exhausted; checkpoint written to {args.checkpoint}")
        else:
            print("budget exhausted (no checkpoint path given)")
        print(f"sizes fully cleared: {list(exc.cleared_sizes)}")
        return 6

    print(f"classes examined: {result.checked}")
    print(f"sizes fully cleared: {list(result.cleared_sizes)}")
    if result.found is None:
        print(f"NoneFound: every class up to size {args.max_n} admits a state")
        return 0

    E = result.found
    assert not fm_feasible(state_system(E)), \
        "elimination oracle disagrees with the simplex; do not ship this"
    print(f"stateless instance of size {E.size}:")
    text = dump_algebra(E, comment=(
        "Smallest algebra admitting no state, found by exhaustive "
        "isomorph-free search;\nverified by the exact solver and by "
        "Fourier-Motzkin elimination."))
    print(text)
    Path(args.out).write_text(text)
    print(f"fixture written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
