"""Batch command line: check, analyze, states, enumerate, theorems.

Exit codes are a stable contract:
  0 success, 2 invalid algebra, 3 unreadable or ill-formed file
  (algebra or checkpoint) or a checkpoint or --dot path that cannot be
  written, 4 no state exists,
  5 procedure hypotheses fail, 6 budget exhausted, 7 claim failure.
All machine-readable output is JSON with exact fractions as strings;
no decimals, no timestamps, byte-stable across runs.

The node and time budgets of `enumerate` and `theorems --sweep` bound the
whole command: all claims, all sizes and all workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algfile import AlgebraFileError, dump_algebra, load_algebra
from .core import derive_order, element_order, validate
from .enumeration import (EnumerationConfig, _rows_to_jsonable,
                          enumerate_algebras, find_stateless, read_checkpoint,
                          write_checkpoint)
from .errors import (BudgetExceeded, CheckpointError, EffectAlgebraError,
                     HypothesisViolated)
from .states import (
    InfeasibilityCertificate,
    find_state,
    find_subadditive_state,
    fraction_str,
    state_via_exstate_procedure,
)
from .structure import (
    blocks,
    center,
    classify,
    compatibility_center,
    sharp_elements,
)
from .theorems import CLAIM_IDS, SCALE_LIMITED, check_all, sweep

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_STATELESS = 4
EXIT_HYPOTHESES = 5
EXIT_BUDGET = 6
EXIT_CLAIM = 7

BUDGET_ENV = "EFFALG_NODE_BUDGET"


def _emit(data, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load(args, command):
    """The algebra in args.file, or None once the parse error is emitted."""
    try:
        return load_algebra(args.file)
    except AlgebraFileError as exc:
        _emit({"command": command, "error": str(exc)}, args.json,
              [f"parse error: {exc}"])
        return None


def _invalid(args, command, report) -> int:
    _emit({"command": command, "valid": False,
           "violations": [v.message for v in report]},
          args.json, ["invalid algebra:"] + [f"  {v}" for v in report])
    return EXIT_INVALID


def cmd_check(args) -> int:
    E = _load(args, "check")
    if E is None:
        return EXIT_PARSE
    report = validate(E)
    data = {
        "command": "check",
        "size": E.size,
        "valid": not report,
        "violations": [
            {"axiom": v.kind, "witness": list(v.witness), "message": v.message}
            for v in report
        ],
    }
    lines = [f"size {E.size}: " + ("valid" if not report else "INVALID")]
    lines += [f"  {v}" for v in report]
    _emit(data, args.json, lines)
    return EXIT_OK if not report else EXIT_INVALID


def _labels(E, xs):
    return [E.label(x) for x in xs]


def _dot(E) -> str:
    order = derive_order(E)
    sharp = sharp_elements(E).mask
    out = ["digraph hasse {", "  rankdir=BT;"]
    for x in E.elements():
        marks = [f'label="{E.label(x)}"']
        if sharp >> x & 1:
            marks.append("peripheries=2")
        out.append(f"  n{x} [{', '.join(marks)}];")
    for x, y in order.covers:
        out.append(f"  n{x} -> n{y};")
    out.append("}")
    return "\n".join(out) + "\n"


def cmd_analyze(args) -> int:
    E = _load(args, "analyze")
    if E is None:
        return EXIT_PARSE
    report = validate(E)
    if report:
        return _invalid(args, "analyze", report)

    order = derive_order(E)
    flags = classify(E)
    flag_items = [
        ("lattice", flags.is_lattice),
        ("modular", flags.is_modular),
        ("distributive", flags.is_distributive),
        ("orthomodular", flags.is_orthomodular),
        ("mv", flags.is_mv),
        ("sharply_dominating", flags.is_sharply_dominating),
        ("atomic", flags.is_atomic),
        ("archimedean", flags.is_archimedean),
    ]
    ords = {E.label(x): element_order(E, x)
            for x in E.elements() if x != E.zero}
    data = {
        "command": "analyze",
        "size": E.size,
        "zero": E.label(E.zero),
        "one": E.label(E.one),
        "flags": {name: flag.holds for name, flag in flag_items},
        "witnesses": {name: list(flag.witness) for name, flag in flag_items
                      if flag.witness is not None},
        "atoms": _labels(E, order.atoms),
        "ord": ords,
        "sharp": list(sharp_elements(E).labels()),
    }
    lines = [
        f"size {E.size}, zero {E.label(E.zero)}, one {E.label(E.one)}",
        "flags: " + " ".join(f"{name}={'yes' if flag.holds else 'no'}"
                             for name, flag in flag_items),
        "atoms: " + " ".join(data["atoms"]),
        "ord: " + " ".join(f"{k}:{v}" for k, v in ords.items()),
        "sharp: " + " ".join(data["sharp"]),
    ]
    if flags.is_lattice:
        blist = blocks(E)
        data["blocks"] = [list(b.labels()) for b in blist]
        data["compatibility_center"] = list(compatibility_center(E).labels())
        data["center"] = list(center(E).labels())
        lines.append(f"blocks: {len(blist)}")
        lines += ["  " + " ".join(b.labels()) for b in blist]
        lines.append("compatibility center: " + " ".join(data["compatibility_center"]))
        lines.append("center: " + " ".join(data["center"]))

    if args.dot not in (None, "-"):
        # written first, so that a path that cannot be written prints only
        # its error
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(_dot(E))
        except OSError as exc:
            _emit({"command": "analyze", "error": str(exc)}, args.json,
                  [f"error: {exc}"])
            return EXIT_PARSE
    if args.dot == "-" and args.json:
        data["dot"] = _dot(E)
    _emit(data, args.json, lines)
    if args.dot == "-" and not args.json:
        sys.stdout.write(_dot(E))
    return EXIT_OK


def _certificate_payload(cert: InfeasibilityCertificate):
    return [{"constraint": lab, "multiplier": fraction_str(m)}
            for lab, m in cert.rows()]


def cmd_states(args) -> int:
    E = _load(args, "states")
    if E is None:
        return EXIT_PARSE
    report = validate(E)
    if report:
        return _invalid(args, "states", report)

    trace = None
    try:
        if args.via_exstate:
            state, trace = state_via_exstate_procedure(E)
            result = state
        elif args.subadditive:
            result = find_subadditive_state(E)
        else:
            result = find_state(E)
    except HypothesisViolated as exc:
        _emit({"command": "states", "hypothesis_failed": exc.hypothesis,
               "detail": exc.detail},
              args.json, [f"hypotheses fail: {exc}"])
        return EXIT_HYPOTHESES
    except EffectAlgebraError as exc:
        _emit({"command": "states", "error": str(exc)}, args.json,
              [f"error: {exc}"])
        return EXIT_HYPOTHESES

    if isinstance(result, InfeasibilityCertificate):
        data = {
            "command": "states",
            "feasible": False,
            "certificate": _certificate_payload(result),
        }
        lines = ["no state exists; certificate:"]
        lines += [f"  {m} * [{lab}]" for lab, m in
                  ((lab, fraction_str(m)) for lab, m in result.rows())]
        _emit(data, args.json, lines)
        return EXIT_STATELESS

    data = {
        "command": "states",
        "feasible": True,
        "subadditive": bool(args.subadditive or args.via_exstate),
        "state": {E.label(x): fraction_str(result.values[x])
                  for x in E.elements()},
    }
    lines = ["state:"] + [f"  w({E.label(x)}) = {fraction_str(result.values[x])}"
                          for x in E.elements()]
    if trace is not None:
        data["trace"] = {
            "atom": E.label(trace.atom),
            "atom_order": trace.atom_order,
            "branch": trace.branch,
            "dichotomy_checks": [
                {"atom": E.label(b), "join": E.label(j), "double": E.label(d)}
                for b, j, d in trace.dichotomy_checks
            ],
            "central": E.label(trace.central),
        }
        lines.append(f"procedure: atom {E.label(trace.atom)} "
                     f"(order {trace.atom_order}), branch {trace.branch}, "
                     f"central element {E.label(trace.central)}")
        for b, j, d in trace.dichotomy_checks:
            lines.append(f"  dichotomy: join with {E.label(b)} is "
                         f"{E.label(j)} = {E.label(d)}")
    _emit(data, args.json, lines)
    return EXIT_OK


def _checked(kind, ok, want):
    """An argparse type: a `kind` value for which ok(value) holds."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"want {want}, got {text!r}")
    return parse


_SIZE = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_POSITIVE = _checked(int, lambda v: v > 0, "a positive integer")
_SECONDS = _checked(float, lambda v: v > 0, "a positive number")


def _budget(parser, args) -> dict:
    """Node, time and worker budgets of one enumerating command, as
    keyword arguments of EnumerationConfig and find_stateless."""
    nodes = args.budget_nodes
    raw = os.environ.get(BUDGET_ENV)
    if nodes is None and raw:
        try:
            nodes = _POSITIVE(raw)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{BUDGET_ENV}: {exc}")
    return {"node_budget": nodes, "time_budget": args.budget_seconds,
            "jobs": args.jobs}


def cmd_enumerate(args) -> int:
    try:
        return _enumerate(args)
    except CheckpointError as exc:
        _emit({"command": "enumerate", "error": str(exc)}, args.json,
              [f"checkpoint error: {exc}"])
        return EXIT_PARSE


def _enumerate(args) -> int:
    checkpoint = read_checkpoint(args.checkpoint)

    if args.find_stateless:
        try:
            result = find_stateless(args.size, checkpoint=checkpoint,
                                    **args.budget)
        except BudgetExceeded as exc:
            if args.checkpoint:
                write_checkpoint(args.checkpoint, exc.checkpoint)
            _emit({"command": "enumerate", "budget_exhausted": True,
                   "cleared_sizes": list(exc.cleared_sizes),
                   "checkpoint": args.checkpoint},
                  args.json,
                  [f"budget exhausted; cleared sizes {list(exc.cleared_sizes)}",
                   f"checkpoint: {args.checkpoint or '(not saved)'}"])
            return EXIT_BUDGET
        if result.found is None:
            _emit({"command": "enumerate", "stateless": None,
                   "checked": result.checked,
                   "cleared_sizes": list(result.cleared_sizes)},
                  args.json,
                  [f"NoneFound: all {result.checked} classes up to size "
                   f"{args.size} admit states"])
            return EXIT_OK
        E = result.found
        data = {"command": "enumerate", "stateless": {
            "size": E.size,
            "table": _rows_to_jsonable(E.sum),
        }, "checked": result.checked}
        _emit(data, args.json,
              [f"stateless instance of size {E.size} "
               f"(after {result.checked} classes):", dump_algebra(E).rstrip()])
        return EXIT_OK

    config = EnumerationConfig(
        size=args.size,
        lattice_only=args.lattice_only,
        modular_only=args.modular_only,
        unsharp_only=args.unsharp_only,
        checkpoint=checkpoint,
        **args.budget,
    )
    count = 0
    shown = []
    try:
        for E in enumerate_algebras(config):
            count += 1
            if args.show:
                shown.append(dump_algebra(E).rstrip())
    except BudgetExceeded as exc:
        count = exc.checkpoint["yielded"]   # earlier runs' classes included
        if args.checkpoint:
            write_checkpoint(args.checkpoint, exc.checkpoint)
        _emit({"command": "enumerate", "budget_exhausted": True,
               "partial_count": count, "checkpoint": args.checkpoint},
              args.json,
              [f"budget exhausted after {count} classes",
               f"checkpoint: {args.checkpoint or '(not saved)'}"])
        return EXIT_BUDGET
    if checkpoint is not None:
        count += checkpoint["yielded"]   # the classes of earlier runs
    data = {"command": "enumerate", "size": args.size, "count": count}
    lines = [f"size {args.size}: {count} isomorphism classes"]
    if args.show:
        lines += shown
        data["instances"] = shown
    _emit(data, args.json, lines)
    return EXIT_OK


def _claim_rows(reports):
    rows = []
    for r in reports:
        if r.error:
            verdict = "error"
        elif not r.hypotheses_met:
            verdict = "hypotheses unmet"
        elif r.conclusion_holds:
            verdict = "holds"
        else:
            verdict = "FAILS"
        rows.append((r, verdict))
    return rows


def cmd_theorems(args) -> int:
    if args.sweep is not None:
        config = EnumerationConfig(size=args.sweep, **args.budget)
        try:
            results = sweep(config, CLAIM_IDS)
        except BudgetExceeded:
            _emit({"command": "theorems", "budget_exhausted": True},
                  args.json, ["budget exhausted during sweep"])
            return EXIT_BUDGET
        data_rows = []
        lines = []
        for res in results:
            data_rows.append({
                "claim": res.claim_id,
                "passed": res.passed,
                "hypotheses_met": res.hypotheses_met,
                "checked": res.checked,
            })
            lines.append(f"{res.claim_id}: {'pass' if res.passed else 'FAIL'} "
                         f"(hypotheses met on {res.hypotheses_met} of "
                         f"{res.checked})")
            if not res.passed:
                lines.append("  counterexample:")
                lines.append(dump_algebra(res.counterexample).rstrip())
        _emit({"command": "theorems", "sweep": args.sweep, "claims": data_rows},
              args.json, lines)
        return EXIT_OK if all(res.passed for res in results) else EXIT_CLAIM

    E = _load(args, "theorems")
    if E is None:
        return EXIT_PARSE
    if validate(E):
        _emit({"command": "theorems", "valid": False}, args.json,
              ["invalid algebra"])
        return EXIT_INVALID
    reports = check_all(E)
    rows = _claim_rows(reports)
    data = {
        "command": "theorems",
        "claims": [{
            "claim": r.claim_id,
            "verdict": verdict,
            "hypotheses": dict(r.hypothesis_detail),
            "witness": list(r.witness) if r.witness is not None else None,
        } for r, verdict in rows],
        "scale_limited": SCALE_LIMITED,
    }
    lines = [f"{r.claim_id}: {verdict}" for r, verdict in rows]
    lines += [f"{cid}: out of scope ({note})"
              for cid, note in SCALE_LIMITED.items()]
    _emit(data, args.json, lines)
    failed = any(r.failed() for r in reports)
    return EXIT_CLAIM if failed else EXIT_OK


def _add_budget_args(p):
    p.add_argument("--budget-nodes", type=_POSITIVE, default=None, metavar="N",
                   help=f"search nodes for the whole command "
                        f"(default: ${BUDGET_ENV}, else no limit)")
    p.add_argument("--budget-seconds", type=_SECONDS, default=None, metavar="S",
                   help="seconds for the whole command")
    p.add_argument("--jobs", type=_POSITIVE, default=1, metavar="J")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effalg",
        description="Workbench for finite effect algebras: validation, "
                    "structure, states, enumeration, and claim checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of an algebra file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="classification, atoms, sharp set, "
                                       "blocks, centers")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="PATH",
                   help="write the cover graph in DOT format ('-' = stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("states", help="find a state / subadditive state")
    p.add_argument("file")
    p.add_argument("--subadditive", action="store_true")
    p.add_argument("--via-exstate", action="store_true",
                   help="run the constructive atom-dichotomy procedure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("enumerate", help="enumerate isomorphism classes")
    p.add_argument("size", type=_SIZE)
    p.add_argument("--lattice-only", action="store_true")
    p.add_argument("--modular-only", action="store_true")
    p.add_argument("--unsharp-only", action="store_true")
    p.add_argument("--find-stateless", action="store_true",
                   help="scan sizes 2..SIZE for a stateless instance")
    p.add_argument("--show", action="store_true",
                   help="print each instance in file format")
    _add_budget_args(p)
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("theorems", help="run the claim registry")
    p.add_argument("file", nargs="?")
    p.add_argument("--sweep", type=_SIZE, default=None, metavar="N",
                   help="check claims over all enumerated instances of size N")
    _add_budget_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "theorems" and args.sweep is None and args.file is None:
        parser.error("theorems needs a file or --sweep N")
    if args.command == "enumerate" or getattr(args, "sweep", None) is not None:
        args.budget = _budget(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
