"""Which effalg entry points the traced run wraps, and the per-layer metrics.

Layers are the modules under ``src/effalg``.  Each wrapped entry point
gets a span named ``<module>.<function>``; the metrics below are read off
those spans and off the counts the observers record at the boundary.
``_is_canonical`` (the leaf canonicity test) and ``_to_standard`` (the
tableau build) are private, but they are the boundaries the enumeration
and LP items of the roadmap move, so they are wrapped too.
"""

from __future__ import annotations

import inspect

from effalg import (cli, construct, core, enumeration, linsolve, states,
                    structure, theorems)

from spans import Patches, Tracer, wrap

PACKAGE = "effalg"

CONSTRUCTORS = ("boolean_algebra", "chain", "horizontal_sum", "product",
                "interval", "central_decomposition", "build")


def _observe_lp(tracer: Tracer, args, result):
    A = args[0]
    rows, cols = len(A), (len(A[0]) if A else 0)
    tracer.record_max("linsolve.rows_max", rows)
    tracer.record_max("linsolve.cols_max", cols)
    tracer.count("linsolve.cells_sum", rows * cols)


def _bits(v) -> int:
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def _observe_state(tracer: Tracer, args, result):
    if isinstance(result, states.StateVector):
        values = result.values
    else:
        values = result.eq_mult + result.bound_mult + result.ineq_mult
    tracer.record_max("states.value_bits_max", max(map(_bits, values), default=0))


def _wrap_check(tracer: Tracer, fn):
    def check(E, claim_id):
        span = tracer.begin(f"theorems.claim.{claim_id}")
        try:
            return fn(E, claim_id)
        finally:
            tracer.end(span)

    return check


def instrument(tracer: Tracer, patches: Patches):
    """Wrap every traced entry point; ``patches`` undoes it."""
    def hook(module, attr, observe=None):
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        patches.everywhere(PACKAGE, original, wrap(tracer, name, original, observe))

    hook(cli, "main")
    hook(enumeration, "enumerate_algebras")
    hook(enumeration, "_is_canonical")
    hook(enumeration, "canonical_key")
    hook(core, "validate")
    hook(linsolve, "solve_standard", _observe_lp)
    hook(linsolve, "matrix_rank")
    hook(states, "state_system")
    hook(states, "_to_standard")
    hook(states, "verify_state")
    hook(states, "find_state", _observe_state)
    hook(states, "find_subadditive_state", _observe_state)
    hook(states, "state_space_dimension")
    hook(theorems, "sweep")
    patches.everywhere(PACKAGE, theorems.check, _wrap_check(tracer, theorems.check))
    cert = states.InfeasibilityCertificate
    patches.set(cert, "verify",
                wrap(tracer, "states.InfeasibilityCertificate.verify", cert.verify))
    for attr in structure.__all__:
        if inspect.isfunction(getattr(structure, attr)):
            hook(structure, attr)
    for attr in CONSTRUCTORS:
        hook(construct, attr)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, setup_run: str, passes: int) -> dict:
    """Per-layer figures for one traced run, each per pass unless a max.

    ``setup_run`` is the run id of the traced set-up; ``passes`` is the
    number of traced passes that follow it.
    """
    by_id = {s.span_id: s for s in tracer.spans}

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    layer_top: dict[str, float] = {}
    subadditive_in_claims = 0.0
    build_in_setup = 0.0
    passes_spans = []
    for s in tracer.spans:
        if s.run_id == setup_run:
            if _layer(s.name) == "construct" and not any(
                    _layer(a.name) == "construct" for a in ancestors(s)):
                build_in_setup += s.duration
            continue
        passes_spans.append(s)
        layer = _layer(s.name)
        if not any(_layer(a.name) == layer for a in ancestors(s)):
            layer_top[layer] = layer_top.get(layer, 0.0) + s.duration
        if s.name == "states.find_subadditive_state" and any(
                a.name.startswith("theorems.claim.") for a in ancestors(s)):
            subadditive_in_claims += s.duration

    rows = tracer.summary(passes_spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def total(name):
        return rows.get(name, zero)["total_s"]

    def calls(name):
        return rows.get(name, zero)["calls"]

    p = max(passes, 1)
    counts = tracer.counts
    leaves = calls("enumeration._is_canonical")
    gen = "enumeration.enumerate_algebras"
    m = {
        "enumeration.passes": counts[gen + ".calls"] / p,
        "enumeration.gen_s": total(gen) / p,
        "enumeration.search_s": rows.get(gen, zero)["self_s"] / p,
        "enumeration.leaves": leaves / p,
        "enumeration.canon_s": total("enumeration._is_canonical") / p,
        "enumeration.class_yield": counts[gen + ".items"] / leaves if leaves else 0.0,
        "enumeration.canonical_key_s": total("enumeration.canonical_key") / p,
        "core.validate_s": total("core.validate") / p,
        "core.validate_calls": calls("core.validate") / p,
        "linsolve.calls": calls("linsolve.solve_standard") / p,
        "linsolve.solve_s": total("linsolve.solve_standard") / p,
        "linsolve.rows_max": tracer.maxima["linsolve.rows_max"],
        "linsolve.cols_max": tracer.maxima["linsolve.cols_max"],
        "linsolve.cells_sum": counts["linsolve.cells_sum"] / p,
        "linsolve.rank_s": total("linsolve.matrix_rank") / p,
        "states.system_s": (total("states.state_system")
                            + total("states._to_standard")) / p,
        "states.verify_s": (
            total("states.verify_state")
            + total("states.InfeasibilityCertificate.verify")) / p,
        "states.value_bits_max": tracer.maxima["states.value_bits_max"],
        "theorems.checks": sum(r["calls"] for k, r in rows.items()
                               if k.startswith("theorems.claim.")) / p,
        "theorems.subadditive_s": subadditive_in_claims / p,
        "structure.s": layer_top.get("structure", 0.0) / p,
        "construct.build_s": build_in_setup,
        "cli.self_s": rows.get("cli.main", zero)["self_s"] / p,
    }
    for cid in theorems.CLAIM_IDS:
        m[f"theorems.claim_s.{cid}"] = total(f"theorems.claim.{cid}") / p
    return m


PER_LAYER_UNITS = {
    "enumeration.passes": "count", "enumeration.leaves": "count",
    "enumeration.class_yield": "ratio", "core.validate_calls": "count",
    "linsolve.calls": "count", "linsolve.rows_max": "count",
    "linsolve.cols_max": "count", "linsolve.cells_sum": "count",
    "states.value_bits_max": "bits", "theorems.checks": "count",
}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s")
