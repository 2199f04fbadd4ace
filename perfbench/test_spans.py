"""Tests of the traced-run wrappers.  Run: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from effalg import construct, states, theorems  # noqa: E402
from spans import Patches, Tracer, wrap  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def effalg_bindings():
    """Every attribute of every loaded effalg module, plus the patched method."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "effalg" or name.startswith("effalg."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
    cert = states.InfeasibilityCertificate
    snap[("InfeasibilityCertificate", "verify")] = cert.verify
    return snap


def test_instrument_restores_every_binding_after_an_exception():
    before = effalg_bindings()
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            layers.instrument(Tracer(), patches)
            assert states.find_state is not before[("effalg.states", "find_state")]
            raise RuntimeError("boom")
    after = effalg_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_function_bound_in_several_modules_is_patched_in_each():
    from effalg import core, enumeration

    original = core.validate
    with Patches() as patches:
        hits = patches.everywhere("effalg", original, lambda E: [])
        assert hits >= 3
        assert enumeration.validate is not original
        assert theorems.validate is not original
    assert enumeration.validate is original and theorems.validate is original


def test_nested_spans_share_the_run_id_and_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    inner_w = wrap(tracer, "layer.inner", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        clock.now += 3.0

    outer_w = wrap(tracer, "layer.outer", outer)
    tracer.run_id = 7
    outer_w()
    tracer.run_id = None
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.span_id
    assert outer_span.run_id == inner_span.run_id == 7
    assert outer_span.duration == 6.0 and outer_span.self_s == 4.0
    assert inner_span.self_s == 2.0
    summary = tracer.summary()
    assert summary["layer.outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}


def test_no_spans_outside_a_run_and_spans_close_on_exceptions():
    tracer = Tracer(FakeClock())

    def fails():
        raise ValueError("x")

    fails_w = wrap(tracer, "layer.fails", fails)
    with pytest.raises(ValueError):
        fails_w()
    assert tracer.spans == []
    tracer.run_id = 1
    with pytest.raises(ValueError):
        fails_w()
    assert len(tracer.spans) == 1 and tracer.spans[0].end is not None
    assert tracer._stack == []


def test_generator_spans_cover_resumptions_not_the_consumer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def gen():
        for i in range(3):
            clock.now += 1.0
            yield i

    gen_w = wrap(tracer, "layer.gen", gen)
    tracer.run_id = 1
    got = []
    for item in gen_w():
        clock.now += 10.0  # consumer work, outside the generator
        got.append(item)
    assert got == [0, 1, 2]
    assert sum(s.duration for s in tracer.spans) == 3.0
    assert tracer.counts["layer.gen.calls"] == 1
    assert tracer.counts["layer.gen.items"] == 3


def test_traced_effalg_calls_give_every_per_layer_metric():
    tracer = Tracer()
    with Patches() as patches:
        layers.instrument(tracer, patches)
        tracer.run_id = "setup"
        E = construct.product([construct.boolean_algebra(1), construct.chain(2)])
        tracer.run_id = 1
        result = states.find_state(E)
        tracer.run_id = None
    assert isinstance(result, states.StateVector)
    names = {s.name for s in tracer.spans}
    assert {"construct.product", "states.find_state", "linsolve.solve_standard",
            "states.verify_state"} <= names
    m = layers.per_layer_metrics(tracer, "setup", 1)
    assert m["linsolve.calls"] == 1
    assert m["linsolve.rows_max"] > 0 and m["linsolve.cells_sum"] > 0
    assert m["construct.build_s"] > 0
    assert m["states.value_bits_max"] >= 1
    assert all(f"theorems.claim_s.{cid}" in m for cid in theorems.CLAIM_IDS)
