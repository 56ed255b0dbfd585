"""The traced run's machinery: self-time arithmetic, wrapper install and
restore, and that layer self times account for the whole traced op."""

import importlib
import json
from pathlib import Path

import pytest

import run
import spans
import workloads
from hostspeed import HostSpeed


def test_self_times_of_nested_spans_are_exact():
    # root [0,100] holds A [10,60] and D [70,90]; A holds B and C.
    start = [0.0, 10.0, 20.0, 35.0, 70.0]
    end = [100.0, 60.0, 30.0, 55.0, 90.0]
    parent = [-1, 0, 1, 1, 0]
    assert spans.self_times(start, end, parent) == [30.0, 20.0, 10.0, 20.0,
                                                    20.0]


def test_wrapped_calls_nest_and_sum_to_the_root():
    ticks = iter(range(0, 1000, 5))
    log = spans.SpanLog(clock=lambda: float(next(ticks)))
    inner = log.wrap(lambda: None, "b:inner", "b")
    outer = log.wrap(lambda: (inner(), inner()), "a:outer", "a")
    outer()  # outside any root: not recorded
    assert len(log) == 0
    log.begin(7)
    outer()
    log.end()
    # Clock reads: root 0, outer 5, inner 10-15, inner 20-25, outer 30,
    # root 35.
    assert list(log.parent) == [-1, 0, 1, 1]
    assert list(log.op) == [7, 7, 7, 7]
    totals = spans.layer_totals(log)
    assert totals == {spans.ROOT_LAYER: (10.0, 1), "a": (15.0, 1),
                      "b": (10.0, 2)}
    assert sum(own for own, _ in totals.values()) == spans.root_time(log)


def test_a_span_closes_when_the_call_raises():
    log = spans.SpanLog(clock=iter(range(100)).__next__)

    def boom():
        raise ValueError("x")

    wrapped = log.wrap(boom, "a:boom", "a")
    log.begin(0)
    with pytest.raises(ValueError):
        wrapped()
    log.end()
    assert list(log.stop) == [3.0, 2.0]


def test_upcalls_are_charged_to_the_layer_that_wrote_them():
    from repro.ntcs.ndlayer import NdLayer
    from repro.ntcs.lcm import LcmLayer

    assert spans.callable_layer(NdLayer.send) == "nd"
    assert spans.callable_layer(LcmLayer.set_handler) == "lcm"
    assert spans.callable_layer(lambda: None) == spans.APP


def _current_attributes():
    seen = {}
    for module, cls_name, methods in spans.REGISTRARS + spans.ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        names = (spans._public_methods(cls) if methods == ("*",)
                 else methods)
        for attr in names:
            seen[(cls, attr)] = vars(cls)[attr]
    for module, functions in spans.FUNCTIONS:
        home = importlib.import_module(module)
        for attr in functions:
            for holder in spans._holders(getattr(home, attr)):
                seen[(holder, attr)] = vars(holder)[attr]
    return seen


def test_install_wraps_and_restore_puts_every_original_back():
    before = _current_attributes()
    assert spans.unwrapped_everywhere() is None
    installation = spans.install(spans.SpanLog())
    try:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original, (owner, attr)
        assert spans.unwrapped_everywhere() is not None
    finally:
        installation.restore()
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)
    assert spans.unwrapped_everywhere() is None


def _small(name, ops):
    workload = workloads.make(name)
    workload.ops_per_round = ops
    return workload


def test_untraced_run_after_a_traced_one_executes_unwrapped_code():
    workload = _small("echo_chain3", 20)
    log, done, leftover = run.traced(workload, seed=3)
    assert leftover is None
    assert len(log) > 0 and not done.result.errors
    session = workload.setup()
    for machine in session.bed.machines.values():
        for ipcs in machine.ipcs_instances():
            for handler in ipcs.iface._handlers.values():
                assert not spans.is_wrapped(handler)
    assert not spans.is_wrapped(session.bed.scheduler.post)


@pytest.mark.parametrize("name,ops", [("echo_chain3", 30),
                                      ("stream_2net", 300),
                                      ("churn_2net", 6)])
def test_layer_self_times_plus_unattributed_sum_to_the_op_time(name, ops):
    log, _, _ = run.traced(_small(name, ops), seed=5)
    totals = spans.layer_totals(log)
    attributed = sum(own for layer, (own, _) in totals.items()
                     if layer != spans.ROOT_LAYER)
    unattributed = totals[spans.ROOT_LAYER][0]
    # One root span per op, plus one for the final drain.
    assert totals[spans.ROOT_LAYER][1] == ops + 1
    assert attributed + unattributed == pytest.approx(spans.root_time(log),
                                                      rel=1e-9)
    assert 0 < unattributed < attributed
    # The Fig. 2-1 stack did the work: no layer outside it took time.
    assert set(totals) <= (set(run.LAYERS)
                           | {spans.ROOT_LAYER, "machine", "harness"})


def test_traced_report_has_every_declared_per_layer_metric():
    with HostSpeed() as host:
        metrics, errors, notes, _ = run.per_layer(
            _small("stream_2net", 200), seed=2, seconds=0.001, host=host)
    assert errors == []
    declared = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: spec[1] for name, spec in metrics.items()}
    assert any(note.startswith("wire digest") for note in notes)
