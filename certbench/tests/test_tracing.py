import itertools
import threading
import types

from tracing import Tracer, self_times


def fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        # bare-name calls resolve through the module globals, as in the
        # program's own modules
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_subtracts_traced_children():
    mod = fake_module()
    tracer = Tracer(clock=ticking_clock())
    assert tracer.install("fake.outer", [(mod, "outer")])
    assert tracer.install("fake.inner", [(mod, "inner")])
    tracer.request = "r1"
    assert mod.outer(1) == 4
    # ticks: outer 0..5, inner 1..2 and 3..4
    assert self_times(tracer.spans) == {"fake.outer": 3.0, "fake.inner": 2.0}
    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["fake.outer"]
    assert outer.parent is None
    assert all(s.parent == outer.id for s in tracer.spans
               if s.name == "fake.inner")
    assert {s.request for s in tracer.spans} == {"r1"}
    assert tracer.calls() == {"fake.inner": 2, "fake.outer": 1}


def test_self_time_of_hand_built_spans():
    from tracing import Span
    spans = [Span(0, "a", 0.0, 10.0, None, 1, None),
             Span(1, "b", 1.0, 4.0, 0, 1, None),
             Span(2, "c", 2.0, 3.0, 1, 1, None),
             Span(3, "b", 5.0, 6.0, 0, 1, None)]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_missing_name_is_recorded_absent_not_raised():
    mod = fake_module()
    tracer = Tracer()
    assert not tracer.install("fake.deleted", [(mod, "deleted")])
    assert not tracer.install("gone.fn", [(None, "fn")])
    assert tracer.install("fake.inner", [(mod, "inner"), (mod, "deleted")])
    assert tracer.absent == ["fake.deleted", "gone.fn"]
    assert mod.outer(1) == 4
    assert tracer.calls() == {"fake.inner": 2}


def test_count_only_records_calls_and_no_span():
    mod = fake_module()
    tracer = Tracer()
    tracer.install("fake.inner", [(mod, "inner")], count_only=True)
    mod.outer(1)
    assert tracer.spans == [] and tracer.calls() == {"fake.inner": 2}


def test_worker_busy_counts_outermost_spans_of_other_threads():
    mod = fake_module()
    tracer = Tracer(clock=ticking_clock())
    tracer.install("fake.outer", [(mod, "outer")])
    tracer.install("fake.inner", [(mod, "inner")])
    mod.outer(1)  # main thread: not worker time
    worker = threading.Thread(target=mod.outer, args=(1,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.worker_busy() == 5.0
