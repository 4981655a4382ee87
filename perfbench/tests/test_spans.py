import types

import pytest

from spans import Span, Tracer, covered, self_times


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "run")


def test_self_time_subtracts_children():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "inner", 1.0, 3.0, parent=0),
        span(2, "inner", 5.0, 6.0, parent=0),
        span(3, "leaf", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 3.0)
    assert own["inner"] == pytest.approx(2.0 - 1.0 + 1.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == (
        pytest.approx(5.0)
    )
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 5.0, parent=0),
    ]
    assert self_times(spans)["outer"] == pytest.approx(6.0)


def test_tracer_nests_spans_and_restores_wrapped_attributes():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer("run-1", clock=lambda: next(clock))
    module = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    seen = []
    tracer.wrap(module, "inner", "layer.inner", lambda r, a, k: seen.append(r))
    tracer.wrap(module, "outer", "layer.outer")
    assert module.outer(1) == 4  # inactive: no spans
    assert tracer.spans == []

    tracer.active = True
    assert module.outer(1) == 4
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.sid
    assert outer_span.parent is None
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    assert seen == [2]
    assert tracer.calls() == {"layer.outer": 1, "layer.inner": 1}
    assert tracer.self_times()["layer.outer"] == pytest.approx(
        outer_span.seconds - inner_span.seconds
    )


def test_wrapping_a_class_method_and_an_instance_attribute():
    class Thing:
        def work(self):
            return "done"

    thing = Thing()
    thing.hook = lambda: "hook"
    tracer = Tracer("r")
    tracer.active = True
    tracer.wrap(Thing, "work", "thing.work")
    tracer.wrap(thing, "hook", "thing.hook")
    assert Thing().work() == "done" and thing.hook() == "hook"
    tracer.restore()
    assert "work" in Thing.__dict__ and Thing.__dict__["work"].__name__ == "work"
    assert thing.hook() == "hook"
    assert tracer.calls() == {"thing.work": 1, "thing.hook": 1}


def test_spans_are_written_when_asked(tmp_path):
    tracer = Tracer("r")
    opened = tracer.open("x")
    tracer.close(opened)
    path = tracer.write(tmp_path / "t" / "spans.jsonl")
    text = path.read_text().strip()
    assert '"name": "x"' in text and '"run": "r"' in text
