"""Unit coverage for repro.obs.tracing: span trees, clocks, exporters."""

import json

import pytest

from repro.obs.dashboard import render_terminal
from repro.obs.tracing import Tracer


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


def test_spans_nest_into_a_tree():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("root"):
        with tracer.span("child-a"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child-b"):
            pass
    (root,) = tracer.roots
    assert [c.name for c in root.children] == ["child-a", "child-b"]
    assert root.children[0].children[0].name == "grandchild"
    assert tracer.current is None  # stack fully unwound


def test_injected_clock_makes_durations_deterministic():
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("timed"):
        pass
    (sp,) = tracer.roots
    # One read at open, one at close, step 1.0.
    assert sp.duration == pytest.approx(1.0)
    assert sp.finished


def test_exception_marks_span_error_and_reraises():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    (outer,) = tracer.roots
    inner = outer.children[0]
    assert inner.status == "error"
    assert "RuntimeError: boom" in inner.error
    assert outer.status == "error"  # unwound through the parent too
    assert inner.finished and outer.finished
    assert tracer.current is None  # stack unwound despite the raise
    # The tracer is still usable after the exception.
    with tracer.span("next"):
        pass
    assert tracer.find("next") is not None


def test_record_span_and_override_duration():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("round") as round_span:
        sp = tracer.record_span("agent:X1", 0.25, status="ok", fit=0.25)
        round_span.override_duration(0.25)
    assert sp.parent is round_span
    assert sp.duration == pytest.approx(0.25)
    assert sp.extra["fit"] == 0.25
    # Accounted time wins over the measured wall clock.
    assert round_span.duration == pytest.approx(0.25)
    with pytest.raises(ValueError):
        sp.override_duration(-1.0)


def test_annotate_and_find():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):
        with tracer.span("b") as b:
            b.annotate(k=1, status="stale")
    found = tracer.find("b")
    assert found is not None and found.extra == {"k": 1, "status": "stale"}
    assert tracer.find("missing") is None


def test_json_and_text_exports():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("parent"):
        tracer.record_span("leaf", 0.001)
    payload = json.loads(json.dumps(tracer.to_dict()))
    assert payload[0]["name"] == "parent"
    assert payload[0]["children"][0]["name"] == "leaf"
    text = render_terminal({"trace": payload})
    assert "parent" in text
    assert "`- leaf" in text
    assert "ms" in text


def test_clear_drops_spans():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.roots == []
    assert "(no spans recorded)" in render_terminal({"trace": tracer.to_dict()})


def test_memory_span_captures_tracemalloc_peak():
    tracer = Tracer()
    with tracer.span("alloc", memory=True):
        blob = [bytearray(64 * 1024) for _ in range(8)]
        del blob
    (sp,) = tracer.roots
    assert sp.peak_memory_bytes is not None
    assert sp.peak_memory_bytes >= 8 * 64 * 1024
    assert "KiB]" in render_terminal({"trace": tracer.to_dict()})
