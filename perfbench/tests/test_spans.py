"""Span recording: parents, self time, window cuts, nesting."""

import threading

from spans import Recorder, summarize, within


def layer_class():
    """A fresh class per test, so wrappers never stack across tests."""

    class Layer:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return sum(range(n))

        @classmethod
        def build(cls, n):
            return n

        def again(self, depth):
            return self.again(depth - 1) if depth else 0

    return Layer


def test_parents_self_time_and_attrs():
    Layer = layer_class()
    recorder = Recorder()
    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner", measure=lambda a, k, r: {"n": a[1]})
    recorder.wrap(Layer, "build", "build")
    assert Layer().outer(1000) == 2 * sum(range(1000))
    assert Layer.build(3) == 3
    spans = recorder.snapshot()
    summary = summarize(spans)
    assert summary["inner"]["count"] == 2
    assert summary["inner"]["attrs"] == {"n": 2000}
    assert summary["build"]["count"] == 1
    outer = summary["outer"]
    assert outer["self_s"] == outer["total_s"] - summary["inner"]["total_s"]
    assert within(spans, "inner", "outer")["count"] == 2
    assert within(spans, "build", "outer")["count"] == 0


def test_same_name_nesting_is_recorded_once():
    Layer = layer_class()
    recorder = Recorder()
    recorder.wrap(Layer, "again", "again")
    Layer().again(5)
    assert summarize(recorder.snapshot())["again"]["count"] == 1


def test_thread_filter():
    Layer = layer_class()
    recorder = Recorder()
    recorder.wrap(Layer, "inner", "inner", thread=threading.main_thread())
    worker = threading.Thread(target=Layer().inner, args=(10,))
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    assert recorder.snapshot() == []
    Layer().inner(10)
    assert len(recorder.snapshot()) == 1
