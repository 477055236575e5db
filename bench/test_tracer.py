"""Self-time arithmetic and patching of the benchmark's tracer."""

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import NO_PARENT, Tracer, count_under, self_times, summarize  # noqa: E402


def test_self_time_of_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = [NO_PARENT, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert self_times(parent, start, end) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_overlapping_children_are_not_subtracted_twice():
    # children [2, 6] and [4, 8] cover [2, 8]; [9, 12] is clipped to [9, 10]
    parent = [NO_PARENT, 0, 0, 0]
    start = [0.0, 2.0, 4.0, 9.0]
    end = [10.0, 6.0, 8.0, 12.0]
    assert self_times(parent, start, end)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _fake_package():
    low = types.ModuleType("pkg.low")
    high = types.ModuleType("pkg.high")

    def leaf():
        return 1

    def _private():
        return 2

    leaf.__module__ = "pkg.low"
    _private.__module__ = "pkg.low"
    low.leaf, low._private = leaf, _private

    def outer():
        return high.leaf() + high.alias() + low._private()

    outer.__module__ = "pkg.high"
    high.outer, high.leaf, high.alias = outer, leaf, leaf
    return {"low": low, "high": high}


def test_every_binding_is_wrapped_and_restored():
    modules = _fake_package()
    low, high = modules["low"], modules["high"]
    original_leaf, original_outer = low.leaf, high.outer
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    patched = tracer.install(modules)
    assert patched == 4  # low.leaf, high.outer, high.leaf, high.alias
    assert high.outer() == 4
    tracer.restore()
    assert (low.leaf, high.outer, high.leaf, high.alias) == (
        original_leaf, original_outer, original_leaf, original_leaf)

    names = [tracer.names[n] for n in tracer.name]
    assert names == ["high.outer", "low.leaf", "low.leaf"]
    assert list(tracer.parent) == [NO_PARENT, 0, 0]
    assert count_under(tracer, "low.leaf", "high.outer") == 2
    # clock ticks once per open and close: outer [0, 5], leaves [1, 2], [3, 4]
    stats = summarize(tracer)
    assert stats["high.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["low.leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_paused_calls_are_not_recorded():
    modules = _fake_package()
    tracer = Tracer()
    tracer.install(modules)
    try:
        with tracer.pause():
            modules["high"].outer()
        assert len(tracer) == 0
    finally:
        tracer.restore()
