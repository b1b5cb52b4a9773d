"""Span arithmetic and the percentile rule."""

import threading

import pytest

from ledger import (
    InsufficientSamples,
    Recorder,
    Span,
    min_samples_for,
    percentile,
    percentile_or_zero,
    self_times,
    unattributed,
)


def _tree():
    #  root 0..10 ─┬─ a 1..4 ── a.leaf 2..3
    #              └─ b 3..6           (overlaps a: covered 1..6)
    #  other 20..25 (no children)
    return [
        Span(1, "core.abstract.save_model", 0.0, 10.0),
        Span(2, "core.hashing.state_dict_hashes", 1.0, 4.0, parent=1),
        Span(3, "core.merkle.diff", 2.0, 3.0, parent=2),
        Span(4, "docstore.insert_one", 3.0, 6.0, parent=1),
        Span(5, "core.abstract.recover_model", 20.0, 25.0),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = self_times(_tree())
    assert selfs == {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 5.0}


def test_residual_is_self_time_of_the_roots():
    spans = _tree()
    # the siblings a and b overlap on 3..4 (parallel work): both count it
    assert sum(self_times(spans).values()) == pytest.approx(16.0)
    assert unattributed(spans) == (10.0, 15.0)
    assert unattributed(spans, ("core.abstract.save_model",)) == (5.0, 10.0)


def test_child_outside_parent_is_clipped():
    spans = [Span(1, "r", 0.0, 2.0), Span(2, "c", 1.0, 5.0, parent=1)]
    assert self_times(spans)[1] == 1.0


def test_recorder_nests_per_thread_and_carries_request_id():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.set_rid(7)
    outer = recorder.open("outer")
    seen = {}

    def worker():
        span = recorder.open("other-thread")
        recorder.close(span)
        seen["span"] = span

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.id and inner.rid == 7
    assert seen["span"].parent is None and seen["span"].rid is None
    assert [s.name for s in recorder.spans] == ["other-thread", "inner", "outer"]


def test_percentile_minimum_sample_count():
    assert min_samples_for(0.9) == 100
    assert min_samples_for(0.5) == 20
    assert min_samples_for(0.99) == 1000
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile(range(1, 101), 0.5) == 50
    assert percentile(list(range(20, 0, -1)), 0.5) == 10
    with pytest.raises(InsufficientSamples):
        percentile(range(99), 0.9)
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 0.5)


def test_per_layer_percentile_is_zero_without_samples():
    assert percentile_or_zero([], 0.9) == 0.0
    assert percentile_or_zero([3.0, 1.0, 2.0], 0.5) == 2.0
