import pytest

from spans import SpanRecorder, conservation, covered, layer_totals, self_times


def span(name, start, end, parent, tag=None):
    return (name, start, end, parent, tag)


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0
    assert covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span("parent", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),   # overlaps a by one unit
        span("c", 8.0, 12.0, 0),  # runs past the parent's end
        span("grandchild", 1.5, 2.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 7)  # union [1,6] + [8,10]
    assert selfs[1] == pytest.approx(3 - 0.5)  # only its own child counts
    assert selfs[2] == pytest.approx(3)
    assert selfs[4] == pytest.approx(0.5)


def test_layer_totals_and_conservation():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("layer.a", 0.0, 6.0, 0),
        span("layer.b", 1.0, 3.0, 1),
        span("layer.c", 6.0, 9.0, 0),
        span("setup", 20.0, 25.0, -1),  # outside any op: not counted
    ]
    totals = layer_totals(spans)
    assert totals["layer.a"] == {"calls": 1, "self_s": 4.0, "total_s": 6.0}
    wall, layers = conservation(spans, "op")
    assert wall == pytest.approx(10.0)
    assert layers == pytest.approx(4 + 2 + 3)


class Thing:
    def work(self, n):
        return n * 2

    def items(self, n):
        yield from range(n)


def test_recorder_wraps_nests_and_restores():
    original = Thing.work
    recorder = SpanRecorder()
    with recorder:
        recorder.wrap(Thing, "work", "thing.work", tag=lambda args: args[1])
        recorder.wrap_generator(Thing, "items", "thing.items")
        with recorder.span("op"):
            assert Thing().work(21) == 42
            assert list(Thing().items(2)) == [0, 1]
    assert Thing.work is original
    names = [s[0] for s in recorder.spans]
    assert names == ["op", "thing.work", "thing.items", "thing.items",
                     "thing.items"]
    assert all(s[3] == 0 for s in recorder.spans[1:])
    assert recorder.spans[1][4] == 21


def test_recorder_restores_after_an_exception():
    original = Thing.work
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder:
            recorder.wrap(Thing, "work", "thing.work")
            raise RuntimeError("boom")
    assert Thing.work is original


def test_write_dumps_one_line_per_span(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("op"):
        pass
    assert recorder.write(tmp_path / "t.jsonl") == 1
    assert '"name": "op"' in (tmp_path / "t.jsonl").read_text()
