import pickle

import pytest

from perfbench.tracing import DispatchCounter, Tracer, defining_class, self_times


def test_self_time_of_nested_spans():
    # root 0..10 holds a 2..6 child, which holds a 3..4 grandchild
    spans = [
        ("root", 0.0, 10.0, -1),
        ("mid", 2.0, 6.0, 0),
        ("leaf", 3.0, 4.0, 1),
        ("mid", 7.0, 8.0, 0),
    ]
    times = self_times(spans)
    assert times["root"] == {"self": 5.0, "total": 10.0, "calls": 1}
    assert times["mid"] == {"self": 4.0, "total": 5.0, "calls": 2}
    assert times["leaf"] == {"self": 1.0, "total": 1.0, "calls": 1}


def test_overlapping_children_are_covered_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 5.0, 0), ("c", 4.0, 6.0, 0)]
    assert self_times(spans)["p"]["self"] == pytest.approx(5.0)


def test_child_time_outside_its_parent_is_ignored():
    spans = [("p", 2.0, 4.0, -1), ("c", 1.0, 3.0, 0)]
    assert self_times(spans)["p"]["self"] == pytest.approx(1.0)


def test_unordered_input():
    spans = [("c", 3.0, 4.0, 1), ("p", 0.0, 10.0, -1)]
    assert self_times(spans)["p"]["self"] == pytest.approx(9.0)


class Base:
    def work(self, n):
        return self.leaf(n) + 1

    def leaf(self, n):
        return n * 2


class Child(Base):
    def leaf(self, n):
        return n * 3


def test_wrappers_go_on_the_defining_class_and_come_off_again():
    original_work, original_leaf = Base.__dict__["work"], Child.__dict__["leaf"]
    tracer = Tracer()
    tracer.wrap(Child, "work", "work")
    tracer.wrap(Child, "leaf", lambda obj: "leaf." + type(obj).__name__)
    assert "work" not in Child.__dict__ and Base.__dict__["work"] is not original_work
    obj = Child()
    assert obj.work(2) == 7
    assert "work" not in vars(obj) and "leaf" not in vars(obj)
    assert pickle.loads(pickle.dumps(obj)).work(1) == 4
    names = [s[0] for s in tracer.spans()]
    assert names == ["work", "leaf.Child", "work", "leaf.Child"]
    spans = tracer.spans()
    assert spans[1][3] == 0 and spans[0][3] == -1
    tracer.uninstall()
    assert Base.__dict__["work"] is original_work and Child.__dict__["leaf"] is original_leaf
    assert defining_class(Child, "work") is Base


def test_span_context_and_reps():
    tracer = Tracer()
    tracer.new_rep()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    times = tracer.layer_times()
    assert times["outer"]["calls"] == 1
    assert times["outer"]["self"] <= times["outer"]["total"]


class Cache:
    name = "C"

    def handle_span_block(self, n):
        return n

    def handle_span_block_kernel(self, n, fallback=False):
        return self.handle_span_block(n) if fallback else n


def test_dispatch_counter_separates_kernel_block_and_residue():
    counter = DispatchCounter(lambda cache: cache.name)
    counter.install([Cache])
    try:
        cache = Cache()
        cache.handle_span_block_kernel(1)
        cache.handle_span_block_kernel(1, fallback=True)
        cache.handle_span_block(1)
        assert counter.take() == {"C": {"kernel": 2, "block": 1, "residue": 1}}
        assert counter.take() == {}
    finally:
        counter.uninstall()
    assert "counted" not in Cache.__dict__["handle_span_block"].__qualname__


def test_engine_lane_checks_survive_class_wrappers():
    from repro.core.base import VideoCache
    from repro.sim import engine
    from repro.sim.runner import build_cache

    xlru, qlru = build_cache("xLRU", 64), build_cache("qLRU", 64)
    before = [engine._kernel_native(c) for c in (xlru, qlru)]
    counter = DispatchCounter(lambda c: c.name)
    tracer = Tracer()
    counter.install([type(xlru), type(qlru), VideoCache])
    for cls in (type(xlru), type(qlru), VideoCache):
        tracer.wrap(cls, "handle_span_block_kernel", "k")
        tracer.wrap(cls, "handle_span_block", "b")
    try:
        assert [engine._kernel_native(c) for c in (xlru, qlru)] == before
        assert engine._span_native(xlru)
    finally:
        tracer.uninstall()
        counter.uninstall()
