import copy

from perfbench import gates

REFERENCE = {"alpha=2/xLRU": [10, 7, 100], "alpha=2/Cafe": [10, 8, 100]}


def test_sweep_gate_passes_equal_cells():
    reps = {"unprobed": [copy.deepcopy(REFERENCE)] * 2, "probed": [{"alpha=2/Cafe": [10, 8, 100]}]}
    assert gates.sweep_gate(reps, REFERENCE) == []


def test_sweep_gate_fires_on_a_corrupted_total():
    bad = copy.deepcopy(REFERENCE)
    bad["alpha=2/xLRU"][1] += 1
    failures = gates.sweep_gate({"unprobed": [REFERENCE, bad], "probed": []}, REFERENCE)
    assert len(failures) == 1 and "rep 1" in failures[0] and "xLRU" in failures[0]


def test_sweep_gate_fires_on_a_probed_twin_mismatch_and_bad_telemetry():
    reps = {"unprobed": [REFERENCE], "probed": [{"alpha=2/Cafe": [10, 9, 100]}]}
    failures = gates.sweep_gate(reps, REFERENCE, ["line 3: no kind"])
    assert len(failures) == 2


def test_sweep_gate_fires_on_missing_cells():
    failures = gates.sweep_gate({"unprobed": [{"alpha=2/xLRU": [10, 7, 100]}]}, REFERENCE)
    assert failures


def test_fleet_gate():
    assert gates.fleet_gate(["a", "a"], ["b", "b"], [3, 3]) == []
    assert gates.fleet_gate(["a", "x"], ["b", "b"], [3, 3])
    assert gates.fleet_gate(["a", "a"], ["b", "c"], [3, 3])
    assert gates.fleet_gate(["a", "a"], ["b", "b"], [3, 0])
    assert gates.fleet_gate(["a", "a"], ["a", "a"], [3, 3])


def test_serve_gate():
    totals = {"requests": 5, "served": 4}
    assert gates.serve_gate(totals, dict(totals), 5, 5) == []
    assert gates.serve_gate(totals, {"requests": 5, "served": 3}, 5, 5)
    assert gates.serve_gate(totals, dict(totals), 4, 5)


def test_lanes_gate():
    view = {"lane.a": {"trace_format": "packed"}, "cells.a": {"x": [1]}}
    assert gates.lanes_gate(view, copy.deepcopy(view)) == []
    other = copy.deepcopy(view)
    other["lane.a"]["trace_format"] = "objects"
    assert gates.lanes_gate(view, other)
