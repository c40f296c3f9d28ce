import json
import os
import statistics

import pytest

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END
from perfbench.stats import median, quartiles, summarize, valid_name, valid_unit

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_median_odd_even_and_empty():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [7.0, 1.0, 4.0, 9.0, 3.0, 5.0, 8.0, 2.0, 6.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == median(values)


def test_quartiles_of_one_value_are_that_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_summarize_keys():
    s = summarize([1.0, 2.0, 3.0])
    assert s["median"] == 2.0 and s["n"] == 3 and s["q1"] <= s["median"] <= s["q3"]


@pytest.mark.parametrize("name", ["setup_s", "core.kernel_s.LFU-PK", "a", "9lives", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "-lead", "has space", "slash/name", "x" * 65, "ünï"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("s", "ms", "1/s", "count", "%", "MB", "us", "ratio"):
        assert valid_unit(unit)
    assert not valid_unit("")
    assert not valid_unit("per second")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert e2e == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    assert all(valid_name(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(valid_unit(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
