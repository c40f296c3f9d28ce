"""Tiny-scale runs of every workload through the real command.

Each workload runs at QUICK scale with a short measuring time.  The
same run is repeated with one of its outputs corrupted on the way back
from the worker, which must fail the correctness gate: exit code 1 and
``"correct": false``.
"""

import json
import os

import pytest

from perfbench import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def corrupt_sweep(role, result):
    if role == "timed":
        cells = result["cells"]["unprobed"][0]
        cells[sorted(cells)[0]][1] += 1


def corrupt_fleet(role, result):
    if role == "timed":
        result["fingerprints"]["clean"][0] = "0" * 16


def corrupt_serve(role, result):
    if role == "timed":
        result["session"]["daemon_totals"]["hits"] += 1


CORRUPT = {"sweep": corrupt_sweep, "fleet": corrupt_fleet, "serve": corrupt_serve}


def bench(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "quick"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", ["sweep", "fleet", "serve"])
def test_workload_runs_and_its_gate_fires_on_a_corrupted_total(workload, capsys, monkeypatch):
    code, result = bench(capsys, workload)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [m for m in result["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    real = run.run_worker

    def corrupted(workload_, role, *args, **kwargs):
        result = real(workload_, role, *args, **kwargs)
        CORRUPT[workload_](role, result)
        return result

    monkeypatch.setattr(run, "run_worker", corrupted)
    code, result = bench(capsys, workload)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["sweep", "fleet", "serve"])
def test_traced_run_reports_every_layer(workload, capsys):
    from perfbench.layers import PER_LAYER

    code, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    assert result["metrics"]["repro.import_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
