import signal
import time

from perfbench.common import Budget, Stopwatch, generate_requests, pinned_env, slowness, sub_seed


def test_stopwatch_samples_inside_the_region_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with Stopwatch() as watch:
        while time.perf_counter() - start < 0.3:
            pass
    wall = time.perf_counter() - start
    assert watch.samples >= 3
    assert watch.slowness > 0
    assert 0 < watch.seconds < wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_stopwatch_on_a_region_shorter_than_one_interval():
    with Stopwatch() as watch:
        pass
    assert watch.samples == 0 and watch.slowness > 0


def test_generate_requests_cuts_every_trace_to_the_same_length():
    calls = []

    def generate(days):
        calls.append(days)
        return list(range(int(days * 10)))

    assert generate_requests(generate, 30.0, 120) == list(range(120))
    assert calls == [30.0]
    calls.clear()
    assert generate_requests(generate, 3.0, 100) == list(range(100))
    assert len(calls) == 2 and calls[1] > calls[0]


def test_sub_seeds_are_stable_and_distinct():
    assert sub_seed(1, "sweep", "europe") == sub_seed(1, "sweep", "europe")
    assert len({sub_seed(s, "sweep", "europe") for s in range(50)}) == 50
    assert sub_seed(1, "fleet", "europe") != sub_seed(1, "fleet", "asia")


def test_pinned_env_clears_every_repro_knob(monkeypatch):
    for name in ("REPRO_WORKERS", "REPRO_NO_KERNELS", "REPRO_NO_NUMPY", "REPRO_PARALLEL_MIN_WORK", "REPRO_SCALE"):
        monkeypatch.setenv(name, "1")
    env = pinned_env(7)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "7"
    assert env["PYTHONPATH"].split(":")[0].endswith("/src")


def test_budget_runs_at_least_min_rounds_and_alternates_arms():
    order = []
    budget = Budget(0.0, min_rounds=2)
    reps = budget.run({"a": lambda: order.append("a") or {"x": 1}, "b": lambda: order.append("b") or {"x": 2}})
    assert order == ["a", "b", "a", "b"]
    assert len(reps["a"]) == 2 and len(budget.calibration) == 4


def test_slowness_is_relative_to_the_reference():
    assert slowness(0.025) == 1.0
    assert slowness(0.02, 0.03) == 1.0
