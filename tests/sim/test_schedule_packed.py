"""Scheduler heuristics and shared-memory trace transport.

Covers the auto-mode work-size heuristic (small sweeps collapse to
serial instead of paying pool startup) and the shared-memory lifecycle:
the parent owns the segment, workers attach zero-copy, and the segment
is unlinked even when groups crash, retry, or fall back in-process.
"""

import os

import pytest

import repro.sim.schedule as schedule_module
from repro.sim.runner import RunConfig
from repro.sim.schedule import (
    DEFAULT_PARALLEL_MIN_WORK,
    PARALLEL_MIN_WORK_ENV,
    SweepScheduler,
    _resolve_min_work,
)
from repro.trace.columnar import active_shared_traces

_ORIG_EXECUTE_GROUP = schedule_module._execute_group

_CRASH_MARKER_ENV = "REPRO_TEST_SHM_CRASH_MARKER"


def _configs():
    return [
        RunConfig("xLRU", 64, 1.0, label="x"),
        RunConfig("Cafe", 64, 1.0, label="c"),
    ]


class TestMinWorkResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_MIN_WORK_ENV, raising=False)
        assert _resolve_min_work(None) == DEFAULT_PARALLEL_MIN_WORK

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "99")
        assert _resolve_min_work(5) == 5

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "1234")
        assert _resolve_min_work(None) == 1234
        assert SweepScheduler().parallel_min_work == 1234

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "plenty")
        with pytest.raises(ValueError, match=PARALLEL_MIN_WORK_ENV):
            _resolve_min_work(None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="parallel_min_work"):
            _resolve_min_work(-1)


class TestAutoModeHeuristic:
    def test_small_sweep_collapses_to_serial(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        scheduler = SweepScheduler(workers=2, mode="auto")
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "serial" and report.workers == 1
        assert any(e.kind == "parallel-collapsed" for e in report.events)
        # Collapsed sweeps are planned as ONE broadcast group (a single
        # trace pass), not a parallel split executed serially.
        assert report.extra["groups"] == 1

    def test_single_cpu_host_collapses(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        scheduler = SweepScheduler(
            workers=2, mode="auto", parallel_min_work=0
        )
        scheduler.run(_configs(), small_trace[:300])
        assert scheduler.last_report.mode == "serial"
        assert any(
            e.kind == "parallel-collapsed"
            for e in scheduler.last_report.events
        )

    def test_large_enough_sweep_goes_parallel(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        scheduler = SweepScheduler(
            workers=2, mode="auto", parallel_min_work=100
        )
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "parallel"
        assert not any(e.kind == "parallel-collapsed" for e in report.events)

    def test_explicit_parallel_bypasses_heuristic(
        self, small_trace, monkeypatch
    ):
        # Explicit mode="parallel" must use pools even for a sweep far
        # below the threshold on a single-CPU host.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        scheduler = SweepScheduler(workers=2, mode="parallel")
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "parallel"
        assert not any(e.kind == "parallel-collapsed" for e in report.events)

    def test_heuristic_run_matches_serial(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        trace = small_trace[:300]
        collapsed = SweepScheduler(workers=2, mode="auto").run(_configs(), trace)
        serial = SweepScheduler(mode="serial").run(_configs(), trace)
        for key in serial:
            assert serial[key].totals == collapsed[key].totals


def _crash_once_execute_group(kind, configs, requests, interval, progress, *extra):
    """Die like a SIGKILLed worker the first time group ``x`` runs."""
    marker = os.environ[_CRASH_MARKER_ENV]
    if any(c.key == "x" for c in configs) and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


def _always_raise_execute_group(kind, configs, requests, interval, progress, *extra):
    """Fail every pool attempt; succeed only in the in-process fallback."""
    if os.getpid() != int(os.environ["REPRO_TEST_SHM_MAIN_PID"]):
        raise RuntimeError("synthetic group failure")
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


class TestSharedMemoryLifecycle:
    def test_parallel_run_uses_shared_trace_and_cleans_up(self, small_trace):
        trace = small_trace[:400]
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        results = scheduler.run(_configs(), trace)
        serial = SweepScheduler(mode="serial", collapse=False).run(
            _configs(), trace
        )
        for key in serial:
            assert serial[key].totals == results[key].totals
        kinds = {e.kind for e in scheduler.last_report.events}
        assert "shared-trace" in kinds
        assert active_shared_traces() == frozenset()

    def test_offline_cells_survive_shared_transport(self, small_trace):
        # Offline caches pickle their prepared trace back inside the
        # result; the worker-side mapping must stay open long enough.
        trace = small_trace[:400]
        configs = _configs() + [RunConfig("Psychic", 64, 1.0, label="p")]
        par = SweepScheduler(workers=2, mode="parallel", collapse=False).run(
            configs, trace
        )
        serial = SweepScheduler(mode="serial", collapse=False).run(
            configs, trace
        )
        for key in serial:
            assert serial[key].totals == par[key].totals
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_after_worker_crash_and_retry(
        self, small_trace, monkeypatch, tmp_path
    ):
        trace = small_trace[:300]
        monkeypatch.setenv(_CRASH_MARKER_ENV, str(tmp_path / "crashed"))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _crash_once_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False, backoff_seconds=0.01
        )
        results = scheduler.run(_configs(), trace)
        assert set(results) == {"x", "c"}
        assert scheduler.last_report.extra["group_retries"] >= 1
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_after_fallback(self, small_trace, monkeypatch):
        trace = small_trace[:300]
        monkeypatch.setenv("REPRO_TEST_SHM_MAIN_PID", str(os.getpid()))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _always_raise_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False,
            max_retries=0, backoff_seconds=0.01,
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = scheduler.run(_configs(), trace)
        assert set(results) == {"x", "c"}
        # The in-process fallback attached the still-linked segment; the
        # run() finally-block must still have unlinked it afterwards.
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_when_sweep_dies(self, small_trace, monkeypatch):
        trace = small_trace[:300]

        class KilledPool:
            def __init__(self, *a, **k):
                raise KeyboardInterrupt  # the sweep itself is killed

        monkeypatch.setattr(schedule_module, "ProcessPoolExecutor", KilledPool)
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(_configs(), trace)
        assert active_shared_traces() == frozenset()

    def test_pack_stage_reported(self, small_trace):
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        scheduler.run(_configs(), small_trace[:300])
        stages = {s.name for s in scheduler.last_report.stages}
        assert "pack" in stages and "sweep" in stages


# -- signal-driven exit -------------------------------------------------------

_SIGNAL_CHILD = '''
"""Child for the SIGTERM leak test: a parallel sweep that never finishes."""
import os
import sys
import time

import repro.sim.schedule as schedule_module
from repro.sim.runner import RunConfig
from repro.sim.schedule import SweepScheduler
from repro.trace.requests import Request


def _stall_execute_group(*args):
    # Park the (forked) worker until the sweep process that forked it
    # is gone, then exit quietly -- keeps the pool "busy" for the whole
    # test without leaving 60s stragglers behind.  Orphans may be
    # reparented to a subreaper, so watch for the original parent
    # rather than for pid 1.
    owner = os.getppid()
    deadline = time.monotonic() + 60.0
    while os.getppid() == owner and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(0)


schedule_module._execute_group = _stall_execute_group

journal = sys.argv[1]
requests = [Request(float(i), i % 7, 0, 2) for i in range(400)]
configs = [
    RunConfig("xLRU", 64, 1.0, label="x"),
    RunConfig("Cafe", 64, 1.0, label="c"),
]
sched = SweepScheduler(
    workers=2, mode="parallel", collapse=False, checkpoint=journal
)
sched.run(configs, requests)
'''


def _live_group_members(pgid: int) -> list:
    """Pids of the non-zombie processes in process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while we looked
            continue
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm") or not os.path.isdir("/proc"),
    reason="needs a POSIX /dev/shm and /proc",
)
def test_sigterm_releases_segments_and_exits_cleanly(tmp_path):
    """SIGTERM mid-sweep must not leak /dev/shm segments or processes.

    The default SIGTERM disposition kills the process without running
    ``finally`` blocks, so the parent-owned shared trace segment would
    outlive the sweep.  The installed handler unlinks it, syncs the
    checkpoint journal, stops the pool's workers, and exits
    ``128 + SIGTERM``.  An idle worker blocks reading the pool's call
    queue, whose write end it inherited, so without the stop it would
    never see EOF and would keep the unlinked segment mapped forever.
    The child runs in its own session, so every process it starts
    shares its process group.
    """
    import signal as signal_module
    import subprocess
    import sys as sys_module
    import time as time_module

    import repro

    script = tmp_path / "sweep_child.py"
    script.write_text(_SIGNAL_CHILD)
    journal = tmp_path / "sweep.ckpt"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys_module.executable, str(script), str(journal)],
        env=env,
        start_new_session=True,
    )
    try:
        observed = set()
        deadline = time_module.monotonic() + 30.0
        while time_module.monotonic() < deadline:
            observed = {
                name
                for name in set(os.listdir("/dev/shm")) - before
                if name.startswith("psm_")
            }
            if observed:
                break
            assert proc.poll() is None, "sweep child died before sharing"
            time_module.sleep(0.02)
        assert observed, "sweep child never created a shared trace segment"
        proc.send_signal(signal_module.SIGTERM)
        code = proc.wait(timeout=30)
        deadline = time_module.monotonic() + 10.0
        survivors = _live_group_members(proc.pid)
        while survivors and time_module.monotonic() < deadline:
            time_module.sleep(0.05)
            survivors = _live_group_members(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal_module.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    assert code == 128 + signal_module.SIGTERM
    leftover = observed & set(os.listdir("/dev/shm"))
    assert leftover == set(), f"leaked shared segments: {sorted(leftover)}"
    assert survivors == [], f"processes outlived the sweep: {survivors}"


def test_checkpoint_sync_tolerates_missing_and_flushes(tmp_path):
    from repro.sim.schedule import SweepCheckpoint

    ckpt = SweepCheckpoint(tmp_path / "none.ckpt")
    ckpt.sync()  # missing journal: no-op, no error
    ckpt = SweepCheckpoint(tmp_path / "sweep.ckpt")
    ckpt.append("fp", "gid", {})
    ckpt.sync()
    assert ckpt.load("fp") == {"gid": {}}
