"""Tests for the sweep scheduler: planning, execution, parallelism."""

import os
import pickle
import sys
import time

import pytest

from repro.core.policy import KernelCache, policy_for
from repro.sim.runner import RunConfig
from repro.sim.schedule import (
    CHECKPOINT_ENV,
    WORKERS_ENV,
    SweepCheckpoint,
    SweepScheduler,
    resolve_workers,
)
from repro.trace.requests import DEFAULT_CHUNK_BYTES


class ModulePullLRU(KernelCache):
    """The registry's PullLRU as a class of this module, which a test
    may delete or make unpicklable."""

    cost_sensitive = False  # read off the factory: alpha cells collapse

    def __init__(self, disk_chunks, chunk_bytes=DEFAULT_CHUNK_BYTES, cost_model=None):
        super().__init__(policy_for("PullLRU"), disk_chunks, chunk_bytes, cost_model)


class UnpicklablePullLRU(ModulePullLRU):
    def __getstate__(self):
        raise TypeError("live file handle cannot be pickled")


def _matrix(algorithms, alphas, disk=64):
    return [
        RunConfig(algo, disk, alpha, label=f"{algo}/a={alpha:g}")
        for algo in algorithms
        for alpha in alphas
    ]


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


class TestPlanning:
    def test_online_share_one_broadcast_group(self):
        plan = SweepScheduler().plan(_matrix(("xLRU", "Cafe"), (1.0, 2.0)))
        broadcast = [g for g in plan.groups if g.kind == "broadcast"]
        assert len(broadcast) == 1
        assert len(broadcast[0].configs) == 4
        assert plan.num_cells == 4

    def test_offline_cells_are_single_tasks(self):
        plan = SweepScheduler().plan(_matrix(("xLRU", "Psychic"), (1.0, 2.0)))
        singles = [g for g in plan.groups if g.kind == "single"]
        assert len(singles) == 2
        assert all(c.algorithm == "Psychic" for g in singles for c in g.configs)

    def test_alpha_collapse_of_cost_insensitive_cells(self):
        # PullLRU never consults the cost model: one simulation feeds
        # every alpha; xLRU stays one simulation per alpha.
        plan = SweepScheduler().plan(_matrix(("xLRU", "PullLRU"), (0.5, 1.0, 2.0)))
        assert plan.num_cells == 6
        assert plan.num_simulated == 4  # 3 xLRU + 1 PullLRU primary
        assert len(plan.clones) == 2
        assert set(plan.clones.values()) == {"PullLRU/a=0.5"}

    def test_collapse_keeps_distinct_disks_separate(self):
        configs = [
            RunConfig("PullLRU", 32, 1.0, label="d32"),
            RunConfig("PullLRU", 64, 2.0, label="d64"),
        ]
        plan = SweepScheduler().plan(configs)
        assert plan.num_simulated == 2 and not plan.clones

    def test_collapse_can_be_disabled(self):
        plan = SweepScheduler(collapse=False).plan(
            _matrix(("PullLRU",), (1.0, 2.0))
        )
        assert plan.num_simulated == 2 and not plan.clones

    def test_parallel_mode_splits_broadcast_group(self):
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        plan = scheduler.plan(_matrix(("xLRU", "Cafe"), (1.0, 2.0)))
        broadcast = [g for g in plan.groups if g.kind == "broadcast"]
        assert len(broadcast) == 2
        assert sorted(len(g.configs) for g in broadcast) == [2, 2]

    def test_cells_mode_is_per_cell(self):
        plan = SweepScheduler(mode="cells").plan(_matrix(("xLRU", "PullLRU"), (1.0, 2.0)))
        assert all(g.kind == "single" and len(g.configs) == 1 for g in plan.groups)
        assert plan.num_simulated == 4 and not plan.clones

    def test_duplicate_keys_rejected(self):
        configs = [RunConfig("xLRU", 64, label="k"), RunConfig("Cafe", 64, label="k")]
        with pytest.raises(ValueError, match="duplicate RunConfig keys"):
            SweepScheduler().plan(configs)

    def test_describe(self):
        plan = SweepScheduler().plan(_matrix(("xLRU", "PullLRU"), (1.0, 2.0)))
        text = plan.describe()
        assert "4 cells" in text and "3 simulations" in text

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SweepScheduler(mode="warp")


class TestExecution:
    def test_serial_run_keys_in_input_order(self, small_trace):
        configs = _matrix(("Cafe", "xLRU"), (2.0, 1.0))
        results = SweepScheduler(mode="serial").run(configs, small_trace[:300])
        assert list(results) == [c.key for c in configs]

    def test_generator_trace_streams_for_online_plan(self, small_trace):
        trace = small_trace[:300]
        results = SweepScheduler(mode="serial").run(
            [RunConfig("xLRU", 64, 1.0, label="x"), RunConfig("Cafe", 64, 1.0, label="c")],
            iter(trace),
        )
        assert results["x"].num_requests == 300

    def test_clone_results_share_counters_not_cost_model(self, small_trace):
        trace = small_trace[:400]
        configs = _matrix(("PullLRU",), (1.0, 4.0))
        results = SweepScheduler(mode="serial").run(configs, trace)
        a, b = results["PullLRU/a=1"], results["PullLRU/a=4"]
        # identical traffic counters, different cost interpretation
        assert a.totals.num_requests == b.totals.num_requests
        assert a.totals.ingress_bytes == b.totals.ingress_bytes
        assert b.cache.cost_model.alpha_f2r == 4.0
        assert a.totals.efficiency != b.totals.efficiency

    def test_parallel_execution_matches_serial(self, small_trace):
        trace = small_trace[:400]
        configs = _matrix(("xLRU", "Cafe"), (1.0, 2.0))
        serial = SweepScheduler(mode="serial").run(configs, trace)
        par = SweepScheduler(workers=2, mode="parallel").run(configs, trace)
        for key in serial:
            assert serial[key].totals == par[key].totals
            assert serial[key].steady == par[key].steady

    def test_parallel_fallback_warns_and_succeeds(self, small_trace, monkeypatch):
        import repro.sim.schedule as schedule

        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no processes in this sandbox")

        monkeypatch.setattr(schedule, "ProcessPoolExecutor", BrokenPool)
        configs = _matrix(("xLRU", "Cafe"), (1.0,))
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = scheduler.run(configs, small_trace[:200])
        assert len(results) == 2
        assert scheduler.last_report.mode == "parallel"  # requested mode kept
        assert scheduler.last_report.workers == 1  # but executed in-process

    def test_unpicklable_primary_degrades_to_dedicated_replay(
        self, small_trace, monkeypatch
    ):
        from repro.sim.runner import CACHE_FACTORIES

        monkeypatch.setitem(
            CACHE_FACTORIES, "UnpicklablePullLRU", UnpicklablePullLRU
        )
        trace = small_trace[:300]
        configs = [
            RunConfig("UnpicklablePullLRU", 64, a, label=f"u/{a:g}")
            for a in (1.0, 2.0)
        ]
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = SweepScheduler(mode="serial").run(configs, trace)
        reference = SweepScheduler(mode="serial", collapse=False).run(
            configs, trace
        )
        # Dedicated replay of the clone is exact: same counters as a
        # collapse-free run of the same cell.
        assert results["u/2"].totals == reference["u/2"].totals

    def test_unpicklable_primary_with_spent_generator_raises(
        self, small_trace, monkeypatch
    ):
        from repro.sim.runner import CACHE_FACTORIES

        monkeypatch.setitem(
            CACHE_FACTORIES, "UnpicklablePullLRU", UnpicklablePullLRU
        )
        configs = [
            RunConfig("UnpicklablePullLRU", 64, a, label=f"u/{a:g}")
            for a in (1.0, 2.0)
        ]
        # One broadcast group, serial, no checkpoint: the generator is
        # streamed and spent, so the fallback replay is impossible and
        # the failure must be loud, not silent.
        with pytest.warns(RuntimeWarning, match="not picklable"):
            with pytest.raises(RuntimeError, match="one-shot generator"):
                SweepScheduler(mode="serial").run(
                    configs, iter(small_trace[:300])
                )

    def test_last_report_and_result_reports(self, small_trace):
        scheduler = SweepScheduler(mode="serial")
        configs = _matrix(("xLRU", "PullLRU"), (1.0, 2.0))
        results = scheduler.run(configs, small_trace[:300])
        report = scheduler.last_report
        assert report is not None and report.engine == "scheduler"
        assert report.extra["cells"] == 4
        assert report.extra["simulated"] == 3
        assert report.extra["clones"] == 1
        for result in results.values():
            assert result.report is not None
            assert result.report.extra["scheduler_mode"] == "serial"


# --------------------------------------------------------------------------
# Supervised executor & checkpoint tests.
#
# The helpers below are module-level on purpose: the scheduler submits the
# (monkeypatched) ``schedule._execute_group`` to a ProcessPoolExecutor,
# which pickles the callable by qualified name — test-local closures would
# fail to pickle and the crash would fire in the parent process instead of
# a worker.  Paths are plumbed through environment variables, which fork
# workers inherit.  ``_ORIG_EXECUTE_GROUP`` is captured at import time so
# the helpers can delegate to the real implementation even though the
# module attribute is patched while they run.

import repro.sim.schedule as schedule_module

_ORIG_EXECUTE_GROUP = schedule_module._execute_group

_CRASH_MARKER_ENV = "REPRO_TEST_SCHED_CRASH_MARKER"
_RUNS_DIR_ENV = "REPRO_TEST_SCHED_RUNS_DIR"
_DONE_MARKER_ENV = "REPRO_TEST_SCHED_DONE_MARKER"
_MAIN_PID_ENV = "REPRO_TEST_SCHED_MAIN_PID"


def _crash_once_execute_group(kind, configs, requests, interval, progress, *extra):
    """Die like a SIGKILLed worker the first time group ``x`` runs."""
    marker = os.environ[_CRASH_MARKER_ENV]
    if any(c.key == "x" for c in configs) and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


def _instrumented_execute_group(kind, configs, requests, interval, progress, *extra):
    """Count executions per group; group ``x`` waits until the parent has
    *harvested* its sibling (signalled via the checkpoint's ``append``,
    which runs in the parent) and then dies like a killed worker."""
    runs_dir = os.environ[_RUNS_DIR_ENV]
    done_marker = os.environ[_DONE_MARKER_ENV]
    crash_marker = os.environ[_CRASH_MARKER_ENV]
    key = configs[0].key
    count = len([n for n in os.listdir(runs_dir) if n.startswith(key + "-")])
    open(os.path.join(runs_dir, f"{key}-{count}-{os.getpid()}"), "w").close()
    if key == "x" and not os.path.exists(crash_marker):
        open(crash_marker, "w").close()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(done_marker):  # pragma: no branch
            if time.monotonic() > deadline:  # pragma: no cover
                break  # don't hang the suite; crash anyway
            time.sleep(0.01)
        os._exit(1)
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


class _SignalingCheckpoint(SweepCheckpoint):
    """Checkpoint whose parent-side ``append`` drops a marker file when
    the ``c`` group is recorded — proof the future was harvested."""

    def append(self, fingerprint, group_id, results):
        super().append(fingerprint, group_id, results)
        if "c" in results:
            open(os.environ[_DONE_MARKER_ENV], "w").close()


def _sleepy_execute_group(kind, configs, requests, interval, progress, *extra):
    """Hang forever — but only inside a pool worker, never the parent."""
    main_pid = int(os.environ[_MAIN_PID_ENV])
    if any(c.key == "x" for c in configs) and os.getpid() != main_pid:
        time.sleep(60.0)
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


class TestSupervisedExecutor:
    def _configs(self):
        return [
            RunConfig("xLRU", 64, 1.0, label="x"),
            RunConfig("Cafe", 64, 1.0, label="c"),
        ]

    def test_worker_killed_mid_group_is_retried(
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
        results = scheduler.run(self._configs(), trace)
        serial = SweepScheduler(mode="serial", collapse=False).run(
            self._configs(), trace
        )
        for key in serial:
            assert serial[key].totals == results[key].totals
        assert scheduler.last_report.extra["group_retries"] >= 1
        kinds = {e.kind for e in scheduler.last_report.events}
        assert "group-crash" in kinds and "retry-backoff" in kinds

    def test_completed_groups_salvaged_not_rerun(
        self, small_trace, monkeypatch, tmp_path
    ):
        trace = small_trace[:300]
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        monkeypatch.setenv(_RUNS_DIR_ENV, str(runs_dir))
        monkeypatch.setenv(_DONE_MARKER_ENV, str(tmp_path / "c-done"))
        monkeypatch.setenv(_CRASH_MARKER_ENV, str(tmp_path / "crashed"))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _instrumented_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False, backoff_seconds=0.01,
            checkpoint=_SignalingCheckpoint(tmp_path / "salvage.ckpt"),
        )
        results = scheduler.run(self._configs(), trace)
        assert set(results) == {"x", "c"}
        # The crashed group ran twice; the salvaged sibling exactly once.
        runs = sorted(p.name for p in runs_dir.iterdir())
        assert len([n for n in runs if n.startswith("x-")]) == 2
        assert len([n for n in runs if n.startswith("c-")]) == 1
        assert scheduler.last_report.extra["group_retries"] >= 1

    def test_group_timeout_triggers_fallback(self, small_trace, monkeypatch):
        trace = small_trace[:200]
        monkeypatch.setenv(_MAIN_PID_ENV, str(os.getpid()))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _sleepy_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False,
            max_retries=0, group_timeout=1.0,
        )
        t0 = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = scheduler.run(self._configs(), trace)
        assert time.perf_counter() - t0 < 30.0  # never waited for the hang
        serial = SweepScheduler(mode="serial", collapse=False).run(
            self._configs(), trace
        )
        for key in serial:
            assert serial[key].totals == results[key].totals
        kinds = {e.kind for e in scheduler.last_report.events}
        assert "group-crash" in kinds and "group-fallback" in kinds
        assert scheduler.last_report.extra["fallback_groups"] >= 1

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SweepScheduler(max_retries=-1)
        with pytest.raises(ValueError, match="group_timeout"):
            SweepScheduler(group_timeout=0.0)
        with pytest.raises(ValueError, match="backoff_seconds"):
            SweepScheduler(backoff_seconds=-0.5)


class TestCheckpoint:
    def _configs(self):
        return [
            RunConfig("xLRU", 64, 1.0, label="x"),
            RunConfig("Cafe", 64, 1.0, label="c"),
            RunConfig("Psychic", 64, 1.0, label="p"),
        ]

    def test_checkpoint_written_and_fully_resumed(
        self, small_trace, tmp_path, monkeypatch
    ):
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        first = SweepScheduler(mode="serial", checkpoint=path).run(
            self._configs(), trace
        )
        assert path.exists()

        # Resume must touch no simulation code at all (serial mode: the
        # patched callable would run in-process, so a closure is fine).
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-executed a completed group")

        monkeypatch.setattr(schedule_module, "_execute_group", boom)
        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        second = scheduler.run(self._configs(), trace)
        for key in first:
            assert first[key].totals == second[key].totals
        assert scheduler.last_report.extra["resumed_groups"] == 2
        assert any(
            e.kind == "checkpoint-resume" for e in scheduler.last_report.events
        )

    def test_killed_sweep_resumes_identically(
        self, small_trace, tmp_path, monkeypatch
    ):
        """The acceptance path: die mid-sweep, resume, match uninterrupted."""
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        calls = {"n": 0}

        def dies_after_first_group(kind, configs, requests, interval, progress, *extra):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt  # the process is killed
            return _ORIG_EXECUTE_GROUP(
                kind, configs, requests, interval, progress, *extra
            )

        monkeypatch.setattr(
            schedule_module, "_execute_group", dies_after_first_group
        )
        with pytest.raises(KeyboardInterrupt):
            SweepScheduler(mode="serial", checkpoint=path).run(
                self._configs(), trace
            )
        monkeypatch.setattr(
            schedule_module, "_execute_group", _ORIG_EXECUTE_GROUP
        )

        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        resumed = scheduler.run(self._configs(), trace)
        assert scheduler.last_report.extra["resumed_groups"] == 1
        uninterrupted = SweepScheduler(mode="serial").run(
            self._configs(), trace
        )
        assert list(resumed) == list(uninterrupted)
        for key in uninterrupted:
            assert uninterrupted[key].totals == resumed[key].totals
            assert uninterrupted[key].steady == resumed[key].steady

    def test_worker_sigkill_with_checkpoint_resumes(
        self, small_trace, tmp_path, monkeypatch
    ):
        """SIGKILL of a pool worker: the supervisor retries the dead
        group, the checkpoint keeps both, and a fresh scheduler resumes
        without re-executing anything."""
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        monkeypatch.setenv(_CRASH_MARKER_ENV, str(tmp_path / "crashed"))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _crash_once_execute_group
        )
        configs = [
            RunConfig("xLRU", 64, 1.0, label="x"),
            RunConfig("Cafe", 64, 1.0, label="c"),
        ]
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False,
            checkpoint=path, backoff_seconds=0.01,
        )
        results = scheduler.run(configs, trace)
        serial = SweepScheduler(mode="serial", collapse=False).run(
            configs, trace
        )
        for key in serial:
            assert serial[key].totals == results[key].totals

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-executed a completed group")

        monkeypatch.setattr(schedule_module, "_execute_group", boom)
        again = SweepScheduler(
            workers=2, mode="parallel", collapse=False, checkpoint=path
        ).run(configs, trace)
        for key in serial:
            assert serial[key].totals == again[key].totals

    def test_corrupt_tail_tolerated(self, small_trace, tmp_path):
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        SweepScheduler(mode="serial", checkpoint=path).run(
            self._configs(), trace
        )
        with open(path, "ab") as fh:
            fh.write(b"\x80\x05truncated-mid-append")
        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        results = scheduler.run(self._configs(), trace)
        assert scheduler.last_report.extra["resumed_groups"] == 2
        assert len(results) == 3

    def test_stale_fingerprint_ignored(self, small_trace, tmp_path):
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        SweepScheduler(mode="serial", checkpoint=path).run(
            self._configs(), trace
        )
        # Different trace -> different fingerprint -> fresh run, not a
        # graft of foreign results.
        other = small_trace[:200]
        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        results = scheduler.run(self._configs(), other)
        assert "resumed_groups" not in scheduler.last_report.extra
        assert results["x"].totals.num_requests == 200

    def test_version_2_journal_is_not_resumed(
        self, small_trace, tmp_path, monkeypatch
    ):
        """A version-2 record pickles each ``ScoreHeap`` without its
        anchor index, so its Cafe and LFU-PK caches would fail on their
        next call: the journal is skipped and every cell recomputed."""
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        configs = [
            RunConfig("Cafe", 64, 1.0, label="c"),
            RunConfig("LFU-PK", 64, 1.0, label="l"),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(SweepCheckpoint, "VERSION", 2)
            SweepScheduler(mode="serial", checkpoint=path).run(configs, trace)
        assert path.exists()
        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        recomputed = scheduler.run(configs, trace)
        assert "resumed_groups" not in scheduler.last_report.extra
        assert any(
            e.tag == "checkpoint-foreign-record"
            for e in scheduler.events.records
        )
        fresh = SweepScheduler(mode="serial").run(configs, trace)
        assert list(recomputed) == list(fresh)
        for key in fresh:
            assert recomputed[key].totals == fresh[key].totals
            assert recomputed[key].steady == fresh[key].steady

    def test_record_that_no_longer_loads_is_skipped(
        self, small_trace, tmp_path, monkeypatch
    ):
        """A record whose pickled cache class is gone (renamed or deleted
        since it was written) is skipped with a warning; the intact
        records after it still resume."""
        from repro.sim.runner import CACHE_FACTORIES

        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        configs = [
            RunConfig("xLRU", 64, 1.0, label="x"),
            RunConfig("Vanishing", 64, 1.0, label="v"),
            RunConfig("Cafe", 64, 1.0, label="c"),
        ]
        monkeypatch.setitem(CACHE_FACTORIES, "Vanishing", ModulePullLRU)
        first = SweepScheduler(mode="cells", checkpoint=path).run(configs, trace)
        # the class is deleted; the algorithm name now builds the
        # registry's PullLRU
        monkeypatch.delattr(sys.modules[__name__], "ModulePullLRU")
        monkeypatch.setitem(CACHE_FACTORIES, "Vanishing", CACHE_FACTORIES["PullLRU"])
        scheduler = SweepScheduler(mode="cells", checkpoint=path)
        with pytest.warns(RuntimeWarning, match="does not load"):
            second = scheduler.run(configs, trace)
        assert scheduler.last_report.extra["resumed_groups"] == 2
        warnings = [e.tag for e in scheduler.events.records if e.level == "warning"]
        assert warnings == ["checkpoint-bad-record"]
        for key in first:
            assert second[key].totals == first[key].totals

    def test_version_3_journal_is_ignored_with_a_warning(self, small_trace, tmp_path):
        """A journal of bare pickled records (versions 1-3) has no record
        headers: it is ignored with a warning, and the first record
        appended replaces it, so the next run resumes."""
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        with open(path, "wb") as fh:
            pickle.dump((3, "fingerprint", "group", {}), fh)
        scheduler = SweepScheduler(mode="serial", checkpoint=path)
        with pytest.warns(RuntimeWarning, match="not a version-4 journal"):
            scheduler.run(self._configs(), trace)
        assert "resumed_groups" not in scheduler.last_report.extra
        resumed = SweepScheduler(mode="serial", checkpoint=path)
        resumed.run(self._configs(), trace)
        assert resumed.last_report.extra["resumed_groups"] == 2

    def test_torn_tail_is_cut_before_the_next_append(self, small_trace, tmp_path):
        """Records appended after a torn tail stay reachable."""
        trace = small_trace[:300]
        path = tmp_path / "sweep.ckpt"
        configs = self._configs()
        SweepScheduler(mode="serial", checkpoint=path).run(configs[:1], trace)
        with open(path, "ab") as fh:
            fh.write(SweepCheckpoint.MAGIC + b"\x00\x00\x00\x00\x00\x01torn")
        SweepScheduler(mode="serial", checkpoint=path).run(configs, trace)
        resumed = SweepScheduler(mode="serial", checkpoint=path)
        resumed.run(configs, trace)
        assert resumed.last_report.extra["resumed_groups"] == 2

    def test_env_knob_sets_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "env.ckpt"
        monkeypatch.setenv(CHECKPOINT_ENV, str(path))
        scheduler = SweepScheduler()
        assert scheduler.checkpoint is not None
        assert str(scheduler.checkpoint.path) == str(path)
        monkeypatch.delenv(CHECKPOINT_ENV)
        assert SweepScheduler().checkpoint is None

    def test_checkpoint_accepts_instance(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "x.ckpt")
        assert SweepScheduler(checkpoint=ckpt).checkpoint is ckpt

    def test_load_missing_file_is_fresh(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "missing.ckpt")
        assert ckpt.load("whatever") == {}
