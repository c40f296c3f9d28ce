"""Tests for the Optimal Cache IP/LP (Section 7, Eqs. 10-12)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.costs import CostModel
from repro.core.optimal import OptimalCache, solve_optimal
from repro.core.psychic import PsychicCache
from repro.sim.engine import replay
from repro.trace.requests import Request

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


@pytest.fixture
def alternating_trace():
    """A, B, A, B on a 1-chunk disk: the optimum caches one video."""
    return [req(float(i), 1 + i % 2, 0) for i in range(4)]


class TestValidation:
    def test_empty_requests_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal([], 1)

    def test_disk_validation(self):
        with pytest.raises(ValueError):
            solve_optimal([req(0.0, 1, 0)], 0)

    def test_variable_limit_enforced(self):
        trace = [req(float(i), i, 0) for i in range(50)]
        with pytest.raises(ValueError, match="down-sample"):
            solve_optimal(trace, 1, max_variables=10)


class TestExactTinyInstances:
    def test_alternating_videos_one_slot(self, alternating_trace):
        """Known optimum: cache one video (1 fill), redirect the other
        twice -> cost 3 of 4 requested chunks, efficiency 0.25."""
        sol = solve_optimal(
            alternating_trace, 1, cost_model=CostModel(1.0), relaxed=False
        )
        assert sol.objective_cost == pytest.approx(3.0)
        assert sol.efficiency == pytest.approx(0.25)
        assert sol.decisions is not None
        # multiple schedules reach cost 3 (e.g. fill A, redirect B twice,
        # or fill A then B and redirect once); only totals are pinned
        assert sol.fill_chunks + sol.redirected_chunks == pytest.approx(3.0)
        assert sum(sol.decisions) == 4 - sol.redirected_chunks

    def test_single_request(self):
        """One request ever: a fill cannot pay off; redirect (alpha=1)."""
        sol = solve_optimal([req(0.0, 1, 0)], 4, relaxed=False)
        # redirect (cost C_R = 1) and fill-and-serve (cost C_F = 1) tie;
        # either way the objective is 1.
        assert sol.objective_cost == pytest.approx(1.0)
        assert sol.efficiency == pytest.approx(0.0)

    def test_repeated_request_is_cached(self):
        """Same chunk five times: fill once, serve the rest."""
        trace = [req(float(i), 1, 0) for i in range(5)]
        sol = solve_optimal(trace, 2, relaxed=False)
        assert sol.objective_cost == pytest.approx(1.0)  # one fill
        assert sol.efficiency == pytest.approx(1.0 - 1.0 / 5.0)
        assert all(sol.decisions)

    def test_alpha_changes_optimum(self):
        """At high alpha, filling for a twice-requested chunk loses."""
        trace = [req(0.0, 1, 0), req(1.0, 1, 0)]
        cheap = solve_optimal(trace, 1, cost_model=CostModel(0.5), relaxed=False)
        costly = solve_optimal(trace, 1, cost_model=CostModel(4.0), relaxed=False)
        # alpha=0.5: fill (2/3) beats two redirects (8/3) -> serve both
        assert all(cheap.decisions)
        # alpha=4: one fill costs 1.6, two redirects cost 0.8 -> redirect
        assert not any(costly.decisions)

    def test_disk_capacity_binds(self):
        """Two popular chunks, one slot: only one can stay resident."""
        trace = []
        for i in range(4):
            trace.append(req(float(2 * i), 1, 0))
            trace.append(req(float(2 * i + 1), 2, 0))
        tight = solve_optimal(trace, 1, relaxed=False)
        roomy = solve_optimal(trace, 2, relaxed=False)
        assert roomy.objective_cost < tight.objective_cost


class TestLpRelaxation:
    def test_lp_bounds_exact_from_above(self, alternating_trace):
        exact = solve_optimal(alternating_trace, 1, relaxed=False)
        bound = solve_optimal(alternating_trace, 1, relaxed=True)
        assert bound.efficiency >= exact.efficiency - 1e-9
        assert bound.objective_cost <= exact.objective_cost + 1e-9

    def test_lp_bounds_psychic(self, small_trace):
        """The LP bound dominates any real algorithm (Section 9.1)."""
        from repro.trace.sampling import (
            disk_chunks_for_fraction,
            downsample_trace,
        )

        t0 = small_trace[0].t
        sample = downsample_trace(
            small_trace,
            num_files=25,
            max_file_bytes=8 * 1024 * 1024,
            window=(t0, t0 + 2 * 86400.0),
        )
        assert sample, "down-sampled trace must not be empty"
        disk = disk_chunks_for_fraction(sample, 0.05)
        cost_model = CostModel(2.0)

        psychic = PsychicCache(disk, cost_model=cost_model)
        measured = replay(psychic, sample).totals.efficiency_chunks
        bound = solve_optimal(sample, disk, cost_model=cost_model, relaxed=True)
        assert bound.efficiency >= measured - 1e-9

    def test_relaxed_solution_has_no_decisions(self, alternating_trace):
        sol = solve_optimal(alternating_trace, 1, relaxed=True)
        assert sol.relaxed
        assert sol.decisions is None


class TestOptimalCacheReplay:
    def test_handle_before_prepare_raises(self):
        cache = OptimalCache(1, chunk_bytes=K)
        with pytest.raises(RuntimeError):
            cache.handle(req(0.0, 1, 0))

    def test_replay_accounting_matches_solution(self, alternating_trace):
        cache = OptimalCache(1, chunk_bytes=K, cost_model=CostModel(1.0))
        result = replay(cache, alternating_trace)
        totals = result.totals
        solution = cache.solution
        assert totals.filled_chunks == pytest.approx(solution.fill_chunks)
        assert totals.redirected_chunks == pytest.approx(solution.redirected_chunks)
        assert totals.efficiency_chunks == pytest.approx(solution.efficiency)

    def test_replay_respects_capacity(self):
        trace = [req(float(i), i % 3, 0) for i in range(12)]
        trace += [req(12.0 + i, i % 3, 0) for i in range(6)]
        cache = OptimalCache(2, chunk_bytes=K)
        replay(cache, trace)
        assert len(cache) <= 2

    def test_replay_order_must_match(self, alternating_trace):
        cache = OptimalCache(1, chunk_bytes=K)
        cache.prepare(alternating_trace)
        cache.handle(alternating_trace[0])
        with pytest.raises(RuntimeError, match="order"):
            cache.handle(req(99.0, 9, 0))

    def test_beats_or_matches_psychic_on_tiny_trace(self):
        """Exact optimum is at least as good as the greedy heuristic."""
        trace = []
        t = 0.0
        for i in range(30):
            trace.append(req(t, (i * 7) % 5, 0))
            t += 1.0
        cost_model = CostModel(2.0)
        optimal = OptimalCache(2, chunk_bytes=K, cost_model=cost_model)
        opt_eff = replay(optimal, trace).totals.efficiency_chunks
        psychic = PsychicCache(2, chunk_bytes=K, cost_model=cost_model)
        psy_eff = replay(psychic, trace).totals.efficiency_chunks
        assert opt_eff >= psy_eff - 1e-9


def test_entry_points_import_without_scipy():
    """Only the solve imports scipy: the CLI, the serving daemon and
    router, and sweep workers start without paying for it."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.serve.daemon, repro.serve.router\n"
        "import repro.sim.schedule\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
