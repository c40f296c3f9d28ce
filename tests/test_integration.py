"""Cross-module integration tests: the paper's headline properties.

These replay a shared synthetic trace (10 days, ~5k requests) through
all algorithms and assert the qualitative results of Section 9 — the
relationships the figures hinge on — at test scale.
"""

import pytest

from repro import (
    BeladyCache,
    CafeCache,
    CostModel,
    PsychicCache,
    XlruCache,
    replay,
)
from repro.sim.runner import CACHE_FACTORIES

DISK = 256


def run(cls, trace, alpha, disk=DISK, **kwargs):
    cache = cls(disk, cost_model=CostModel(alpha), **kwargs)
    return replay(cache, trace)


class TestHeadlineOrdering:
    """Section 9.2: Psychic >= Cafe > xLRU for constrained ingress."""

    @pytest.fixture(scope="class")
    def at_alpha2(self, medium_trace):
        return {
            cls.name: run(cls, medium_trace, 2.0)
            for cls in (XlruCache, CafeCache, PsychicCache, CACHE_FACTORIES["PullLRU"])
        }

    def test_cafe_beats_xlru_clearly(self, at_alpha2):
        gain = (
            at_alpha2["Cafe"].steady.efficiency
            - at_alpha2["xLRU"].steady.efficiency
        )
        assert gain > 0.05  # the paper reports ~+10-12% at alpha=2

    def test_psychic_upper_bounds_online(self, at_alpha2):
        psychic = at_alpha2["Psychic"].steady.efficiency
        assert psychic >= at_alpha2["Cafe"].steady.efficiency - 0.03
        assert psychic > at_alpha2["xLRU"].steady.efficiency

    def test_standard_solution_is_worst(self, at_alpha2):
        """Pull-through LRU cannot respect alpha=2 (Section 2)."""
        assert (
            at_alpha2["PullLRU"].steady.efficiency
            < at_alpha2["xLRU"].steady.efficiency
        )

    def test_cafe_ingress_compliance(self, at_alpha2):
        """Figure 5: Cafe shrinks ingress far below xLRU at alpha=2."""
        cafe = at_alpha2["Cafe"].steady.ingress_fraction
        xlru = at_alpha2["xLRU"].steady.ingress_fraction
        assert cafe < 0.6 * xlru


class TestComparableAtCheapIngress:
    """Section 9.2: at alpha <= 1, Cafe and xLRU are comparable."""

    def test_alpha1_gap_small(self, medium_trace):
        cafe = run(CafeCache, medium_trace, 1.0).steady.efficiency
        xlru = run(XlruCache, medium_trace, 1.0).steady.efficiency
        assert abs(cafe - xlru) < 0.12


class TestDiskSensitivity:
    """Figure 6: xLRU degrades faster than Cafe as disk shrinks."""

    def test_xlru_gap_widens_with_small_disk(self, medium_trace):
        gaps = {}
        for disk in (64, 512):
            cafe = run(CafeCache, medium_trace, 2.0, disk=disk).steady.efficiency
            xlru = run(XlruCache, medium_trace, 2.0, disk=disk).steady.efficiency
            gaps[disk] = cafe - xlru
        assert gaps[64] > gaps[512] - 0.03


class TestOfflineAlgorithms:
    def test_belady_all_serves_but_costly_ingress(self, medium_trace):
        """Perfect replacement without a redirect option still loses to
        Cafe when ingress is expensive — the serve-vs-redirect decision
        matters beyond replacement (Sections 2-3)."""
        belady = run(BeladyCache, medium_trace, 4.0).steady
        cafe = run(CafeCache, medium_trace, 4.0).steady
        assert belady.redirect_ratio == pytest.approx(0.0, abs=0.01)
        assert cafe.efficiency > belady.efficiency

    def test_psychic_tracks_trace_scale(self, medium_trace):
        """Offline Psychic stays well-behaved across alphas."""
        for alpha in (0.5, 1.0, 2.0):
            steady = run(PsychicCache, medium_trace, alpha).steady
            assert -1.0 <= steady.efficiency <= 1.0


class TestDeterminism:
    def test_replay_is_reproducible(self, small_trace):
        a = run(CafeCache, small_trace, 2.0).totals
        b = run(CafeCache, small_trace, 2.0).totals
        assert a == b
