"""Behavioural sanity for the reference oracles.

Exactness against the fast implementations is the differential
harness's job (``test_differential.py``); these tests pin the oracles'
own contracts so a broken oracle can't silently "agree" with a broken
fast cache.
"""

import inspect

import pytest

from repro.core.base import Decision
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.requests import Request
from repro.verify.audit import AuditedCache
from repro.verify.fuzz import adversarial_trace
from repro.verify.oracles import ORACLE_FACTORIES, build_oracle

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


class TestRegistryCoverage:
    def test_every_online_algorithm_has_an_oracle(self):
        online = {
            name
            for name in CACHE_FACTORIES
            if not build_cache(name, 4).offline
        }
        assert online == set(ORACLE_FACTORIES)

    def test_build_oracle_rejects_unknown(self):
        with pytest.raises(ValueError, match="no oracle"):
            build_oracle("NotAnAlgorithm", 8)

    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_shapes_match_fast_side(self, name):
        oracle = build_oracle(name, 8, chunk_bytes=K)
        fast = build_cache(name, 8, chunk_bytes=K)
        assert oracle.name == f"oracle:{fast.name}"
        assert oracle.disk_chunks == fast.disk_chunks
        assert oracle.chunk_bytes == fast.chunk_bytes
        assert oracle.cost_model.alpha_f2r == fast.cost_model.alpha_f2r

    @pytest.mark.parametrize("name", ["Cafe", "GDS", "LFU", "LRU-K", "PullLRU", "xLRU"])
    def test_constructor_parameters_match_fast_side(self, name):
        # one scenario spec builds both lanes, so each hand-written
        # oracle takes exactly the fast side's constructor parameters
        oracle = inspect.signature(ORACLE_FACTORIES[name]).parameters
        fast = inspect.signature(CACHE_FACTORIES[name]).parameters
        assert list(oracle) == list(fast)

    def test_housekeeping_knobs_accepted(self):
        # the scenario matrix shrinks these to force the cleanup paths
        build_oracle("xLRU", 8, chunk_bytes=K, tracker_cleanup_interval=97)
        build_oracle("LFU", 8, chunk_bytes=K, aging_interval=89)


class TestOracleContracts:
    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_invariants_hold_on_fuzz_trace(self, name):
        """Each oracle survives its own audit on an adversarial trace."""
        audited = AuditedCache(
            build_oracle(name, 4, chunk_bytes=K), strict=True
        )
        for request in adversarial_trace(
            seed=17, num_requests=300, disk_chunks=4, chunk_bytes=K
        ):
            audited.handle(request)
        assert audited.ok

    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_oversized_request_redirected_untouched(self, name):
        oracle = build_oracle(name, 2, chunk_bytes=K)
        before = len(oracle)
        response = oracle.handle(req(0.0, 1, 0, 5))  # 6 chunks > 2 disk
        assert response.decision is Decision.REDIRECT
        assert response.filled_chunks == 0
        assert len(oracle) == before

    def test_pull_lru_serves_and_hits(self):
        oracle = build_oracle("PullLRU", 4, chunk_bytes=K)
        first = oracle.handle(req(0.0, 1, 0))
        again = oracle.handle(req(1.0, 1, 0))
        assert first.decision is Decision.SERVE and first.filled_chunks == 1
        assert again.decision is Decision.SERVE and again.filled_chunks == 0

    def test_xlru_redirects_first_seen(self):
        oracle = build_oracle("xLRU", 4, chunk_bytes=K)
        assert oracle.handle(req(0.0, 1, 0)).decision is Decision.REDIRECT
        assert oracle.handle(req(1.0, 1, 0)).decision is Decision.SERVE
