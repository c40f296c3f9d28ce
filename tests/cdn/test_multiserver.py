"""Tests for the hierarchical multi-server simulator."""

import pytest

from repro.cdn.multiserver import CdnSimulator
from repro.cdn.topology import hierarchy, peered_edges
from repro.core.base import VideoCache, serve_response
from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.policy import KernelCache, policy_for
from repro.core.xlru import XlruCache
from repro.sim.runner import CACHE_FACTORIES
from repro.trace.columnar import pack_trace
from repro.trace.requests import Request

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


def small_hierarchy(edge_disk=8, parent_disk=64, alpha=1.0):
    edges = {
        "e1": CafeCache(edge_disk, chunk_bytes=K, cost_model=CostModel(alpha)),
        "e2": CafeCache(edge_disk, chunk_bytes=K, cost_model=CostModel(alpha)),
    }
    parent = CafeCache(parent_disk, chunk_bytes=K, cost_model=CostModel(0.75))
    return hierarchy(edges, parent)


class TestBasicRouting:
    def test_unknown_edge_rejected(self):
        simulator = CdnSimulator(small_hierarchy())
        with pytest.raises(KeyError):
            simulator.run({"nope": [req(0.0, 1, 0)]})

    def test_origin_cannot_receive_user_traffic(self):
        simulator = CdnSimulator(small_hierarchy())
        with pytest.raises(ValueError):
            simulator.run({"origin": [req(0.0, 1, 0)]})

    def test_max_redirects_validation(self):
        with pytest.raises(ValueError):
            CdnSimulator(small_hierarchy(), max_redirects=0)

    def test_all_user_requests_counted(self):
        simulator = CdnSimulator(small_hierarchy())
        traces = {
            "e1": [req(float(i), i % 3, 0) for i in range(10)],
            "e2": [req(float(i) + 0.5, i % 5, 0) for i in range(10)],
        }
        result = simulator.run(traces)
        assert result.num_user_requests == 20
        assert result.per_server["e1"].totals().num_requests >= 10

    def test_per_edge_attribution(self):
        """Requests are recorded at the edge they landed on."""
        simulator = CdnSimulator(small_hierarchy())
        traces = {
            "e1": [req(0.0, 1, 0), req(1.0, 1, 0)],
            "e2": [req(2.0, 2, 0)],
        }
        result = simulator.run(traces)
        assert result.per_server["e1"].totals().num_requests == 2
        assert result.per_server["e2"].totals().num_requests == 3 or (
            result.per_server["e2"].totals().num_requests == 1
        )


class TestRedirectFlow:
    def test_redirects_reach_parent(self):
        """Edge-redirected requests are handled by the parent cache."""
        simulator = CdnSimulator(small_hierarchy(alpha=2.0))
        # first-seen requests are redirected by Cafe edges at alpha=2
        traces = {"e1": [req(float(i), i, 0) for i in range(5)]}
        result = simulator.run(traces)
        parent = result.per_server["parent"].totals()
        assert parent.num_requests > 0

    def test_redirect_hops_recorded(self):
        simulator = CdnSimulator(small_hierarchy())
        traces = {"e1": [req(float(i), i, 0) for i in range(6)]}
        result = simulator.run(traces)
        assert sum(result.redirect_hops.values()) == 6

    def test_origin_backstops_redirect_chain(self):
        """A redirect ring terminates at the origin via the hop limit."""
        edges = {
            "a": XlruCache(4, chunk_bytes=K, cost_model=CostModel(4.0)),
            "b": XlruCache(4, chunk_bytes=K, cost_model=CostModel(4.0)),
        }
        topology = peered_edges(edges)
        simulator = CdnSimulator(topology, max_redirects=2)
        # first-seen at a and at b: both redirect, the hop limit then
        # routes the request to the origin instead of back around
        result = simulator.run({"a": [req(0.0, 1, 0)]})
        assert result.origin_requests == 1
        assert result.origin_redirect_bytes == K

    def test_offload_fraction(self):
        simulator = CdnSimulator(small_hierarchy())
        traces = {"e1": [req(float(i), 1, 0) for i in range(10)]}
        result = simulator.run(traces)
        assert 0.0 <= result.origin_offload <= 1.0


class TestFillFlow:
    def test_edge_fill_becomes_parent_request(self):
        """A cache-filling edge generates upstream fill requests."""
        simulator = CdnSimulator(small_hierarchy())
        # video 1 twice: second request fills at the edge
        traces = {"e1": [req(0.0, 1, 0), req(1.0, 1, 0)]}
        result = simulator.run(traces)
        parent = result.per_server["parent"].totals()
        edge = result.per_server["e1"].totals()
        assert edge.filled_chunks >= 1
        # the parent saw at least the fill request (plus any redirects)
        assert parent.num_requests >= 1

    def test_fill_volume_conserved(self):
        """Bytes filled at the edge appear as requests upstream."""
        simulator = CdnSimulator(small_hierarchy())
        traces = {"e1": [req(0.0, 1, 0, 3), req(1.0, 1, 0, 3)]}
        result = simulator.run(traces)
        edge = result.per_server["e1"].totals()
        parent = result.per_server["parent"].totals()
        assert parent.requested_bytes >= edge.ingress_bytes

    def test_parent_fill_reaches_origin(self):
        """When the parent itself fills, the origin serves the bytes."""
        simulator = CdnSimulator(small_hierarchy())
        traces = {"e1": [req(0.0, 1, 0), req(1.0, 1, 0), req(2.0, 1, 0)]}
        result = simulator.run(traces)
        assert result.origin_bytes > 0

    def test_describe_output(self):
        simulator = CdnSimulator(small_hierarchy())
        result = simulator.run({"e1": [req(0.0, 1, 0), req(1.0, 1, 0)]})
        text = result.describe()
        assert "user requests" in text


class TestTimeMerging:
    def test_interleaved_edges_by_timestamp(self):
        """Caches see time-ordered streams even across edges."""
        simulator = CdnSimulator(small_hierarchy())
        traces = {
            "e1": [req(0.0, 1, 0), req(2.0, 1, 0)],
            "e2": [req(1.0, 1, 0), req(3.0, 1, 0)],
        }
        # would raise inside AccessRecencyList if order were violated
        result = simulator.run(traces)
        assert result.num_user_requests == 4


class TestOriginAccounting:
    """Regression: fill-path traffic must not count as user redirects.

    Before the fix, a cache fill that climbed to the origin (after a
    redirect at an intermediate server) incremented ``origin_requests``
    and ``origin_redirect_bytes``, corrupting ``origin_offload`` even
    when every user request was served at the edge.
    """

    def fill_heavy_simulator(self):
        # PullLRU edge always serves and fills; the xLRU parent
        # redirects every first-seen request, so the edge's fill is
        # pushed from the parent to the origin via the redirect map.
        edges = {"e1": CACHE_FACTORIES["PullLRU"](8, chunk_bytes=K)}
        parent = XlruCache(64, chunk_bytes=K, cost_model=CostModel(1.0))
        return CdnSimulator(hierarchy(edges, parent))

    def test_fill_redirected_to_origin_is_not_a_user_redirect(self):
        simulator = self.fill_heavy_simulator()
        result = simulator.run({"e1": [req(0.0, 1, 0)]})
        # the user request was served at the edge...
        assert result.per_server["e1"].totals().num_served == 1
        # ...so no *user* traffic reached the origin,
        assert result.origin_requests == 0
        assert result.origin_redirect_bytes == 0
        assert result.origin_offload == 1.0
        # even though the fill did (origin load, tracked separately)
        assert result.origin_fill_requests == 1
        assert result.origin_fill_bytes == K
        assert result.origin_bytes == K

    def test_user_redirects_still_counted(self):
        # an xLRU edge redirects first-seen user requests; the parent
        # (also first-seen) redirects too, so the request reaches the
        # origin as pure user traffic
        edges = {"e1": XlruCache(8, chunk_bytes=K)}
        parent = XlruCache(64, chunk_bytes=K)
        simulator = CdnSimulator(hierarchy(edges, parent))
        result = simulator.run({"e1": [req(0.0, 1, 0)]})
        assert result.origin_requests == 1
        assert result.origin_redirect_bytes == K
        assert result.origin_fill_requests == 0
        assert result.origin_fill_bytes == 0
        assert result.origin_bytes == K


class OverReportingCache(KernelCache):
    """Pull-through LRU that claims ten more filled chunks than it fetched."""

    # Every lane reaches handle_span through the per-request reference.
    handle_span_block_kernel = VideoCache.handle_span_block_kernel

    def __init__(self, disk_chunks, chunk_bytes):
        super().__init__(policy_for("PullLRU"), disk_chunks, chunk_bytes)

    def handle_span(self, t, video, b0, b1, c0, c1):
        response = super().handle_span(t, video, b0, b1, c0, c1)
        if response.filled_chunks:
            return serve_response(
                response.filled_chunks + 10, response.evicted_chunks
            )
        return response


class TestFillRequestClamp:
    """Regression: an upstream fill stays inside the user request's
    chunks, on the object lane and on the packed lane alike."""

    @staticmethod
    def replay_both_lanes(trace, cache_class=CACHE_FACTORIES["PullLRU"]):
        """Replay ``trace`` at edge ``e1`` of a two-tier ``cache_class``
        hierarchy, once per lane."""
        results = []
        for packed in (False, True):
            topology = hierarchy(
                {"e1": cache_class(16, chunk_bytes=K)},
                cache_class(64, chunk_bytes=K),
            )
            edge_trace = pack_trace(trace, chunk_bytes=K) if packed else trace
            result = CdnSimulator(topology).run({"e1": edge_trace})
            lane = "packed-batched" if packed else "object"
            assert result.report.extra["trace_format"] == lane
            results.append(result)
        return results

    def test_overreported_fill_clamped(self):
        # Both tiers over-report: the edge's fill to the parent and the
        # parent's fill to the origin must both be clamped.
        trace = [req(0.0, 1, 2, 4)]  # chunks 2..4
        for result in self.replay_both_lanes(trace, OverReportingCache):
            parent = result.summary("parent")
            assert parent.num_requests == 1
            assert parent.requested_chunks == 3
            assert parent.requested_bytes == 3 * K
            assert result.origin_fill_requests == 1
            assert result.origin_fill_bytes == 3 * K

    def test_exact_fill_unchanged(self):
        for result in self.replay_both_lanes([req(0.0, 1, 2, 4)]):
            parent = result.summary("parent")
            assert parent.requested_chunks == 3
            assert parent.filled_chunks == 3
            assert result.origin_fill_bytes == 3 * K

    def test_partial_fill_is_a_prefix(self):
        # Chunks 3..4 are cached by the first request, so the second
        # fills one chunk and its upstream fill is chunk 2 alone.
        trace = [req(0.0, 1, 3, 4), req(1.0, 1, 2, 4)]
        for result in self.replay_both_lanes(trace):
            parent = result.summary("parent")
            assert parent.num_requests == 2
            assert parent.requested_chunks == 2 + 1
            assert result.origin_fill_bytes == 3 * K

    def test_zero_fill_is_empty(self):
        # The second request pure-hits at the edge: nothing goes upstream.
        trace = [req(0.0, 1, 0), req(1.0, 1, 0)]
        for result in self.replay_both_lanes(trace):
            assert result.summary("e1").num_requests == 2
            assert result.summary("parent").num_requests == 1


class TestEdgeTraceValidation:
    """Regression: unsorted per-edge traces fail fast, with context."""

    def test_unsorted_edge_trace_rejected_with_edge_and_index(self):
        simulator = CdnSimulator(small_hierarchy())
        traces = {
            "e1": [req(0.0, 1, 0)],
            "e2": [req(5.0, 2, 0), req(1.0, 2, 0)],
        }
        with pytest.raises(ValueError) as excinfo:
            simulator.run(traces)
        message = str(excinfo.value)
        assert "e2" in message
        assert "index 1" in message

    def test_rejection_fails_fast_inside_the_merge_walk(self):
        """Validation is folded into the merge: no second full pre-pass.

        The disorder is detected the moment the offending request is
        pulled from its stream — requests before it have already been
        replayed (fail-fast, not transactional), which is what lets
        one-shot generator traces replay in a single pass.
        """
        topology = small_hierarchy()
        simulator = CdnSimulator(topology)
        with pytest.raises(ValueError) as excinfo:
            simulator.run({"e1": [req(1.0, 1, 0), req(0.0, 1, 0)]})
        assert "e1" in str(excinfo.value)
        assert "index 1" in str(excinfo.value)
        # the in-order prefix (index 0) was replayed before the failure
        assert len(topology["e1"].cache) > 0

    def test_generator_traces_replay_in_one_pass(self):
        """One-shot iterables work: nothing consumes them before replay."""
        simulator = CdnSimulator(small_hierarchy())
        seen = []
        traces = {
            "e1": iter([req(0.0, 1, 0), req(2.0, 1, 0)]),
            "e2": iter([req(1.0, 2, 0)]),
        }
        result = simulator.run(
            traces,
            progress=lambda done, total, dt: seen.append((done, total)),
            progress_every=1,
        )
        assert result.num_user_requests == 3
        # generator traces have no len(): progress reports total=None
        assert seen and all(total is None for _done, total in seen)
        assert seen[-1][0] == 3

    def test_equal_timestamps_allowed(self):
        simulator = CdnSimulator(small_hierarchy())
        traces = {"e1": [req(1.0, 1, 0), req(1.0, 2, 0), req(1.0, 1, 0)]}
        result = simulator.run(traces)
        assert result.num_user_requests == 3
