"""Scenario table: CafeCache against OracleCafe at every shortcut's edge.

``CafeCache.handle_span`` takes exact shortcuts the oracle does not: one
sibling scan per request for the unseen-chunk video estimate, reused by
the first-fill admits until an eviction, a tie or a low-keyed admit
could change it; an early redirect when ``|S'| * C_F`` alone exceeds
E[redirect]; and inlined EWMA, ghost and sibling-set bookkeeping.  Its
block walk, ``handle_span_block_kernel``, further takes each victim out
of the heap once and puts it back only on a redirect, and writes the
ghost list directly.  Each row below drives one of those edges.  The
last request of a row (or each of its last few) must actually reach its
edge (checked before it runs).  Every row checks the responses and the
end state against the oracle, with and without a probe attached, and
the block walk against ``handle_span``, as one block and as blocks of
one, with and without a probe.
"""

import pytest

from repro.core.base import Decision
from repro.core.cafe import CafeCache, _worst_sibling
from repro.core.costs import CostModel
from repro.obs.probes import CafeProbe
from repro.structures.ewma import EwmaIat, IatEstimator
from repro.structures.scoreheap import ScoreHeap
from repro.trace.columnar import pack_trace
from repro.trace.requests import Request
from repro.verify.oracles import OracleCafe

from tests.core.test_block_lane import RecordingProbe as HookLog

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


def _fill_then_hit(video, chunks, t_fill, t_hit):
    """Request ``chunks`` of ``video`` at ``t_fill`` and again at ``t_hit``."""
    return [req(t_fill, video, *chunks), req(t_hit, video, *chunks)]


# -- edges: what the last request of a row must exercise ---------------------


def _video_keys(cache, video):
    index = cache._cached.raw_index()
    return [index[(video, c)][0] for c in cache._video_chunks.get(video, ())]


def _first_seen(cache, request):
    return [c for c in request.chunk_ids(K) if c not in cache._stats]


def tied_siblings(cache, request):
    """First-seen chunks whose video's least popular cached chunks tie."""
    keys = _video_keys(cache, request.video)
    first_seen = _first_seen(cache, request)
    return bool(keys and first_seen) and keys.count(min(keys)) > 1


def first_fills_next_to_siblings(cache, request):
    """Several first-seen chunks served next to cached siblings."""
    explained = cache.explain(request)
    return (
        len(_first_seen(cache, request)) > 1
        and bool(_video_keys(cache, request.video))
        and explained.decision is Decision.SERVE
    )


def own_video_victims(cache, request):
    """A served request evicting chunks of its own video."""
    explained = cache.explain(request)
    return explained.decision is Decision.SERVE and any(
        chunk[0] == request.video for chunk in explained.victims
    )


def fill_bound_redirect(cache, request):
    """A redirect decided by ``|S'| * C_F > E[redirect]`` alone."""
    explained = cache.explain(request)
    fills = len(explained.missing) * cache.cost_model.fill_cost
    return explained.decision is Decision.REDIRECT and fills > explained.cost_redirect


def full_comparison_redirect(cache, request):
    """A redirect only the victim terms of E[serve] decide."""
    explained = cache.explain(request)
    fills = len(explained.missing) * cache.cost_model.fill_cost
    return (
        explained.decision is Decision.REDIRECT
        and fills <= explained.cost_redirect
        and bool(explained.victims)
    )


def low_keyed_sibling_admit(cache, request):
    """A sibling with history admitted below the video's least popular
    cached chunk, ahead of a first-seen chunk that needs the estimate."""
    gamma = cache._stats.gamma
    keys = _video_keys(cache, request.video)
    first_seen = _first_seen(cache, request)
    for chunk in request.chunk_ids(K):
        state = cache._stats.get(chunk)
        if chunk in first_seen or state is None or chunk in cache:
            continue
        shadow = EwmaIat(state.dt, state.t_last)
        shadow.update(request.t, gamma)
        below = keys and shadow.key(gamma) < min(keys)
        if below and first_seen and first_seen[0] > chunk:
            return cache.explain(request).decision is Decision.SERVE
    return False


def served_with_evictions(cache, request):
    """A served request that evicts."""
    explained = cache.explain(request)
    return explained.decision is Decision.SERVE and bool(explained.victims)


def own_hits_excluded(cache, request):
    """Victims picked past a cached chunk of the requested video that,
    even after this request re-keys it, is less popular than a victim."""
    explained = cache.explain(request)
    if not explained.victims:
        return False
    gamma = cache._stats.gamma
    worst = max(cache._cached.score(chunk) for chunk in explained.victims)
    for chunk in request.chunk_ids(K):
        if chunk in cache:
            state = cache._stats[chunk]
            shadow = EwmaIat(state.dt, state.t_last)
            shadow.update(request.t, gamma)
            if shadow.key(gamma) < worst:
                return True
    return False


def hit_behind_the_ghost_guard(cache, request):
    """A pure hit after the ghost list was last touched: the list's time
    guard must stay at that earlier touch."""
    ghosts = cache._ghosts
    return (
        len(ghosts) > 0
        and ghosts._max_time < request.t
        and all(chunk in cache for chunk in request.chunk_ids(K))
    )


#: (name, cache kwargs, requests, edge of the last request, or a tuple
#: of edges for the last few requests in order)
SCENARIOS = [
    (
        "same-timestamp repeats tie sibling keys",
        {"disk": 8, "alpha": 2.0},
        [req(5.0, 1, 0, 2), req(5.0, 1, 0, 2), req(5.0, 1, 3, 4)],
        tied_siblings,
    ),
    (
        "same-timestamp tie in a full cache",
        {"disk": 4, "alpha": 2.0},
        [
            req(0.0, 1, 0, 3),
            req(1.0, 1, 0, 3),
            req(2.0, 2, 0, 1),
            req(2.0, 2, 0, 1),
            req(3.0, 2, 2),
        ],
        tied_siblings,
    ),
    (
        "first-seen chunks admitted next to cached siblings",
        {"disk": 16, "alpha": 1.0},
        [req(0.0, 1, 0, 1), req(10.0, 1, 0, 5)],
        first_fills_next_to_siblings,
    ),
    (
        "first-seen chunks next to siblings, evicting",
        {"disk": 6, "alpha": 0.5},
        [
            *_fill_then_hit(2, (0, 2), 0.0, 2.0),
            req(3.0, 1, 0, 1),
            req(8.0, 1, 0, 1),
            req(9.0, 1, 2, 4),
        ],
        first_fills_next_to_siblings,
    ),
    (
        "an admitted sibling keys below the scanned minimum",
        {"disk": 8, "alpha": 2.0},
        [req(0.0, 1, 1), req(1.0, 1, 0), req(2.0, 1, 0), req(100.0, 1, 1, 2)],
        low_keyed_sibling_admit,
    ),
    (
        "victims drawn from the requested video",
        {"disk": 4, "alpha": 0.5},
        [
            req(0.0, 1, 0, 1),
            *_fill_then_hit(2, (0, 1), 1.0, 2.0),
            req(3.0, 1, 2),
        ],
        own_video_victims,
    ),
    (
        "redirect decided by the |S'| * C_F bound",
        {"disk": 4, "alpha": 4.0},
        [req(0.0, 1, 0), req(1.0, 2, 0, 1)],
        fill_bound_redirect,
    ),
    (
        "redirect decided by the full comparison",
        {"disk": 2, "alpha": 1.0},
        [
            req(0.0, 1, 0),
            req(0.0, 2, 0),
            req(1.0, 1, 0),
            req(1.0, 2, 0),
            req(2.0, 3, 0),
        ],
        full_comparison_redirect,
    ),
    (
        "victims put back after a full-comparison redirect, then evicted",
        {"disk": 3, "alpha": 0.5},
        [
            req(0.0, 1, 1),
            req(1.0, 2, 2, 3),
            req(6.0, 3, 2, 3),
            req(7.0, 2, 0, 1),
        ],
        (full_comparison_redirect, served_with_evictions),
    ),
    (
        "a cached chunk of the requested video is excluded from the victims",
        {"disk": 3, "alpha": 1.0},
        [req(2.0, 2, 0), req(7.0, 1, 0, 1), req(8.0, 2, 0, 1)],
        own_hits_excluded,
    ),
    (
        "a pure hit after the last ghost-list touch",
        {"disk": 2, "alpha": 1.0},
        [req(1.0, 1, 1, 2), req(3.0, 2, 1, 2), req(4.0, 1, 1)],
        hit_behind_the_ghost_guard,
    ),
    (
        "ghost_factor=0 drops the history of evicted and redirected chunks",
        {"disk": 3, "alpha": 1.0, "ghost_factor": 0.0},
        [
            req(0.0, 1, 0, 1),
            req(1.0, 2, 0),
            req(2.0, 2, 0),
            req(3.0, 3, 0, 1),
            req(4.0, 1, 0),
            req(5.0, 4, 0, 2),
            req(6.0, 2, 0, 1),
        ],
        served_with_evictions,
    ),
    (
        "a fixed horizon replaces the cache age",
        {"disk": 3, "alpha": 1.0, "horizon": 50.0},
        [
            req(0.0, 1, 0, 1),
            req(1.0, 1, 0),
            req(2.0, 2, 0),
            req(4.0, 2, 0),
            req(5.0, 3, 0, 1),
            req(9.0, 3, 0, 1),
            req(9.5, 3, 0, 1),
        ],
        served_with_evictions,
    ),
]


class RecordingProbe(CafeProbe):
    """A CafeProbe that also logs its outcome and margin hooks in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_serve(self, t, filled_chunks, evicted_chunks):
        self.calls.append(("serve", t, filled_chunks, evicted_chunks))
        super().on_serve(t, filled_chunks, evicted_chunks)

    def on_redirect(self, t, reason):
        self.calls.append(("redirect", t, reason))
        super().on_redirect(t, reason)

    def on_margin(self, margin):
        self.calls.append(("margin",))
        super().on_margin(margin)


def _outcome(response):
    return (response.decision, response.filled_chunks, response.evicted_chunks)


def _fast_state(cache):
    """Everything observable, in the order the structures iterate."""
    return (
        [(chunk, s.dt, s.t_last) for chunk, s in cache._stats.items()],
        [chunk for chunk, _key in cache._cached.items_ascending()],
        list(cache._ghosts.items()),
        [(v, list(numbers)) for v, numbers in cache._video_chunks.items()],
    )


def _comparable(cache):
    return {
        "stats": {chunk: (s.dt, s.t_last) for chunk, s in cache._stats.items()},
        "eviction order": [chunk for chunk, _key in cache._cached.items_ascending()],
        "ghosts": list(cache._ghosts),
        "videos": {v: sorted(numbers) for v, numbers in cache._video_chunks.items()},
    }


def _oracle_comparable(oracle, now):
    return {
        "stats": {chunk: tuple(state) for chunk, state in oracle._stats.items()},
        "eviction order": [
            chunk for _key, chunk in sorted(oracle._popularity_order(now))
        ],
        "ghosts": sorted(oracle._ghosts, key=oracle._ghosts.get),
        "videos": {v: sorted(numbers) for v, numbers in oracle._video_chunks.items()},
    }


def _build(kwargs):
    kwargs = dict(kwargs)
    disk = kwargs.pop("disk")
    cost_model = CostModel(kwargs.pop("alpha"))
    fast = CafeCache(disk, chunk_bytes=K, cost_model=cost_model, **kwargs)
    oracle = OracleCafe(disk, chunk_bytes=K, cost_model=cost_model, **kwargs)
    return fast, oracle


@pytest.mark.parametrize(
    "name, kwargs, requests, edge",
    SCENARIOS,
    ids=[row[0] for row in SCENARIOS],
)
class TestScenarios:
    def test_last_request_reaches_its_edge(self, name, kwargs, requests, edge):
        edges = edge if isinstance(edge, tuple) else (edge,)
        first = len(requests) - len(edges)
        fast, _oracle = _build(kwargs)
        for i, request in enumerate(requests):
            if i >= first:
                reached = edges[i - first]
                assert reached(fast, request), reached.__doc__
            fast.handle(request)

    def test_matches_oracle(self, name, kwargs, requests, edge):
        fast, oracle = _build(kwargs)
        for i, request in enumerate(requests):
            assert _outcome(fast.handle(request)) == _outcome(oracle.handle(request)), i
        now = requests[-1].t
        assert _comparable(fast) == _oracle_comparable(oracle, now)

    def test_probe_changes_nothing(self, name, kwargs, requests, edge):
        plain, _oracle = _build(kwargs)
        probed, _oracle = _build(kwargs)
        probe = probed.probe = RecordingProbe()
        for request in requests:
            assert _outcome(plain.handle(request)) == _outcome(probed.handle(request))
        assert _fast_state(plain) == _fast_state(probed)
        # one outcome hook per request, one margin per costed decision
        outcomes = [c for c in probe.calls if c[0] in ("serve", "redirect")]
        assert [c[1] for c in outcomes] == [r.t for r in requests]
        costed = [c for c in outcomes if c[0] == "redirect" and c[2] == "cost"]
        costed += [c for c in outcomes if c[0] == "serve" and c[2] > 0]
        assert len([c for c in probe.calls if c[0] == "margin"]) == len(costed)

    @pytest.mark.parametrize("probed", [False, True], ids=["plain", "probed"])
    @pytest.mark.parametrize("block", [None, 1], ids=["one-block", "blocks-of-one"])
    def test_block_walk_matches_reference(
        self, name, kwargs, requests, edge, block, probed
    ):
        """The hoisted walk against ``handle_span`` per request: the
        responses, every structure in its iteration order, the ghost
        list's time guard and the probe's hook calls."""
        reference, _oracle = _build(kwargs)
        walked, _oracle = _build(kwargs)
        if probed:
            reference.probe = HookLog()
            walked.probe = HookLog()
        want = [reference.handle(request) for request in requests]
        packed = pack_trace(requests, chunk_bytes=K)
        n = len(requests)
        size = block or n
        got = []
        for lo in range(0, n, size):
            got += walked.handle_span_block_kernel(packed.block_view(lo, min(lo + size, n)))[0]
        assert got == want
        assert _fast_state(walked) == _fast_state(reference)
        assert walked._ghosts._max_time == reference._ghosts._max_time
        if probed:
            # repr: an unbounded horizon on both sides makes a NaN margin
            assert repr(walked.probe.log) == repr(reference.probe.log)


class TestWorstSibling:
    """The sibling scan picks the chunk ``min(numbers, key=score)`` picks."""

    @staticmethod
    def scan(keys):
        stats = IatEstimator(0.25)
        heap = ScoreHeap()
        for c, key in keys.items():
            stats[(1, c)] = EwmaIat(dt=float(c + 1), t_last=0.0)
            heap.insert((1, c), key)
        # 1, 9 and 17 share a slot of a small set table, so iteration
        # order is not numeric order
        numbers = set(keys)
        expected = min(numbers, key=lambda c: heap.score((1, c)))
        return expected, stats, _worst_sibling(stats, heap.raw_index(), 1, numbers, 5.0)

    def test_unique_minimum(self):
        expected, stats, (iat, key, number, tied) = self.scan({17: 2.0, 1: 3.0, 9: 0.5})
        assert (number, key, tied) == (expected, 0.5, False)
        assert iat == stats.iat((1, number), 5.0)

    def test_tied_minimum_takes_the_first_in_iteration_order(self):
        keys = {17: 0.5, 1: 3.0, 9: 0.5}
        expected, _stats, (_iat, key, number, tied) = self.scan(keys)
        assert (number, key, tied) == (expected, 0.5, True)

    def test_single_sibling(self):
        _expected, _stats, (_iat, key, number, tied) = self.scan({4: -1.0})
        assert (number, key, tied) == (4, -1.0, False)
