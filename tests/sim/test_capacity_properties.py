"""Property tests for the egress capacity gate."""

from hypothesis import given, settings, strategies as st

from repro.sim.capacity import EgressCapacityGate
from repro.sim.runner import build_cache
from repro.trace.requests import Request

K = 1024


@st.composite
def bursty_trace(draw):
    n = draw(st.integers(1, 80))
    t = 0.0
    requests = []
    for _ in range(n):
        t += draw(st.floats(0.0, 5.0))
        nbytes = draw(st.integers(1, 8 * K))
        requests.append(Request(t, draw(st.integers(0, 5)), 0, nbytes - 1))
    return requests


@settings(max_examples=50, deadline=None)
@given(
    trace=bursty_trace(),
    rate=st.floats(100.0, 50_000.0),
    burst=st.floats(0.5, 30.0),
)
def test_served_volume_never_exceeds_token_supply(trace, rate, burst):
    """Served bytes <= initial bucket + rate x elapsed, at every prefix."""
    cache = build_cache("PullLRU", 256, chunk_bytes=K)
    gate = EgressCapacityGate(
        cache, egress_bytes_per_second=rate, burst_seconds=burst
    )
    t0 = trace[0].t
    served = 0
    for request in trace:
        response = gate.handle(request)
        if response.served:
            served += request.num_bytes
        supply = rate * burst + rate * (request.t - t0)
        assert served <= supply + 1e-6
        assert 0.0 <= gate.utilization <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(trace=bursty_trace())
def test_unbounded_gate_is_transparent(trace):
    """With capacity far above demand the gate changes nothing."""
    plain = build_cache("PullLRU", 256, chunk_bytes=K)
    gated_cache = build_cache("PullLRU", 256, chunk_bytes=K)
    gate = EgressCapacityGate(
        gated_cache, egress_bytes_per_second=1e12, burst_seconds=60.0
    )
    for request in trace:
        a = plain.handle(request)
        b = gate.handle(request)
        assert a.decision == b.decision
        assert a.filled_chunks == b.filled_chunks
    assert gate.overload_redirects == 0
