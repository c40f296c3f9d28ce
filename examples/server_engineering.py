#!/usr/bin/env python3
"""Operational models behind alpha_F2R: disks, egress, co-location.

Section 2 of the paper grounds the ingress-vs-redirect preference in
three operational realities.  This example makes each one measurable:

1. **Disk write interference** — "for every extra write-block operation
   we lose 1.2-1.3 reads": compare the read capacity destroyed by an
   eager cache-all policy vs Cafe at alpha = 2.
2. **Saturated egress** — a server at its serving capacity gains
   nothing from ingress: gate the same trace at a fixed egress rate and
   compare what different alpha settings ingress for identical egress.
3. **Co-located sharding** — "dividing the file ID space over
   co-located servers to balance load and minimize co-located
   duplicates": split one location's disk across four shards.

Run:  python examples/server_engineering.py
"""

from repro import CafeCache, CostModel, SERVER_PROFILES, TraceGenerator, replay
from repro.cdn import ShardedServer
from repro.sim import DiskModel, EgressCapacityGate, analyze_disk_load
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import build_cache


def main() -> None:
    profile = SERVER_PROFILES["europe"].scaled(0.06)
    trace = TraceGenerator(profile).generate(days=10.0)
    print(f"{len(trace)} requests over 10 days\n")

    # -- 1. disk write interference ------------------------------------------
    print("1. Disk write interference (alpha = 2):")
    results = {
        algo: replay(build_cache(algo, 512, alpha_f2r=2.0), trace)
        for algo in ("PullLRU", "Cafe")
    }
    # provision the disk array for Cafe's peak load + 15% headroom
    probe = DiskModel(read_blocks_per_second=1.0)
    cafe_peak = max(
        s.read_blocks_per_second + probe.write_read_penalty * s.write_blocks_per_second
        for s in analyze_disk_load(results["Cafe"], probe).samples
    )
    model = DiskModel(read_blocks_per_second=1.15 * cafe_peak)
    print(f"   (disk array provisioned at {model.read_blocks_per_second:.1f} "
          f"read blocks/s = Cafe's peak + 15%)")
    for name, result in results.items():
        report = analyze_disk_load(result, model)
        print(
            f"   {name:>8}: reads lost to writes = "
            f"{report.reads_lost_to_writes:,.0f} blocks, "
            f"overloaded hours = {report.overloaded_buckets}/{len(report.samples)}, "
            f"peak util = {report.peak_utilization:.2f}"
        )

    # -- 2. saturated egress ---------------------------------------------------
    demand = sum(r.num_bytes for r in trace)
    duration = trace[-1].t - trace[0].t
    rate = 0.35 * demand / duration
    print(f"\n2. Egress gated at {rate / 1e3:.0f} KB/s "
          f"(~35% of mean demand): alpha only changes *ingress*:")
    for alpha in (1.0, 2.0):
        cache = CafeCache(512, cost_model=CostModel(alpha))
        gate = EgressCapacityGate(
            cache, egress_bytes_per_second=rate,
            burst_seconds=(16 << 20) / rate,
        )
        metrics = MetricsCollector(cache.cost_model)
        for r in trace:
            metrics.record(r, gate.handle(r))
        totals = metrics.totals()
        print(
            f"   alpha={alpha:g}: egress={totals.egress_bytes / 1e9:6.2f} GB  "
            f"ingress={totals.ingress_bytes / 1e9:5.2f} GB  "
            f"(overload redirects: {gate.overload_redirects})"
        )
    print("   -> same served volume; the alpha=1 server paid extra "
          "ingress for nothing (the paper's 'wasted ingress').")

    # -- 3. co-located sharding -----------------------------------------------
    print("\n3. One 512-chunk location vs 4 x 128-chunk shards (alpha = 2):")
    mono = replay(CafeCache(512, cost_model=CostModel(2.0)), trace).steady
    shards = ShardedServer(
        [CafeCache(128, cost_model=CostModel(2.0)) for _ in range(4)]
    )
    sharded_result = replay(shards, trace)
    sharded = sharded_result.steady
    print(f"   monolithic: eff={mono.efficiency:.3f}")
    print(f"   4 shards:   eff={sharded.efficiency:.3f} "
          f"(load balance max/mean = {shards.load_balance():.2f}, "
          f"no cross-shard duplicates by construction)")


if __name__ == "__main__":
    main()
