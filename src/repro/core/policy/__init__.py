"""Pluggable policy kernels: one file per policy, every lane for free.

``repro.core.policy`` turns algorithm work from five-subsystem surgery
(object lane, packed lane, vectorized kernels, oracles, probes) into a
single-file plugin: subclass
:class:`~repro.core.policy.kernel.PolicyKernel`, register a
:class:`~repro.core.policy.registry.PolicySpec`, and the registry wires
the policy into ``CACHE_FACTORIES``, ``ORACLE_FACTORIES``,
``KERNEL_ALGORITHMS``, ``SNAPSHOT_KINDS``, the fuzz matrix and the CI
``policy-matrix`` job.  See DESIGN.md §15 for the porting recipe.

Built-in policies:

* ``LFU-PK`` — the LFU baseline, the one production LFU: ``LFU`` in
  ``CACHE_FACTORIES`` is this policy under the baseline's name, and the
  hand-written :class:`~repro.verify.oracles.OracleLfu` is the oracle
  of both names;
* ``Retention`` — retention-aware chunk caching (arXiv:1512.03274);
* ``qLRU`` — tunable insertion-position LRU (arXiv:1806.10853);
* ``PullLRU`` — fetch-on-miss LRU, the paper's §2 "standard solution",
  checked against the hand-written
  :class:`~repro.verify.oracles.OraclePullLru`;
* ``GDS`` — Greedy-Dual-Size (§3), checked against the hand-written
  :class:`~repro.verify.oracles.OracleGds`.
"""

from repro.core.policy.gds import GdsPolicy
from repro.core.policy.kernel import KernelCache, OracleKernelCache, PolicyKernel
from repro.core.policy.lfu_port import LfuKernelPolicy
from repro.core.policy.pull_lru import PullLruPolicy
from repro.core.policy.qlru import TunableLruPolicy
from repro.core.policy.registry import (
    POLICY_REGISTRY,
    PolicySpec,
    cache_factories,
    cache_factory,
    kernel_algorithm_names,
    oracle_factories,
    policy_for,
    register_policy,
    snapshot_kinds,
)
from repro.core.policy.retention import RetentionAwarePolicy

__all__ = [
    "PolicyKernel",
    "KernelCache",
    "OracleKernelCache",
    "PolicySpec",
    "POLICY_REGISTRY",
    "register_policy",
    "policy_for",
    "cache_factory",
    "cache_factories",
    "oracle_factories",
    "kernel_algorithm_names",
    "snapshot_kinds",
    "LfuKernelPolicy",
    "RetentionAwarePolicy",
    "TunableLruPolicy",
    "PullLruPolicy",
    "GdsPolicy",
]

register_policy(PolicySpec(name="LFU-PK", kind="lfu", policy_cls=LfuKernelPolicy))
register_policy(
    PolicySpec(name="Retention", kind="retention", policy_cls=RetentionAwarePolicy)
)
register_policy(PolicySpec(name="qLRU", kind="qlru", policy_cls=TunableLruPolicy))
register_policy(PolicySpec(name="PullLRU", kind="pull-lru", policy_cls=PullLruPolicy))
register_policy(PolicySpec(name="GDS", kind="gds", policy_cls=GdsPolicy))
