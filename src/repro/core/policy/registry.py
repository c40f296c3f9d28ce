"""One registry, every lane.

Registering a :class:`~repro.core.policy.kernel.PolicyKernel` here is
the *entire* integration surface for a new algorithm.  The registry
manufactures:

* a cache factory (``cache_factories()``) merged into
  :data:`repro.sim.runner.CACHE_FACTORIES` — object lane, packed lane
  and the vectorized kernel lane all come from
  :class:`~repro.core.policy.kernel.KernelCache`; ``cache_factory``
  also serves a policy under another algorithm name (``LFU`` is the
  ``LFU-PK`` policy under the baseline's name);
* a reference-oracle factory (``oracle_factories()``) merged into
  :data:`repro.verify.oracles.ORACLE_FACTORIES` — the auto-derived
  :class:`~repro.core.policy.kernel.OracleKernelCache`, which
  ``repro.verify.oracles`` replaces with a hand-written oracle where
  one exists (``OracleLfu`` for ``LFU-PK``, ``OraclePullLru`` and
  ``OracleGds``);
* kernel-lane names (``kernel_algorithm_names()``) merged into
  :data:`repro.verify.differential.KERNEL_ALGORITHMS` so the
  kernels-on/off equivalence matrix covers every policy;
* snapshot kinds (``snapshot_kinds()``) merged into
  :data:`repro.core.snapshot.SNAPSHOT_KINDS` as ``policy:<kind>``.

Downstream consumers (fuzz matrix, ``repro-verify --policies``, the CI
``policy-matrix`` job, the snapshot property test) iterate the registry,
so a new policy plugin is covered with zero edits outside its one file
plus a :func:`register_policy` call.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from repro.core.costs import CostModel
from repro.core.policy.kernel import KernelCache, OracleKernelCache, PolicyKernel
from repro.trace.requests import DEFAULT_CHUNK_BYTES

__all__ = [
    "PolicySpec",
    "POLICY_REGISTRY",
    "register_policy",
    "policy_for",
    "cache_factory",
    "cache_factories",
    "oracle_factories",
    "kernel_algorithm_names",
    "snapshot_kinds",
]


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: its names and its class."""

    #: algorithm name (key in CACHE_FACTORIES / ORACLE_FACTORIES)
    name: str
    #: snapshot kind slug (persisted as ``policy:<kind>``)
    kind: str
    policy_cls: Type[PolicyKernel]


#: name -> spec for every registered policy
POLICY_REGISTRY: Dict[str, PolicySpec] = {}
_KINDS: Dict[str, str] = {}  # kind -> name, for collision checks


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Register a policy, rejecting name/kind collisions."""
    if spec.name in POLICY_REGISTRY:
        raise ValueError(f"policy name {spec.name!r} already registered")
    if spec.kind in _KINDS:
        raise ValueError(
            f"policy kind {spec.kind!r} already registered by {_KINDS[spec.kind]!r}"
        )
    if spec.policy_cls.name != spec.name or spec.policy_cls.kind != spec.kind:
        raise ValueError(
            f"spec ({spec.name!r}, {spec.kind!r}) disagrees with policy class "
            f"attrs ({spec.policy_cls.name!r}, {spec.policy_cls.kind!r})"
        )
    POLICY_REGISTRY[spec.name] = spec
    _KINDS[spec.kind] = spec.name
    return spec


def policy_for(name: str, **kwargs) -> PolicyKernel:
    """Instantiate a fresh policy object for a registered name."""
    return POLICY_REGISTRY[name].policy_cls(**kwargs)


class _PolicyCacheFactory:
    """Callable factory with the CACHE_FACTORIES attribute contract
    (``offline``/``cost_sensitive`` are read off factory *values* by the
    scheduler and the equivalence suite).  Its caches carry ``name``;
    its signature lists the engine's parameters, then the policy's
    keyword knobs."""

    offline = False

    def __init__(self, spec: PolicySpec, name: str) -> None:
        self.spec = spec
        self.name = name
        self.cost_sensitive = spec.policy_cls.cost_sensitive
        self.__name__ = f"policy:{name}"
        engine = list(inspect.signature(self.__call__).parameters.values())[:-1]
        knobs = inspect.signature(spec.policy_cls).parameters.values()
        self.__signature__ = inspect.Signature(
            engine + [p.replace(kind=p.KEYWORD_ONLY) for p in knobs]
        )

    def __call__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        **kwargs,
    ) -> KernelCache:
        cache = KernelCache(
            self.spec.policy_cls(**kwargs),
            disk_chunks,
            chunk_bytes=chunk_bytes,
            cost_model=cost_model,
        )
        cache.name = self.name
        return cache


class _PolicyOracleFactory:
    """Auto-derived oracle factory (``build_oracle`` calling convention)."""

    cost_sensitive = False

    def __init__(self, spec: PolicySpec) -> None:
        self.spec = spec
        self.cost_sensitive = spec.policy_cls.cost_sensitive
        self.__name__ = f"oracle:{spec.name}"

    def __call__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        **kwargs,
    ) -> OracleKernelCache:
        return OracleKernelCache(
            self.spec.policy_cls(**kwargs),
            disk_chunks,
            chunk_bytes=chunk_bytes,
            cost_model=cost_model,
        )


def cache_factory(policy: str, name: Optional[str] = None) -> Callable:
    """KernelCache factory for registered ``policy``; its caches carry
    ``name`` (default: the policy's own name)."""
    return _PolicyCacheFactory(POLICY_REGISTRY[policy], name or policy)


def cache_factories() -> Dict[str, Callable]:
    """name -> KernelCache factory for every registered policy."""
    return {name: cache_factory(name) for name in POLICY_REGISTRY}


def oracle_factories() -> Dict[str, Callable]:
    """name -> auto-derived oracle factory for every registered policy."""
    return {name: _PolicyOracleFactory(spec) for name, spec in POLICY_REGISTRY.items()}


def kernel_algorithm_names() -> tuple:
    """Policy names for the kernel-lane equivalence matrix.

    Every KernelCache runs its own hoisted ``handle_span_block_kernel``
    walk (screen-less policies with every request undecided), so all
    registered policies belong on the matrix.
    """
    return tuple(sorted(POLICY_REGISTRY))


def snapshot_kinds() -> Dict[str, type]:
    """``policy:<kind>`` -> KernelCache, for SNAPSHOT_KINDS."""
    return {f"policy:{spec.kind}": KernelCache for spec in POLICY_REGISTRY.values()}
