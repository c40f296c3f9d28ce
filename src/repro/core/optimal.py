"""Optimal Cache: the IP formulation and LP relaxation of Section 7.

The full request sequence is encoded as a binary matrix ``m[j, t]``
(chunk ``j`` appears in the ``t``-th request).  Decision variables:

* ``x[j, t]`` — chunk ``j`` is on disk at step ``t`` (``x[j, 0] = 0``);
* ``a[t]`` — request ``t`` is served (1) or redirected (0);
* ``y[j, t]`` — fill indicators linearizing the objective (Eq. 11).

subject to (Eqs. 10b–10f, 12a–12c)::

    x[j, t] >= a[t]            where m[j, t] = 1   (served => present)
    x[j, t] <= x[j, t-1]       where m[j, t] = 0   (no useless fill)
    sum_j x[j, t] <= D_c                            (disk capacity)
    y[j, t] >= x[j, t] - x[j, t-1],   0 <= y <= 1

minimizing ``sum y * C_F + sum_t (1 - a[t]) * C_R * |R_t|_c``.

One deliberate deviation from the paper's Eq. 11: the paper counts
fills as ``|x[j,t] - x[j,t-1]| / 2``, assuming a cache "initially
filled with garbage" where every fill pairs with an eviction.  From an
empty start that halves the cost of fills into free space (a first fill
flips only one bit), making fills spuriously cheap.  Since evictions
themselves cost nothing, the *positive part* ``y >= x_t - x_{t-1}``
(minimization drives ``y`` down to exactly ``max(0, Δx)``) counts fills
exactly in both regimes, which also drops half the linearization
constraints.

Solved with HiGHS via :func:`scipy.optimize.milp`: with binary
integrality this is the exact optimum; relaxing to ``[0, 1]`` gives the
LP bound of Section 9.1 — a cost *below* which no caching algorithm can
go, i.e. an upper bound on cache efficiency.  Costs here are in chunk
units (the formulation's ``|R_t|_c``), so efficiencies derived from it
are chunk-normalized; compare against chunk-normalized online metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import CacheResponse, Decision, VideoCache
from repro.core.costs import CostModel
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["OptimalCache", "OptimalSolution", "solve_optimal"]

#: Refuse to build models beyond this many variables — the paper itself
#: runs Optimal only on down-sampled data (Section 9.1).
DEFAULT_MAX_VARIABLES = 4_000_000


@dataclass
class OptimalSolution:
    """Outcome of one Optimal Cache solve."""

    relaxed: bool
    status: str
    #: Eq. 11 objective in chunk-cost units.
    objective_cost: float
    #: chunk-normalized Eq. 2 efficiency (upper bound when relaxed)
    efficiency: float
    total_requested_chunks: int
    fill_chunks: float
    redirected_chunks: float
    #: per-request serve decision; None for a relaxed (fractional) solve
    decisions: Optional[List[bool]] = None
    #: chunk -> sorted request steps at which the chunk is filled
    fills_at: Dict[ChunkId, List[int]] = field(default_factory=dict)


def solve_optimal(
    requests: Sequence[Request],
    disk_chunks: int,
    cost_model: CostModel | None = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    relaxed: bool = True,
    max_variables: int = DEFAULT_MAX_VARIABLES,
    time_limit: Optional[float] = None,
) -> OptimalSolution:
    """Build and solve the Section 7 program over ``requests``.

    ``relaxed=True`` solves the LP relaxation (the efficiency upper
    bound); ``relaxed=False`` solves the exact MILP (small scales only).
    """
    # Imported here, not at module level: scipy is most of the cost of
    # ``import repro``, and only this solve uses it.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not requests:
        raise ValueError("cannot optimize an empty request sequence")
    if disk_chunks <= 0:
        raise ValueError(f"disk_chunks must be positive, got {disk_chunks}")
    cost_model = cost_model if cost_model is not None else CostModel()

    # Index unique chunks and request membership.
    chunk_index: Dict[ChunkId, int] = {}
    request_chunks: List[List[int]] = []
    for r in requests:
        members = []
        for chunk in r.chunk_ids(chunk_bytes):
            j = chunk_index.setdefault(chunk, len(chunk_index))
            members.append(j)
        request_chunks.append(members)

    num_chunks = len(chunk_index)
    num_steps = len(requests)
    n_x = num_chunks * num_steps
    n_vars = 2 * n_x + num_steps
    if n_vars > max_variables:
        raise ValueError(
            f"model has {n_vars} variables (J={num_chunks}, T={num_steps}); "
            f"limit is {max_variables} — down-sample the trace (Section 9.1)"
        )

    cf, cr = cost_model.fill_cost, cost_model.redirect_cost

    def x_var(j: int, t: int) -> int:
        # t is 1-based; x[j, 0] is the constant 0, not a variable.
        return j * num_steps + (t - 1)

    def y_var(j: int, t: int) -> int:
        return n_x + j * num_steps + (t - 1)

    def a_var(t: int) -> int:
        return 2 * n_x + (t - 1)

    c = np.zeros(n_vars)
    c[n_x : 2 * n_x] = cf
    request_sizes = np.array([len(m) for m in request_chunks], dtype=float)
    c[2 * n_x :] = -cr * request_sizes
    objective_const = cr * float(request_sizes.sum())

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    upper: List[float] = []
    row = 0

    def add(entries: List[tuple[int, float]], ub: float) -> None:
        nonlocal row
        for col, val in entries:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        upper.append(ub)
        row += 1

    member_sets = [set(m) for m in request_chunks]
    for t in range(1, num_steps + 1):
        members = member_sets[t - 1]
        for j in range(num_chunks):
            xt = x_var(j, t)
            if j in members:
                # a[t] - x[j, t] <= 0   (Eq. 10d)
                add([(a_var(t), 1.0), (xt, -1.0)], 0.0)
                # x[j, t] - x[j, t-1] <= a[t]: fills happen only on
                # served requests — Problem 2's decision (1) bundles
                # fill with serve; the paper's IP leaves this implicit
                # (cost-discouraged), making it explicit keeps the
                # replayed schedule faithful and speeds up the solve.
                if t == 1:
                    add([(xt, 1.0), (a_var(t), -1.0)], 0.0)
                else:
                    add(
                        [(xt, 1.0), (x_var(j, t - 1), -1.0), (a_var(t), -1.0)],
                        0.0,
                    )
            elif t == 1:
                # x[j, 1] <= x[j, 0] = 0   (Eq. 10e at t=1)
                add([(xt, 1.0)], 0.0)
            else:
                # x[j, t] - x[j, t-1] <= 0   (Eq. 10e)
                add([(xt, 1.0), (x_var(j, t - 1), -1.0)], 0.0)
            # y >= x[j, t] - x[j, t-1]   (Eq. 12a; the positive part
            # suffices since evictions are free — see module docstring)
            yt = y_var(j, t)
            if t == 1:
                add([(xt, 1.0), (yt, -1.0)], 0.0)
            else:
                add([(xt, 1.0), (x_var(j, t - 1), -1.0), (yt, -1.0)], 0.0)
        # sum_j x[j, t] <= D_c   (Eq. 10f)
        add([(x_var(j, t), 1.0) for j in range(num_chunks)], float(disk_chunks))

    a_matrix = sparse.csc_array(
        (vals, (rows, cols)), shape=(row, n_vars), dtype=float
    )
    constraints = LinearConstraint(a_matrix, -np.inf, np.array(upper))
    bounds = Bounds(np.zeros(n_vars), np.ones(n_vars))
    integrality = np.zeros(n_vars)
    if not relaxed:
        integrality[:n_x] = 1  # x binary
        integrality[2 * n_x :] = 1  # a binary; y follows from binary x

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options,
    )
    if result.x is None:
        raise RuntimeError(f"optimal-cache solve failed: {result.message}")

    solution = np.asarray(result.x)
    objective = float(result.fun) + objective_const
    total_chunks = int(request_sizes.sum())
    fill_total = float(solution[n_x : 2 * n_x].sum())
    a_values = solution[2 * n_x :]
    redirected = float(((1.0 - a_values) * request_sizes).sum())
    efficiency = 1.0 - objective / total_chunks

    decisions: Optional[List[bool]] = None
    fills_at: Dict[ChunkId, List[int]] = {}
    if not relaxed:
        decisions = [bool(round(v)) for v in a_values]
        x_matrix = np.rint(solution[:n_x]).reshape(num_chunks, num_steps)
        prev = np.zeros(num_chunks)
        inv_index = {j: chunk for chunk, j in chunk_index.items()}
        for t in range(1, num_steps + 1):
            col = x_matrix[:, t - 1]
            for j in np.nonzero(col > prev)[0]:
                fills_at.setdefault(inv_index[int(j)], []).append(t)
            prev = col

    return OptimalSolution(
        relaxed=relaxed,
        status=result.message,
        objective_cost=objective,
        efficiency=efficiency,
        total_requested_chunks=total_chunks,
        fill_chunks=fill_total,
        redirected_chunks=redirected,
        decisions=decisions,
        fills_at=fills_at,
    )


class OptimalCache(VideoCache):
    """Replayable exact Optimal Cache (Problem 2 solved to optimality).

    :meth:`prepare` solves the MILP; :meth:`handle` then replays the
    precomputed schedule so the cache plugs into the same simulation
    engine as the online algorithms.  Only feasible at small scales —
    use :func:`solve_optimal` with ``relaxed=True`` for the LP bound at
    slightly larger ones.
    """

    name = "Optimal"
    offline = True

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        max_variables: int = DEFAULT_MAX_VARIABLES,
        time_limit: Optional[float] = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._max_variables = max_variables
        self._time_limit = time_limit
        self._solution: Optional[OptimalSolution] = None
        self._cursor = 0
        self._disk: set[ChunkId] = set()
        self._fill_schedule: Dict[int, List[ChunkId]] = {}
        self._requests: Sequence[Request] = ()

    def prepare(self, requests: Sequence[Request]) -> None:
        self._solution = solve_optimal(
            requests,
            self.disk_chunks,
            cost_model=self.cost_model,
            chunk_bytes=self.chunk_bytes,
            relaxed=False,
            max_variables=self._max_variables,
            time_limit=self._time_limit,
        )
        self._requests = requests
        self._cursor = 0
        self._disk.clear()
        self._fill_schedule = {}
        for chunk, steps in self._solution.fills_at.items():
            for t in steps:
                self._fill_schedule.setdefault(t, []).append(chunk)

    @property
    def solution(self) -> OptimalSolution:
        if self._solution is None:
            raise RuntimeError("OptimalCache not prepared")
        return self._solution

    def handle(self, request: Request) -> CacheResponse:
        if self._solution is None or self._solution.decisions is None:
            raise RuntimeError("OptimalCache.handle() before prepare()")
        if (
            self._cursor >= len(self._requests)
            or self._requests[self._cursor] != request
        ):
            raise RuntimeError(
                "requests must be replayed to OptimalCache in exactly the "
                "order given to prepare()"
            )
        step = self._cursor + 1
        self._cursor += 1

        fills = set(self._fill_schedule.get(step, ()))
        evicted = 0
        for chunk in fills:
            if len(self._disk) >= self.disk_chunks:
                # The x matrix decides what leaves; replaying it exactly
                # would mean storing the whole matrix.  The fill
                # schedule plus the capacity bound gives identical
                # ingress/redirect accounting, so drop an arbitrary
                # resident that is not being filled right now.
                victim = next(c for c in self._disk if c not in fills)
                self._disk.remove(victim)
                evicted += 1
            self._disk.add(chunk)

        if self._solution.decisions[step - 1]:
            return CacheResponse(
                Decision.SERVE, filled_chunks=len(fills), evicted_chunks=evicted
            )
        return CacheResponse(Decision.REDIRECT)

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._disk

    def __len__(self) -> int:
        return len(self._disk)
