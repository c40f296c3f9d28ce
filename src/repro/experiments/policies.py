"""Policy-kernel family vs the paper's caches, figure-5 style.

The pluggable policies (DESIGN.md §15) replayed over the same
operating-point sweep as Figure 5: one (ingress, redirect) point per
policy per ``alpha_F2R``, against xLRU and Cafe as the paper anchors
and PullLRU as the no-defense baseline.

What to look for:

* **Retention** (arXiv:1512.03274) — by future-dating early-segment
  scores it keeps the chunks the session generator's abandonment skew
  actually re-reaches, so its efficiency beats the position-blind
  PullLRU/LFU family at equal disk, while its fixed hit-count
  admission keeps ingress below PullLRU's;
* **qLRU** (arXiv:1806.10853) — the ``q`` insertion position trades
  scan resistance against recency reactivity; at ``q = 1`` it
  reproduces PullLRU on spans that fit the disk (for a larger span
  qLRU re-scores the resident chunks and PullLRU does not), the
  default ``q = 0.5`` lands between PullLRU and the admission-gated
  policies;
* neither new policy consults the cost model, so — like PullLRU —
  their points barely move with alpha, which is exactly the paper's
  argument for cost-aware admission (xLRU/Cafe comply with alpha and
  walk left as ingress gets costlier).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    ExperimentResult,
    ExperimentScale,
    alpha_sweep_cached,
)

__all__ = ["run", "SERVER", "DEFAULT_ALPHAS", "ALGORITHMS"]

SERVER = "europe"
#: left-to-right order of the paper's Figure 5 data points
DEFAULT_ALPHAS: Sequence[float] = (4.0, 2.0, 1.0, 0.5)
#: paper anchors, the no-defense baseline, then the policy-kernel family
ALGORITHMS: Sequence[str] = (
    "xLRU",
    "Cafe",
    "PullLRU",
    "LFU-PK",
    "Retention",
    "qLRU",
)


def run(
    scale: ExperimentScale,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> ExperimentResult:
    """Operating points for the policy-kernel family vs xLRU/Cafe."""
    sweep = alpha_sweep_cached(
        SERVER,
        scale,
        alphas=tuple(sorted(set(alphas))),
        algorithms=ALGORITHMS,
    )
    rows = []
    for alpha in alphas:
        for algo in ALGORITHMS:
            s = sweep[alpha][algo].steady
            rows.append(
                {
                    "alpha": alpha,
                    "algorithm": algo,
                    "ingress_fraction": s.ingress_fraction,
                    "redirect_ratio": s.redirect_ratio,
                    "efficiency": s.efficiency,
                }
            )
    return ExperimentResult(
        name="Policy family",
        description=(
            f"policy-kernel operating points (ingress vs redirect) on {SERVER}"
        ),
        rows=rows,
    )
