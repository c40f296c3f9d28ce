"""Order statistics and metric-name rules shared by the benchmark.

Every figure the benchmark reports is a median over equal reps, printed
with its quartiles so a reader can see how far the reps disagreed.
Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the
"exclusive" method), the same definition used to judge run-to-run
spread across seeds.  Metric names and units are checked before they
are printed.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Sequence

__all__ = [
    "median",
    "quartiles",
    "summarize",
    "valid_name",
    "valid_unit",
]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``.

    One value is its own quartiles.  Two or more use
    ``statistics.quantiles(values, n=4)``.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's reps."""
    q1, _, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def valid_name(name: str) -> bool:
    """A metric or workload name: a letter or digit, then up to 63 of
    letters, digits, ``_``, ``.`` and ``-``."""
    return bool(_NAME.fullmatch(name))


def valid_unit(unit: str) -> bool:
    """A unit: 1 to 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``."""
    return bool(_UNIT.fullmatch(unit))
