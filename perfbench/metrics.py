"""Every number the benchmark reports, plus the statistics used to
reduce samples to those numbers.

Each metric declares its unit and its direction explicitly: ``higher``
or ``lower`` is better, or ``info`` for workload constants and
provenance that are recorded but never gated.  Nothing is inferred
from a metric's name.  Gated metrics are read from ``BENCHMARK.json``;
the ``info`` fields, which it has no key for, are declared here.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

HIGHER = "higher"
LOWER = "lower"
INFO = "info"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression
    bound: Optional[float] = None


#: The catalogue lives in BENCHMARK.json at the repository root: the
#: workloads, and every gated metric with its unit, direction and (for
#: end-to-end metrics) bound.  A layer a workload never calls reads 0
#: in its traced run.  Times named ``<layer>.*_s`` are self times (span
#: duration minus the time its child spans cover), except the
#: ``stream.*_s`` stage times, which are inclusive so they can be
#: cross-checked against the consolidator's own stage clock.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(**m) for m in BENCHMARK["end_to_end"]
)
PER_LAYER: Tuple[Metric, ...] = tuple(Metric(**m) for m in BENCHMARK["per_layer"])

#: Printed on the line before the result, never gated: workload
#: constants, provenance, and the sample counts behind percentiles.
INFO_FIELDS: Tuple[Metric, ...] = (
    Metric("workload", "name", INFO),
    Metric("seed", "count", INFO),
    Metric("repetitions", "count", INFO),
    Metric("records", "count", INFO),
    Metric("batches", "count", INFO),
    Metric("budget", "count", INFO),
    Metric("wait_samples", "count", INFO),
    Metric("wait_tail_pct", "%", INFO),
    Metric("wait_tail_pctl_ms", "ms", INFO),
    Metric("gauge_slowdown", "ratio", INFO),
    Metric("model_sha256", "hex", INFO),
)

#: Percentile levels a tail may be reported at, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``level`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[rank(len(ordered), level) - 1]


def rank(n: int, level: float) -> int:
    """1-based nearest rank of ``level`` among ``n`` samples (the
    epsilon keeps 99.9% of 10000 at rank 9990 despite binary floats)."""
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def tail_level(n: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest level in :data:`TAIL_LEVELS` that leaves at least
    ``beyond`` of ``n`` samples strictly above its rank.  Falls back to
    the median when even that has fewer (the sample count, reported
    beside it, then says the tail is thin)."""
    best = TAIL_LEVELS[0]
    for level in TAIL_LEVELS:
        if n - rank(n, level) >= beyond:
            best = level
    return best


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(level, value, sample count)`` under the tail rule."""
    level = tail_level(len(samples))
    return level, percentile(samples, level), len(samples)


def tail_mean(samples: Sequence[float]) -> float:
    """The mean of the samples ranked above the tail percentile (at
    least :data:`TAIL_BEYOND` of them when there are enough samples).

    A timing's tail is often a handful of long steps whose number
    depends on the input order, and one order statistic among them
    jumps between steps: the one-shot p95 of 400 question waits spread
    20% over input orders where the mean beyond it spread 4%.
    """
    ordered = sorted(samples)
    beyond = ordered[rank(len(ordered), tail_level(len(ordered))):] or ordered[-1:]
    return sum(beyond) / len(beyond)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    declared: Sequence[Metric],
) -> Dict:
    """The result object: exactly the declared metrics, each with its
    declared unit.  A missing metric is a bug in the workload."""
    missing = [m.name for m in declared if m.name not in values]
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in declared
        },
    }
