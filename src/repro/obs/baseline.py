"""BENCH regression gates (``repro bench check`` / ``bench baseline``).

``benchmarks/conftest.py`` appends a provenance-stamped JSON-lines row
to ``benchmarks/results/BENCH_<name>.json`` for every bench run — per
test timings plus each bench's ``record_result`` headline numbers
(speedups, overheads, throughputs).  Until now nothing *read* that
history, so a 2x perf regression shipped silently as one more row.
This module closes the loop:

* :func:`load_history` — torn-tolerant reader over a results
  directory, series-keyed: one series per ``(bench, test)`` wall-clock
  timing and one per ``(bench, headline field)``;
* :func:`build_baseline` — the committed reference: per-series median
  (robust to one noisy run) over the history, with the metric's
  direction.  A row declares each field's direction under
  ``"directions"`` (``higher``, ``lower``, or ``info`` for workload
  constants and other never-gated context), and only its declared
  ``higher``/``lower`` fields become series.  Rows recorded before
  declarations existed fall back to inferring the direction from the
  field name (:func:`direction_of`);
* :func:`check` — compare each series' *latest* value against the
  baseline with a multiplicative tolerance; a ``lower`` metric
  regresses when ``latest > baseline * tolerance``, a ``higher``
  metric when ``latest < baseline / tolerance``.

``repro bench check`` exits nonzero on any regression, which is what
makes the CI perf-smoke job self-enforcing: the benches append fresh
rows, then the gate compares them against ``benchmarks/baseline.json``
committed from known-good history.

The tolerance is multiplicative and deliberately generous by default
(:data:`DEFAULT_TOLERANCE` = 1.5): shared CI runners are noisy, and
the gate's job is catching *step-function* regressions (an accidental
O(n^2), a dropped cache), not 5% jitter.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

PathLike = Union[str, Path]

Row = Dict[str, object]

#: default multiplicative tolerance: a lower-is-better series fails at
#: > 1.5x its baseline, a higher-is-better series at < 1/1.5 of it.
DEFAULT_TOLERANCE = 1.5

#: provenance / bookkeeping fields that are never perf series.
_NON_METRIC_FIELDS = {
    "bench",
    "test",
    "outcome",
    "git",
    "python",
    "cpus",
    "scale",
    "timestamp",
    "rows",
    "directions",
}

#: what a row may declare per field under ``"directions"``; ``info``
#: fields are recorded context (config constants) and never gated.
DIRECTIONS = ("higher", "lower", "info")

#: headline-field name fragments that mean *higher* is better; every
#: other numeric field (seconds, overheads, byte counts) gates as
#: lower-is-better, the conservative default for a perf gate.
_HIGHER_IS_BETTER = ("speedup", "throughput", "ratio", "per_second")


def direction_of(field: str) -> str:
    """``"higher"`` or ``"lower"`` — which way the metric improves,
    guessed from the field name.  Only rows without declared
    ``"directions"`` (recorded before declarations existed) use it."""
    lowered = field.lower()
    if any(marker in lowered for marker in _HIGHER_IS_BETTER):
        return "higher"
    return "lower"


def _iter_rows(path: Path) -> Iterator[Row]:
    """Rows of one BENCH file; skips torn/corrupt lines (the file is
    append-per-run across many machines — one bad line must not take
    the whole history gate down)."""
    try:
        data = path.read_text(encoding="utf-8")
    except OSError:
        return
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            yield row


def _series_of(bench: str, row: Row) -> List[Tuple[str, float, str]]:
    """The ``(series key, value, direction)`` points of one row.

    Auto test rows (``test`` + ``seconds``) contribute their wall
    clock only when the test passed — a failed run's timing measures
    the failure, not the code.  Headline rows contribute every numeric
    field that is not provenance, with the direction the row declares
    for it (``info`` when a declaring row leaves it out) or, in a row
    without declarations, the one inferred from its name.
    """
    points: List[Tuple[str, float, str]] = []
    if "test" in row:
        if row.get("outcome") == "passed" and isinstance(
            row.get("seconds"), (int, float)
        ):
            points.append(
                (f"{bench}::{row['test']}", float(row["seconds"]), "lower")
            )
        return points
    declared = row.get("directions")
    for field, value in row.items():
        if field in _NON_METRIC_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if isinstance(declared, dict):
            direction = declared.get(field, "info")
        else:
            direction = direction_of(field)
        points.append((f"{bench}:{field}", float(value), direction))
    return points


def _load(results_dir: PathLike) -> Tuple[Dict[str, List[float]], Dict[str, str]]:
    """Every gated series' points in append order, and its direction.

    The latest row decides a series' direction, so declaring a field
    ``info`` retires the series its older, undeclared rows started.
    """
    series: Dict[str, List[float]] = {}
    directions: Dict[str, str] = {}
    root = Path(results_dir)
    for path in sorted(root.glob("BENCH_*.json")):
        bench = path.stem[len("BENCH_"):]
        for row in _iter_rows(path):
            for key, value, direction in _series_of(bench, row):
                series.setdefault(key, []).append(value)
                directions[key] = direction
    gated = {k: v for k, v in series.items() if directions[k] != "info"}
    return gated, directions


def load_history(results_dir: PathLike) -> Dict[str, List[float]]:
    """All series in a results directory, points in append order."""
    return _load(results_dir)[0]


def build_baseline(
    results_dir: PathLike,
    min_points: int = 1,
    max_spread: float = 4.0,
) -> Dict[str, object]:
    """The committed reference: per-series median and direction.

    Series whose own history already varies by more than
    ``max_spread`` (max/min) are excluded and listed under
    ``"skipped"``: a multiplicative gate on a series that swings 10x
    between identical-code runs fires on noise, never on regressions.
    Series with non-positive values are excluded for the same reason —
    a multiplicative tolerance has no meaning at or below zero.
    """
    series, directions = _load(results_dir)
    metrics: Dict[str, Dict[str, object]] = {}
    skipped: Dict[str, str] = {}
    for key, values in sorted(series.items()):
        if len(values) < min_points:
            continue
        if min(values) <= 0:
            skipped[key] = "non-positive values"
            continue
        spread = max(values) / min(values)
        if len(values) >= 2 and spread > max_spread:
            skipped[key] = (
                f"unstable history ({spread:.1f}x spread "
                f"> {max_spread:g}x)"
            )
            continue
        metrics[key] = {
            "baseline": round(statistics.median(values), 9),
            "direction": directions[key],
            "points": len(values),
        }
    return {
        "version": 1,
        "max_spread": max_spread,
        "metrics": metrics,
        "skipped": skipped,
    }


def save_baseline(baseline: Dict[str, object], path: PathLike) -> None:
    Path(path).write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_baseline(path: PathLike) -> Dict[str, object]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(f"{path}: not a baseline file")
    return data


class CheckResult:
    """Outcome of one series' comparison."""

    __slots__ = ("series", "baseline", "latest", "direction", "limit", "ok")

    def __init__(self, series, baseline, latest, direction, limit, ok):
        self.series = series
        self.baseline = baseline
        self.latest = latest
        self.direction = direction
        self.limit = limit
        self.ok = ok

    def describe(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        op = "<=" if self.direction == "lower" else ">="
        return (
            f"{verdict:<10} {self.series}: latest={self.latest:.6g} "
            f"{op} limit={self.limit:.6g} "
            f"(baseline={self.baseline:.6g}, {self.direction} is better)"
        )


def check(
    results_dir: PathLike,
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[CheckResult], List[str]]:
    """Gate the latest point of every baselined series.

    Returns ``(results, missing)`` where ``missing`` names baselined
    series with no point in the history at all — reported but not
    failed, because benches legitimately run as subsets (CI smoke runs
    three of five files).
    """
    if tolerance <= 1.0:
        raise ValueError("tolerance must be > 1.0 (multiplicative)")
    history = load_history(results_dir)
    metrics: Dict[str, Dict[str, object]] = baseline.get("metrics", {})
    results: List[CheckResult] = []
    missing: List[str] = []
    for series, entry in sorted(metrics.items()):
        points = history.get(series)
        if not points:
            missing.append(series)
            continue
        latest = points[-1]
        reference = float(entry["baseline"])
        direction = str(entry.get("direction", "lower"))
        if direction == "higher":
            limit = reference / tolerance
            ok = latest >= limit
        else:
            limit = reference * tolerance
            ok = latest <= limit
        results.append(
            CheckResult(series, reference, latest, direction, limit, ok)
        )
    return results, missing
