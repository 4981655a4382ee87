"""BENCH regression gates (``repro bench check`` / ``bench baseline``).

``benchmarks/conftest.py`` appends a provenance-stamped JSON-lines row
to ``benchmarks/results/BENCH_<name>.json`` for every bench run — per
test timings plus each bench's ``record_result`` headline numbers
(speedups, overheads, throughputs).  Until now nothing *read* that
history, so a 2x perf regression shipped silently as one more row.
This module closes the loop:

* :func:`load_history` — lenient reader (:class:`repro.jsonl.TailReader`,
  which skips torn and foreign lines) over a results directory,
  series-keyed: one series per ``(bench, test)`` wall-clock
  timing and one per ``(bench, headline field)``;
* :func:`build_baseline` — the committed reference: per-series median
  (robust to one noisy run) over the history, with the metric's
  direction.  A row declares each field's direction under
  ``"directions"`` (``higher``, ``lower``, or ``info`` for workload
  constants and other never-gated context), and only its declared
  ``higher``/``lower`` fields become series.  An undeclared field is
  ``info``: a name never says which way a number improves (a
  ``precision`` read as lower-is-better would gate quality the wrong
  way);
* :func:`check` — compare each series' *latest* value against the
  baseline with a multiplicative tolerance; a ``lower`` metric
  regresses when ``latest > baseline * tolerance``, a ``higher``
  metric when ``latest < baseline / tolerance``.

Every row records the ``REPRO_BENCH_SCALE`` it ran at, and a run at
another scale does other work.  So a baseline is built at one scale
(the newest row's, recorded as ``"scale"``), and :func:`check` gates
only rows at that scale: the rest can neither fail nor pass the gate.

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
from typing import Dict, List, Optional, Tuple, Union

from ..jsonl import TailReader

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


def _series_of(bench: str, row: Row) -> List[Tuple[str, float, str]]:
    """The ``(series key, value, direction)`` points of one row.

    Auto timing rows — the ones the autouse hook writes, recognized by
    their ``outcome`` field — contribute their wall clock only when the
    test passed: a failed run's timing measures the failure, not the
    code.  Headline rows (which may name their ``test`` too) contribute
    every numeric field that is not provenance, with the direction the
    row declares for it (``info`` when the row leaves it undeclared).
    """
    points: List[Tuple[str, float, str]] = []
    if "outcome" in row:
        if row.get("outcome") == "passed" and isinstance(
            row.get("seconds"), (int, float)
        ):
            points.append(
                (f"{bench}::{row['test']}", float(row["seconds"]), "lower")
            )
        return points
    declared = row.get("directions")
    if not isinstance(declared, dict):
        declared = {}
    for field, value in row.items():
        if field in _NON_METRIC_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        direction = declared.get(field, "info")
        points.append((f"{bench}:{field}", float(value), direction))
    return points


def _rows(results_dir: PathLike) -> List[Tuple[str, Row]]:
    """Every ``(bench, row)`` of a results directory, in file order."""
    rows: List[Tuple[str, Row]] = []
    for path in sorted(Path(results_dir).glob("BENCH_*.json")):
        bench = path.stem[len("BENCH_"):]
        # Lenient on purpose: the file is appended per run across many
        # machines, and one bad line must not take the history gate down.
        rows.extend((bench, row) for row in TailReader(path).poll())
    return rows


def _scale_of(row: Row) -> Optional[float]:
    """The ``REPRO_BENCH_SCALE`` a row was recorded at (``None`` on
    rows older than the field)."""
    scale = row.get("scale")
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        return None
    return float(scale)


def _newest_scale(rows: List[Tuple[str, Row]]) -> Optional[float]:
    """The scale of the newest row (latest ``timestamp``, then the
    last one read): the scale a baseline built now is built at."""

    def stamp(item: Tuple[str, Row]) -> float:
        value = item[1].get("timestamp")
        return float(value) if isinstance(value, (int, float)) else float("-inf")

    if not rows:
        return None
    return _scale_of(max(reversed(rows), key=stamp)[1])


#: per series, the scales of the rows a scale filter left out
OffScale = Dict[str, List[Optional[float]]]


def _load(
    rows: List[Tuple[str, Row]], scale: Optional[float] = None
) -> Tuple[Dict[str, List[float]], Dict[str, str], OffScale]:
    """Every gated series' points in append order, its direction, and
    per series the scales of the rows left out.

    With ``scale`` only rows recorded at that scale count: a bench run
    at another scale does other work, so its numbers neither fail nor
    pass a baseline built at this one.  ``None`` counts every row (a
    baseline from before scales were recorded).

    The latest row decides a series' direction, so declaring a field
    ``info`` (or leaving it undeclared) retires the series older rows
    started.
    """
    series: Dict[str, List[float]] = {}
    directions: Dict[str, str] = {}
    other: OffScale = {}
    for bench, row in rows:
        points = _series_of(bench, row)
        row_scale = _scale_of(row)
        if scale is not None and row_scale != scale:
            for key, _value, direction in points:
                if direction != "info":
                    other.setdefault(key, []).append(row_scale)
            continue
        for key, value, direction in points:
            series.setdefault(key, []).append(value)
            directions[key] = direction
    gated = {k: v for k, v in series.items() if directions[k] != "info"}
    return gated, directions, other


def _off_scale_reason(scales: List[Optional[float]], scale: float) -> str:
    shown = ", ".join(
        sorted({"unrecorded" if s is None else f"{s:g}" for s in scales})
    )
    return f"{len(scales)} row(s) at scale {shown}, baseline is at {scale:g}"


def load_history(
    results_dir: PathLike, scale: Optional[float] = None
) -> Dict[str, List[float]]:
    """All series in a results directory, points in append order (only
    rows recorded at ``scale`` when one is given)."""
    return _load(_rows(results_dir), scale)[0]


def build_baseline(
    results_dir: PathLike,
    min_points: int = 1,
    max_spread: float = 4.0,
) -> Dict[str, object]:
    """The committed reference: per-series median and direction.

    The baseline is built at the scale of the newest row (``"scale"``
    in the result): only rows at that scale count, and series seen only
    at other scales are listed under ``"skipped"``.

    Series whose own history already varies by more than
    ``max_spread`` (max/min) are excluded and listed under
    ``"skipped"``: a multiplicative gate on a series that swings 10x
    between identical-code runs fires on noise, never on regressions.
    Series with non-positive values are excluded for the same reason —
    a multiplicative tolerance has no meaning at or below zero.
    """
    rows = _rows(results_dir)
    scale = _newest_scale(rows)
    series, directions, other = _load(rows, scale)
    metrics: Dict[str, Dict[str, object]] = {}
    skipped: Dict[str, str] = {
        key: _off_scale_reason(scales, scale)
        for key, scales in other.items()
        if key not in series
    }
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
        "scale": scale,
        "max_spread": max_spread,
        "metrics": metrics,
        "skipped": dict(sorted(skipped.items())),
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
) -> Tuple[List[CheckResult], List[str], Dict[str, str]]:
    """Gate the latest point of every baselined series.

    Returns ``(results, missing, skipped)``.  Only rows at the
    baseline's ``scale`` are gated: ``skipped`` says, per baselined
    series whose rows are all at other scales, which scales those were.
    ``missing`` names baselined series with no row at all — reported
    but not failed, because benches legitimately run as subsets (CI
    smoke runs three of five files).
    """
    if tolerance <= 1.0:
        raise ValueError("tolerance must be > 1.0 (multiplicative)")
    scale = baseline.get("scale")
    history, _directions, other = _load(_rows(results_dir), scale)
    metrics: Dict[str, Dict[str, object]] = baseline.get("metrics", {})
    results: List[CheckResult] = []
    missing: List[str] = []
    skipped: Dict[str, str] = {}
    for series, entry in sorted(metrics.items()):
        points = history.get(series)
        if not points:
            if series in other:
                skipped[series] = _off_scale_reason(other[series], scale)
            else:
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
    return results, missing, skipped
