"""Drift detection over the stream's unmatched-arrival rate.

The streaming fast path standardizes incoming values with the compiled
:class:`~repro.serve.engine.ApplyEngine`, and the decision cache
absorbs re-judged variation, before anything reaches the learner.
While the traffic looks like the data the model was learned from, few
records introduce candidate keys nobody has seen; when the upstream
distribution shifts (new sources, new formats), that *unmatched* share
climbs.  :class:`DriftMonitor` watches the share over a sliding window
of batches and signals when deeper relearning is warranted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..obs import NULL_OBS


@dataclass
class DriftReport:
    """One monitor evaluation."""

    rows: int
    misses: int
    miss_rate: float
    drifted: bool


class DriftMonitor:
    """Sliding-window unmatched-rate statistics with a trigger."""

    def __init__(
        self,
        window: int = 5,
        miss_rate_threshold: float = 0.5,
        min_rows: int = 25,
        obs=NULL_OBS,
    ) -> None:
        if not 0.0 <= miss_rate_threshold <= 1.0:
            raise ValueError("miss_rate_threshold must be within [0, 1]")
        self.window = max(1, int(window))
        self.miss_rate_threshold = miss_rate_threshold
        self.min_rows = max(0, int(min_rows))
        self._batches: Deque[Tuple[int, int]] = deque(maxlen=self.window)
        self.triggered = 0
        #: observability context; a consolidator binds its own here so
        #: relearn triggers flow through the shared metrics stream.
        self.obs = obs if obs is not None else NULL_OBS

    # -- feeding -----------------------------------------------------------

    def record(
        self,
        rows: int,
        misses: int,
        batch: Optional[int] = None,
        column: Optional[str] = None,
    ) -> DriftReport:
        """Fold one batch's (rows seen, engine misses) into the window.

        ``batch`` and ``column`` are optional context for the emitted
        drift event and the ``drift.miss_rate`` gauge's label (the
        monitor itself has no notion of batch numbering, and one
        monitor watches one column).
        """
        rows = max(0, int(rows))
        misses = max(0, min(int(misses), rows))
        self._batches.append((rows, misses))
        report = DriftReport(
            self.rows, self.misses, self.miss_rate, self.should_relearn
        )
        if report.drifted:
            self.triggered += 1
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("drift.batches").inc()
            labels = {"column": column} if column is not None else {}
            metrics.gauge("drift.miss_rate", **labels).set(
                round(report.miss_rate, 9)
            )
            if report.drifted:
                metrics.counter("drift.relearns").inc()
                event = {
                    "rows": report.rows,
                    "misses": report.misses,
                    "miss_rate": round(report.miss_rate, 9),
                    "window": len(self._batches),
                }
                if batch is not None:
                    event["batch"] = batch
                event.update(labels)
                self.obs.event("drift", **event)
        return report

    def reset(self) -> None:
        """Forget the window (call after a relearn pass absorbed it)."""
        self._batches.clear()

    # -- state -------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Cells observed inside the current window."""
        return sum(rows for rows, _ in self._batches)

    @property
    def misses(self) -> int:
        """Cells the model failed to explain inside the window."""
        return sum(misses for _, misses in self._batches)

    @property
    def miss_rate(self) -> float:
        """Windowed unexplained fraction (0.0 on an empty window)."""
        rows = self.rows
        return self.misses / rows if rows else 0.0

    @property
    def should_relearn(self) -> bool:
        """True once the windowed miss rate clears the threshold (and
        enough rows were seen for the rate to mean anything)."""
        return (
            self.rows >= self.min_rows
            and self.miss_rate > self.miss_rate_threshold
        )
