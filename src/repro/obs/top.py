"""``repro top`` — a live terminal monitor over a recorded metrics file.

While ``repro stream --metrics run.jsonl`` appends rows, ``repro top
--metrics run.jsonl`` tails the same file and re-renders one in-place
dashboard (ANSI cursor-home + clear, no curses dependency — works in
any VT100-ish terminal and in CI logs with ``--once``):

* per-stage latency p50/p95/p99 + share of run time, fed from each
  batch row's ``stage_seconds`` through the same geometric-bucket
  :class:`~repro.obs.metrics.Histogram` the registry uses;
* per-shard busy fractions (shard compute seconds over run wall time)
  from the latest snapshot's ``shards.busy_seconds{shard=N}`` gauges;
* drift events as they happen, and the questions-asked rate over a
  sliding window of recent batches (the oracle-budget dial the paper's
  human-involvement analysis optimizes).

The reader is :class:`repro.jsonl.TailReader`, incremental and
torn-tolerant: it remembers the offset of the last complete line,
leaves a partial final line until the writer finishes it, and never
re-reads the head of the file — tailing a multi-hour stream costs the
same per refresh as tailing a fresh one.  A fresh run that truncates
or replaces the file is read again from its start.

Keys: ``q`` quits (Ctrl-C always works); everything else is display.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..jsonl import TailReader
from .metrics import Histogram
from .summary import parse_metric_key

PathLike = Union[str, Path]

Row = Dict[str, object]

#: ANSI: cursor home + clear-to-end — repaint without scrollback spam.
_REFRESH = "\x1b[H\x1b[J"


class TopModel:
    """The dashboard's state: consume rows, render a frame.

    Pure in-memory — no terminal I/O — so tests drive it row-by-row
    and assert on :meth:`frame` output directly.
    """

    def __init__(self, window: int = 20) -> None:
        self.meta: Optional[Row] = None
        self.batches = 0
        self.records = 0
        self.wall_seconds = 0.0
        self.questions = 0
        self.stage_hist: Dict[str, Histogram] = {}
        self.stage_totals: Dict[str, float] = {}
        self.shard_busy: Dict[str, float] = {}
        self.drift_events: List[Row] = []
        self.recent: Deque[Tuple[int, int, float]] = deque(maxlen=window)
        self.rows_seen = 0

    # -- ingest ------------------------------------------------------------

    def consume(self, row: Row) -> None:
        self.rows_seen += 1
        kind = row.get("type")
        if kind == "meta":
            self.meta = row
        elif kind == "batch":
            self.batches += 1
            records = int(row.get("records", 0))
            seconds = float(row.get("seconds", 0.0))
            questions = int(row.get("questions_asked", 0))
            self.records += records
            self.wall_seconds += seconds
            self.questions += questions
            self.recent.append((records, questions, seconds))
            for stage, value in (row.get("stage_seconds") or {}).items():
                hist = self.stage_hist.get(stage)
                if hist is None:
                    hist = self.stage_hist[stage] = Histogram(stage, {})
                hist.observe(float(value))
                self.stage_totals[stage] = (
                    self.stage_totals.get(stage, 0.0) + float(value)
                )
        elif kind == "event" and row.get("event") == "drift":
            self.drift_events.append(row)
        elif kind == "snapshot":
            for key, value in (row.get("metrics") or {}).items():
                name, labels = parse_metric_key(key)
                if name == "shards.busy_seconds" and "shard" in labels:
                    self.shard_busy[labels["shard"]] = float(value)

    def consume_all(self, rows) -> None:
        for row in rows:
            self.consume(row)

    # -- questions-asked rate ----------------------------------------------

    def question_rate(self) -> Tuple[float, float]:
        """``(questions per batch, questions per 1k records)`` over the
        sliding window of recent batches."""
        if not self.recent:
            return 0.0, 0.0
        records = sum(item[0] for item in self.recent)
        questions = sum(item[1] for item in self.recent)
        per_batch = questions / len(self.recent)
        per_1k = 1000.0 * questions / records if records else 0.0
        return per_batch, per_1k

    # -- render ------------------------------------------------------------

    def frame(self, width: int = 80) -> str:
        lines: List[str] = []
        title = "repro top"
        if self.meta:
            command = self.meta.get("command", "?")
            dataset = self.meta.get("dataset")
            title += f" — {command}" + (f" ({dataset})" if dataset else "")
        lines.append(title[:width])
        per_batch, per_1k = self.question_rate()
        lines.append(
            f"batches={self.batches} records={self.records} "
            f"wall={self.wall_seconds:.2f}s questions={self.questions} "
            f"rate={per_batch:.1f}/batch ({per_1k:.1f}/1k rows)"[:width]
        )
        lines.append("")

        if self.stage_hist:
            lines.append(
                f"{'stage':<10} {'p50':>9} {'p95':>9} {'p99':>9} "
                f"{'total':>9}  share"
            )
            run_total = sum(self.stage_totals.values()) or 1.0
            ordered = sorted(
                self.stage_totals.items(), key=lambda item: -item[1]
            )
            for stage, total in ordered:
                hist = self.stage_hist[stage]
                share = 100.0 * total / run_total
                bar = "#" * max(1, int(round(share / 4)))
                lines.append(
                    f"{stage:<10} "
                    f"{1e3 * hist.quantile(0.50):>8.1f}m "
                    f"{1e3 * hist.quantile(0.95):>8.1f}m "
                    f"{1e3 * hist.quantile(0.99):>8.1f}m "
                    f"{total:>8.2f}s  {share:>4.1f}% {bar}"[:width]
                )
            lines.append("")

        if self.shard_busy:
            wall = self.wall_seconds or 1.0
            parts = []
            for shard in sorted(self.shard_busy, key=int):
                fraction = self.shard_busy[shard] / wall
                parts.append(f"s{shard}={100.0 * fraction:.0f}%")
            lines.append(("shard busy: " + " ".join(parts))[:width])
            lines.append("")

        if self.drift_events:
            lines.append(f"drift events: {len(self.drift_events)}")
            for event in self.drift_events[-3:]:
                lines.append(
                    (
                        f"  batch={event.get('batch', '?')} "
                        + (
                            f"column={event['column']} "
                            if "column" in event
                            else ""
                        )
                        + f"miss_rate={event.get('miss_rate', '?')}"
                    )[:width]
                )
            lines.append("")

        lines.append(f"rows={self.rows_seen}  [q quits]")
        return "\n".join(lines)


def _poll_quit(timeout: float) -> bool:
    """True when the user pressed ``q`` within ``timeout`` seconds.
    Falls back to a plain sleep when stdin is not a tty (piped runs,
    CI) or on platforms without selectable stdin."""
    try:
        if not sys.stdin.isatty():
            time.sleep(timeout)
            return False
        import select

        ready, _, _ = select.select([sys.stdin], [], [], timeout)
        if ready:
            return sys.stdin.readline().strip().lower().startswith("q")
    except (OSError, ValueError, ImportError):
        time.sleep(timeout)
    return False


def run_top(
    path: PathLike,
    interval: float = 1.0,
    once: bool = False,
    out=None,
    max_refreshes: Optional[int] = None,
) -> int:
    """The ``repro top`` loop: tail, fold, repaint.

    ``once`` renders a single plain frame (no ANSI) and returns — the
    scriptable form.  ``max_refreshes`` bounds the loop for tests.
    """
    out = out if out is not None else sys.stdout
    reader = TailReader(path)
    model = TopModel()
    if once:
        model.consume_all(reader.poll())
        out.write(model.frame() + "\n")
        return 0
    refreshes = 0
    try:
        while True:
            rows = reader.poll()
            if reader.reset:  # a fresh run took the file: start over
                model = TopModel()
            model.consume_all(rows)
            out.write(_REFRESH + model.frame() + "\n")
            out.flush()
            refreshes += 1
            if max_refreshes is not None and refreshes >= max_refreshes:
                return 0
            if _poll_quit(interval):
                return 0
    except KeyboardInterrupt:
        return 0
