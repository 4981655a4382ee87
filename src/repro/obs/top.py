"""``repro top`` — a live terminal monitor over a recorded metrics file.

While ``repro stream --metrics run.jsonl`` appends rows, ``repro top
--metrics run.jsonl`` tails the same file and re-renders one in-place
dashboard (ANSI cursor-home + clear, no curses dependency — works in
any VT100-ish terminal and in CI logs with ``--once``):

* per-stage latency p50/p95/p99 + share of the summed batch seconds,
  fed from each batch row's ``stage_seconds`` through the same
  geometric-bucket :class:`~repro.obs.metrics.Histogram` the registry
  uses;
* per-shard busy fractions (shard compute seconds over summed batch
  seconds) from each run's last snapshot's
  ``shards.busy_seconds{shard=N}`` gauges;
* drift events as they happen, and the questions-asked rate over a
  sliding window of recent batches (the oracle-budget dial the paper's
  human-involvement analysis optimizes).

The reader is :class:`repro.jsonl.TailReader`, incremental and
torn-tolerant: it remembers the offset of the last complete line,
leaves a partial final line until the writer finishes it, and never
re-reads the head of the file — tailing a multi-hour stream costs the
same per refresh as tailing a fresh one.  A fresh run that truncates
or replaces the file is read again from its start.

Rows are read by :class:`~repro.obs.summary.RunFold`, the same fold
behind ``repro stats``, so both surfaces give one reading of a file.

Keys: ``q`` quits (Ctrl-C always works); everything else is display.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..jsonl import TailReader
from .summary import RunFold, drift_label, run_label

PathLike = Union[str, Path]

#: ANSI: cursor home + clear-to-end — repaint without scrollback spam.
_REFRESH = "\x1b[H\x1b[J"


class TopModel(RunFold):
    """The dashboard: the shared :class:`~repro.obs.summary.RunFold`
    state plus rendering.

    Pure in-memory — no terminal I/O — so tests drive it row-by-row
    and assert on :meth:`frame` output directly.
    """

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

    def frame(self, width: int = 80) -> str:
        lines: List[str] = []
        title = "repro top"
        if self.meta:
            title += " — " + run_label(self.meta)
        lines.append(title[:width])
        per_batch, per_1k = self.question_rate()
        lines.append(
            f"batches={self.batches} records={self.records} "
            f"wall={self.wall_seconds:.2f}s questions={self.questions} "
            f"rate={per_batch:.1f}/batch ({per_1k:.1f}/1k rows)"[:width]
        )
        lines.append("")
        # Shares of the summed batch seconds: ``oracle`` is nested inside
        # ``learn``/``drift``, so the stage sum would count it twice.
        wall = self.wall_seconds or 1.0

        if self.stage_hist:
            lines.append(
                f"{'stage':<10} {'p50':>9} {'p95':>9} {'p99':>9} "
                f"{'total':>9}  share"
            )
            ordered = sorted(
                self.stage_totals().items(), key=lambda item: -item[1]
            )
            for stage, total in ordered:
                hist = self.stage_hist[stage]
                share = 100.0 * total / wall
                bar = "#" * max(1, int(round(share / 4)))
                lines.append(
                    f"{stage:<10} "
                    f"{1e3 * hist.quantile(0.50):>8.1f}m "
                    f"{1e3 * hist.quantile(0.95):>8.1f}m "
                    f"{1e3 * hist.quantile(0.99):>8.1f}m "
                    f"{total:>8.2f}s  {share:>4.1f}% {bar}"[:width]
                )
            lines.append("")

        busy = self.snapshot_sum("shards.busy_seconds", label="shard")
        if busy:
            parts = [
                f"s{shard}={100.0 * busy[shard] / wall:.0f}%"
                for shard in sorted(busy, key=int)
            ]
            lines.append(("shard busy: " + " ".join(parts))[:width])
            lines.append("")

        if self.drift_events:
            lines.append(f"drift events: {len(self.drift_events)}")
            for event in self.drift_events[-3:]:
                lines.append(f"  {drift_label(event)}"[:width])
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
