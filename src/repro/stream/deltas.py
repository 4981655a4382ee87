"""Golden-record delta logs: the changed-clusters-only publish channel.

A serving tier answering golden-record lookups must track the stream's
output, but re-reading the whole golden table per batch is O(live
clusters) while a batch only ever changes the clusters it touched —
which :class:`~repro.stream.golden.GoldenStreamConsolidator` already
knows (its incremental fusion recomputes exactly those).  This module
turns that knowledge into a durable channel:

* :class:`GoldenDeltaLog` — the producer side, a
  :class:`~repro.obs.sinks.JsonlSink` that numbers its rows.  One JSON
  line per batch: a monotone ``seq``, the clusters whose golden values
  actually changed (``changed``: key -> column -> value), and the
  cluster keys a merge emptied (``removed``).  Writes are append +
  flush-per-row with torn-tail repair on open (:mod:`repro.jsonl`);
* :class:`GoldenDeltaReader` — the consumer side, a
  :class:`~repro.jsonl.TailReader` plus a ``seq`` filter: each
  :meth:`~GoldenDeltaReader.poll` returns only the new *complete* rows
  since the last poll (a half-written final line is left for the next
  poll), and a log that shrank, vanished or was replaced (archived by a
  ``--fresh`` restart and recreated) sets ``reset`` so consumers
  rebuild instead of serving a mix of two histories.

``repro serve`` tails this log to keep its in-memory golden table
current and to push per-batch deltas to subscribed connections —
subscribers receive O(changed clusters) per batch, never a
whole-table re-read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..jsonl import TailReader
from ..obs.sinks import JsonlSink

PathLike = Union[str, Path]

Row = Dict[str, object]

#: ``type`` field of every delta row (reserved for future row kinds).
DELTA_ROW_TYPE = "golden_delta"


class GoldenDeltaLog(JsonlSink):
    """Append-only JSON-lines writer of per-batch golden deltas.

    Opening an existing log repairs a torn tail and then resumes its
    sequence (the largest complete row's ``seq``), so a resumed stream
    keeps the consumer-visible numbering monotone.
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__(path)
        # An append handle's position is the file's size, so a new,
        # empty log skips the read-back.
        rows = TailReader(self.path).poll() if self._handle.tell() else []
        self.seq = max(
            (row["seq"] for row in rows if isinstance(row.get("seq"), int)),
            default=0,
        )

    def append(
        self,
        changed: Dict[str, Dict[str, Optional[str]]],
        removed: List[str],
        batch: Optional[int] = None,
        bundle_version: Optional[int] = None,
    ) -> Optional[Row]:
        """Write one batch's delta; empty deltas are skipped (a batch
        that changed nothing publishes nothing).  Returns the row."""
        if not changed and not removed:
            return None
        self.seq += 1
        row: Row = {
            "type": DELTA_ROW_TYPE,
            "seq": self.seq,
            "batch": batch,
            "bundle_version": bundle_version,
            "changed": changed,
            "removed": sorted(removed),
        }
        self.emit(row)
        return row


class GoldenDeltaReader(TailReader):
    """Tails a :class:`GoldenDeltaLog` file, yielding complete new rows.

    The tailing — a missing file polls empty, a torn tail is deferred
    until its newline arrives, a shrunken, vanished or replaced file
    sets :attr:`reset` and is read from byte 0 — is
    :class:`~repro.jsonl.TailReader`'s.  On top, rows whose ``seq`` is
    not past the last one returned are dropped (replayed history after
    a writer resume); a reset restarts the numbering.
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__(path)
        self.seq = 0

    def poll(self) -> List[Row]:
        """New complete delta rows since the last poll (may be [])."""
        rows = super().poll()
        if self.reset:
            self.seq = 0
        fresh: List[Row] = []
        for row in rows:
            seq = row.get("seq")
            if isinstance(seq, int):
                if seq <= self.seq:
                    continue
                self.seq = seq
            fresh.append(row)
        return fresh
