"""Golden-record delta logs: the changed-clusters-only publish channel.

A serving tier answering golden-record lookups must track the stream's
output, but re-reading the whole golden table per batch is O(live
clusters) while a batch only ever changes the clusters it touched —
which :class:`~repro.stream.golden.GoldenStreamConsolidator` already
knows (its incremental fusion recomputes exactly those).  This module
turns that knowledge into a durable channel:

* :class:`GoldenDeltaLog` — the producer side.  One JSON line per
  batch: a monotone ``seq``, the clusters whose golden values actually
  changed (``changed``: key -> column -> value), and the cluster keys
  a merge emptied (``removed``).  Writes are append + flush-per-row
  with torn-tail repair on open, the same crash discipline as the
  decision log and :class:`~repro.obs.sinks.JsonlSink`;
* :class:`GoldenDeltaReader` — the consumer side.  An offset-tracking
  tailer: each :meth:`~GoldenDeltaReader.poll` returns only the new
  *complete* rows since the last poll (a half-written final line is
  left for the next poll), and a log that shrank (archived by a
  ``--fresh`` restart and recreated) resets the reader so consumers
  rebuild instead of serving a mix of two histories.

``repro serve`` tails this log to keep its in-memory golden table
current and to push per-batch deltas to subscribed connections —
subscribers receive O(changed clusters) per batch, never a
whole-table re-read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

PathLike = Union[str, Path]

Row = Dict[str, object]

#: ``type`` field of every delta row (reserved for future row kinds).
DELTA_ROW_TYPE = "golden_delta"


class GoldenDeltaLog:
    """Append-only JSON-lines writer of per-batch golden deltas.

    Opening an existing log resumes its sequence (the last complete
    row's ``seq``) after repairing a torn tail, so a resumed stream
    keeps the consumer-visible numbering monotone.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.seq = 0
        self._repair_and_resume()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _repair_and_resume(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data:
            return
        if not data.endswith(b"\n"):
            # Torn tail from a crash mid-append: a fragment glued onto
            # the next append would be unreadable forever, so truncate
            # it away (an intact final row merely lost its newline and
            # is terminated instead).
            cut = data.rfind(b"\n") + 1
            fragment = data[cut:]
            try:
                json.loads(fragment.decode("utf-8"))
                with open(self.path, "ab") as handle:
                    handle.write(b"\n")
                data += b"\n"
            except (ValueError, UnicodeDecodeError):
                with open(self.path, "r+b") as handle:
                    handle.truncate(cut)
                data = data[:cut]
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and isinstance(row.get("seq"), int):
                self.seq = max(self.seq, row["seq"])

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
        self._handle.write(
            json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
        )
        self._handle.flush()
        return row

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "GoldenDeltaLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class GoldenDeltaReader:
    """Tails a :class:`GoldenDeltaLog` file, yielding complete new rows.

    The reader is pull-based and cheap to poll: it remembers the byte
    offset of the last complete line consumed and reads only the
    suffix.  Three edge cases are handled explicitly:

    * a **missing file** (the stream has not published yet) polls as
      empty rather than erroring;
    * a **torn tail** (the writer is mid-append, or crashed there) is
      deferred — the partial line stays unconsumed until a later poll
      sees its terminating newline;
    * a **shrunken file** (archived by ``--fresh`` and recreated)
      resets the reader: ``poll`` returns ``reset=True`` rows-from-
      zero so the consumer rebuilds its table instead of mixing two
      histories.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.offset = 0
        self.seq = 0
        self.reset = False

    def poll(self) -> List[Row]:
        """New complete delta rows since the last poll (may be [])."""
        self.reset = False
        try:
            size = self.path.stat().st_size
        except OSError:
            if self.offset:
                self._do_reset()
            return []
        if size < self.offset:
            self._do_reset()
        if size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            data = handle.read()
        cut = data.rfind(b"\n") + 1
        if cut == 0:
            return []  # only a partial line so far
        rows: List[Row] = []
        for line in data[:cut].splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue  # a torn mid-file line (writer crash artifact)
            if not isinstance(row, dict):
                continue
            seq = row.get("seq")
            if isinstance(seq, int) and seq <= self.seq:
                continue  # replayed history after a writer resume
            if isinstance(seq, int):
                self.seq = seq
            rows.append(row)
        self.offset += cut
        return rows

    def _do_reset(self) -> None:
        self.offset = 0
        self.seq = 0
        self.reset = True
