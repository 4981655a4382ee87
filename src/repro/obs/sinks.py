"""Metric/span row sinks (``repro.obs``).

A sink receives flat JSON-serializable row dicts (``{"type": ...}``)
from the :class:`~repro.obs.Obs` facade.  Three are provided:

* :class:`MemorySink` — a list, for tests;
* :class:`JsonlSink` — append-only JSON-lines with the crash
  discipline of :mod:`repro.jsonl`: each row is one flushed line, so a
  kill mid-run loses at most the torn final line, which the reader
  (`repro.obs.summary.iter_rows`) skips and a reopening sink repairs
  before appending;
* :func:`prometheus_text` — not a sink but the text exposition writer
  for the future serve tier: renders a registry snapshot in the
  Prometheus 0.0.4 text format.
"""

from __future__ import annotations

import atexit
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..jsonl import repair_tail
from .metrics import MetricsRegistry

PathLike = Union[str, Path]

Row = Dict[str, object]


class MemorySink:
    """Collects rows in a list (``sink.rows``)."""

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self.closed = False

    def emit(self, row: Row) -> None:
        self.rows.append(row)

    def close(self) -> None:
        self.closed = True


class JsonlSink:
    """Append-only JSON-lines sink with torn-tail repair on open.

    Rows are serialized with sorted keys and flushed per emit, so the
    file is valid JSON-lines up to (at worst) a torn final line after a
    crash.  Opening an existing file first runs
    :func:`repro.jsonl.repair_tail`: an intact final row that lost its
    newline is terminated, a torn fragment is truncated away — because
    appending onto a fragment would glue two rows into one permanently
    unreadable line.

    Every open sink also registers an :mod:`atexit` close (undone once
    closed), and the sink is its own context manager — so a short CLI
    run, an uncaught exception, or a forgotten ``close()`` still gets
    the final flush+fsync instead of leaving a tail for the next open
    to repair away.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        repair_tail(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        atexit.register(self.close)

    def emit(self, row: Row) -> None:
        self._handle.write(
            json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Metric names have ``.`` flattened to ``_``; histograms expose
    ``_count`` / ``_sum`` plus estimated ``quantile`` series (the
    summary form — the buckets are log-scale internal detail).
    """

    def flat(name: str) -> str:
        return name.replace(".", "_").replace("-", "_")

    def escape(value) -> str:
        # The exposition format's label escapes: backslash, the
        # value-closing double quote, and raw newlines (which would
        # otherwise terminate the sample line mid-value).
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    def label_str(labels: Dict[str, str], extra: Optional[Dict] = None):
        merged = dict(labels)
        if extra:
            merged.update(extra)
        if not merged:
            return ""
        inner = ",".join(
            f'{flat(k)}="{escape(merged[k])}"' for k in sorted(merged)
        )
        return "{" + inner + "}"

    lines: List[str] = []
    typed: set = set()
    for instrument in registry.instruments():
        name = flat(instrument.name)
        if instrument.kind in ("counter", "gauge"):
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {instrument.kind}")
            lines.append(
                f"{name}{label_str(instrument.labels)} "
                f"{instrument.as_value()}"
            )
        else:  # histogram -> summary exposition
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} summary")
            for q in (0.5, 0.95, 0.99):
                value = instrument.quantile(q) if instrument.count else 0.0
                lines.append(
                    f"{name}"
                    f"{label_str(instrument.labels, {'quantile': q})} "
                    f"{value}"
                )
            lines.append(
                f"{name}_sum{label_str(instrument.labels)} "
                f"{instrument.total}"
            )
            lines.append(
                f"{name}_count{label_str(instrument.labels)} "
                f"{instrument.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
