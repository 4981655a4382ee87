"""Append-only JSON-lines logs: the one crash discipline they share.

The oracle verdicts (:mod:`repro.stream.decisions`), the golden deltas
(:mod:`repro.stream.deltas`), the metrics stream
(:mod:`repro.obs.sinks`) and the BENCH history are append-only
JSON-lines files whose writers append and flush one whole line per
row.  So every newline-terminated line was complete when written, and
a crash can leave one kind of damage only: an *unterminated final
line*.  This module is the one place that rule is coded:

* :func:`read_rows` — the strict replay: a malformed terminated line
  means the file is not ours and raises;
* :func:`repair_tail` — run before a writer appends again, so the next
  row is never glued onto a fragment (a glued line would end up in the
  middle of the file, where :func:`read_rows` refuses it forever);
* :class:`TailReader` — the lenient, incremental reader for live
  consumers: complete object rows only, foreign lines skipped.

Lines decode as strict UTF-8: ``json.dumps`` output always is, so an
invalid byte can only be corruption and counts as a parse error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

PathLike = Union[str, Path]

Row = Dict[str, object]

T = TypeVar("T")

#: what a line that is not a row raises (decode errors are ValueErrors)
PARSE_ERRORS = (ValueError, KeyError, TypeError)


def json_object(line: str) -> Row:
    """The default row parser: one JSON object per line."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError("row is not an object")
    return row


def read_rows(
    path: PathLike,
    parse: Callable[[str], T] = json_object,
    what: str = "row",
) -> Tuple[List[T], Optional[str]]:
    """Replay a whole log strictly: ``(rows, tail)``.

    Row ``i`` is line ``i + 1``.  A terminated line that fails
    ``parse`` raises ``ValueError("<path>:<n>: corrupt <what> (...)")``.
    ``tail`` describes an unterminated final line: ``"torn tail"`` when
    it fails to parse (it is dropped), ``"unterminated tail"`` when it
    parses (it is kept), ``None`` when the file ends in a newline.
    """
    lines = Path(path).read_bytes().split(b"\n")
    last = lines.pop()  # b"" when the file ends with a newline
    rows: List[T] = []
    for number, raw in enumerate(lines, start=1):
        try:
            rows.append(parse(raw.decode("utf-8")))
        except PARSE_ERRORS as exc:
            raise ValueError(
                f"{path}:{number}: corrupt {what} ({exc})"
            ) from exc
    if not last:
        return rows, None
    try:
        rows.append(parse(last.decode("utf-8")))
    except PARSE_ERRORS:
        return rows, "torn tail"
    return rows, "unterminated tail"


def repair_tail(
    path: PathLike, parse: Callable[[str], object] = json_object
) -> None:
    """Make ``path`` safe to append to: terminate an intact final row,
    truncate a torn one.  A missing file is a no-op."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return
    cut = data.rfind(b"\n") + 1  # 0 when the whole file is one line
    if cut == len(data):
        return
    try:
        parse(data[cut:].decode("utf-8"))
    except PARSE_ERRORS:
        with open(path, "r+b") as handle:
            handle.truncate(cut)
    else:
        with open(path, "ab") as handle:
            handle.write(b"\n")


class TailReader:
    """Incremental, lenient tail of a JSON-lines log.

    Each :meth:`poll` returns the complete object rows appended since
    the last poll, skipping lines that are not JSON objects.  The
    offset stops at the last newline read, so a half-written final
    line is read again, whole, by a later poll.  A missing file polls
    empty.  A file that shrank, vanished or was replaced (a new
    ``(st_dev, st_ino)``: ``--fresh`` archived the log and a new run
    recreated it) sets :attr:`reset` for that poll and is read again
    from byte 0, so a consumer rebuilds instead of mixing two histories.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.offset = 0
        self.reset = False
        self._identity: Optional[Tuple[int, int]] = None

    def poll(self) -> List[Row]:
        self.reset = False
        try:
            handle = open(self.path, "rb")
        except OSError:
            if self._identity is not None:  # the file vanished
                self._restart()
            return []
        with handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if self._identity is not None and (
                identity != self._identity or stat.st_size < self.offset
            ):
                self._restart()
            self._identity = identity
            handle.seek(self.offset)
            data = handle.read()
        cut = data.rfind(b"\n") + 1
        self.offset += cut
        rows: List[Row] = []
        for raw in data[:cut].split(b"\n"):
            try:
                rows.append(json_object(raw.decode("utf-8")))
            except ValueError:
                continue  # a foreign line (or the b"" after the last one)
        return rows

    def _restart(self) -> None:
        self.offset = 0
        self._identity = None
        self.reset = True
