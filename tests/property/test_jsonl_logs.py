"""The append-only log discipline of ``repro.jsonl`` (hypothesis).

Rows are written the way every writer writes them (one
``json.dumps(..., ensure_ascii=False)`` line per row), then the file is
cut at a drawn byte offset, as a crash mid-append would leave it.
Whatever the cut, the strict reader returns the complete-row prefix,
a repaired file takes the next append cleanly, a live tail sees every
row exactly once, and each writer reopens the cut file keeping every
complete row.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.replacement import Replacement
from repro.jsonl import TailReader, read_rows, repair_tail
from repro.obs.sinks import JsonlSink
from repro.obs.summary import iter_rows
from repro.pipeline.oracle import FORWARD, REVERSE, Decision
from repro.stream.decisions import DecisionCache, archive_log
from repro.stream.deltas import GoldenDeltaLog

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

TEXT = st.text(max_size=6)
VALUES = st.one_of(TEXT, st.integers(), st.booleans(), st.none())
ROWS = st.lists(st.dictionaries(TEXT, VALUES, max_size=3), max_size=6)


def encode(row):
    line = json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"
    return line.encode("utf-8")


def line_ends(data):
    """Byte offset of each line's newline."""
    ends, start = [], 0
    for line in data.split(b"\n")[:-1]:
        start += len(line)
        ends.append(start)
        start += 1
    return ends


def draw_cut(draw, data):
    """A crash point: anywhere, or exactly where a row lost only its
    newline (the one cut that must keep the row)."""
    ends = line_ends(data)
    anywhere = st.integers(0, len(data))
    if not ends:
        return draw(anywhere)
    return draw(st.one_of(st.sampled_from(ends), anywhere))


def complete_prefix(data, cut):
    """How many rows of ``data`` survive a cut at ``cut``, and the tail
    note ``read_rows`` must give."""
    ends = line_ends(data)
    kept = sum(1 for end in ends if end <= cut)
    if cut == 0 or data[cut - 1 : cut] == b"\n":
        return kept, None
    if cut in ends:
        return kept, "unterminated tail"
    return kept, "torn tail"


def cut_file(path, data, cut):
    path.write_bytes(data[:cut])


@SETTINGS
@given(rows=ROWS, draw=st.data())
def test_read_rows_returns_the_complete_prefix(rows, draw):
    data = b"".join(encode(row) for row in rows)
    cut = draw_cut(draw.draw, data)
    kept, tail = complete_prefix(data, cut)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        cut_file(path, data, cut)
        assert read_rows(path) == (rows[:kept], tail)


@SETTINGS
@given(rows=ROWS, extra=ROWS.filter(bool), draw=st.data())
def test_repair_then_append_extends_the_prefix(rows, extra, draw):
    data = b"".join(encode(row) for row in rows)
    cut = draw_cut(draw.draw, data)
    kept, _ = complete_prefix(data, cut)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        cut_file(path, data, cut)
        repair_tail(path)
        with open(path, "ab") as handle:
            handle.write(encode(extra[0]))
        assert read_rows(path) == (rows[:kept] + [extra[0]], None)


@SETTINGS
@given(rows=ROWS, draw=st.data())
def test_tail_reader_yields_every_row_once_across_chunked_appends(rows, draw):
    data = b"".join(encode(row) for row in rows)
    cuts = sorted(
        draw.draw(st.lists(st.integers(0, len(data)), max_size=6))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        reader = TailReader(path)
        seen = reader.poll()  # before the writer created the file
        start = 0
        for cut in cuts + [len(data)]:
            with open(path, "ab") as handle:
                handle.write(data[start:cut])
            start = cut
            seen += reader.poll()
            assert not reader.reset
        assert seen == rows


@SETTINGS
@given(rows=ROWS, draw=st.data())
def test_tail_reader_restarts_on_a_replaced_file(rows, draw):
    """A ``--fresh`` rerun of the same seed archives the log and writes
    the same rows again, so the new file grows past the old offset with
    an identical prefix: only the file's identity shows the restart."""
    old = draw.draw(st.integers(0, len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(b"".join(encode(row) for row in rows[:old]))
        reader = TailReader(path)
        assert reader.poll() == rows[:old]
        archive_log(path)
        path.write_bytes(b"".join(encode(row) for row in rows))
        assert reader.poll() == rows
        assert reader.reset


@SETTINGS
@given(rows=ROWS.filter(bool), draw=st.data())
def test_jsonl_sink_reopens_a_cut_file_keeping_complete_rows(rows, draw):
    *written, extra = rows
    data = b"".join(encode(row) for row in written)
    cut = draw_cut(draw.draw, data)
    kept, _ = complete_prefix(data, cut)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.jsonl"
        with JsonlSink(path) as sink:
            for row in written:
                sink.emit(row)
        assert path.read_bytes() == data  # the sink writes encode()'s bytes
        cut_file(path, data, cut)
        with JsonlSink(path) as sink:
            sink.emit(extra)
        assert list(iter_rows(path)) == written[:kept] + [extra]


CHANGED = st.dictionaries(
    TEXT,
    st.dictionaries(TEXT, st.one_of(TEXT, st.none()), max_size=2),
    min_size=1,
    max_size=3,
)


@SETTINGS
@given(deltas=st.lists(CHANGED, min_size=1, max_size=5), draw=st.data())
def test_golden_delta_log_reopens_a_cut_file_keeping_complete_rows(
    deltas, draw
):
    *written, extra = deltas
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden-deltas.jsonl"
        with GoldenDeltaLog(path) as log:
            rows = [log.append(changed, []) for changed in written]
        data = path.read_bytes()
        cut = draw_cut(draw.draw, data)
        kept, _ = complete_prefix(data, cut)
        cut_file(path, data, cut)
        with GoldenDeltaLog(path) as log:
            last = log.append(extra, [])
        assert last["seq"] == kept + 1
        assert read_rows(path) == (rows[:kept] + [last], None)


VERDICTS = st.lists(
    st.tuples(TEXT, TEXT, st.booleans(), st.sampled_from([FORWARD, REVERSE])),
    min_size=2,
    max_size=5,
    unique_by=lambda verdict: frozenset(verdict[:2]),
).filter(lambda verdicts: all(lhs != rhs for lhs, rhs, *_ in verdicts))


@SETTINGS
@given(verdicts=VERDICTS, draw=st.data())
def test_decision_cache_reopens_a_cut_file_keeping_complete_rows(
    verdicts, draw
):
    entries = [
        (Replacement(lhs, rhs), Decision(approved, direction))
        for lhs, rhs, approved, direction in verdicts
    ]
    *written, (extra, extra_decision) = entries
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decisions.jsonl"
        cache = DecisionCache(path)
        for replacement, decision in written:
            cache.record(replacement, decision)
        data = path.read_bytes()
        cut = draw_cut(draw.draw, data)
        kept, _ = complete_prefix(data, cut)
        cut_file(path, data, cut)
        reopened = DecisionCache(path)
        assert list(reopened.items()) == written[:kept]
        assert reopened.record(extra, extra_decision)
        assert list(DecisionCache(path).items()) == (
            written[:kept] + [(extra, extra_decision)]
        )
