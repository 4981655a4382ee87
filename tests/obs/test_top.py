"""Tests for ``repro top``: the tail reader and the dashboard model."""

import io
import json

from repro.obs.summary import format_summary, summarize
from repro.obs.top import TailReader, TopModel, _REFRESH, run_top


def append(path, rows):
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def batch_row(batch, records=100, seconds=0.5, questions=4, stages=None):
    return {
        "type": "batch",
        "batch": batch,
        "records": records,
        "seconds": seconds,
        "questions_asked": questions,
        "stage_seconds": stages
        or {"resolve": 0.3, "learn": 0.15, "apply": 0.05},
    }


class TestTailReader:
    def test_incremental_polls(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("", encoding="utf-8")
        reader = TailReader(path)
        assert reader.poll() == []
        append(path, [{"a": 1}])
        assert reader.poll() == [{"a": 1}]
        assert reader.poll() == []  # nothing new
        append(path, [{"b": 2}, {"c": 3}])
        assert reader.poll() == [{"b": 2}, {"c": 3}]

    def test_partial_line_stays_buffered(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"a": 1}\n{"b": ', encoding="utf-8")
        reader = TailReader(path)
        assert reader.poll() == [{"a": 1}]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("2}\n")
        assert reader.poll() == [{"b": 2}]

    def test_truncation_resets(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append(path, [{"a": 1}, {"b": 2}])
        reader = TailReader(path)
        assert len(reader.poll()) == 2
        path.write_text('{"fresh": true}\n', encoding="utf-8")
        assert reader.poll() == [{"fresh": True}]

    def test_missing_file_and_foreign_lines(self, tmp_path):
        reader = TailReader(tmp_path / "absent.jsonl")
        assert reader.poll() == []
        path = tmp_path / "m.jsonl"
        path.write_text('not json\n[1, 2]\n{"ok": 1}\n', encoding="utf-8")
        assert TailReader(path).poll() == [{"ok": 1}]


class TestTopModel:
    def feed(self):
        model = TopModel()
        model.consume(
            {"type": "meta", "command": "stream", "dataset": "Address"}
        )
        for batch in range(3):
            model.consume(batch_row(batch))
        model.consume(
            {"type": "event", "event": "drift", "batch": 2,
             "miss_rate": 0.4}
        )
        model.consume(
            {
                "type": "snapshot",
                "metrics": {
                    "shards.busy_seconds{shard=0}": 0.6,
                    "shards.busy_seconds{shard=1}": 0.3,
                    "other.metric": 7,
                },
            }
        )
        return model

    def test_totals(self):
        model = self.feed()
        assert model.batches == 3
        assert model.records == 300
        assert model.questions == 12
        assert abs(model.wall_seconds - 1.5) < 1e-9

    def test_question_rate(self):
        model = self.feed()
        per_batch, per_1k = model.question_rate()
        assert per_batch == 4.0
        assert per_1k == 40.0
        assert TopModel().question_rate() == (0.0, 0.0)

    def test_frame_renders_all_sections(self):
        frame = self.feed().frame()
        assert "repro top — stream (Address)" in frame
        assert "batches=3 records=300" in frame
        for stage in ("resolve", "learn", "apply"):
            assert stage in frame
        assert "p50" in frame and "p95" in frame and "p99" in frame
        # resolve is 0.3 of 0.5 per batch: the top share line.
        assert "60.0%" in frame
        assert "shard busy: s0=40% s1=20%" in frame
        assert "drift events: 1" in frame
        assert "miss_rate=0.4" in frame
        assert "[q quits]" in frame

    def test_empty_model_renders(self):
        frame = TopModel().frame()
        assert "repro top" in frame
        assert "batches=0" in frame


class TestRunTop:
    def test_once_renders_plain_frame(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append(
            path,
            [{"type": "meta", "command": "stream"}, batch_row(0)],
        )
        out = io.StringIO()
        assert run_top(path, once=True, out=out) == 0
        text = out.getvalue()
        assert "repro top — stream" in text
        assert _REFRESH not in text  # --once output is log-safe

    def test_bounded_loop_repaints_in_place(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append(path, [batch_row(0)])
        out = io.StringIO()
        assert run_top(path, interval=0.01, out=out, max_refreshes=2) == 0
        assert out.getvalue().count(_REFRESH) == 2


def two_runs():
    """A file a resumed run appended to: each process writes a ``meta``
    row, its batches, and a snapshot whose gauges restart from zero."""
    rows = []
    for dataset, busy in (("Address", (0.6, 0.3)), ("Title", (0.15, 0.45))):
        rows.append({"type": "meta", "command": "stream", "dataset": dataset})
        rows.extend(batch_row(batch) for batch in range(3))
        rows.append(
            {
                "type": "snapshot",
                "deterministic": False,
                "metrics": {
                    "shards.busy_seconds{shard=0}": busy[0],
                    "shards.busy_seconds{shard=1}": busy[1],
                },
            }
        )
    return rows


class TestOneFold:
    def test_busy_sums_each_run_last_snapshot(self):
        model = TopModel()
        model.consume_all(two_runs())
        frame = model.frame()
        # (0.6 + 0.15) / 3.0 s and (0.3 + 0.45) / 3.0 s of batch time.
        assert "shard busy: s0=25% s1=25%" in frame
        assert "repro top — stream (Address)" in frame

    def test_top_and_stats_agree_on_totals(self):
        rows = two_runs()
        model = TopModel()
        model.consume_all(rows)
        summary = summarize(rows)
        assert (
            model.batches,
            model.records,
            round(model.wall_seconds, 6),
            model.questions,
        ) == (
            summary["batches"],
            summary["records"],
            summary["total_seconds"],
            summary["questions_asked"],
        )

    def test_stage_shares_use_batch_seconds(self):
        # ``oracle`` is review time measured inside ``learn``: dividing
        # by the stage sum (1.5 s) would count it twice.
        stages = {"learn": 0.8, "oracle": 0.5, "resolve": 0.2}
        rows = [batch_row(0, seconds=1.0, stages=stages)]
        model = TopModel()
        model.consume_all(rows)
        frame = model.frame()
        assert "80.0%" in frame and "50.0%" in frame
        text = format_summary(summarize(rows))
        assert "80.0%" in text and "50.0%" in text
