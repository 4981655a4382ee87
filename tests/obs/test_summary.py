"""Tests for the metrics-file reader, validator, and summarizer."""

import json

import pytest

from repro.obs import metric_key
from repro.obs.summary import (
    build_span_forest,
    forest_shape,
    format_summary,
    format_trace_tree,
    iter_rows,
    parse_metric_key,
    summarize,
    validate_rows,
)


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


class TestParseMetricKey:
    def test_plain_key(self):
        assert parse_metric_key("stream.merges") == ("stream.merges", {})

    def test_labelled_key(self):
        name, labels = parse_metric_key("q{a=1,column=address}")
        assert name == "q"
        assert labels == {"a": "1", "column": "address"}

    def test_empty_label_set(self):
        assert parse_metric_key("q{}") == ("q", {})


class TestIterRows:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [{"type": "meta", "command": "stream"}, {"type": "event"}]
        write_rows(path, rows)
        assert list(iter_rows(path)) == rows

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_rows(path, [{"type": "meta", "command": "stream"}])
        with open(path, "ab") as handle:
            handle.write(b'{"type": "batch", "ba')
        rows = list(iter_rows(path))
        assert [row["type"] for row in rows] == ["meta"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"type": "meta", "command": "stream"}\n'
            "not json\n"
            '{"type": "event"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="corrupt metrics row"):
            list(iter_rows(path))

    def test_terminated_malformed_final_line_raises(self, tmp_path):
        # A newline-terminated line was complete when flushed, so
        # malformed means corruption, not a crash signature.
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"type": "meta", "command": "stream"}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="corrupt metrics row"):
            list(iter_rows(path))

    def test_non_object_row_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("[1, 2]\n{}\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(iter_rows(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"")
        assert list(iter_rows(path)) == []


class TestValidateRows:
    def test_valid_rows_pass(self):
        rows = [
            {"type": "meta", "command": "stream"},
            {"type": "batch", "batch": 0, "records": 10, "seconds": 0.5},
            {
                "type": "span",
                "span": "stream.learn",
                "seconds": 0.1,
                "depth": 1,
                "seq": 3,
            },
            {"type": "event", "event": "drift"},
            {"type": "snapshot", "deterministic": True, "metrics": {}},
        ]
        assert validate_rows(rows) == []

    def test_unknown_type_flagged(self):
        problems = validate_rows([{"type": "bogus"}])
        assert len(problems) == 1
        assert "unknown type" in problems[0]

    def test_missing_field_flagged(self):
        problems = validate_rows([{"type": "meta"}])
        assert any("missing field 'command'" in p for p in problems)

    def test_wrong_type_flagged(self):
        problems = validate_rows(
            [{"type": "batch", "batch": "0", "records": 1, "seconds": 0.1}]
        )
        assert any("'batch'" in p for p in problems)

    def test_bool_is_not_an_int(self):
        problems = validate_rows(
            [{"type": "batch", "batch": True, "records": 1, "seconds": 0.1}]
        )
        assert any("'batch'" in p for p in problems)


class TestSummarize:
    def rows(self):
        return [
            {"type": "meta", "command": "stream", "dataset": "Address"},
            {
                "type": "batch",
                "batch": 0,
                "records": 20,
                "seconds": 1.0,
                "questions_asked": 5,
                "questions_by_column": {"address": 5},
                "stage_seconds": {"learn": 0.8, "engine": 0.1},
            },
            {
                "type": "batch",
                "batch": 1,
                "records": 30,
                "seconds": 2.0,
                "questions_asked": 3,
                "questions_by_column": {"address": 3},
                "stage_seconds": {"learn": 1.5, "engine": 0.2},
            },
            {
                "type": "span",
                "span": "stream.learn",
                "seconds": 0.8,
                "depth": 1,
                "seq": 1,
            },
            {"type": "event", "event": "drift", "batch": 1, "miss_rate": 0.9},
            {
                "type": "snapshot",
                "deterministic": False,
                "metrics": {
                    "stream.questions{column=address}": 8,
                    "apply.rows": 40,
                    "apply.exact_hits": 10,
                    "apply.program_hits": 6,
                    "apply.token_hits": 4,
                    "apply.misses": 20,
                    "apply.cache_hits": 3,
                },
            },
        ]

    def test_totals(self):
        summary = summarize(self.rows())
        assert summary["batches"] == 2
        assert summary["records"] == 50
        assert summary["total_seconds"] == pytest.approx(3.0)
        assert summary["questions_asked"] == 8

    def test_stage_breakdown(self):
        summary = summarize(self.rows())
        assert summary["stages"] == {
            "engine": pytest.approx(0.3),
            "learn": pytest.approx(2.3),
        }

    def test_questions_by_column_from_batch_rows(self):
        summary = summarize(self.rows())
        assert summary["questions_by_column"] == {"address": 8}

    def test_resumed_run_sums_every_process(self, tmp_path):
        # A resumed run appends a second process to the same file: its
        # snapshot restarts from zero, so per-column questions come
        # from the batch rows and apply counters from each run's last
        # snapshot.
        def run(questions, rows_applied):
            return [
                {"type": "meta", "command": "stream"},
                {
                    "type": "batch",
                    "batch": 0,
                    "records": 10,
                    "seconds": 0.1,
                    "questions_asked": sum(questions.values()),
                    "questions_by_column": questions,
                },
                {
                    "type": "snapshot",
                    "deterministic": False,
                    "metrics": {
                        "apply.rows{column=a}": rows_applied // 2,
                        "apply.rows{column=b}": rows_applied // 2,
                        "apply.misses{column=a}": rows_applied // 2,
                        **{
                            metric_key("stream.questions", {"column": c}): n
                            for c, n in questions.items()
                        },
                    },
                },
            ]

        path = tmp_path / "m.jsonl"
        write_rows(path, run({"a": 4, "b": 6}, 20) + run({"a": 1, "b": 2}, 10))
        summary = summarize(iter_rows(path))
        assert summary["questions_asked"] == 13
        assert summary["questions_by_column"] == {"a": 5, "b": 8}
        assert sum(summary["questions_by_column"].values()) == (
            summary["questions_asked"]
        )
        assert summary["apply"]["rows"] == 30
        assert summary["apply"]["hit_ratios"]["misses"] == (
            pytest.approx(0.5)
        )

    def test_last_snapshot_of_a_run_wins(self):
        # Within one process snapshots are cumulative (serve flushes
        # one periodically): only the last counts.
        rows = [
            {"type": "meta", "command": "serve"},
            {"type": "snapshot", "metrics": {"apply.rows": 5}},
            {"type": "snapshot", "metrics": {"apply.rows": 9}},
        ]
        assert summarize(rows)["apply"]["rows"] == 9

    def test_apply_hit_ratios(self):
        summary = summarize(self.rows())
        ratios = summary["apply"]["hit_ratios"]
        assert ratios["exact_hits"] == pytest.approx(0.25)
        assert ratios["misses"] == pytest.approx(0.5)

    def test_labelled_apply_counters_aggregate(self):
        rows = [
            {
                "type": "snapshot",
                "deterministic": False,
                "metrics": {
                    "apply.rows{column=a}": 10,
                    "apply.rows{column=b}": 30,
                    "apply.exact_hits{column=a}": 10,
                    "apply.exact_hits{column=b}": 10,
                },
            }
        ]
        summary = summarize(rows)
        assert summary["apply"]["rows"] == 40
        assert summary["apply"]["hit_ratios"]["exact_hits"] == (
            pytest.approx(0.5)
        )

    def test_drift_events_and_spans(self):
        summary = summarize(self.rows())
        assert len(summary["drift_events"]) == 1
        assert summary["spans"]["stream.learn"]["count"] == 1

    def test_empty_input(self):
        summary = summarize([])
        assert summary["batches"] == 0
        assert summary["stages"] == {}
        assert summary["apply"] == {}


class TestFormatSummary:
    def test_renders_all_sections(self):
        text = format_summary(summarize(TestSummarize().rows()))
        assert "run: stream (Address)" in text
        assert "per-stage runtime (Fig. 9 view):" in text
        assert "learn" in text
        assert "oracle questions per column:" in text
        assert "address: 8" in text
        assert "apply tiers over 40 rows:" in text
        assert "drift events: 1" in text
        assert "stream.learn" in text

    def test_empty_run_renders(self):
        text = format_summary(summarize([]))
        assert "batches=0" in text


class TestMetricKeyRoundTrip:
    """metric_key quotes structural label values; parse_metric_key
    inverts it exactly."""

    def round_trip(self, name, **labels):
        key = metric_key(name, labels)
        parsed_name, parsed = parse_metric_key(key)
        assert parsed_name == name
        assert parsed == {k: str(v) for k, v in labels.items()}
        return key

    def test_plain_values_stay_bare(self):
        key = self.round_trip("q", column="address", shard=3)
        assert '"' not in key

    def test_comma_in_value(self):
        self.round_trip("q", column="Main St, Apt 4")

    def test_equals_in_value(self):
        self.round_trip("q", column="a=b")

    def test_quotes_and_backslashes_in_value(self):
        self.round_trip("q", column='say "hi" \\ bye')

    def test_braces_in_value(self):
        self.round_trip("q", column="{weird}")

    def test_mixed_quoted_and_bare_labels(self):
        key = self.round_trip("q", a="plain", b="x,y", c="z")
        name, labels = parse_metric_key(key)
        assert labels == {"a": "plain", "b": "x,y", "c": "z"}

    def test_quoted_value_parses(self):
        name, labels = parse_metric_key('q{column="a,b=c"}')
        assert (name, labels) == ("q", {"column": "a,b=c"})


def span_row(seq, span, sid, parent_id, parent, depth, seconds=0.1,
             tags=None, trace="t1"):
    row = {
        "type": "span",
        "seq": seq,
        "span": span,
        "parent": parent,
        "depth": depth,
        "seconds": seconds,
        "trace": trace,
        "id": sid,
        "parent_id": parent_id,
    }
    if tags:
        row["tags"] = tags
    return row


class TestSpanForest:
    def rows(self):
        """One batch: stream.batch > stream.resolve > 2 shard.resolve
        (one with a nested shard.match), exit-order emission."""
        return [
            span_row(1, "shard.match", 3, 2, "shard.resolve", 3,
                     tags={"shard": 0, "comparisons": 5}),
            span_row(2, "shard.resolve", 2, 1, "stream.resolve", 2,
                     tags={"shard": 0}),
            span_row(3, "shard.resolve", 4, 1, "stream.resolve", 2,
                     tags={"shard": 1}),
            span_row(4, "stream.resolve", 1, 5, "stream.batch", 1),
            span_row(5, "stream.batch", 5, None, None, 0,
                     seconds=0.5),
        ]

    def test_id_linking(self):
        forest = build_span_forest(self.rows())
        assert len(forest) == 1
        batch = forest[0]
        assert batch["name"] == "stream.batch"
        resolve = batch["children"][0]
        assert resolve["name"] == "stream.resolve"
        assert [c["name"] for c in resolve["children"]] == [
            "shard.resolve", "shard.resolve"
        ]
        assert resolve["children"][0]["children"][0]["name"] == (
            "shard.match"
        )

    def test_depth_fallback_for_old_recordings(self):
        rows = [
            {"type": "span", "seq": 1, "span": "stream.resolve",
             "parent": "stream.batch", "depth": 1, "seconds": 0.1},
            {"type": "span", "seq": 2, "span": "stream.batch",
             "parent": None, "depth": 0, "seconds": 0.5},
        ]
        forest = build_span_forest(rows)
        assert len(forest) == 1
        assert forest[0]["name"] == "stream.batch"
        assert forest[0]["children"][0]["name"] == "stream.resolve"

    def test_format_trace_tree(self):
        tree = format_trace_tree(self.rows())
        assert tree.startswith("trace tree")
        assert "stream.batch" in tree
        assert "shard.resolve[shard=0]" in tree
        assert "shard.resolve[shard=1]" in tree
        assert "shard.match[shard=0]" in tree
        # self time: batch total 0.5 minus resolve 0.1 = 0.4.
        assert "self=0.400s" in tree or "0.400" in tree

    def test_format_trace_tree_empty(self):
        assert "no span rows" in format_trace_tree([])

    def test_forest_shape_excludes_shards_by_default(self):
        shape = forest_shape(self.rows())
        assert shape == [
            ("stream.batch", (), (("stream.resolve", (), ()),))
        ]
        full = forest_shape(self.rows(), include_shards=True)
        assert full != shape
        assert "shard.resolve" in repr(full)

    def test_forest_shape_sorts_identity_tags(self):
        rows = [
            span_row(1, "stream.derive", 1, 2, "stream.batch", 1,
                     tags={"column": "b"}),
            span_row(2, "stream.derive", 3, 2, "stream.batch", 1,
                     tags={"column": "a"}),
            span_row(3, "stream.batch", 2, None, None, 0),
        ]
        shape = forest_shape(rows)
        children = shape[0][2]
        assert children == tuple(sorted(children))
