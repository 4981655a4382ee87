"""Observability under streaming: deterministic totals across shard
counts, recorded rows, drift events, and kill-mid-run torn tails.

The acceptance property mirrors the shard-determinism suite: metric
totals marked *deterministic* (questions, merges, candidate pairs —
the semantic counters) must be **byte-identical** at ``--shards 1``
and ``--shards 4``; wall-clock and IPC instruments are registered
volatile and excluded from that view.
"""

import json

import pytest

from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream, golden_stream
from repro.obs import JsonlSink, MemorySink, NULL_OBS, Obs
from repro.obs.summary import (
    forest_shape,
    format_trace_tree,
    iter_rows,
    validate_rows,
)
from repro.stream import (
    DriftMonitor,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

SEED = 11
UNBOUNDED = 100_000

SPEC = GeneratorSpec(
    n_clusters=20,
    mean_cluster_size=5.0,
    conflict_rate=0.1,
    variant_rate=0.8,
    seed=SEED,
)

GOLDEN_SPEC = dict(
    n_clusters=16,
    mean_cluster_size=5.0,
    conflict_rate=0.0,
    variant_rate=0.6,
    seed=8,
)


@pytest.fixture(scope="module")
def stream():
    return dataset_stream(
        address_dataset(spec=SPEC, seed=SEED), batches=3, seed=SEED
    )


@pytest.fixture(scope="module")
def gstream():
    return golden_stream(batches=3, **GOLDEN_SPEC)


def run_single(stream, obs, shards=1, **kwargs):
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=0
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=UNBOUNDED,
        persist_decisions=False,
        shards=shards,
        obs=obs,
        **kwargs,
    )
    with consolidator:
        reports = consolidator.run(stream.batches)
    return consolidator, reports


def run_golden(gstream, obs, shards=1, **kwargs):
    consolidator = GoldenStreamConsolidator(
        columns=gstream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            gstream.canonical_by_rid, seed=0
        ),
        key_attribute=gstream.key_column,
        budget_per_batch=UNBOUNDED,
        persist_decisions=False,
        shards=shards,
        obs=obs,
        **kwargs,
    )
    with consolidator:
        consolidator.run(gstream.batches)
    return consolidator


def deterministic_bytes(obs):
    """The byte-comparable view of a run's semantic counters."""
    return json.dumps(
        obs.metrics.snapshot(deterministic_only=True), sort_keys=True
    )


class TestShardCountInvariance:
    """Deterministic metric totals are identical at any shard count."""

    def test_single_column_shards_1_vs_4(self, stream):
        obs1, obs4 = Obs(), Obs()
        run_single(stream, obs1, shards=1)
        run_single(stream, obs4, shards=4)
        assert deterministic_bytes(obs1) == deterministic_bytes(obs4)
        # And the view is non-trivial: semantic counters are present.
        snap = obs1.metrics.snapshot(deterministic_only=True)
        assert snap["stream.batches"] == 3
        assert f"stream.questions{{column={stream.column}}}" in snap

    def test_golden_stream_shards_1_vs_4(self, gstream):
        obs1, obs4 = Obs(), Obs()
        run_golden(gstream, obs1, shards=1)
        run_golden(gstream, obs4, shards=4)
        assert deterministic_bytes(obs1) == deterministic_bytes(obs4)
        snap = obs1.metrics.snapshot(deterministic_only=True)
        assert snap["stream.batches"] == 3
        for column in gstream.columns:
            assert f"stream.questions{{column={column}}}" in snap

    def test_volatile_instruments_exist_but_are_excluded(self, stream):
        obs = Obs()
        run_single(stream, obs, shards=2)
        full = obs.metrics.snapshot()
        deterministic = obs.metrics.snapshot(deterministic_only=True)
        volatile = set(full) - set(deterministic)
        # Timings and IPC accounting are recorded...
        assert any(key.startswith("span.seconds") for key in volatile)
        assert any(key.startswith("shards.") for key in volatile)
        # ...but never leak into the byte-comparable view.
        assert not any(key.startswith("span.") for key in deterministic)
        assert not any(key.startswith("shards.") for key in deterministic)


class TestRecordedRows:
    def test_batch_rows_and_snapshot(self, stream):
        obs = Obs(sink=MemorySink())
        consolidator, reports = run_single(stream, obs)
        obs.flush_snapshot()
        rows = obs.sink.rows
        batch_rows = [r for r in rows if r["type"] == "batch"]
        assert len(batch_rows) == len(reports) == 3
        for row in batch_rows:
            assert row["records"] > 0
            assert "learn" in row["stage_seconds"]
        assert rows[-1]["type"] == "snapshot"
        assert validate_rows(rows) == []

    def test_stage_seconds_populated_even_unobserved(self, stream):
        # Satellite fix: per-stage timing rides in BatchReport whether
        # or not anyone attached an Obs.
        consolidator, reports = run_single(stream, NULL_OBS)
        for report in reports:
            stats = report.stats()
            assert set(stats["stage_seconds"]) >= {
                "engine",
                "resolve",
                "derive",
                "learn",
            }
            assert all(s >= 0 for s in stats["stage_seconds"].values())

    def test_trace_rows_form_stage_tree(self, stream):
        obs = Obs(sink=MemorySink(), trace=True)
        run_single(stream, obs)
        spans = [r for r in obs.sink.rows if r["type"] == "span"]
        stages = {r["span"] for r in spans if r["parent"] == "stream.batch"}
        assert {"stream.engine", "stream.resolve", "stream.learn"} <= stages
        batches = [r for r in spans if r["span"] == "stream.batch"]
        assert len(batches) == 3
        assert all(r["depth"] == 0 for r in batches)

    def test_pool_ipc_metrics_recorded(self, stream):
        obs = Obs()
        run_single(stream, obs, shards=2)
        snap = obs.metrics.snapshot()
        # Shard traffic is accounted per op, with compute time riding
        # back on each reply.
        requests = {
            key: value
            for key, value in snap.items()
            if key.startswith("shards.requests{op=")
        }
        assert requests and sum(requests.values()) > 0
        assert any(
            key.startswith("shards.op_seconds{op=") for key in snap
        )
        assert {
            f"shards.busy_seconds{{shard={i}}}" for i in range(2)
        } <= set(snap)


class TestBatchCountMirror:
    """The batch row and the registry are driven by one declaration
    (:meth:`BatchReport.counts` / :meth:`BatchReport.fusion_counts`):
    each declared count's registry counter equals the sum of its batch
    row column."""

    @staticmethod
    def check(obs, reports, declared):
        from repro.stream.golden import ORACLE_COUNTS

        snap = obs.metrics.snapshot(deterministic_only=True)
        rows = [r for r in obs.sink.rows if r["type"] == "batch"]
        assert len(rows) == len(reports)
        for name in declared:
            space = "oracle" if name in ORACLE_COUNTS else "stream"
            total = sum(row[name] for row in rows)
            assert snap[f"{space}.{name}"] == total, name
        return snap

    def test_single_column(self, stream):
        obs = Obs(sink=MemorySink())
        _consolidator, reports = run_single(stream, obs)
        snap = self.check(obs, reports, reports[0].counts())
        assert snap["oracle.questions_saved"] > 0
        # Without fusion the registry carries no fusion counters.
        for name in reports[0].fusion_counts():
            assert f"stream.{name}" not in snap

    def test_golden_stream(self, gstream):
        obs = Obs(sink=MemorySink())
        consolidator = run_golden(gstream, obs, question_order="yield")
        reports = consolidator.reports
        declared = {**reports[0].counts(), **reports[0].fusion_counts()}
        snap = self.check(obs, reports, declared)
        assert snap["stream.golden_changed"] > 0
        assert consolidator.questions_saved == sum(
            row["questions_saved"]
            for row in obs.sink.rows
            if row["type"] == "batch"
        )


class TestDriftEvents:
    def test_relearn_trigger_flows_through_event_stream(self, stream):
        monitor = DriftMonitor(
            window=2, miss_rate_threshold=0.05, min_rows=1
        )
        obs = Obs(sink=MemorySink())
        # The consolidator binds its obs onto an unbound monitor.
        run_single(stream, obs, monitors={stream.column: monitor})
        assert monitor.obs is obs
        assert monitor.triggered > 0
        events = [
            r
            for r in obs.sink.rows
            if r["type"] == "event" and r["event"] == "drift"
        ]
        assert len(events) == monitor.triggered
        for event in events:
            assert 0.0 <= event["miss_rate"] <= 1.0
            assert "batch" in event
        snap = obs.metrics.snapshot()
        assert snap["drift.relearns"] == monitor.triggered


class TestTornTail:
    def test_kill_mid_run_tail_is_recoverable(self, stream, tmp_path):
        path = tmp_path / "metrics.jsonl"
        obs = Obs(sink=JsonlSink(path))
        run_single(stream, obs)
        obs.flush_snapshot()
        obs.close()
        complete = list(iter_rows(path))
        # A kill mid-append leaves a torn fragment of the next row.
        with open(path, "ab") as handle:
            handle.write(b'{"type": "batch", "batch": 99, "rec')
        rows = list(iter_rows(path))
        assert rows == complete  # reader drops exactly the torn tail
        # A restarted sink repairs the file before appending.
        resumed = Obs(sink=JsonlSink(path))
        resumed.emit({"type": "meta", "command": "stream"})
        resumed.close()
        rows = list(iter_rows(path))
        assert rows[:-1] == complete
        assert rows[-1] == {"type": "meta", "command": "stream"}
        assert validate_rows(rows) == []


def run_similarity(stream, obs, shards=1, **kwargs):
    """A similarity-blocked run: resolves arrivals by blocked matching
    on the consolidated column (in the parent at any shard count) and
    learns through the shard pool's grouping feed."""
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=0
        ),
        fusion=None,
        attribute=stream.column,
        budget_per_batch=UNBOUNDED,
        persist_decisions=False,
        shards=shards,
        obs=obs,
        **kwargs,
    )
    with consolidator:
        reports = consolidator.run(stream.batches)
    return consolidator, reports


class TestTracePropagation:
    """Cross-process tracing: worker spans ship back with replies and
    re-attach under the requesting parent, forming one merged forest
    whose (shard-free) shape is identical at any shard count."""

    @staticmethod
    def span_rows(obs):
        return [r for r in obs.sink.rows if r["type"] == "span"]

    def test_shard_spans_merge_under_parent(self, stream):
        obs = Obs(sink=MemorySink(), trace=True)
        run_similarity(stream, obs, shards=4)
        assert validate_rows(obs.sink.rows) == []
        rows = self.span_rows(obs)
        shard_rows = [r for r in rows if r["span"].startswith("shard.")]
        assert shard_rows, "similarity run produced no shard spans"
        # One merged trace: a single trace id across parent and workers.
        assert len({r["trace"] for r in rows}) == 1
        # Every shard span links to a real parent in the same recording.
        by_id = {r["id"]: r for r in rows}
        assert len(by_id) == len(rows)  # ids are unique
        for row in shard_rows:
            assert row["parent_id"] in by_id
        peeks = [r for r in shard_rows if r["span"] == "shard.peek"]
        assert peeks
        for row in peeks:
            assert by_id[row["parent_id"]]["span"] == "stream.learn"
            assert "shard" in row["tags"]
        # The per-shard attribution covers more than one worker.
        assert len({r["tags"]["shard"] for r in peeks}) > 1

    def test_forest_shape_identical_shards_1_vs_4(self, stream):
        obs1 = Obs(sink=MemorySink(), trace=True)
        obs4 = Obs(sink=MemorySink(), trace=True)
        run_similarity(stream, obs1, shards=1)
        run_similarity(stream, obs4, shards=4)
        shape1 = forest_shape(self.span_rows(obs1))
        shape4 = forest_shape(self.span_rows(obs4))
        assert shape1 == shape4
        assert shape1, "trace produced an empty forest"
        # The invariance is about execution topology: with shard
        # subtrees included the four-shard run records strictly more.
        full4 = forest_shape(self.span_rows(obs4), include_shards=True)
        assert full4 != shape4

    def test_golden_forest_shape_identical_shards_1_vs_4(self, gstream):
        obs1 = Obs(sink=MemorySink(), trace=True)
        obs4 = Obs(sink=MemorySink(), trace=True)
        run_golden(gstream, obs1, shards=1)
        run_golden(gstream, obs4, shards=4)
        shape1 = forest_shape(self.span_rows(obs1))
        shape4 = forest_shape(self.span_rows(obs4))
        assert shape1 == shape4
        assert shape1
        # Per-column identity tags keep the golden stages separate.
        flat = repr(shape1)
        for column in gstream.columns:
            assert repr(("column", column)) in flat

    def test_trace_tree_renders_with_shard_attribution(self, stream):
        obs = Obs(sink=MemorySink(), trace=True)
        run_similarity(stream, obs, shards=4)
        tree = format_trace_tree(self.span_rows(obs))
        assert "stream.batch" in tree
        assert "shard.peek[shard=" in tree
        # n / total / self columns are present on every line.
        assert "n=3" in tree  # three batches aggregate into one node
