"""End-to-end streaming consolidation tests (the acceptance properties).

The anchor test proves the subsystem's contract: streaming N batches
through a one-column :class:`GoldenStreamConsolidator` converges to the
*same* final replacement state as one-shot consolidation of the
concatenated table under the same (content-determined) oracle, while
batches 2..N each ask strictly fewer oracle questions than either the
one-shot run or a full relearn over the cumulative data at that point.
"""

from collections import Counter

import pytest

from repro.data.table import Record
from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.resolution.matcher import cluster_by_key
from repro.stream import (
    DriftMonitor,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

SEED = 3
BATCHES = 3
#: Variant-only clusters: oracle decisions are content-determined, so
#: the stream/one-shot comparison is exact (conflicted clusters can tie
#: and break on presentation order in either run mode).
SPEC = GeneratorSpec(
    n_clusters=30,
    mean_cluster_size=5.0,
    conflict_rate=0.0,
    variant_rate=0.8,
    seed=SEED,
)
UNBOUNDED = 100_000


@pytest.fixture(scope="module")
def stream():
    return dataset_stream(
        address_dataset(spec=SPEC, seed=SEED), batches=BATCHES, seed=SEED
    )


def values_by_key(table):
    """cluster key -> multiset of column values (non-empty clusters)."""
    by_key = {}
    for cluster in table.clusters:
        if cluster.records:
            by_key.setdefault(cluster.key, Counter()).update(
                r.values["address"] for r in cluster.records
            )
    return by_key


def one_shot(stream, records=None):
    """Full consolidation of (a prefix of) the stream in one shot."""
    source = records if records is not None else stream.records
    table = cluster_by_key(
        [Record(r.rid, dict(r.values), r.source) for r in source],
        stream.key_column,
    )
    standardizer = Standardizer(table, stream.column)
    oracle = GroundTruthOracle(
        stream.canonical_cells(table), standardizer.store, seed=0
    )
    log = standardizer.run(oracle, UNBOUNDED)
    return table, log


def streaming(stream, **kwargs):
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=0
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=UNBOUNDED,
        **kwargs,
    )
    reports = consolidator.run(stream.batches)
    return consolidator, reports


class TestStreamingEqualsOneShot:
    """The acceptance property, on the provenance-exact path."""

    @pytest.fixture(scope="class")
    def runs(self, stream):
        table, log = one_shot(stream)
        consolidator, reports = streaming(stream, use_engine=False)
        return stream, table, log, consolidator, reports

    def test_final_values_identical(self, runs):
        stream, table, _log, consolidator, _reports = runs
        assert values_by_key(consolidator.table) == values_by_key(table)

    def test_final_replacement_groups_identical(self, runs):
        """Every record's effective replacement (original -> final
        value) is identical — the confirmed knowledge converged to the
        same standardization even though incremental presentation may
        decompose it into differently-shaped confirmation steps."""
        _stream, table, _log, consolidator, _reports = runs

        def final_by_rid(t):
            return {
                record.rid: record.values["address"]
                for cluster in t.clusters
                for record in cluster.records
            }

        assert final_by_rid(consolidator.table) == final_by_rid(table)

    def test_decisions_consistent_on_shared_members(self, runs):
        stream, _table, log, consolidator, _reports = runs
        one_shot_decisions = {}
        for step in log.steps:
            for member in step.group.replacements:
                one_shot_decisions.setdefault(
                    member, step.decision.approved
                )
        standardizer = consolidator.standardizers[stream.column]
        for member, decision in standardizer.decisions.items():
            if member in one_shot_decisions:
                assert decision.approved == one_shot_decisions[member], member

    def test_later_batches_ask_strictly_fewer_questions(self, runs):
        stream, _table, log, _consolidator, reports = runs
        assert all(r.questions_asked > 0 for r in reports)
        for report in reports[1:]:
            # ... than the one-shot over the whole stream,
            assert report.questions_asked < log.groups_confirmed
            # ... and than a full relearn of the cumulative data so far.
            prefix = [
                record
                for batch in stream.batches[: report.index + 1]
                for record in batch
            ]
            _t, prefix_log = one_shot(stream, prefix)
            assert report.questions_asked < prefix_log.groups_confirmed

    def test_reuse_happens(self, runs):
        _stream, _table, _log, consolidator, reports = runs
        assert consolidator.questions_saved > 0
        assert any(
            r.reused_replacements or r.rejected_skips for r in reports[1:]
        )


class TestEngineFastPath:
    def test_engine_explains_and_versions_advance(self, stream):
        consolidator, reports = streaming(stream, use_engine=True)
        # A bundle exists after batch 1 and explains later arrivals.
        assert consolidator.engine is not None
        assert sum(r.explained_cells for r in reports[1:]) > 0
        versions = [
            r.bundle_version for r in reports if r.bundle_version is not None
        ]
        assert versions and versions == sorted(versions)
        assert consolidator.bundle_version == versions[-1]

    def test_engine_hot_reloads_between_batches(self, stream):
        consolidator, reports = streaming(stream, use_engine=True)
        engine = consolidator.engine
        # The subscribed engine serves the *latest* published bundle.
        assert engine.bundle.groups_confirmed == (
            consolidator.build_bundle().groups_confirmed
        )

    def test_drift_monitor_wiring(self, stream):
        monitor = DriftMonitor(
            window=2, miss_rate_threshold=0.0, min_rows=1
        )
        consolidator, reports = streaming(
            stream, use_engine=True, monitors={stream.column: monitor}
        )
        # Threshold 0 means any unexplained cell triggers: the monitor
        # is exercised and reset along the way.
        assert any(r.drift_triggered for r in reports)

    def test_drift_monitor_works_without_engine(self, stream):
        """The drift signal is candidate-key novelty, not an engine
        statistic — ``--no-engine`` streams must still monitor."""
        monitor = DriftMonitor(
            window=2, miss_rate_threshold=0.0, min_rows=1
        )
        _consolidator, reports = streaming(
            stream, use_engine=False, monitors={stream.column: monitor}
        )
        assert any(r.drift_triggered for r in reports)
        assert monitor.triggered > 0


class TestSameBatchAppendAndMerge:
    """A record appended *and* merge-displaced within one batch must be
    indexed at its final position, with its novelty counted."""

    @staticmethod
    def run_similarity_stream():
        from repro.resolution.similarity import overlap

        def tok_overlap(a, b):
            return overlap(a.split(), b.split())

        consolidator = GoldenStreamConsolidator(
            columns=["name"],
            # budget 0: learning unused
            oracle_factory=lambda c, column: None,
            fusion=None,
            attribute="name",
            similarity_threshold=0.5,
            similarity=tok_overlap,
            budget_per_batch=0,
            use_engine=False,
        )
        consolidator.process_batch(
            [
                Record("n0", {"name": "red green"}),
                Record("m0", {"name": "blue yellow"}),
                Record("m1", {"name": "blue yellow"}),
                Record("m2", {"name": "blue yellow"}),
            ]
        )
        # n1 joins n0's cluster (dirty variant), then the bridge merges
        # that cluster into the larger blue/yellow one — so n1 is
        # appended AND moved within this single batch.
        report = consolidator.process_batch(
            [
                Record("n1", {"name": "red geen"}),
                Record("b0", {"name": "red green blue yellow"}),
            ]
        )
        return consolidator, report

    def test_no_stale_indexed_cells(self):
        consolidator, report = self.run_similarity_stream()
        assert report.merges == 1
        table = consolidator.table
        for cell in consolidator.standardizers["name"].store._indexed:
            assert cell.row < len(table.clusters[cell.cluster].records), (
                f"stale indexed cell {cell}"
            )

    def test_store_matches_fresh_generation_of_final_table(self):
        from repro.candidates.generate import generate_candidates

        consolidator, _report = self.run_similarity_stream()
        fresh = generate_candidates(consolidator.table.copy(), "name")

        def snapshot(store):
            return (
                {r: frozenset(e) for r, e in store.pair_entries.items() if e},
                {r: frozenset(e) for r, e in store.token_entries.items() if e},
            )

        assert snapshot(consolidator.standardizers["name"].store) == (
            snapshot(fresh)
        )

    def test_novelty_of_moved_arrivals_counted(self):
        _consolidator, report = self.run_similarity_stream()
        # Both arrivals introduced unseen candidate keys: the dirty
        # variant n1 and the bridge value itself.
        assert report.unmatched_cells == 2


class TestConsolidatorBehaviour:
    def test_caller_records_never_mutated(self, stream):
        before = {
            r.rid: dict(r.values)
            for batch in stream.batches
            for r in batch
        }
        streaming(stream, use_engine=True)
        after = {
            r.rid: dict(r.values)
            for batch in stream.batches
            for r in batch
        }
        assert before == after

    def test_records_missing_the_column_are_tolerated(self):
        """JSON-lines sources permit arbitrary keys; a record without
        the consolidated column must not crash the stream."""
        from repro.pipeline.oracle import ApproveAllOracle

        consolidator = GoldenStreamConsolidator(
            columns=["name"],
            oracle_factory=lambda c, column: ApproveAllOracle(),
            fusion=None,
            key_attribute="k",
            budget_per_batch=10,
            use_engine=False,
        )
        report = consolidator.process_batch(
            [
                Record("r0", {"k": "1", "name": "Main St"}),
                Record("r1", {"k": "1"}),  # no 'name' at all
                Record("r2", {"k": "1", "name": "Main Street"}),
            ]
        )
        assert report.records == 3
        assert consolidator.table.num_records == 3

    def test_requires_batch_before_state_access(self, stream):
        consolidator = GoldenStreamConsolidator(
            columns=[stream.column],
            oracle_factory=golden_ground_truth_oracle_factory(
                {stream.column: stream.canonical_by_rid}
            ),
            fusion=None,
            key_attribute=stream.key_column,
        )
        with pytest.raises(RuntimeError):
            _ = consolidator.table

    def test_report_describe_mentions_core_counts(self, stream):
        _consolidator, reports = streaming(stream, use_engine=False)
        text = reports[0].describe()
        assert "batch 0" in text and "records" in text and "questions" in text
