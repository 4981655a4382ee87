"""Multi-column streaming golden records: the equivalence harness.

The acceptance contract of :class:`repro.stream.golden.
GoldenStreamConsolidator`, pinned end to end:

* **stream == one-shot** — a multi-column streamed run produces the
  *same golden records* as a one-shot
  :class:`~repro.pipeline.consolidate.GoldenRecordCreation` over the
  concatenated data, and its per-column oracle verdicts never
  contradict the one-shot run's on shared members.  On identical
  presentation (the whole stream in one batch) the equivalence is
  exact: identical per-column question counts, identical confirmed
  transformation sets, identical final cell values;
* **shard-count invariance** — ``shards=1`` and ``shards=4`` publish
  **byte-identical** bundles and ask identical per-column questions,
  under key, ``token``, and ``lsh`` blocking alike;
* **incremental fusion is exact** — each batch re-fuses only the
  clusters it touched (the ``clusters_refused`` counter), yet the
  maintained golden records always equal a from-scratch
  :meth:`~repro.stream.golden.GoldenStreamConsolidator.full_refusion`;
* **restart/resume** — a stream killed mid-run and resumed from the
  bundle registry + per-column decision logs replays the judged
  prefix with **zero** repeat questions and converges to the same
  golden records and the same confirmed knowledge as an uninterrupted
  run.

The multi-batch comparison requires content-determined oracle
verdicts (the PR-2 discipline): the spec below is conflict-free and
seed-pinned so every judged group's verdict and direction is a
function of its content, not of its presentation shape.
"""

from collections import Counter

import pytest

from repro.datagen.stream import golden_stream
from repro.pipeline.consolidate import GoldenRecordCreation
from repro.pipeline.oracle import GroundTruthOracle
from repro.resolution.blocking import make_block_keys
from repro.serve.bundle import BundleRegistry
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

UNBOUNDED = 100_000
#: Conflict-free, seed-pinned: oracle verdicts are content-determined,
#: so the streamed and one-shot runs are comparable cell for cell.
SPEC = dict(
    n_clusters=18,
    mean_cluster_size=6.0,
    conflict_rate=0.0,
    variant_rate=0.6,
    seed=8,
)


@pytest.fixture(scope="module")
def stream():
    return golden_stream(batches=3, **SPEC)


@pytest.fixture(scope="module")
def single_batch_stream():
    return golden_stream(batches=1, **SPEC)


def one_shot(stream):
    """One-shot Algorithm 1 over the concatenated stream."""
    table = stream.table()
    canonical = {
        column: stream.canonical_cells(table, column)
        for column in stream.columns
    }

    def factory(standardizer):
        return GroundTruthOracle(
            canonical[standardizer.column], standardizer.store, seed=0
        )

    creation = GoldenRecordCreation(
        table,
        factory,
        budget_per_column=UNBOUNDED,
        columns=stream.columns,
        collect_models=True,
        dataset_name="golden",
    )
    return table, creation.run()


def streamed(stream, blocking=None, registry=None, **kwargs):
    consolidator = make_consolidator(stream, blocking, registry, **kwargs)
    with consolidator:
        reports = consolidator.run(stream.batches)
    return consolidator, reports


def make_consolidator(stream, blocking=None, registry=None, **kwargs):
    resolution = {}
    if blocking is None:
        resolution["key_attribute"] = stream.key_column
    else:
        resolution["attribute"] = stream.columns[0]
        resolution["similarity_threshold"] = 0.75
        resolution["block_keys"] = make_block_keys(blocking)
    kwargs.setdefault("use_engine", False)
    kwargs.setdefault("persist_decisions", False)
    return GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=0
        ),
        budget_per_batch=UNBOUNDED,
        registry=registry,
        bundle_name="golden",
        **resolution,
        **kwargs,
    )


#: The ``--stats`` keys that measure wall-clock, not work.
TIMINGS = ("fusion_seconds", "seconds", "stage_seconds")


def untimed_stats(report):
    """A batch's ``--stats`` row without its timings: what must not
    depend on the shard count."""
    return {k: v for k, v in report.stats().items() if k not in TIMINGS}


def layout(table):
    """Record ids per cluster slot, table order."""
    return [[record.rid for record in c.records] for c in table.clusters]


def golden_of(report):
    """cluster key -> column -> golden value, from a one-shot report."""
    return {record.key: dict(record.values) for record in report.golden}


def final_by_rid(table, column):
    return {
        record.rid: record.values[column]
        for cluster in table.clusters
        for record in cluster.records
    }


def model_shape(model):
    """The confirmed knowledge, member-order-free: every confirmed
    (program, direction, structure) transformation."""
    return sorted(
        (
            group.program.describe(),
            group.direction,
            repr(group.structure),
        )
        for group in model.groups
    )


class TestStreamEqualsOneShot:
    """The headline equivalence, on the provenance-exact path."""

    @pytest.fixture(scope="class")
    def runs(self, stream):
        table, report = one_shot(stream)
        consolidator, reports = streamed(stream)
        return stream, table, report, consolidator, reports

    def test_golden_records_identical(self, runs):
        stream, _table, report, consolidator, _reports = runs
        assert consolidator.golden_by_key() == golden_of(report)

    def test_every_cluster_has_a_golden_record(self, runs):
        stream, _table, _report, consolidator, _reports = runs
        golden = consolidator.golden_by_key()
        assert set(golden) == set(stream.golden_by_key)
        for values in golden.values():
            assert set(values) == set(stream.columns)

    def test_cluster_layout_identical(self, runs):
        """Same clusters, same membership: the shared resolver folds
        the batches into the layout one-shot clustering builds."""
        stream, table, _report, consolidator, _reports = runs

        def rids_by_key(t):
            return {
                cluster.key: Counter(r.rid for r in cluster.records)
                for cluster in t.clusters
                if cluster.records
            }

        assert rids_by_key(consolidator.table) == rids_by_key(table)

    def test_decisions_consistent_on_shared_members(self, runs):
        """The streamed run never contradicts a one-shot verdict."""
        stream, _table, report, consolidator, _reports = runs
        for column in stream.columns:
            one_shot_verdicts = {}
            for step in report.logs[column].steps:
                for member in step.group.replacements:
                    one_shot_verdicts.setdefault(
                        member, step.decision.approved
                    )
            cache = consolidator.standardizers[column].decisions
            for member, decision in cache.items():
                if member in one_shot_verdicts:
                    assert (
                        decision.approved == one_shot_verdicts[member]
                    ), (column, member)

    def test_bundle_covers_every_column(self, runs):
        stream, _table, _report, consolidator, _reports = runs
        bundle = consolidator.build_bundle()
        assert bundle.columns == list(stream.columns)
        for column in stream.columns:
            assert bundle.models[column].column == column
            assert bundle.models[column].groups


class TestSingleBatchExactness:
    """Identical presentation -> exact equivalence: the streamed
    machinery over the whole stream in one batch reproduces one-shot
    Algorithm 1 question for question."""

    @pytest.fixture(scope="class")
    def runs(self, single_batch_stream):
        table, report = one_shot(single_batch_stream)
        consolidator, reports = streamed(single_batch_stream)
        return single_batch_stream, table, report, consolidator

    def test_question_counts_identical_per_column(self, runs):
        stream, _table, report, consolidator = runs
        assert {
            column: consolidator.standardizers[column].questions_asked
            for column in stream.columns
        } == {
            column: report.logs[column].groups_confirmed
            for column in stream.columns
        }

    def test_confirmed_transformations_identical(self, runs):
        stream, _table, report, consolidator = runs
        for column in stream.columns:
            assert model_shape(
                consolidator.build_column_model(column)
            ) == model_shape(report.models[column]), column

    def test_final_cell_values_identical(self, runs):
        stream, table, _report, consolidator = runs
        for column in stream.columns:
            assert final_by_rid(consolidator.table, column) == (
                final_by_rid(table, column)
            ), column

    def test_golden_records_identical(self, runs):
        _stream, _table, report, consolidator = runs
        assert consolidator.golden_by_key() == golden_of(report)


class TestShardCountInvariance:
    """shards=1 vs shards=4: byte-identical bundles, identical
    questions — under key, token, and LSH blocking."""

    @pytest.fixture(scope="class")
    def frozen_clock(self):
        import repro.serve.bundle as bundle_module
        import repro.serve.model as model_module

        originals = (bundle_module.time.time, model_module.time.time)
        bundle_module.time.time = lambda: 1234567890.0
        model_module.time.time = lambda: 1234567890.0
        yield
        bundle_module.time.time, model_module.time.time = originals

    @pytest.mark.parametrize("blocking", [None, "token", "lsh"])
    def test_bundles_byte_identical(
        self, stream, tmp_path, frozen_clock, blocking
    ):
        tag = blocking or "key"
        c1, _ = streamed(
            stream,
            blocking=blocking,
            registry=BundleRegistry(tmp_path / f"{tag}-s1"),
            shards=1,
        )
        c4, _ = streamed(
            stream,
            blocking=blocking,
            registry=BundleRegistry(tmp_path / f"{tag}-s4"),
            shards=4,
            shard_processes=False,
        )
        assert [r.questions_by_column for r in c1.reports] == [
            r.questions_by_column for r in c4.reports
        ]
        assert c1.registry.path("golden").read_bytes() == (
            c4.registry.path("golden").read_bytes()
        )
        assert c1.golden_by_key() == c4.golden_by_key()

    def test_worker_process_backend_matches(
        self, stream, tmp_path, frozen_clock
    ):
        """The real multiprocessing backend, same guarantee — and the
        same ``--stats`` rows, timings aside."""
        c1, reports1 = streamed(
            stream,
            registry=BundleRegistry(tmp_path / "proc-s1"),
            shards=1,
        )
        c3, reports3 = streamed(
            stream,
            registry=BundleRegistry(tmp_path / "proc-s3"),
            shards=3,
            shard_processes=True,
        )
        assert c1.registry.path("golden").read_bytes() == (
            c3.registry.path("golden").read_bytes()
        )
        assert [untimed_stats(r) for r in reports1] == [
            untimed_stats(r) for r in reports3
        ]

    def test_batch_after_close_matches_unsharded(self, stream):
        """close() releases the shard pool; a batch after it matches
        inline and lands exactly where an unsharded run puts it."""
        first, second, third = stream.batches
        base, base_reports = streamed(stream, blocking="token")
        sharded = make_consolidator(
            stream, blocking="token", shards=2, shard_processes=False
        )
        sharded.process_batch(first)
        sharded.process_batch(second)
        sharded.close()
        assert sharded.pool is None
        sharded.process_batch(third)
        assert [untimed_stats(r) for r in sharded.reports] == [
            untimed_stats(r) for r in base_reports
        ]
        assert layout(sharded.table) == layout(base.table)


class TestIncrementalFusionDelta:
    """Each batch re-fuses only the clusters it touched, and the
    maintained golden records always match a full re-fusion."""

    @pytest.fixture(scope="class")
    def run(self, stream):
        return streamed(stream)

    def test_counter_exposed_in_stats(self, run):
        _consolidator, reports = run
        for report in reports:
            stats = report.stats()
            assert stats["clusters_refused"] == report.clusters_refused
            assert stats["clusters_live"] == report.clusters_live

    def test_later_batches_refuse_strictly_fewer_than_live(self, run):
        """The delta property: once clusters settle, they drop out of
        the per-batch fusion work (a full per-batch re-fusion would
        recompute every live cluster every batch)."""
        _consolidator, reports = run
        assert all(r.clusters_refused > 0 for r in reports)
        for report in reports[1:]:
            assert report.clusters_refused < report.clusters_live

    def test_full_refusion_cross_check(self, run):
        """Exactness: the incrementally maintained golden records equal
        a from-scratch table-level fusion of the final table."""
        consolidator, _reports = run
        refused = consolidator.full_refusion()
        maintained = {
            record.cluster: dict(record.values)
            for record in consolidator.golden_records()
        }
        assert maintained == refused

    def test_global_fusion_falls_back_to_full_refusion(self, stream):
        """Accu couples clusters through source accuracies: no exact
        local kernel, so every live cluster re-fuses each batch (the
        counter makes the fallback observable)."""
        from repro.fusion import accu

        consolidator, reports = streamed(stream, fusion=accu.fuse)
        for report in reports:
            assert report.clusters_refused == report.clusters_live
        assert (
            consolidator.full_refusion()
            == {
                record.cluster: dict(record.values)
                for record in consolidator.golden_records()
            }
        )


class TestRestartResume:
    """A stream killed mid-run resumes from the registry + per-column
    decision logs: zero repeat questions, identical end state."""

    @pytest.fixture(scope="class")
    def runs(self, stream, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden-resume")

        def make(registry):
            return GoldenStreamConsolidator(
                columns=stream.columns,
                oracle_factory=golden_ground_truth_oracle_factory(
                    stream.canonical_by_rid, seed=0
                ),
                key_attribute=stream.key_column,
                budget_per_batch=UNBOUNDED,
                use_engine=False,
                registry=registry,
                bundle_name="golden",
            )

        full_registry = BundleRegistry(root / "full")
        with make(full_registry) as full:
            full.run(stream.batches)
            full_golden = full.golden_by_key()
            full_questions = full.questions_asked

        kill_registry = BundleRegistry(root / "killed")
        interrupted = make(kill_registry)
        interrupted.process_batch(stream.batches[0])
        interrupted.process_batch(stream.batches[1])
        interrupted.close()  # killed: batch 2 never happened
        killed_versions = tuple(kill_registry.versions("golden"))

        resumed = make(kill_registry)
        replay_reports = [
            resumed.process_batch(stream.batches[0]),
            resumed.process_batch(stream.batches[1]),
        ]
        resumed.process_batch(stream.batches[2])
        resumed_bundle = resumed.build_bundle()
        resumed.close()
        return {
            "stream": stream,
            "full_registry": full_registry,
            "kill_registry": kill_registry,
            "full_golden": full_golden,
            "full_questions": full_questions,
            "interrupted": interrupted,
            "resumed": resumed,
            "replay_reports": replay_reports,
            "resumed_bundle": resumed_bundle,
            "killed_versions": killed_versions,
        }

    def test_resumes_from_latest_bundle_version(self, runs):
        assert runs["resumed"].resumed_from == (
            runs["interrupted"].bundle_version
        )
        # ... which is the latest version the killed run published.
        assert runs["resumed"].resumed_from == runs["killed_versions"][-1]

    def test_replayed_prefix_asks_zero_questions(self, runs):
        replay_reports = runs["replay_reports"]
        assert sum(r.questions_asked for r in replay_reports) == 0
        # The replay really did re-apply cached knowledge, not skip it.
        assert any(r.reused_replacements for r in replay_reports)

    def test_no_judged_member_is_ever_reasked(self, runs):
        interrupted, resumed = runs["interrupted"], runs["resumed"]
        for column in runs["stream"].columns:
            judged = {
                member
                for member, _ in interrupted.standardizers[
                    column
                ].decisions.items()
            }
            resumed_std = resumed.standardizers[column]
            asked = {
                member
                for step in resumed_std.log.steps[
                    len(resumed_std.log.steps)
                    - resumed_std.questions_asked:
                ]
                for member in step.group.replacements
            }
            assert not judged & asked, column

    def test_total_question_spend_matches_uninterrupted(self, runs):
        assert (
            runs["interrupted"].questions_asked
            + runs["resumed"].questions_asked
            == runs["full_questions"]
        )

    def test_final_golden_records_identical(self, runs):
        assert runs["resumed"].golden_by_key() == runs["full_golden"]

    def test_final_bundle_knowledge_identical(self, runs):
        """The resumed run's published bundle carries the same
        confirmed transformations per column as the uninterrupted
        run's (provenance differs by design: it records the resume)."""
        resumed_bundle = runs["resumed_bundle"]
        full_bundle = runs["full_registry"].load("golden")
        assert resumed_bundle.columns == full_bundle.columns
        for column in runs["stream"].columns:
            assert model_shape(resumed_bundle.models[column]) == (
                model_shape(full_bundle.models[column])
            ), column

    def test_per_column_decision_logs_on_disk(self, runs):
        for column in runs["stream"].columns:
            log = (
                runs["kill_registry"].root
                / "golden"
                / f"decisions-{column}.jsonl"
            )
            assert log.exists() and log.read_text().strip(), column


class TestFreshFlag:
    """``resume=False`` starts over: archives the stale per-column
    logs instead of replaying them."""

    def test_fresh_archives_per_column_logs(self, stream, tmp_path):
        registry = BundleRegistry(tmp_path / "registry")

        def make(**kwargs):
            return GoldenStreamConsolidator(
                columns=stream.columns,
                oracle_factory=golden_ground_truth_oracle_factory(
                    stream.canonical_by_rid, seed=0
                ),
                key_attribute=stream.key_column,
                budget_per_batch=UNBOUNDED,
                use_engine=False,
                registry=registry,
                bundle_name="golden",
                **kwargs,
            )

        with make() as first:
            first.process_batch(stream.batches[0])
            first_questions = first.questions_asked
        assert first_questions > 0
        with make(resume=False) as fresh:
            fresh.process_batch(stream.batches[0])
            assert fresh.resumed_from is None
            # Start-over really re-asks (nothing replayed) ...
            assert fresh.questions_asked == first_questions
        # ... and the paid-for history was archived, not deleted.
        column = stream.columns[0]
        log_dir = registry.root / "golden"
        assert (
            log_dir / f"decisions-{column}.jsonl.pre-fresh-1"
        ).exists()


class TestValidation:
    def test_duplicate_columns_rejected(self, stream):
        with pytest.raises(ValueError, match="duplicate"):
            GoldenStreamConsolidator(
                columns=("address", "address"),
                oracle_factory=golden_ground_truth_oracle_factory(
                    stream.canonical_by_rid
                ),
            )

    def test_empty_columns_rejected(self, stream):
        with pytest.raises(ValueError, match="at least one column"):
            GoldenStreamConsolidator(
                columns=(),
                oracle_factory=golden_ground_truth_oracle_factory(
                    stream.canonical_by_rid
                ),
            )

    def test_requires_a_batch_before_state_access(self, stream):
        consolidator = GoldenStreamConsolidator(
            columns=stream.columns,
            oracle_factory=golden_ground_truth_oracle_factory(
                stream.canonical_by_rid
            ),
            key_attribute=stream.key_column,
        )
        with pytest.raises(RuntimeError, match="no batch processed"):
            consolidator.golden_records()
