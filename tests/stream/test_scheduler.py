"""Yield-ranked oracle scheduling (``--question-order yield``).

Three properties pin the scheduler:

* **ranking** — the feed spends the next question on the group with
  the highest expected cells-fixed (support × cluster fanout), not on
  whatever discovery order surfaces next;
* **inference** — candidates the approved rewrite chain already proves
  (A→B and B→C cached ⇒ derived A→C) are settled and *applied* without
  a question, recorded in the decision log with ``source: inferred``;
* **determinism** — everything is a parent-side pure integer function
  of store + table state, so sharded yield-mode runs stay
  byte-identical to unsharded ones, exactly like discovery mode.
"""

import json

import pytest

from repro.core.replacement import Replacement
from repro.data.table import CellRef, ClusterTable, Record
from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream, golden_stream
from repro.pipeline.oracle import FORWARD, REVERSE, ApproveAllOracle, Decision
from repro.serve.bundle import BundleRegistry
from repro.stream import (
    DecisionCache,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)
from repro.stream.scheduler import (
    YieldRankedFeed,
    allocate_budget,
    approved_rewrites,
    group_yield,
    member_yield,
    transitive_direction,
)
from repro.stream.standardizer import IncrementalStandardizer

COLUMN = "addr"


def make_table(clusters):
    table = ClusterTable([COLUMN])
    for key, values in clusters:
        table.add_cluster(
            key,
            [
                Record(f"{key}_{i}", {COLUMN: value})
                for i, value in enumerate(values)
            ],
        )
    return table


def make_standardizer(clusters, decisions=None):
    table = make_table(clusters)
    standardizer = IncrementalStandardizer(
        table, COLUMN, decisions=decisions
    )
    standardizer.ingest(table.cells(COLUMN))
    return standardizer


class TestAllocateBudget:
    def test_proportional_largest_remainder(self):
        shares = allocate_budget({"a": 5, "b": 1, "c": 0}, 10, "abc")
        assert shares == [("a", 8), ("b", 2), ("c", 0)]
        assert sum(s for _, s in shares) == 10

    def test_processing_order_is_yield_descending(self):
        shares = allocate_budget({"a": 1, "b": 9, "c": 4}, 7, "abc")
        assert [column for column, _ in shares] == ["b", "c", "a"]
        assert sum(s for _, s in shares) == 7

    def test_even_split_when_nothing_pends(self):
        shares = allocate_budget({}, 10, "abc")
        assert sorted(s for _, s in shares) == [3, 3, 4]

    def test_zero_budget(self):
        assert allocate_budget({"a": 3}, 0, "a") == [("a", 0)]

    def test_exhaustive_and_deterministic(self):
        yields = {"a": 7, "b": 7, "c": 2, "d": 0}
        first = allocate_budget(yields, 11, "abcd")
        assert first == allocate_budget(yields, 11, "abcd")
        assert sum(s for _, s in first) == 11
        # Equal yields tie toward the earlier column.
        assert [column for column, _ in first][:2] == ["a", "b"]


class TestYieldRanking:
    #: One high-fanout cluster (6 records sharing one variation) and
    #: one tiny cluster: fixing the big cluster's variation serves 3x
    #: the records.
    CLUSTERS = [
        ("big", ["Main St"] * 3 + ["Main Street"] * 3),
        ("small", ["Apple Inc", "Apple Incorporated"]),
    ]

    def test_member_yield_counts_cluster_fanout(self):
        standardizer = make_standardizer(self.CLUSTERS)
        store, table = standardizer.store, standardizer.table
        high = member_yield(
            store, table, Replacement("Main St", "Main Street")
        )
        low = member_yield(
            store, table, Replacement("Apple Inc", "Apple Incorporated")
        )
        # 3x3 provenance pairs, each in a 6-record cluster, vs one
        # pair in a 2-record cluster.
        assert high > low > 0

    def test_feed_pops_in_non_increasing_yield_order(self):
        standardizer = make_standardizer(self.CLUSTERS)
        from repro.core.incremental import IncrementalGrouper

        inner = IncrementalGrouper(
            standardizer.undecided(),
            standardizer.vocabulary,
            standardizer.config,
        )
        feed = YieldRankedFeed(
            inner, standardizer.store, standardizer.table
        )
        store, table = standardizer.store, standardizer.table
        scores = []
        while True:
            group = feed.next_group()
            if group is None:
                break
            # Nothing is applied between pops, so scores are static
            # and the window covers every group: the emission order
            # must be non-increasing yield.
            scores.append(group_yield(store, table, group))
        assert len(scores) > 1
        assert scores == sorted(scores, reverse=True)
        # The big cluster's variation dominates the first question.
        high = member_yield(
            store, table, Replacement("Main St", "Main Street")
        )
        assert scores[0] >= high

    def test_peek_does_not_consume(self):
        standardizer = make_standardizer(self.CLUSTERS)
        from repro.core.incremental import IncrementalGrouper

        inner = IncrementalGrouper(
            standardizer.undecided(),
            standardizer.vocabulary,
            standardizer.config,
        )
        feed = YieldRankedFeed(
            inner, standardizer.store, standardizer.table
        )
        score, group = feed.peek()
        assert score == group_yield(
            standardizer.store, standardizer.table, group
        )
        assert feed.next_group() == group

    def test_remove_replacements_filters_the_buffer(self):
        standardizer = make_standardizer(self.CLUSTERS)
        from repro.core.incremental import IncrementalGrouper

        inner = IncrementalGrouper(
            standardizer.undecided(),
            standardizer.vocabulary,
            standardizer.config,
        )
        feed = YieldRankedFeed(
            inner, standardizer.store, standardizer.table
        )
        _score, first = feed.peek()  # buffer is now filled
        feed.remove_replacements(set(first.replacements))
        remaining = []
        while True:
            group = feed.next_group()
            if group is None:
                break
            remaining.append(group)
        for group in remaining:
            assert not set(group.replacements) & set(first.replacements)

    def test_yield_ranked_learn_same_totals_as_discovery(self):
        """Unbudgeted, the scheduler changes the *order* questions are
        asked in, never the set of questions or the final table."""

        def run(yield_ranked):
            standardizer = make_standardizer(self.CLUSTERS)
            standardizer.learn(
                ApproveAllOracle(), 100, yield_ranked=yield_ranked
            )
            return (
                standardizer.questions_asked,
                sorted(
                    standardizer.table.column_values(COLUMN)
                ),
            )

        assert run(True) == run(False)


class TestTransitiveInference:
    def test_approved_rewrites_resolve_direction(self):
        cache = DecisionCache()
        cache.record(Replacement("a", "b"), Decision(True, FORWARD))
        cache.record(Replacement("c", "b"), Decision(True, REVERSE))
        cache.record(Replacement("x", "y"), Decision(False, FORWARD))
        assert approved_rewrites(cache) == {"a": "b", "b": "c"}

    def test_transitive_direction_walks_the_chain(self):
        forward = {"a": "b", "b": "c"}
        assert transitive_direction(forward, Replacement("a", "c")) == FORWARD
        assert transitive_direction(forward, Replacement("c", "a")) == REVERSE
        assert transitive_direction(forward, Replacement("a", "z")) is None

    def test_cyclic_chain_terminates(self):
        forward = {"a": "b", "b": "a"}
        assert transitive_direction(forward, Replacement("a", "z")) is None

    def test_infer_transitive_settles_and_applies(self, tmp_path):
        log = tmp_path / "decisions.jsonl"
        cache = DecisionCache(log)
        cache.record(Replacement("aa", "bb"), Decision(True, FORWARD))
        cache.record(Replacement("bb", "cc"), Decision(True, FORWARD))
        standardizer = make_standardizer(
            [("c0", ["aa", "bb"]), ("c1", ["bb", "cc"]), ("c2", ["aa", "cc"])],
            decisions=cache,
        )
        inferred, changed = standardizer.infer_transitive()
        assert inferred == 1 and changed > 0
        assert standardizer.inferred_verdicts == 1
        # The derived aa->cc candidate is settled FORWARD and applied.
        assert standardizer.table.cluster_values(2, COLUMN) == ["cc", "cc"]
        # Durably recorded, tagged machine-settled.
        rows = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert rows[-1]["lhs"] == "aa" and rows[-1]["rhs"] == "cc"
        assert rows[-1]["approved"] is True
        assert rows[-1]["source"] == "inferred"
        # Human verdicts carry no source tag.
        assert "source" not in rows[0]

    def test_inferred_verdict_replays_like_any_other(self, tmp_path):
        log = tmp_path / "decisions.jsonl"
        cache = DecisionCache(log)
        cache.record(Replacement("aa", "bb"), Decision(True, FORWARD))
        cache.record(Replacement("bb", "cc"), Decision(True, FORWARD))
        standardizer = make_standardizer(
            [("c0", ["aa", "bb"]), ("c1", ["bb", "cc"]), ("c2", ["aa", "cc"])],
            decisions=cache,
        )
        standardizer.infer_transitive()
        # A restart replays all three verdicts, inferred included.
        assert DecisionCache(log).replayed == 3

    def test_nothing_inferred_without_a_chain(self):
        standardizer = make_standardizer(
            [("c0", ["aa", "bb"]), ("c1", ["cc", "dd"])]
        )
        assert standardizer.infer_transitive() == (0, 0)


class TestPartitionThreading:
    """``undecided()`` / ``skipped_rejected()`` accept an existing
    partition instead of re-scanning the live set (the satellite-3
    fix)."""

    def test_partition_is_threaded_not_rescanned(self):
        standardizer = make_standardizer(
            [("c0", ["Main St", "Main Street"])]
        )
        partition = standardizer.partition_live()
        calls = []
        original = standardizer.partition_live
        standardizer.partition_live = lambda: calls.append(1) or original()
        assert standardizer.undecided(partition) == partition[2]
        assert standardizer.skipped_rejected(partition) == partition[1]
        assert calls == []  # no re-scan happened
        standardizer.partition_live = original
        # Without a partition the scan still runs (back-compat).
        assert standardizer.undecided() == partition[2]


class TestReversedRederivationReplay:
    """Regression (satellite bugfix): a verdict recorded as A→B must
    re-apply after a restart even when the re-derived provenance only
    survives under the mirrored B→A key.

    ``partition_live`` finds the verdict through the orientation-aware
    cache lookup, but ``reuse_confirmed``'s walk used to check
    liveness (``replacement not in self.store``) in the *recorded*
    orientation only — the pair was seen as approved yet never
    re-applied, and being decided it could never reach the question
    feed to recover.
    """

    RECORDED = Replacement("5 Main Street", "5 Main St")

    def asymmetric_standardizer(self, tmp_path):
        log = tmp_path / "decisions.jsonl"
        DecisionCache(log).record(self.RECORDED, Decision(True, FORWARD))
        # The restarted process re-derives the judged pair; forge the
        # asymmetric store state where only the mirrored orientation
        # survived (generation is symmetric, so this is constructed
        # directly — the same way the cycle regression above forges
        # its pathological history).
        standardizer = make_standardizer(
            [("c0", ["5 Main Street", "5 Main St"])],
            decisions=DecisionCache(log),
        )
        store = standardizer.store
        store.pair_entries.pop(self.RECORDED, None)
        store.token_entries.pop(self.RECORDED, None)
        assert self.RECORDED not in store
        assert self.RECORDED.reversed() in store
        return standardizer

    def test_mirror_only_provenance_is_reapplied(self, tmp_path):
        standardizer = self.asymmetric_standardizer(tmp_path)
        reused, changed = standardizer.reuse_confirmed()
        assert reused == 1 and changed > 0
        # Applied in the *confirmed* direction: Street -> St.
        assert standardizer.table.cluster_values(0, COLUMN) == [
            "5 Main St",
            "5 Main St",
        ]

    def test_symmetric_replay_is_unchanged(self, tmp_path):
        """The fix must not disturb the normal symmetric path: same
        reuse, same cells, same final values as before."""
        log = tmp_path / "sym.jsonl"
        DecisionCache(log).record(self.RECORDED, Decision(True, FORWARD))
        standardizer = make_standardizer(
            [("c0", ["5 Main Street", "5 Main St"])],
            decisions=DecisionCache(log),
        )
        reused, changed = standardizer.reuse_confirmed()
        assert reused == 1 and changed == 1
        assert standardizer.table.cluster_values(0, COLUMN) == [
            "5 Main St",
            "5 Main St",
        ]


SEED = 11
SPEC = GeneratorSpec(
    n_clusters=24,
    mean_cluster_size=5.0,
    conflict_rate=0.1,
    variant_rate=0.8,
    seed=SEED,
)


@pytest.fixture(scope="module")
def addr_stream():
    return dataset_stream(
        address_dataset(spec=SPEC, seed=SEED), batches=3, seed=SEED
    )


def run_yield_stream(stream, tmp_path, tag, shards, budget=8):
    registry = BundleRegistry(tmp_path / f"registry-{tag}")
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=0
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=budget,
        registry=registry,
        bundle_name="addr",
        persist_decisions=False,
        use_engine=False,
        shards=shards,
        shard_processes=False,
        question_order="yield",
    )
    with consolidator:
        reports = consolidator.run(stream.batches)
    questions = [r.questions_asked for r in reports]
    programs = [
        step.group.program.describe()
        for step in consolidator.standardizers[stream.column].log.steps
    ]
    return questions, programs, registry.path("addr").read_bytes()


class TestShardedYieldDeterminism:
    """The acceptance property: yield scheduling keeps ``--shards N``
    byte-identical to unsharded, question for question."""

    @pytest.fixture(scope="class")
    def frozen_clock(self):
        import repro.serve.model as model_module

        original = model_module.time.time
        model_module.time.time = lambda: 1234567890.0
        yield
        model_module.time.time = original

    def test_budgeted_yield_byte_identical(
        self, addr_stream, tmp_path, frozen_clock
    ):
        # The tight budget makes the ranking binding: a divergent
        # score anywhere would change which groups get asked at all.
        q1, p1, m1 = run_yield_stream(addr_stream, tmp_path, "y1", shards=1)
        q3, p3, m3 = run_yield_stream(addr_stream, tmp_path, "y3", shards=3)
        assert q1 == q3
        assert p1 == p3
        assert m1 == m3

    def test_golden_yield_bundles_byte_identical(self, tmp_path):
        stream = golden_stream(
            batches=2,
            n_clusters=16,
            mean_cluster_size=5.0,
            conflict_rate=0.0,
            variant_rate=0.6,
            seed=8,
        )

        def run(tag, shards):
            registry = BundleRegistry(tmp_path / f"bundle-{tag}")
            consolidator = GoldenStreamConsolidator(
                columns=stream.columns,
                oracle_factory=golden_ground_truth_oracle_factory(
                    stream.canonical_by_rid, seed=0
                ),
                key_attribute=stream.key_column,
                budget_per_batch=6,
                registry=registry,
                bundle_name="golden",
                persist_decisions=False,
                use_engine=False,
                shards=shards,
                shard_processes=False,
                question_order="yield",
            )
            with consolidator:
                reports = consolidator.run(stream.batches)
            bundle = consolidator.build_bundle()
            return (
                [dict(r.questions_by_column) for r in reports],
                json.dumps(bundle.to_dict(), sort_keys=True),
            )

        assert run("g1", 1) == run("g4", 4)
