"""Shard-merge determinism: sharding changes wall-clock, nothing else.

The acceptance property of ``--shards``: the same batch sequence run at
``--shards 1`` and ``--shards N`` publishes **byte-identical** bundles
while asking **exactly the same** oracle questions — across both the
in-process and the worker-process backends.  The merge logic this
rests on (lazy top-k over independent structure buckets, max-merged by
``(size desc, structure key asc)``) is additionally pinned at the unit
level against the single-process grouper.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.incremental import IncrementalGrouper
from repro.core.replacement import Replacement
from repro.core.terms import TermVocabulary
from repro.data.table import Record
from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream
from repro.resolution.blocking import BlockIndex, lsh_keys, stable_hash
from repro.serve.bundle import BundleRegistry
from repro.stream import (
    GoldenStreamConsolidator,
    ShardPool,
    golden_ground_truth_oracle_factory,
)

SEED = 11
SPEC = GeneratorSpec(
    n_clusters=24,
    mean_cluster_size=5.0,
    conflict_rate=0.1,
    variant_rate=0.8,
    seed=SEED,
)


@pytest.fixture(scope="module")
def stream():
    return dataset_stream(
        address_dataset(spec=SPEC, seed=SEED), batches=3, seed=SEED
    )


def run_stream(stream, tmp_path, tag, budget=100_000, **kwargs):
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
        **kwargs,
    )
    with consolidator:
        reports = consolidator.run(stream.batches)
    questions = [r.questions_asked for r in reports]
    latest = registry.path("addr")
    return questions, latest.read_bytes(), consolidator


class TestShardedStreamDeterminism:
    """``--shards 1`` vs ``--shards 2/4``: byte-identical one-column
    bundles."""

    @pytest.fixture(scope="class")
    def frozen_clock(self):
        import repro.serve.model as model_module

        original = model_module.time.time
        model_module.time.time = lambda: 1234567890.0
        yield
        model_module.time.time = original

    def test_inline_shards_byte_identical(
        self, stream, tmp_path, frozen_clock
    ):
        q1, m1, _ = run_stream(
            stream, tmp_path, "s1", shards=1, use_engine=False
        )
        for shards in (2, 4):
            qn, mn, _ = run_stream(
                stream,
                tmp_path,
                f"s{shards}",
                shards=shards,
                shard_processes=False,
                use_engine=False,
            )
            assert qn == q1
            assert mn == m1

    def test_process_shards_byte_identical(
        self, stream, tmp_path, frozen_clock
    ):
        q1, m1, _ = run_stream(
            stream, tmp_path, "p1", shards=1, use_engine=False
        )
        q4, m4, cons = run_stream(
            stream,
            tmp_path,
            "p4",
            shards=4,
            shard_processes=True,
            use_engine=False,
        )
        assert q1 == q4
        assert m1 == m4

    def test_engine_fast_path_sharded_matches(
        self, stream, tmp_path, frozen_clock
    ):
        q1, m1, _ = run_stream(
            stream, tmp_path, "e1", shards=1, use_engine=True
        )
        q3, m3, _ = run_stream(
            stream,
            tmp_path,
            "e3",
            shards=3,
            shard_processes=False,
            use_engine=True,
        )
        assert q1 == q3
        assert m1 == m3

    def test_budgeted_tie_heavy_stream_byte_identical(
        self, tmp_path, frozen_clock
    ):
        """Regression: programs must not depend on refinement timing.

        Equal-share pivot paths tie-break on search visit order, which
        once depended on whether a structure bucket was preprocessed
        before or after a §7.1 removal — exactly the timing that
        differs between the lazy single grouper and the eager sharded
        feed.  This spec + a tight budget (removals interleaved with
        emission across batches) reproduced groups with identical
        members but different programs before `_Source` learned to
        reset touched sources to an unpreprocessed survivor list.
        """
        spec = GeneratorSpec(
            n_clusters=20,
            mean_cluster_size=5.0,
            conflict_rate=0.1,
            variant_rate=0.8,
            seed=5,
        )
        tie_stream = dataset_stream(
            address_dataset(spec=spec, seed=5), batches=3, seed=5
        )
        q1, m1, _ = run_stream(
            tie_stream, tmp_path, "b1", budget=50, shards=1,
            use_engine=False,
        )
        q4, m4, _ = run_stream(
            tie_stream, tmp_path, "b4", budget=50, shards=4,
            shard_processes=False, use_engine=False,
        )
        assert q1 == q4
        assert m1 == m4

    def test_final_tables_identical(self, stream, tmp_path):
        _, _, c1 = run_stream(
            stream, tmp_path, "t1", shards=1, use_engine=False
        )
        _, _, c4 = run_stream(
            stream,
            tmp_path,
            "t4",
            shards=4,
            shard_processes=False,
            use_engine=False,
        )

        def by_rid(consolidator):
            return {
                r.rid: r.values[stream.column]
                for c in consolidator.table.clusters
                for r in c.records
            }

        assert by_rid(c1) == by_rid(c4)


class TestShardedGroupFeedUnit:
    """The merged feed equals the single grouper, group for group."""

    @staticmethod
    def replacements():
        pairs = [
            ("5 Main St", "5 Main Street"),
            ("12 Oak St", "12 Oak Street"),
            ("9th Ave", "9 Avenue"),
            ("3rd Ave", "3 Avenue"),
            ("NY", "New York"),
            ("LA", "Los Angeles"),
            ("Apt 4", "Apartment 4"),
            ("Apt 9", "Apartment 9"),
            ("Fl 2", "Floor 2"),
        ]
        out = []
        for lhs, rhs in pairs:
            out.append(Replacement(lhs, rhs))
            out.append(Replacement(rhs, lhs))
        return out

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_feed_equals_grouper(self, shards):
        reference = IncrementalGrouper(self.replacements())
        expected = []
        while True:
            group = reference.next_group()
            if group is None:
                break
            expected.append(group)
        with ShardPool(shards, processes=False) as pool:
            feed = pool.group_feed(self.replacements())
            produced = []
            while True:
                group = feed.next_group()
                if group is None:
                    break
                produced.append(group)
        assert [g.replacements for g in produced] == [
            g.replacements for g in expected
        ]
        assert [g.program.canonical() for g in produced] == [
            g.program.canonical() for g in expected
        ]

    def test_feed_remove_replacements_propagates(self):
        replacements = self.replacements()
        with ShardPool(3, processes=False) as pool:
            feed = pool.group_feed(replacements)
            first = feed.next_group()
            assert first is not None
            feed.remove_replacements(list(replacements))
            assert feed.next_group() is None

    def test_process_pool_feed_equals_inline(self):
        replacements = self.replacements()

        def drain(pool):
            feed = pool.group_feed(replacements)
            out = []
            while True:
                group = feed.next_group()
                if group is None:
                    return out
                out.append(group.replacements)

        with ShardPool(2, processes=False) as inline:
            inline_groups = drain(inline)
        with ShardPool(2, processes=True) as procs:
            assert procs.uses_processes
            process_groups = drain(procs)
        assert process_groups == inline_groups


class TestShardPoolKernels:
    def test_unpicklable_vocabulary_degrades_to_inline(self):
        class LocalVocabulary(TermVocabulary):  # local: does not pickle
            pass

        pool = ShardPool(3, vocabulary=LocalVocabulary(), processes=True)
        try:
            assert not pool.uses_processes  # degraded, not broken
        finally:
            pool.close()


DEAD_WORKER_SCRIPT = """
from repro.stream import ShardPool

pool = ShardPool(2, processes=True)
assert pool.uses_processes
backend = pool._backend
backend._processes[0].kill()
backend._processes[0].join()
try:
    pool.request(0, "remove", [])
except RuntimeError as exc:
    print(exc)
# A worker that replied and then exited: its queued reply is drained
# before its death is reported.
backend._requests[1].put(("remove", [], None))
backend._requests[1].put(None)
backend._processes[1].join()
print("drained", backend._receive(1)[:2])
try:
    backend._receive(1)
except RuntimeError as exc:
    print(exc)
pool.close()
print("closed")
"""


class TestDeadWorker:
    def test_dead_worker_raises_instead_of_hanging(self):
        # A child interpreter in its own session, so a regression fails
        # on the timeout instead of hanging the suite, and the hung
        # child's surviving worker dies with it.
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-c", DEAD_WORKER_SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the parent hung on a dead shard worker")
        assert proc.returncode == 0, stderr
        assert stdout.splitlines() == [
            "shard worker 0 died (exit code -9)",
            "drained (True, True)",
            "shard worker 1 died (exit code 0)",
            "closed",
        ]


class TestSimilarityModeSharded:
    """Sharded matching resolves the same clusters."""

    @staticmethod
    def records():
        values = [
            "red green",
            "red geen",
            "blue yellow",
            "blue yellw",
            "green red",
            "purple orange",
            "orange purple",
            "red green blue",
        ]
        return [
            Record(f"r{i}", {"name": value}) for i, value in enumerate(values)
        ]

    @staticmethod
    def run(shards):
        from repro.resolution.similarity import overlap

        def tok_overlap(a, b):
            return overlap(a.split(), b.split())

        consolidator = GoldenStreamConsolidator(
            columns=["name"],
            oracle_factory=lambda c, column: None,
            fusion=None,
            attribute="name",
            similarity_threshold=0.5,
            similarity=tok_overlap,
            budget_per_batch=0,
            use_engine=False,
            shards=shards,
            shard_processes=False,
            persist_decisions=False,
        )
        with consolidator:
            batch = TestSimilarityModeSharded.records()
            report = consolidator.process_batch(batch)
            clusters = {
                frozenset(r.rid for r in c.records)
                for c in consolidator.table.clusters
                if c.records
            }
        return clusters, report.pairs_compared

    def test_same_clusters_any_shard_count(self):
        base_clusters, base_pairs = self.run(1)
        for shards in (2, 4):
            clusters, pairs = self.run(shards)
            assert clusters == base_clusters
            assert pairs == base_pairs


class TestLshModeSharded:
    """MinHash-LSH blocking composes with sharding, rotation, and the
    durable decision log without changing a single published byte."""

    @pytest.fixture(scope="class")
    def lsh_stream(self):
        spec = GeneratorSpec(
            n_clusters=16,
            mean_cluster_size=4.0,
            conflict_rate=0.1,
            variant_rate=0.8,
            seed=17,
        )
        return dataset_stream(
            address_dataset(spec=spec, seed=17), batches=3, seed=17
        )

    @staticmethod
    def run(stream, shards, registry=None, retention=None, budget=100):
        consolidator = GoldenStreamConsolidator(
            columns=[stream.column],
            oracle_factory=golden_ground_truth_oracle_factory(
                {stream.column: stream.canonical_by_rid}, seed=0
            ),
            fusion=None,
            attribute=stream.column,
            similarity_threshold=0.6,
            block_keys=lsh_keys(bands=8, rows=2),
            budget_per_batch=budget,
            use_engine=False,
            shards=shards,
            shard_processes=False,
            registry=registry,
            bundle_name="lsh-addr",
            persist_decisions=registry is not None,
            block_retention=retention,
        )
        with consolidator:
            reports = consolidator.run(stream.batches)
        questions = [r.questions_asked for r in reports]
        final = {
            r.rid: r.values[stream.column]
            for c in consolidator.table.clusters
            for r in c.records
        }
        groups = [
            g.to_dict()
            for g in consolidator.build_column_model(stream.column).groups
        ]
        return questions, final, groups

    def test_shards_identical_under_lsh_blocking(self, lsh_stream):
        base = self.run(lsh_stream, shards=1)
        for shards in (2, 4):
            assert self.run(lsh_stream, shards=shards) == base

    def test_shards_identical_under_lsh_with_rotation(self, lsh_stream):
        base = self.run(lsh_stream, shards=1, retention=3)
        assert self.run(lsh_stream, shards=4, retention=3) == base

    def test_restart_resume_keeps_lsh_shard_state_consistent(
        self, lsh_stream, tmp_path
    ):
        """A restarted LSH-mode sharded stream replays the decision log
        against fresh shard workers: zero repeat questions,
        identical standardization."""
        registry = BundleRegistry(tmp_path / "registry")
        q_first, final_first, _ = self.run(
            lsh_stream, shards=4, registry=registry
        )
        assert sum(q_first) > 0
        q_resume, final_resume, _ = self.run(
            lsh_stream, shards=4, registry=registry
        )
        assert sum(q_resume) == 0
        assert final_resume == final_first


class TestBlockIndex:
    def test_stable_hash_is_process_stable(self):
        # CRC-32 of the canonical encoding: fixed expectations would
        # fail on any Python whose str hash salting leaked through.
        assert stable_hash("main") == 0xBF28CD64
        assert stable_hash(("a", "b")) == 0x10A52B86

    def test_retention_rotates_oldest_out(self):
        index = BlockIndex(retention=3)
        evicted = []
        for i in range(6):
            evicted.extend(index.add("k", f"r{i}"))
        assert list(index.members("k")) == ["r3", "r4", "r5"]
        assert evicted == ["r0", "r1", "r2"]
        assert index.rotated_out == 3

    def test_eviction_respects_other_block_references(self):
        index = BlockIndex(retention=1)
        index.add("a", "r0")
        index.add("b", "r0")
        gone = index.add("a", "r1")  # r0 rotates out of 'a', stays in 'b'
        assert gone == []
        assert "r0" in index
        assert index.add("b", "r1") == ["r0"]  # now truly gone
        assert "r0" not in index

    def test_resolver_block_retention_bounds_frontier(self):
        from repro.resolution.similarity import overlap
        from repro.stream import IncrementalResolver

        def tok_overlap(a, b):
            return overlap(a.split(), b.split())

        resolver = IncrementalResolver(
            ("name",),
            attribute="name",
            threshold=0.9,
            similarity=tok_overlap,
            block_retention=5,
        )
        records = [
            Record(f"r{i}", {"name": f"common token{i}"}) for i in range(30)
        ]
        resolver.add_batch(records)
        assert len(resolver._blocks.members("common")) == 5
        assert resolver.blocks_rotated_out > 0
        # Later arrivals still match recent members via the bounded block.
        result = resolver.add_batch(
            [Record("late", {"name": "common token29"})]
        )
        assert result.pairs_compared > 0
        assert result.new_clusters == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockIndex(retention=0)
