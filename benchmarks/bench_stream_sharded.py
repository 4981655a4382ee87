"""Sharded streaming consolidation: N learner shards vs one process.

The incremental consolidator already avoids re-learning; what remains
per batch is real CPU — graph construction and pivot search inside the
grouping feed, candidate-pair alignment, blocked similarity matching.
``--shards N`` fans exactly those stages across N persistent worker
processes (`repro.stream.shards`), while the oracle, the replacement
store, and publication stay in the single parent.

Because every parallel stage is a pure computation merged in canonical
order, speed is the *only* thing sharding may change.  This benchmark
asserts all three claims:

* **identical standardization** — the sharded stream's final per-record
  values equal the single-process stream's, and the published group
  sequences match;
* **identical oracle cost** — the same number of questions in the same
  per-batch distribution (sharding must not add a single question);
* **>= 2x wall-clock speedup** on a multi-core box (asserted when >= 4
  CPUs are available; reported, not asserted, on smaller machines where
  the parallelism has nowhere to run);

plus the durability property that rides on the same release:

* **restart-resume, zero repeat questions** — a consolidator restarted
  over the same stream with the persisted decision log and registry
  asks nothing;

and the IPC property of shard-resident blocking state:

* **per-batch shipped bytes are O(new values)** — each member value
  crosses to a shard worker once, when it first enters one of that
  shard's blocks; match traffic afterwards carries candidate record
  ids only, so per-batch bytes stay flat while the resident frontier
  (and the candidate-pair count) keeps growing.
"""

import json
import os
import time

import pytest

from repro.data.table import Record
from repro.datagen import address_dataset, dataset_stream
from repro.datagen.base import GeneratorSpec
from repro.serve.bundle import BundleRegistry
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from conftest import SCALE, print_banner, record_result, report

SEED = 31
N_BATCHES = 4
BUDGET = 60
SHARDS = min(4, os.cpu_count() or 1)
#: Speedup is only asserted where the shards have cores to run on.
ASSERT_SPEEDUP_CPUS = 4
MIN_SPEEDUP = 2.0
#: Shared CI runners report >= 4 CPUs but cannot promise dedicated
#: cores; REPRO_BENCH_ASSERT_SPEEDUP=0 keeps the equivalence
#: assertions while reporting (not asserting) the speedup.
ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

SPEC = GeneratorSpec(
    n_clusters=max(8, int(160 * SCALE)),
    mean_cluster_size=6.0,
    conflict_rate=0.15,
    variant_rate=0.85,
    seed=SEED,
)


@pytest.fixture(scope="module")
def stream():
    dataset = address_dataset(spec=SPEC, seed=SEED)
    return dataset_stream(dataset, batches=N_BATCHES, seed=SEED)


def run(stream, registry=None, budget=BUDGET, **kwargs):
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=SEED
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=budget,
        registry=registry,
        bundle_name="sharded-bench",
        use_engine=False,  # identical machinery both sides: exact compare
        **kwargs,
    )
    with consolidator:
        start = time.perf_counter()
        consolidator.run(stream.batches)
        elapsed = time.perf_counter() - start
        questions = [r.questions_asked for r in consolidator.reports]
        final = {
            r.rid: r.values[stream.column]
            for c in consolidator.table.clusters
            for r in c.records
        }
        groups = [
            g.to_dict()
            for g in consolidator.build_column_model(stream.column).groups
        ]
    return elapsed, questions, final, groups


def test_sharded_stream_speedup_and_equivalence(stream, tmp_path):
    t_single, q_single, final_single, groups_single = run(
        stream, shards=1
    )
    t_sharded, q_sharded, final_sharded, groups_sharded = run(
        stream, shards=SHARDS, shard_processes=True
    )

    # -- correctness: sharding changes wall-clock, nothing else ----------
    assert q_sharded == q_single, (
        f"sharding must not change the oracle bill "
        f"({q_sharded} vs {q_single})"
    )
    assert final_sharded == final_single, (
        "sharded stream must converge to the identical standardization"
    )
    assert json.dumps(groups_sharded, sort_keys=True) == json.dumps(
        groups_single, sort_keys=True
    ), "published group sequences must be identical"

    speedup = t_single / t_sharded if t_sharded > 0 else float("inf")
    cpus = os.cpu_count() or 1

    print_banner(
        f"Sharded streaming learner: {SHARDS} shards vs single process"
    )
    report(
        f"stream: {stream.num_records} records in {N_BATCHES} batches, "
        f"budget {BUDGET}/batch, {cpus} CPUs"
    )
    report(
        f"single process : {t_single:8.3f}s   questions/batch: {q_single}"
    )
    report(
        f"{SHARDS} shard procs  : {t_sharded:8.3f}s   "
        f"questions/batch: {q_sharded}"
    )
    report(
        f"speedup: {speedup:6.2f}x   identical standardization: yes   "
        f"extra questions: 0"
    )

    record_result(
        "stream_sharded",
        directions={
            "shards": "info",
            "records": "info",
            "single_seconds": "lower",
            "sharded_seconds": "lower",
            "speedup": "higher",
            "extra_questions": "lower",
        },
        test="speedup",
        shards=SHARDS,
        cpus=cpus,
        records=stream.num_records,
        single_seconds=round(t_single, 4),
        sharded_seconds=round(t_sharded, 4),
        speedup=round(speedup, 3),
        identical_models=groups_sharded == groups_single,
        extra_questions=sum(q_sharded) - sum(q_single),
    )

    if cpus >= ASSERT_SPEEDUP_CPUS and ASSERT_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"{SHARDS} learner shards on {cpus} CPUs must be >= "
            f"{MIN_SPEEDUP}x faster than the single-process "
            f"consolidator (got {speedup:.2f}x)"
        )
    elif not ASSERT_SPEEDUP:
        report(
            "(REPRO_BENCH_ASSERT_SPEEDUP=0: speedup reported, not "
            "asserted — equivalence still asserted above)"
        )
    else:
        report(
            f"(speedup assertion needs >= {ASSERT_SPEEDUP_CPUS} CPUs; "
            f"this box has {cpus} — equivalence still asserted above)"
        )


def test_restart_resume_zero_repeat_questions(stream, tmp_path):
    # Unbounded budget: the first run judges *all* of the stream's
    # variation, so the decision log fully covers the replay and every
    # restart question would necessarily be a repeat.
    registry = BundleRegistry(tmp_path / "registry")
    _, q_first, final_first, _ = run(
        stream, registry=registry, budget=10**9
    )
    assert sum(q_first) > 0

    t_resume, q_resume, final_resume, _ = run(
        stream, registry=registry, budget=10**9
    )

    report(
        f"restart-resume: first run asked {sum(q_first)} questions, "
        f"restarted run asked {sum(q_resume)} "
        f"(replayed decision log) in {t_resume:.3f}s"
    )
    record_result(
        "stream_sharded",
        directions={
            "first_questions": "lower",
            "resume_questions": "lower",
            "resume_seconds": "lower",
        },
        test="restart_resume",
        first_questions=sum(q_first),
        resume_questions=sum(q_resume),
        resume_seconds=round(t_resume, 4),
    )
    assert sum(q_resume) == 0, (
        f"a restarted stream with a durable decision cache must ask "
        f"zero repeat questions (asked {sum(q_resume)})"
    )
    assert final_resume == final_first


def test_shard_resident_state_ships_only_new_values():
    """Per-batch IPC must be O(new values): constant-size batches ship
    a constant number of values (and near-constant bytes) while the
    resident comparison frontier — and with it the candidate-pair
    count — keeps growing.  Before shard-resident blocking state, the
    parent re-shipped every candidate's *value* each batch, so bytes
    grew with the frontier."""
    import random

    rng = random.Random(SEED)
    n_batches = 6
    batch_size = max(30, int(120 * SCALE))

    def batch(index):
        # Everything shares the "common" token: blocks keep thickening
        # with stream length (the worst case for value re-shipping).
        return [
            Record(
                f"b{index}r{i}",
                {
                    "name": f"common tok{i % 9} row{i} "
                    f"x{rng.randrange(100)}"
                },
            )
            for i in range(batch_size)
        ]

    consolidator = GoldenStreamConsolidator(
        columns=["name"],
        oracle_factory=lambda c, column: None,
        fusion=None,
        attribute="name",
        similarity_threshold=0.9,
        budget_per_batch=0,
        use_engine=False,
        shards=min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2,
        bundle_name="resident-bytes",
        persist_decisions=False,
        max_block_size=10**9,
        block_retention=64,
    )
    with consolidator:
        reports = [
            consolidator.process_batch(batch(i)) for i in range(n_batches)
        ]
        used_processes = (
            consolidator.pool is not None
            and consolidator.pool.uses_processes
        )

    pairs = [r.pairs_compared for r in reports]
    values = [r.values_shipped for r in reports]
    bytes_shipped = [r.bytes_shipped for r in reports]

    print_banner("Shard-resident blocking state: per-batch bytes shipped")
    report(
        f"stream: {n_batches} batches x {batch_size} records, "
        f"{consolidator.shards} shards, block retention 64"
    )
    report(f"candidate pairs / batch : {pairs}")
    report(f"values shipped / batch  : {values}")
    report(f"bytes shipped / batch   : {bytes_shipped}")
    record_result(
        "stream_sharded",
        # Per-batch lists: recorded for the trajectory, not gated.
        directions={
            "batch_size": "info",
            "pairs": "info",
            "values_shipped": "info",
            "bytes_shipped": "info",
        },
        test="resident_bytes",
        batch_size=batch_size,
        pairs=pairs,
        values_shipped=values,
        bytes_shipped=bytes_shipped,
    )

    # The frontier grows (more candidates per batch)...
    assert pairs[-1] > pairs[0] * 1.5
    # ... while shipped values stay O(new values per batch): bounded
    # by batch x shards and flat (only per-batch token-mix jitter)
    # instead of tracking the frontier like pre-resident shipping did.
    assert max(values) <= batch_size * consolidator.shards
    assert max(values) <= min(values) * 1.1, (
        f"values shipped must not grow with the resident frontier: "
        f"{values}"
    )
    # Bytes may creep with candidate-id lists but must stay decoupled
    # from the frontier's value mass (retention bounds the id lists).
    # Byte counters measure actual IPC, so they are only meaningful on
    # the worker-process backend (the inline fallback ships nothing).
    if used_processes:
        assert bytes_shipped[-1] < bytes_shipped[1] * 2, (
            f"per-batch bytes must stay O(new values): {bytes_shipped}"
        )
    else:
        report(
            "(inline shard backend: no IPC, byte assertion skipped — "
            "values/pairs assertions above still hold)"
        )
