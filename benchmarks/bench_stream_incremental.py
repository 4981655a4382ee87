"""Streaming consolidation: incremental batch updates vs full relearn.

A production stream receives record batches continuously.  Without the
``repro.stream`` subsystem the only way to absorb a batch is to rebuild
everything: re-cluster the cumulative records, regenerate all
candidates, regroup, and re-ask the oracle about groups it already
judged.  The incremental path keeps cluster / candidate / decision
state alive, so each batch costs work proportional to the *batch* —
not to everything seen so far.

Measured on one Address stream of B batches:

* ``incremental`` — one warm one-column
  :class:`~repro.stream.GoldenStreamConsolidator` processing batches
  2..B (batch 1 is cold start for both sides and excluded);
* ``full relearn`` — for each batch 2..B, consolidating the cumulative
  records from scratch (cluster by key, generate candidates, group,
  review), which is what a batch pipeline without persistent state
  must do.

Correctness rides alongside speed: the incremental run must agree with
one final from-scratch consolidation on >= 95% of per-record
standardized values (exact equality under unbounded budgets on
variant-only workloads is pinned by
``tests/stream/test_consolidator.py``; under bounded budgets on the
conflict-heavy Address mix, presentation order legitimately explores
slightly different group subsets), and later batches must ask strictly
fewer oracle questions than their from-scratch counterpart.

The headline claim — incremental updates are at least **10x** faster
than relearning from scratch on the same cumulative data — is
asserted, not just printed.
"""

import time

import pytest

from repro.data.table import Record
from repro.datagen import address_dataset, dataset_stream
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.resolution.matcher import cluster_by_key
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from conftest import BASE_SCALES, SCALE, print_banner, record_result, report

#: The stream slice: large enough that quadratic relearning hurts.
STREAM_FACTOR = 2.0
N_BATCHES = 6
BUDGET = 60
SEED = 23


@pytest.fixture(scope="module")
def stream():
    dataset = address_dataset(
        scale=BASE_SCALES["Address"] * SCALE * STREAM_FACTOR, seed=SEED
    )
    return dataset_stream(dataset, batches=N_BATCHES, seed=SEED)


def full_relearn(stream, upto):
    """From-scratch consolidation of batches[:upto] (the baseline)."""
    records = [
        Record(r.rid, dict(r.values), r.source)
        for batch in stream.batches[:upto]
        for r in batch
    ]
    table = cluster_by_key(records, stream.key_column)
    standardizer = Standardizer(table, stream.column)
    oracle = GroundTruthOracle(
        stream.canonical_cells(table), standardizer.store, seed=SEED
    )
    log = standardizer.run(oracle, BUDGET * upto)
    return table, log


def test_stream_incremental_vs_full_relearn(stream):
    # -- incremental: one long-lived consolidator ------------------------
    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=SEED
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=BUDGET,
        use_engine=False,  # same machinery as the baseline: exact compare
    )
    consolidator.process_batch(stream.batches[0])  # cold start (excluded)
    t_incremental = 0.0
    for batch in stream.batches[1:]:
        start = time.perf_counter()
        consolidator.process_batch(batch)
        t_incremental += time.perf_counter() - start

    # -- baseline: relearn the cumulative data at every batch ------------
    t_full = 0.0
    full_questions = []
    for upto in range(2, len(stream.batches) + 1):
        start = time.perf_counter()
        _table, log = full_relearn(stream, upto)
        t_full += time.perf_counter() - start
        full_questions.append(log.groups_confirmed)

    # -- correctness: convergent final state, fewer questions ------------
    final_table, _final_log = full_relearn(stream, len(stream.batches))

    def final_by_rid(table):
        return {
            r.rid: r.values[stream.column]
            for c in table.clusters
            for r in c.records
        }

    mine, theirs = final_by_rid(consolidator.table), final_by_rid(final_table)
    agreement = sum(
        1 for rid, value in mine.items() if theirs.get(rid) == value
    ) / max(1, len(mine))
    assert agreement >= 0.95, (
        f"incremental stream must converge to the one-shot "
        f"standardization (agreement {agreement:.1%})"
    )
    stream_questions = [
        r.questions_asked for r in consolidator.reports[1:]
    ]
    assert all(
        mine < theirs
        for mine, theirs in zip(stream_questions, full_questions)
    ), (
        f"each incremental batch must ask fewer questions than a full "
        f"relearn ({stream_questions} vs {full_questions})"
    )

    speedup = t_full / t_incremental if t_incremental > 0 else float("inf")

    print_banner(
        "Stream ingestion: incremental updates vs full relearn (Address)"
    )
    report(
        f"stream: {stream.num_records} records in "
        f"{len(stream.batches)} batches, budget {BUDGET}/batch"
    )
    report(
        f"full relearn (batches 2..{len(stream.batches)}): "
        f"{t_full:8.3f}s   questions per batch: {full_questions}"
    )
    report(
        f"incremental  (batches 2..{len(stream.batches)}): "
        f"{t_incremental:8.3f}s   questions per batch: {stream_questions}"
    )
    report(
        f"speedup: {speedup:6.1f}x   final-state agreement: {agreement:.1%}"
    )

    record_result(
        "stream_incremental",
        directions={
            "records": "info",
            "full_seconds": "lower",
            "incremental_seconds": "lower",
            "speedup": "higher",
            "agreement": "higher",
        },
        test="incremental_vs_relearn",
        records=stream.num_records,
        full_seconds=round(t_full, 4),
        incremental_seconds=round(t_incremental, 4),
        speedup=round(speedup, 2),
        agreement=round(agreement, 4),
    )

    assert speedup >= 10.0, (
        f"incremental batch updates must be >= 10x faster than full "
        f"relearn (got {speedup:.1f}x)"
    )
