"""Streaming golden records: incremental fusion vs full per-batch re-fusion.

Every batch of a multi-column stream changes the membership or cell
values of only *some* clusters, yet a naive streaming golden-record
pipeline re-runs truth discovery over **every** live cluster after
**every** batch.  :class:`~repro.stream.golden.GoldenStreamConsolidator`
instead re-fuses exactly the clusters the batch touched (appends, merge
moves, and the ``changed_into`` cell deltas the per-column
standardizers report) — work proportional to the batch, not to the
accumulated table.

Measured on one 3-column golden stream (address + authors + title,
shared entity identity), arriving **entity-grouped** (``shuffle=False``
— the per-source bulk-load pattern where a batch concentrates on few
clusters; a fully shuffled stream still wins by the touched/live
ratio, it is just a smaller one):

* ``incremental`` — the consolidator's own fusion refresh
  (``fusion_seconds``, i.e. the kernel applied to touched clusters);
* ``full per-batch`` — timing
  :meth:`~repro.stream.golden.GoldenStreamConsolidator.full_refusion`
  (table-level majority fusion of every live cluster, all columns)
  after every batch, which is what the consolidator itself falls back
  to for global methods like Accu/TruthFinder.

Two ratios are reported and asserted:

* the **work ratio** — clusters fused per run (``clusters_live`` summed
  vs ``clusters_refused`` summed).  Deterministic, machine-independent:
  asserted ``>= 5x`` unconditionally;
* the **wall-clock speedup** — asserted ``>= 5x`` unless
  ``REPRO_BENCH_ASSERT_SPEEDUP=0`` (shared CI runners report it
  without asserting; sub-millisecond fusion timings are jittery there).

Correctness rides alongside: after the final batch the incrementally
maintained golden records must equal a from-scratch full re-fusion of
the final table, exactly.
"""

import os
import time

import pytest

from repro.datagen.stream import golden_stream
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from conftest import SCALE, print_banner, record_result, report

ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

N_CLUSTERS = max(120, int(320 * SCALE))
N_BATCHES = 16
BUDGET = 20
SEED = 21


@pytest.fixture(scope="module")
def stream():
    return golden_stream(
        batches=N_BATCHES,
        n_clusters=N_CLUSTERS,
        mean_cluster_size=3.0,
        conflict_rate=0.0,
        variant_rate=0.6,
        seed=SEED,
        shuffle=False,  # entity-grouped arrival: the delta regime
    )


def test_incremental_fusion_vs_full_per_batch_refusion(stream):
    consolidator = GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=SEED
        ),
        key_attribute=stream.key_column,
        budget_per_batch=BUDGET,
        use_engine=True,
    )
    t_full = 0.0
    with consolidator:
        for batch in stream.batches:
            consolidator.process_batch(batch)
            # The naive alternative, timed in the same process state:
            # re-fuse every live cluster after this batch.
            start = time.perf_counter()
            full = consolidator.full_refusion()
            t_full += time.perf_counter() - start

        # -- correctness: incremental fusion is exact ----------------
        maintained = {
            record.cluster: dict(record.values)
            for record in consolidator.golden_records()
        }
        assert maintained == full, (
            "incrementally maintained golden records must equal a "
            "from-scratch re-fusion of the final table"
        )

    t_incremental = sum(r.fusion_seconds for r in consolidator.reports)
    work_incremental = sum(
        r.clusters_refused for r in consolidator.reports
    )
    work_full = sum(r.clusters_live for r in consolidator.reports)
    work_ratio = work_full / max(1, work_incremental)
    speedup = (
        t_full / t_incremental if t_incremental > 0 else float("inf")
    )

    print_banner(
        "Streaming golden records: incremental vs full per-batch fusion"
    )
    report(
        f"stream: {stream.num_records} records, "
        f"{len(stream.columns)} columns, {N_BATCHES} batches, "
        f"{N_CLUSTERS} entities"
    )
    report(
        f"full per-batch re-fusion: {t_full * 1000:8.2f}ms   "
        f"clusters fused: {work_full}"
    )
    report(
        f"incremental (touched)   : {t_incremental * 1000:8.2f}ms   "
        f"clusters fused: {work_incremental}"
    )
    report(
        f"speedup: {speedup:6.1f}x wall-clock, {work_ratio:.1f}x work"
    )

    record_result(
        "stream_golden",
        directions={
            "records": "info",
            "columns": "info",
            "batches": "info",
            "full_ms": "lower",
            "incremental_ms": "lower",
            "speedup": "higher",
            "work_ratio": "higher",
            "questions": "lower",
        },
        test="incremental_vs_full_refusion",
        records=stream.num_records,
        columns=len(stream.columns),
        batches=N_BATCHES,
        full_ms=round(t_full * 1000, 3),
        incremental_ms=round(t_incremental * 1000, 3),
        speedup=round(speedup, 2),
        work_ratio=round(work_ratio, 2),
        questions=consolidator.questions_asked,
    )

    assert work_ratio >= 5.0, (
        f"incremental fusion must touch >= 5x fewer clusters than "
        f"full per-batch re-fusion (got {work_ratio:.1f}x)"
    )
    if ASSERT_SPEEDUP:
        assert speedup >= 5.0, (
            f"incremental fusion must be >= 5x faster than full "
            f"per-batch re-fusion (got {speedup:.1f}x)"
        )
    else:
        report(
            "(REPRO_BENCH_ASSERT_SPEEDUP=0: speedup reported, not "
            "asserted)"
        )
