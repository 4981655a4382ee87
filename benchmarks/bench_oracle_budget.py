"""Oracle budget efficiency: yield-ranked scheduling vs discovery order.

The oracle is the expensive resource; the scheduler's whole point
(``--question-order yield``, ``stream/scheduler.py``) is to buy more
standardization per question.  This bench runs the same multi-column
golden stream under three regimes and pins the payoff from two sides:

* **equal budget** — given exactly discovery's budget, yield ranking
  repairs **at least as many cells in every column** (and strictly
  more overall): reordering the questions is free quality;
* **70 % budget** — given only ``int(0.7 × budget)`` per column, the
  pooled/yield run asks **≤ 70 %** of discovery's questions yet still
  repairs **at least as many cells in aggregate** — equal
  standardization quality for 30 % less human attention;
* **sharded** — the 70 %-budget yield run at ``shards=2`` publishes a
  **byte-identical** bundle and asks identical per-column questions:
  the scheduler is parent-resident, so the shard-invariance guarantee
  survives it.

Quality is the exhaustive values-fixed measure (cells whose value
equals the ground-truth canonical string of the record's entity — no
sampling), so runs compare exactly.  Every constant below is pinned —
including the cluster count, which deliberately ignores the bench
``SCALE`` — because the assertions compare two deterministic runs of
one seeded stream, not a statistical trend; rescaling the stream would
change which groups exist, not what the comparison means.

Reported series (gated by ``repro bench check``):
``oracle_questions`` (lower is better at equal quality) and
``questions_saved_ratio`` (higher is better).
"""

import json

import pytest

from repro.data.table import CellRef
from repro.datagen.stream import golden_stream
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from conftest import print_banner, record_result, report

N_CLUSTERS = 96
N_BATCHES = 4
#: Discovery's per-column per-batch budget.  Deliberately binding
#: (the stream carries more judgeable variation than the budget can
#: cover): an unbinding budget would let *any* order reach every
#: group and the comparison would measure nothing.
BUDGET = 10
YIELD_FRACTION = 0.7
SEED = 34


@pytest.fixture(scope="module")
def stream():
    return golden_stream(
        batches=N_BATCHES,
        n_clusters=N_CLUSTERS,
        mean_cluster_size=5.0,
        conflict_rate=0.0,
        variant_rate=0.8,
        seed=SEED,
        shuffle=False,
    )


def run_stream(stream, question_order, budget, shards=1):
    consolidator = GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=SEED
        ),
        key_attribute=stream.key_column,
        budget_per_batch=budget,
        persist_decisions=False,
        use_engine=False,
        shards=shards,
        shard_processes=False,
        question_order=question_order,
    )
    with consolidator:
        reports = consolidator.run(stream.batches)
    return consolidator, reports


def cells_correct(consolidator, stream):
    """Per column: cells whose value equals the ground-truth canonical
    string of the record's entity (the values-fixed measure)."""
    table = consolidator.resolver.table
    correct = {}
    for column in stream.columns:
        by_rid = stream.canonical_by_rid[column]
        n = 0
        for ci, cluster in enumerate(table.clusters):
            for ri, record in enumerate(cluster.records):
                canon = by_rid.get(record.rid)
                if canon is None:
                    continue
                if table.value(CellRef(ci, ri, column)) == canon:
                    n += 1
        correct[column] = n
    return correct


@pytest.fixture(scope="module")
def discovery(stream):
    consolidator, _ = run_stream(stream, "discovery", BUDGET)
    return consolidator, cells_correct(consolidator, stream)


def test_equal_budget_yield_dominates_per_column(stream, discovery):
    baseline, quality_discovery = discovery
    ranked, _ = run_stream(stream, "yield", BUDGET)
    quality_yield = cells_correct(ranked, stream)

    print_banner("Oracle budget: yield vs discovery at EQUAL budget")
    report(
        f"stream: {stream.num_records} records, "
        f"{len(stream.columns)} columns, {N_BATCHES} batches, "
        f"{N_CLUSTERS} entities; budget {BUDGET}/column/batch"
    )
    for column in stream.columns:
        report(
            f"  {column}: {quality_yield[column]} vs "
            f"{quality_discovery[column]} cells canonical "
            f"(yield vs discovery)"
        )

    assert ranked.questions_asked == baseline.questions_asked, (
        "equal binding budgets must spend the same number of questions"
    )
    for column in stream.columns:
        assert quality_yield[column] >= quality_discovery[column], (
            f"{column}: at equal budget, yield ranking repaired fewer "
            f"cells ({quality_yield[column]} < "
            f"{quality_discovery[column]})"
        )
    assert sum(quality_yield.values()) > sum(quality_discovery.values()), (
        "at equal budget, yield ranking must repair strictly more "
        "cells overall"
    )


def test_yield_order_equal_quality_fewer_questions(stream, discovery):
    baseline, quality_discovery = discovery
    yield_budget = int(YIELD_FRACTION * BUDGET)
    ranked, _ = run_stream(stream, "yield", yield_budget)

    q_discovery = baseline.questions_asked
    q_yield = ranked.questions_asked
    quality_yield = cells_correct(ranked, stream)

    print_banner(
        "Oracle budget: yield at 70% budget vs discovery at full budget"
    )
    report(
        f"discovery: {q_discovery} questions "
        f"(budget {BUDGET}/column/batch), "
        f"saved {baseline.questions_saved}, "
        f"{sum(quality_discovery.values())} cells canonical"
    )
    report(
        f"yield    : {q_yield} questions "
        f"(budget {yield_budget}/column/batch pooled), "
        f"saved {ranked.questions_saved}, "
        f"inferred {ranked.inferred_verdicts}, "
        f"{sum(quality_yield.values())} cells canonical"
    )
    for column in stream.columns:
        report(
            f"  {column}: {quality_yield[column]} vs "
            f"{quality_discovery[column]} cells canonical "
            f"(yield vs discovery)"
        )

    saved_ratio = ranked.questions_saved / max(
        1, ranked.questions_saved + q_yield
    )
    record_result(
        "oracle_budget",
        directions={
            "records": "info",
            "columns": "info",
            "batches": "info",
            "discovery_questions": "lower",
            "oracle_questions": "lower",
            "cells_correct_discovery": "higher",
            "cells_correct_yield": "higher",
            "inferred_verdicts": "higher",
            "questions_saved_ratio": "higher",
        },
        comparison="yield_vs_discovery",
        records=stream.num_records,
        columns=len(stream.columns),
        batches=N_BATCHES,
        discovery_questions=q_discovery,
        oracle_questions=q_yield,
        cells_correct_discovery=sum(quality_discovery.values()),
        cells_correct_yield=sum(quality_yield.values()),
        inferred_verdicts=ranked.inferred_verdicts,
        questions_saved_ratio=round(saved_ratio, 4),
    )

    assert q_yield <= YIELD_FRACTION * q_discovery, (
        f"yield scheduling must need <= {YIELD_FRACTION:.0%} of "
        f"discovery's questions (got {q_yield} vs {q_discovery})"
    )
    assert sum(quality_yield.values()) >= sum(quality_discovery.values()), (
        f"yield at {YIELD_FRACTION:.0%} budget must repair at least "
        f"as many cells as discovery at full budget "
        f"({sum(quality_yield.values())} < "
        f"{sum(quality_discovery.values())})"
    )


def canonical_bundle_bytes(consolidator):
    """The bundle as canonical JSON with wall-clock stamps zeroed —
    ``created_at`` records *when* a bundle was built, not *what* was
    learned, so it is the one field allowed to differ between runs."""
    payload = consolidator.build_bundle().to_dict()
    payload["created_at"] = 0.0
    for model in payload.get("models", {}).values():
        model["created_at"] = 0.0
    return json.dumps(payload, sort_keys=True)


def test_sharded_yield_is_byte_identical(stream):
    yield_budget = int(YIELD_FRACTION * BUDGET)
    unsharded, r1 = run_stream(stream, "yield", yield_budget, shards=1)
    sharded, r2 = run_stream(stream, "yield", yield_budget, shards=2)
    questions_1 = [dict(r.questions_by_column) for r in r1]
    questions_2 = [dict(r.questions_by_column) for r in r2]
    assert questions_1 == questions_2
    assert canonical_bundle_bytes(unsharded) == canonical_bundle_bytes(
        sharded
    ), "sharded yield-mode run must publish a byte-identical bundle"
    report("sharded yield run byte-identical at shards=2: OK")
