"""The single-column stream is the golden stream with one column.

``StreamConsolidator(column=c)`` and ``GoldenStreamConsolidator(
columns=[c])`` must learn the same thing from the same batches: the
same confirmed groups, the same questions per batch, the same report
counters, and the same cumulative table (cells and column order).  The
two differ only in the artifact they publish — a bare model versus a
one-column bundle — so this pins what the single-column adapter may
not change.
"""

import pytest

from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream
from repro.resolution.blocking import token_keys
from repro.stream import (
    GoldenStreamConsolidator,
    StreamConsolidator,
    golden_ground_truth_oracle_factory,
    ground_truth_oracle_factory,
)

SEED = 2

#: Report counters both consolidators compute with the same meaning.
COUNTERS = (
    "records",
    "explained_cells",
    "unmatched_cells",
    "merges",
    "new_clusters",
    "pairs_compared",
    "reused_replacements",
    "rejected_skips",
    "inferred_verdicts",
    "questions_asked",
    "groups_approved",
    "cells_changed",
)


@pytest.fixture(scope="module")
def stream():
    spec = GeneratorSpec(
        n_clusters=20,
        mean_cluster_size=5.0,
        conflict_rate=0.1,
        variant_rate=0.8,
        seed=SEED,
    )
    return dataset_stream(
        address_dataset(spec=spec, seed=SEED), batches=3, seed=SEED
    )


def resolution(stream, blocking):
    if blocking == "key":
        return {"key_attribute": stream.key_column}
    return {"attribute": stream.column, "block_keys": token_keys}


def table_view(table):
    return (
        table.columns,
        [
            (cluster.key, [(r.rid, r.values) for r in cluster.records])
            for cluster in table.clusters
        ],
    )


def counters(report):
    return {name: getattr(report, name) for name in COUNTERS}


@pytest.mark.parametrize("budget", [5, 40])
@pytest.mark.parametrize("order", ["discovery", "yield"])
@pytest.mark.parametrize("blocking", ["key", "token"])
def test_one_column_golden_stream_matches_single_column(
    stream, blocking, order, budget
):
    column = stream.column
    common = dict(
        budget_per_batch=budget,
        persist_decisions=False,
        question_order=order,
        **resolution(stream, blocking),
    )
    single = StreamConsolidator(
        column=column,
        oracle_factory=ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=0
        ),
        **common,
    )
    golden = GoldenStreamConsolidator(
        columns=[column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {column: stream.canonical_by_rid}, seed=0
        ),
        **common,
    )
    with single, golden:
        single_reports = single.run(stream.batches)
        golden_reports = golden.run(stream.batches)

    assert [counters(r) for r in single_reports] == [
        counters(r) for r in golden_reports
    ]
    assert [r.questions_asked for r in single_reports] == [
        r.questions_by_column[column] for r in golden_reports
    ]
    assert [g.to_dict() for g in single.build_model().groups] == [
        g.to_dict() for g in golden.build_column_model(column).groups
    ]
    assert table_view(single.table) == table_view(golden.table)
    assert single.questions_asked > 0
