"""Per-column drift monitoring in the multi-column stream.

Each column's :class:`~repro.stream.monitor.DriftMonitor` watches only
that column's unmatched cells, and a tripped monitor relearns only its
own column, charged to that column's questions.  The stream below
carries variation in ``address`` only (every ``title`` arrives in its
canonical form), so exactly one monitor may trip.
"""

import pytest

from repro.datagen.stream import golden_stream
from repro.obs import MemorySink, Obs
from repro.serve.bundle import BundleRegistry
from repro.stream import (
    DriftMonitor,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

COLUMNS = ("address", "title")
BUDGET = 2


@pytest.fixture(scope="module")
def stream():
    gstream = golden_stream(
        batches=3,
        n_clusters=16,
        mean_cluster_size=5.0,
        conflict_rate=0.0,
        variant_rate=0.6,
        columns=COLUMNS,
        seed=8,
    )
    canonical = gstream.canonical_by_rid["title"]
    for batch in gstream.batches:
        for record in batch:
            record.values["title"] = canonical[record.rid]
    return gstream


def fresh_monitors():
    return {
        column: DriftMonitor(window=2, miss_rate_threshold=0.05, min_rows=1)
        for column in COLUMNS
    }


def run(stream, monitors=None, **kwargs):
    consolidator = GoldenStreamConsolidator(
        columns=COLUMNS,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=0
        ),
        key_attribute=stream.key_column,
        budget_per_batch=BUDGET,
        monitors=monitors,
        bundle_name="golden",
        use_engine=False,
        persist_decisions=False,
        **kwargs,
    )
    with consolidator:
        consolidator.run(stream.batches)
    return consolidator


def asked(consolidator, column):
    return [r.questions_by_column[column] for r in consolidator.reports]


def test_only_the_drifting_columns_monitor_trips(stream):
    monitors = fresh_monitors()
    obs = Obs(sink=MemorySink())
    consolidator = run(stream, monitors, obs=obs)
    assert monitors["address"].triggered > 0
    assert monitors["title"].triggered == 0
    assert any(r.drift_triggered for r in consolidator.reports)
    events = [
        r
        for r in obs.sink.rows
        if r["type"] == "event" and r["event"] == "drift"
    ]
    assert len(events) == monitors["address"].triggered
    assert {event["column"] for event in events} == {"address"}
    snap = obs.metrics.snapshot()
    # One gauge per column (an unlabeled one would be last-column-wins);
    # the relearn counter keeps its unlabeled key.
    assert snap["drift.miss_rate{column=title}"] == 0
    assert snap["drift.miss_rate{column=address}"] > 0
    assert snap["drift.relearns"] == monitors["address"].triggered


def test_relearn_questions_charged_to_their_column(stream):
    plain = run(stream)
    drifting = run(stream, fresh_monitors())
    assert sum(asked(drifting, "address")) > sum(asked(plain, "address"))
    assert asked(drifting, "title") == asked(plain, "title")
    for column in COLUMNS:
        assert sum(asked(drifting, column)) == (
            drifting.standardizers[column].questions_asked
        )


@pytest.fixture
def frozen_clock():
    import repro.serve.bundle as bundle_module
    import repro.serve.model as model_module

    originals = (bundle_module.time.time, model_module.time.time)
    bundle_module.time.time = lambda: 1234567890.0
    model_module.time.time = lambda: 1234567890.0
    yield
    bundle_module.time.time, model_module.time.time = originals


def test_drifting_bundle_byte_identical_across_shards(
    stream, tmp_path, frozen_clock
):
    runs = {
        shards: run(
            stream,
            fresh_monitors(),
            registry=BundleRegistry(tmp_path / f"s{shards}"),
            shards=shards,
        )
        for shards in (1, 2)
    }
    one, two = runs[1], runs[2]
    assert any(r.drift_triggered for r in one.reports)
    assert [r.questions_by_column for r in one.reports] == [
        r.questions_by_column for r in two.reports
    ]
    assert one.registry.path("golden").read_bytes() == (
        two.registry.path("golden").read_bytes()
    )
