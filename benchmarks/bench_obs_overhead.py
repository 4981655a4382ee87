"""Observability overhead: near-free when off, bounded when on.

The observability layer's core design constraint is that an
*uninstrumented* run pays almost nothing: every hot-path hook is one
``obs.enabled`` check against the shared no-op ``NULL_OBS`` context.
This benchmark pins that claim on the apply-throughput workload —
the hottest loop the repository has:

* **disabled** — the per-call hook cost under ``NULL_OBS`` (exactly
  the sequence ``ApplyEngine.apply_values`` executes when nobody is
  observing), measured directly and expressed as a fraction of the
  real per-call apply time.  Asserted **< 5%**.
* **enabled** — the same workload with a live registry attached
  (counter mirroring + one latency observation per call).  Recorded
  to the results trajectory, not asserted: the enabled cost is a
  price the operator opted into.
"""

import time

from repro.datagen import address_dataset
from repro.obs import NULL_OBS, Obs
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.serve import ApplyEngine, build_model

from conftest import (
    BASE_SCALES,
    RESULTS_DIR,
    SCALE,
    load_results,
    print_banner,
    record_result,
    report,
)

SEED = 13
#: Reduced learn slice: learning is setup here, not the measurement.
LEARN_FACTOR = 0.35
LEARN_BUDGET = 40
#: Replication factor for a steady-state batch per apply call.
REPLICAS = 20
#: Timed apply calls per variant (median taken).
REPEATS = 7
#: Iterations of the micro-benchmarked disabled hook.
HOOK_ITERATIONS = 200_000

#: The acceptance bound: disabled instrumentation under 5% of the
#: apply-throughput workload.
MAX_DISABLED_OVERHEAD = 0.05


def _learn_model():
    dataset = address_dataset(
        scale=BASE_SCALES["Address"] * SCALE * LEARN_FACTOR, seed=SEED
    )
    table = dataset.fresh_table()
    standardizer = Standardizer(table, dataset.column)
    oracle = GroundTruthOracle(
        dataset.canonical, standardizer.store, seed=SEED
    )
    log = standardizer.run(oracle, LEARN_BUDGET)
    model = build_model(
        log,
        dataset.column,
        name="obs-overhead",
        config=standardizer.config,
        vocabulary=standardizer.vocabulary,
    )
    values = [
        record.values.get(dataset.column, "")
        for cluster in dataset.fresh_table().clusters
        for record in cluster.records
    ]
    return model, values * REPLICAS


def _median_apply_seconds(engine, values):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        engine.apply_values(values)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _disabled_hook_seconds_per_call():
    """The exact disabled-path hook sequence of one ``apply_values``
    call: two ``obs.enabled`` branches (skip timing, skip sync)."""
    obs = NULL_OBS
    start = time.perf_counter()
    for _ in range(HOOK_ITERATIONS):
        started = time.perf_counter() if obs.enabled else 0.0
        if obs.enabled:
            raise AssertionError(started)  # pragma: no cover
    return (time.perf_counter() - start) / HOOK_ITERATIONS


def test_disabled_overhead_under_5_percent():
    model, values = _learn_model()

    baseline = ApplyEngine(model)  # obs defaults to NULL_OBS
    t_disabled = _median_apply_seconds(baseline, values)

    obs = Obs()
    instrumented = ApplyEngine(model, obs=obs)
    t_enabled = _median_apply_seconds(instrumented, values)

    hook = _disabled_hook_seconds_per_call()
    disabled_overhead = hook / t_disabled
    enabled_overhead = t_enabled / t_disabled - 1.0

    rows = len(values)
    print_banner("observability overhead (apply-throughput workload)")
    report(f"rows per apply call:        {rows}")
    report(f"apply (obs disabled):       {t_disabled * 1e3:9.3f} ms/call")
    report(f"apply (obs enabled):        {t_enabled * 1e3:9.3f} ms/call")
    report(f"disabled hook cost:         {hook * 1e9:9.1f} ns/call")
    report(
        f"disabled overhead:          {disabled_overhead:9.6%}"
        f"  (bound {MAX_DISABLED_OVERHEAD:.0%})"
    )
    report(f"enabled overhead:           {enabled_overhead:9.2%} (recorded)")

    record_result(
        "obs_overhead",
        directions={
            "rows": "info",
            "disabled_seconds": "lower",
            "enabled_seconds": "lower",
            "hook_seconds_per_call": "lower",
            "disabled_overhead": "lower",
            "enabled_overhead": "lower",
        },
        rows=rows,
        disabled_seconds=round(t_disabled, 6),
        enabled_seconds=round(t_enabled, 6),
        hook_seconds_per_call=hook,
        disabled_overhead=round(disabled_overhead, 8),
        enabled_overhead=round(enabled_overhead, 6),
    )

    # The acceptance bound: uninstrumented runs are near-free.
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled observability hook costs {disabled_overhead:.4%} of "
        f"an apply call (bound {MAX_DISABLED_OVERHEAD:.0%})"
    )
    # Sanity on the enabled side: counters actually accumulated.
    snap = obs.metrics.snapshot()
    assert snap["apply.rows"] == rows * REPEATS
    assert snap["apply.batch_seconds"]["count"] == REPEATS


def test_result_rows_are_stamped_and_backfill_readable():
    """Recorded rows carry run provenance (git SHA, interpreter, CPU
    count), and :func:`load_results` reads trajectories across schema
    generations: pre-stamping rows backfill as ``None``, corrupt lines
    are skipped."""
    bench = "results_reader_selftest"
    path = RESULTS_DIR / f"BENCH_{bench}.json"
    try:
        row = record_result(bench, marker=1)
        assert "git" in row and "cpus" in row and "python" in row
        assert row["cpus"] == (None if row["cpus"] is None else row["cpus"])
        # A legacy row (recorded before the provenance fields existed)
        # and a torn tail, as a killed run would leave them:
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"bench": "%s", "marker": 2}\n' % bench)
            handle.write('{"bench": "%s", "mar' % bench)
        rows = load_results(bench)
        assert [r.get("marker") for r in rows] == [1, 2]
        assert rows[0]["git"] == row["git"]
        # Backfilled: the legacy row exposes the current schema.
        assert rows[1]["git"] is None
        assert rows[1]["cpus"] is None
        assert rows[1]["python"] is None
        assert load_results("no_such_bench_ever") == []
    finally:
        path.unlink(missing_ok=True)
