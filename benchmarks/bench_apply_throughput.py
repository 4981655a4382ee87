"""Serve-engine throughput: compiled apply vs. re-running the learner.

The paper's loop pays graphs, pivot searches, and human review every
time it runs.  The ``repro.serve`` subsystem pays them once: a learned
model is persisted and then applied to new tables as O(N) hash lookups
(plus structure-indexed program evaluation for unseen values).

Measured on one Address sample:

* ``learn``   — full standardization (candidates, graphs, grouping,
  oracle), the cost this subsystem amortizes away;
* ``replay``  — provenance-aware exact re-application
  (:class:`~repro.serve.replay.ModelReplayer`): no graphs, no search,
  no human; reproduces the learner's cell edits exactly (asserted);
* ``engine``  — the compiled value engine on the same rows, then on a
  replicated large batch for a steady-state rows/sec figure.

The headline claim — the compiled engine is at least **10x** faster
than re-learning on the same input — is asserted, not just printed.
"""

import gc
import os
import random
import statistics
import time

import pytest

from repro.datagen import address_dataset
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.serve import (
    ApplyEngine,
    ModelReplayer,
    build_model,
)

from conftest import (
    BASE_SCALES,
    BUDGETS,
    SCALE,
    print_banner,
    record_result,
    report,
    synthetic_exact_model,
)

ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

#: Reduced slice (like Figure 9): learning is the slow side here.
APPLY_FACTOR = 0.5
#: Large-batch replication factor for the steady-state rows/sec figure.
REPLICAS = 40
SEED = 13

#: The skewed production-shaped workload: ~1M rows over at most 5k
#: distinct values (Zipf-weighted), the regime the columnar apply path
#: is built for.
SKEWED_ROWS = int(1_000_000 * SCALE)
SKEWED_DISTINCT = 5000

#: Rows the unmemoized per-row arm actually executes; its per-row cost
#: is flat (no memo, so row N costs the same as row 1), so the
#: full-column time extrapolates linearly and the bench stays minutes-
#: free.  Byte-identity is still asserted on this slice, and on the
#: whole column against the LRU path.
PER_ROW_SAMPLE = 200_000

#: Exact-rule counts for the full-swap reload bench (3k/6k/12k at full
#: scale): quadrupling the rules must roughly quadruple the compile.
RELOAD_RULES = [
    int(n * max(0.25, min(1.0, SCALE))) for n in (3000, 6000, 12000)
]
#: 12k-vs-3k reload time ceilings.  A linear compile lands near 4x; the
#: old O(E**2) chain composition measured ~21x.
MAX_GROWTH = 10.0
MAX_GROWTH_ASSERTED = 6.0


@pytest.fixture(scope="module")
def apply_dataset():
    return address_dataset(
        scale=BASE_SCALES["Address"] * SCALE * APPLY_FACTOR, seed=SEED
    )


def test_apply_throughput(benchmark, apply_dataset):
    dataset = apply_dataset
    column = dataset.column
    budget = BUDGETS["Address"]

    # -- learn once (the cost being amortized) ---------------------------
    start = time.perf_counter()
    learned_table = dataset.fresh_table()
    standardizer = Standardizer(learned_table, column)
    oracle = GroundTruthOracle(
        dataset.canonical, standardizer.store, seed=SEED
    )
    log = standardizer.run(oracle, budget)
    t_learn = time.perf_counter() - start
    model = build_model(
        log,
        column,
        name="address-bench",
        provenance={"dataset": dataset.name, "seed": SEED},
    )

    # -- exact replay on an identical fresh table ------------------------
    fresh = dataset.fresh_table()
    start = time.perf_counter()
    ModelReplayer(model).apply(fresh)
    t_replay = time.perf_counter() - start
    assert fresh.column_values(column) == learned_table.column_values(
        column
    ), "replay must reproduce the learner cell-for-cell"

    # -- compiled engine on the same input -------------------------------
    values = dataset.fresh_table().column_values(column)
    engine = ApplyEngine(model)
    start = time.perf_counter()
    engine.apply_values(values)
    t_engine = time.perf_counter() - start

    # -- steady-state throughput on a large batch ------------------------
    big_engine = ApplyEngine(model)
    big_batch = values * REPLICAS
    big_result = benchmark.pedantic(
        lambda: big_engine.apply_values(big_batch), rounds=3, iterations=1
    )
    assert len(big_result) == len(big_batch)
    t_big = benchmark.stats.stats.mean
    rows_per_sec = len(big_batch) / t_big if t_big > 0 else float("inf")

    engine_speedup = t_learn / t_engine if t_engine > 0 else float("inf")
    replay_speedup = t_learn / t_replay if t_replay > 0 else float("inf")

    print_banner(
        "Apply throughput: compiled serve engine vs re-learning (Address)"
    )
    report(
        f"rows={len(values)}  confirmed groups={model.groups_confirmed}  "
        f"replacements={model.replacements_confirmed}"
    )
    report(
        f"learn:  {t_learn:8.3f}s   (candidates + graphs + grouping + oracle)"
    )
    report(
        f"replay: {t_replay:8.3f}s   ({replay_speedup:6.1f}x, "
        "exact cell-level reproduction)"
    )
    report(
        f"engine: {t_engine:8.3f}s   ({engine_speedup:6.1f}x, "
        "compiled hash/program lookups)"
    )
    report(
        f"steady-state batch ({len(big_batch)} rows): "
        f"{rows_per_sec:,.0f} rows/s"
    )

    record_result(
        "apply_throughput",
        directions={
            "rows": "info",
            "learn_seconds": "lower",
            "replay_seconds": "lower",
            "engine_seconds": "lower",
            "engine_speedup": "higher",
            "replay_speedup": "higher",
            "steady_rows_per_sec": "higher",
        },
        test="engine_vs_relearn",
        rows=len(values),
        learn_seconds=round(t_learn, 4),
        replay_seconds=round(t_replay, 4),
        engine_seconds=round(t_engine, 4),
        engine_speedup=round(engine_speedup, 2),
        replay_speedup=round(replay_speedup, 2),
        steady_rows_per_sec=round(rows_per_sec, 1),
    )

    assert engine_speedup >= 10.0, (
        f"compiled engine must be >= 10x faster than re-learning "
        f"(got {engine_speedup:.1f}x)"
    )


@pytest.fixture(scope="module")
def skewed_workload(apply_dataset):
    """A learned Address model plus a production-shaped skewed column:
    ``SKEWED_ROWS`` rows drawn Zipf-weighted from a pool of at most
    ``SKEWED_DISTINCT`` distinct values (real dirty values padded with
    suffix variants so exact, program, token, and passthrough paths all
    see traffic)."""
    dataset = apply_dataset
    table = dataset.fresh_table()
    standardizer = Standardizer(table, dataset.column)
    oracle = GroundTruthOracle(
        dataset.canonical, standardizer.store, seed=SEED
    )
    log = standardizer.run(oracle, BUDGETS["Address"])
    model = build_model(
        log,
        dataset.column,
        name="address-skew-bench",
        provenance={"dataset": dataset.name, "seed": SEED},
    )
    base = list(dict.fromkeys(dataset.fresh_table().column_values(
        dataset.column
    )))
    pool = list(base)
    suffix = 0
    while len(pool) < SKEWED_DISTINCT:
        pool.append(f"{base[suffix % len(base)]} Unit {suffix}")
        suffix += 1
    pool = pool[:SKEWED_DISTINCT]
    rng = random.Random(SEED)
    weights = [1.0 / (i + 1) for i in range(len(pool))]
    values = rng.choices(pool, weights=weights, k=SKEWED_ROWS)
    return model, values


def test_skewed_columnar_apply(benchmark, skewed_workload):
    """The tentpole claim: on a skewed column the dictionary-encoded
    columnar path beats per-row rule application by >= 10x at
    byte-identical output (each distinct value is resolved once and
    broadcast through the code vector)."""
    model, values = skewed_workload
    distinct = len(dict.fromkeys(values))

    # -- per-row rule application (no memoization at all) ----------------
    sample_n = min(len(values), PER_ROW_SAMPLE)
    per_row_engine = ApplyEngine(model, cache_size=0)
    transform = per_row_engine.transform
    start = time.perf_counter()
    per_row_out = [transform(v) for v in values[:sample_n]]
    t_sample = time.perf_counter() - start
    t_per_row = t_sample * (len(values) / sample_n)

    # -- per-row through the LRU memo (the previous fast path) -----------
    memo_engine = ApplyEngine(model)
    transform = memo_engine.transform
    start = time.perf_counter()
    memo_out = [transform(v) for v in values]
    t_memo = time.perf_counter() - start

    # -- columnar: intern, resolve once per distinct, broadcast ----------
    columnar_engine = ApplyEngine(model)
    columnar_out = benchmark.pedantic(
        lambda: columnar_engine.apply_values(values), rounds=3, iterations=1
    )
    t_columnar = benchmark.stats.stats.mean

    assert columnar_out[:sample_n] == per_row_out, (
        "columnar apply must be byte-identical to the per-row path"
    )
    assert columnar_out == memo_out

    stats = columnar_engine.stats()
    assert stats.distinct_values <= SKEWED_DISTINCT
    assert stats.broadcast_rows > 0

    skewed_speedup = t_per_row / t_columnar if t_columnar > 0 else float("inf")
    memo_speedup = t_memo / t_columnar if t_columnar > 0 else float("inf")
    rows_per_sec = len(values) / t_columnar if t_columnar > 0 else float("inf")

    print_banner(
        "Skewed columnar apply: dictionary encoding vs per-row (Address)"
    )
    report(
        f"rows={len(values)}  distinct={distinct}  "
        f"broadcast_rows={stats.broadcast_rows}"
    )
    report(
        f"per-row (cold) : {t_per_row:8.3f}s"
        + (
            f"   (extrapolated from {sample_n} rows)"
            if sample_n < len(values)
            else ""
        )
    )
    report(f"per-row (LRU)  : {t_memo:8.3f}s   ({memo_speedup:5.1f}x vs columnar)")
    report(
        f"columnar       : {t_columnar:8.3f}s   ({skewed_speedup:5.1f}x, "
        f"{rows_per_sec:,.0f} rows/s)"
    )

    # No ``test=`` field: these are headline rows, and the baseline
    # gate only builds series from rows without one.
    record_result(
        "apply_skewed",
        directions={
            "rows": "info",
            "distinct": "info",
            "per_row_seconds": "lower",
            "memoized_seconds": "lower",
            "columnar_seconds": "lower",
            "skewed_speedup": "higher",
            "memoized_speedup": "higher",
            "columnar_rows_per_second": "higher",
        },
        rows=len(values),
        distinct=distinct,
        per_row_seconds=round(t_per_row, 4),
        memoized_seconds=round(t_memo, 4),
        columnar_seconds=round(t_columnar, 4),
        skewed_speedup=round(skewed_speedup, 2),
        memoized_speedup=round(memo_speedup, 2),
        columnar_rows_per_second=round(rows_per_sec, 1),
    )

    if ASSERT_SPEEDUP:
        assert skewed_speedup >= 10.0, (
            f"columnar apply must be >= 10x faster than per-row on the "
            f"skewed workload (got {skewed_speedup:.1f}x)"
        )
    else:
        report(
            "(REPRO_BENCH_ASSERT_SPEEDUP=0: speedup reported, not "
            "asserted)"
        )


def test_full_swap_reload():
    """A full-swap reload compiles the exact table from the model in
    time linear in its rules — the cost the registry poller and
    every non-append publish pay.

    Each size's engine swaps back and forth between two disjoint rule
    sets, so every reload is a full swap (never the incremental
    append-only path).  Timed by hand rather than through the
    ``benchmark`` fixture, in process CPU time with the cyclic GC
    paused; smaller sizes repeat their swaps so every timed window
    covers the same number of rules.  The growth figure is the median
    over 15 rounds of each round's largest-vs-smallest ratio: sizes
    timed back to back see the same machine, so load from other
    processes, and collections whose cost follows the whole process
    heap, cannot skew one size against another.
    """
    swaps = []
    for rules in RELOAD_RULES:
        pair = (
            synthetic_exact_model(rules, name="swap-b", salt="B"),
            synthetic_exact_model(rules, name="swap-a"),
        )
        swaps.append((ApplyEngine(pair[1]), pair))
    rounds = []
    for _ in range(15):
        row = []
        for k, (engine, (model_b, model_a)) in enumerate(swaps):
            repeats = RELOAD_RULES[-1] // RELOAD_RULES[k]
            gc.disable()
            start = time.process_time()
            for _ in range(repeats):
                engine.reload(model_b)
                engine.reload(model_a)
            row.append((time.process_time() - start) / (2 * repeats))
            gc.enable()
        rounds.append(row)
    timings = [min(row[k] for row in rounds) for k in range(len(swaps))]
    growth = statistics.median(row[-1] / row[0] for row in rounds)
    for engine, (model_b, model_a) in swaps:
        assert engine.reload(model_b) is False
        sample = [g.members[0].lhs for g in model_b.groups[:64]]
        assert engine.apply_values(sample) == ApplyEngine(
            model_b
        ).apply_values(sample), "reloaded engine must match a cold compile"

    print_banner("Full-swap reload: compile time vs exact-rule count")
    for rules, seconds in zip(RELOAD_RULES, timings):
        report(f"{rules:6d} exact rules : {seconds:8.4f}s")
    report(f"growth {RELOAD_RULES[-1]} vs {RELOAD_RULES[0]} : {growth:5.2f}x")

    record_result(
        "apply_full_swap_reload",
        directions={
            "rules": "info",
            "seconds_1x": "lower",
            "seconds_2x": "lower",
            "seconds_4x": "lower",
            "growth_4x": "lower",
        },
        rules=RELOAD_RULES[0],
        seconds_1x=round(timings[0], 5),
        seconds_2x=round(timings[1], 5),
        seconds_4x=round(timings[2], 5),
        growth_4x=round(growth, 2),
    )

    # Quadratic growth fails this even on a noisy shared runner.
    assert growth <= MAX_GROWTH, (
        f"full-swap reload grew {growth:.1f}x for 4x the rules "
        f"(ceiling {MAX_GROWTH:g}x): the exact-rule compile is not linear"
    )
    if ASSERT_SPEEDUP:
        assert growth <= MAX_GROWTH_ASSERTED, (
            f"full-swap reload grew {growth:.1f}x for 4x the rules "
            f"(ceiling {MAX_GROWTH_ASSERTED:g}x)"
        )
    else:
        report(
            "(REPRO_BENCH_ASSERT_SPEEDUP=0: the tight ceiling is "
            "reported, not asserted)"
        )
