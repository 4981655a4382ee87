"""``oneshot_address``: the paper's loop (Algorithm 1 on one column).

A :class:`~repro.pipeline.standardize.Standardizer` with its default
incremental feed asks a ground-truth oracle ``ONESHOT_BUDGET``
questions about one Address table.  ``core`` (graph build and pivot
search) does nearly all the work; no resolution, fusion or serving code
runs.  Repetitions learn from a few seed-chosen orders of the same
table, in turn, until the run's seconds are spent; each question's
wait is the mean of its order's repetitions, at the gauge's reference
speed (see :mod:`gauge`), and the waits of all orders are pooled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.fusion.majority import majority_value
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.serve import ModelReplayer, build_model

from common import (
    Outcome,
    RunContext,
    Stopwatch,
    alike_per_order,
    mean_profile,
    repeat_for,
    self_peak_rss_mb,
    wait_metrics,
)
from inputs import (
    ONESHOT_BUDGET,
    ONESHOT_DATA_SEED,
    ONESHOT_ORDERS,
    ONESHOT_SCALE,
    ClusteredInput,
    address_input,
    order_rng,
    permuted,
)
from gauge import Gauge
from layers import LayerProbe
from metrics import median
from quality import (
    cell_quality,
    fingerprint,
    golden_precision,
    majority,
    values_by_rid,
)
from spans import Tracer


@dataclass
class Repetition:
    data: ClusteredInput
    table: object
    standardizer: Standardizer
    log: object
    #: set-up done to budget spent, oracle excluded
    learn_s: float
    #: construction + learning wall time, oracle included
    wall_s: float
    waits: List[float]


@dataclass
class Summary:
    questions: int
    #: machine time before each question, then from the last answer to
    #: the end of learning (oracle excluded)
    steps: List[float]
    #: cells where the replayed model disagrees with the learner
    mismatches: int
    model_sha256: str


def learn(data: ClusteredInput, gauge: Optional[Gauge] = None) -> Repetition:
    table = data.fresh()
    start = time.perf_counter()
    standardizer = Standardizer(table, data.column)
    feed = standardizer.default_feed()
    ready = time.perf_counter()
    oracle = Stopwatch(
        GroundTruthOracle(
            data.canonical_cells(table),
            standardizer.store,
            seed=ONESHOT_DATA_SEED,
        ),
        ready,
        gauge,
    )
    log = standardizer.run(oracle, ONESHOT_BUDGET, feed=feed)
    end = time.perf_counter()
    return Repetition(
        data,
        table,
        standardizer,
        log,
        end - ready - oracle.seconds,
        end - start,
        oracle.waits,
    )


def model_of(rep: Repetition):
    return build_model(
        rep.log,
        rep.data.column,
        config=rep.standardizer.config,
        vocabulary=rep.standardizer.vocabulary,
    )


def replay_mismatches(rep: Repetition, model) -> int:
    """Cells where replaying the learned model on a fresh copy of the
    input disagrees with the learner's own table."""
    fresh = rep.data.fresh()
    ModelReplayer(model).apply(fresh, rep.data.column)
    learned = values_by_rid(rep.table, rep.data.column)
    replayed = values_by_rid(fresh, rep.data.column)
    return sum(1 for rid, value in learned.items() if replayed[rid] != value)


def quality(rep: Repetition) -> dict:
    data = rep.data
    before = values_by_rid(data.table, data.column)
    after = values_by_rid(rep.table, data.column)
    precision, recall = cell_quality(before, after, data.canonical_by_rid)
    golden, expected = [], []
    for ci, cluster in enumerate(rep.table.clusters):
        golden.append(majority_value(rep.table.cluster_values(ci, data.column)))
        expected.append(
            majority(data.canonical_by_rid[r.rid] for r in cluster.records)
        )
    return {
        "questions": rep.log.groups_confirmed,
        "precision": precision,
        "recall": recall,
        "golden_precision": golden_precision(golden, expected),
    }


def run(ctx: RunContext) -> Outcome:
    base = address_input(ONESHOT_SCALE, ONESHOT_DATA_SEED)
    orders = [
        permuted(base, order_rng(ctx.seed, "oneshot", k))
        for k in range(ONESHOT_ORDERS)
    ]
    first = orders[0]

    def setup():
        Standardizer(first.fresh(), first.column).default_feed()

    if ctx.trace:
        return traced(ctx, first)

    measured = {}
    gauge = Gauge()

    def once(rep: int) -> Summary:
        learned = learn(orders[rep % ONESHOT_ORDERS], gauge)
        if not rep:
            measured.update(quality(learned))
        model = model_of(learned)
        # Only the summary outlives the repetition, so retained tables
        # and stores do not slow the next repetitions' collector.
        return Summary(
            learned.log.groups_confirmed,
            learned.waits + [learned.learn_s - sum(learned.waits)],
            replay_mismatches(learned, model),
            fingerprint(model.to_dict()),
        )

    def problems(rep: Summary) -> List[str]:
        if rep.mismatches:
            return [f"replay differs from the learner in {rep.mismatches} cells"]
        return []

    reps, setup_s = repeat_for(ctx.seconds, once, setup, ONESHOT_ORDERS)
    outcome = Outcome(metrics={})
    groups = alike_per_order(
        outcome,
        reps,
        ONESHOT_ORDERS,
        signature=lambda rep: (rep.model_sha256, len(rep.steps)),
        size=lambda rep: rep.questions,
        problems=problems,
    )
    # Per order: the mean wait before each question, then the mean
    # stretch from the last answer to the end of learning.
    profiles = [
        [gauge.scale(s) for s in mean_profile([rep.steps for rep in group])]
        for group in groups
    ]
    waits = wait_metrics([w for steps in profiles for w in steps[:-1]])
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "throughput_per_s": sum(group[0].questions for group in groups)
        / sum(sum(steps) for steps in profiles),
        "wait_p50_ms": waits["wait_p50_ms"],
        "wait_tail_ms": waits["wait_tail_ms"],
        "first_result_s": sum(steps[0] for steps in profiles) / len(profiles),
        **measured,
    }
    outcome.info = {
        "repetitions": len(reps),
        "records": first.table.num_records,
        "budget": ONESHOT_BUDGET,
        "wait_samples": waits["wait_samples"],
        "wait_tail_pct": waits["wait_tail_pct"],
        "wait_tail_pctl_ms": waits["wait_tail_pctl_ms"],
        "gauge_slowdown": gauge.slowdown,
        "model_sha256": reps[0].model_sha256,
    }
    return outcome


def traced(ctx: RunContext, data: ClusteredInput) -> Outcome:
    """A traced repetition between two untraced ones of the same input:
    the traced one gives the per-layer metrics, its wall time over the
    untraced mean the overhead."""
    plain = [learn(data).wall_s]
    tracer = Tracer(f"oneshot_address:{ctx.seed}")
    probe = LayerProbe(tracer)
    probe.install()
    try:
        tracer.active = True
        rep = learn(data)
        tracer.active = False
    finally:
        tracer.restore()
    tracer.write(ctx.trace_dir / f"oneshot_address-{ctx.seed}.jsonl")
    plain.append(learn(data).wall_s)
    outcome = Outcome(metrics={}, attempted=rep.log.groups_confirmed)
    bad = replay_mismatches(rep, model_of(rep))
    if bad:
        outcome.failed = rep.log.groups_confirmed
        outcome.problems.append(f"replay differs from the learner in {bad} cells")
    outcome.metrics = probe.collect(
        {"trace.overhead_ratio": rep.wall_s / median(plain)}
    )
    outcome.info = {"records": data.table.num_records, "budget": ONESHOT_BUDGET}
    return outcome
