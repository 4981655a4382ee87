"""``golden_stream``: incremental consolidation of a 3-column stream.

A :class:`~repro.stream.golden.GoldenStreamConsolidator` resolves
arrivals by similarity with token blocking on ``address``, learns each
column in discovery order, fuses golden records by majority, publishes
a bundle to a registry every batch that approves something, and
standardizes arrivals with the published engine first.  It is the only
workload that runs ``resolution``, incremental ``fusion``, bundle
publishing and in-place engine reloads.  Each pass streams the same
records, in the seed-chosen order (``STREAM_ORDERS`` orders, taken in
turn), into a fresh registry; each batch's time is the mean of its
order's passes, at the gauge's reference speed (see :mod:`gauge`).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.resolution.blocking import token_keys
from repro.serve.bundle import BundleRegistry
from repro.serve.engine import ApplyEngine
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from common import (
    Outcome,
    RunContext,
    alike_per_order,
    mean_profile,
    repeat_for,
    self_peak_rss_mb,
    wait_metrics,
)
from inputs import (
    STREAM_BATCHES,
    STREAM_BUDGET,
    STREAM_DATA_SEED,
    STREAM_KEY_ATTRIBUTE,
    STREAM_ORDERS,
    golden_base,
    order_rng,
    stream_batches,
)
from gauge import Gauge
from layers import LayerProbe, TierClock
from metrics import median
from quality import cell_quality, fingerprint, golden_precision, majority
from spans import Tracer

BUNDLE = "golden"


def consolidator(base, registry: Path) -> GoldenStreamConsolidator:
    return GoldenStreamConsolidator(
        columns=base.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            base.canonical_by_rid, seed=STREAM_DATA_SEED
        ),
        attribute=STREAM_KEY_ATTRIBUTE,
        block_keys=token_keys,
        budget_per_batch=STREAM_BUDGET,
        registry=BundleRegistry(registry),
        bundle_name=BUNDLE,
        use_engine=True,
        shards=1,
        question_order="discovery",
    )


@dataclass
class Pass:
    #: per batch: wall time minus oracle time
    machine: List[float]
    #: per published bundle: seconds to build, save and hot-reload it
    publishes: List[float]
    wall_s: float
    records: int
    questions: int
    reports: list
    golden_ok: bool
    quality: Dict[str, float]
    bundle_sha256: Optional[str]
    engine_stats: Dict[str, Dict]

    @property
    def signature(self):
        """What identical passes share: the bundle and the step counts."""
        return (
            self.bundle_sha256,
            len(self.machine),
            len(self.publishes),
            self.questions,
        )


def stream_pass(
    base, batches, registry: Path, probe=None, gauge: Optional[Gauge] = None
) -> Pass:
    """Stream ``batches`` through a fresh consolidator, sampling the
    ``gauge`` between batches, then check the maintained golden records
    against a full re-fusion."""
    tracer = probe.tracer if probe is not None else None
    c = consolidator(base, registry)
    if probe is not None:
        probe.wrap_consolidator(c)
        tracer.active = True
    machine = []
    publishes = []
    start = time.perf_counter()
    with c:
        for batch in batches:
            report = c.process_batch(batch)
            machine.append(report.seconds - report.stage_seconds.get("oracle", 0.0))
            if report.bundle_version is not None:
                publishes.append(report.stage_seconds["publish"])
            if gauge is not None:
                gauge.sample(report.seconds)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        maintained = {r.cluster: dict(r.values) for r in c.golden_records()}
        golden_ok = maintained == c.full_refusion()
        measured = pass_quality(base, batches, c)
        sha = (
            fingerprint(c.registry.load(BUNDLE).to_dict())
            if c.bundle_version
            else None
        )
        engine_stats = c.engine.stats() if c.engine is not None else {}
    return Pass(
        machine,
        publishes,
        wall,
        sum(len(b) for b in batches),
        c.questions_asked,
        list(c.reports),
        golden_ok,
        measured,
        sha,
        engine_stats,
    )


def pass_quality(base, batches, c) -> Dict[str, float]:
    """Cell precision/recall over every column, and golden precision
    against the canonical values of each cluster's majority entity."""
    entity = {}
    before, canonical = {}, {}
    for batch in batches:
        for record in batch:
            entity[record.rid] = record.values[base.key_column]
            for column in base.columns:
                key = (column, record.rid)
                before[key] = record.values[column]
                canonical[key] = base.canonical_by_rid[column][record.rid]
    after = {}
    table = c.table
    for cluster in table.clusters:
        for record in cluster.records:
            for column in base.columns:
                after[(column, record.rid)] = record.values[column]
    precision, recall = cell_quality(before, after, canonical)
    golden, expected = [], []
    for record in c.golden_records():
        cluster = table.clusters[record.cluster]
        key = majority(entity[r.rid] for r in cluster.records)
        for column in base.columns:
            golden.append(record.values[column])
            expected.append(base.golden_by_key[key][column])
    return {
        "precision": precision,
        "recall": recall,
        "golden_precision": golden_precision(golden, expected),
    }


def run(ctx: RunContext) -> Outcome:
    base = golden_base()

    def arrivals(order: int):
        # Fresh copies for every pass.
        return stream_batches(
            base.records, order_rng(ctx.seed, "stream", order), STREAM_BATCHES
        )

    setups = iter(range(10 ** 6))

    def setup():
        # Construction plus the lazy wiring of the resolver, the
        # per-column standardizers and the oracles (an empty batch).
        # The registries are removed with the run's scratch directory.
        with consolidator(base, ctx.work / f"setup-{next(setups)}") as c:
            c.process_batch([])

    if ctx.trace:
        return traced(ctx, base, lambda: arrivals(0))

    gauge = Gauge()

    def once(rep: int) -> Pass:
        path = ctx.work / f"pass-{rep}"
        try:
            done = stream_pass(base, arrivals(rep % STREAM_ORDERS), path, gauge=gauge)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        # The batch reports carry each batch's golden changes; kept for
        # every pass, they would grow the run's peak RSS with the
        # number of passes, which follows the machine's speed.
        done.reports = []
        return done

    def problems(p: Pass) -> List[str]:
        if p.golden_ok:
            return []
        return ["maintained golden records differ from full_refusion()"]

    passes, setup_s = repeat_for(ctx.seconds, once, setup, STREAM_ORDERS)
    outcome = Outcome(metrics={})
    groups = alike_per_order(
        outcome,
        passes,
        STREAM_ORDERS,
        signature=lambda p: p.signature,
        size=lambda p: p.records,
        problems=problems,
    )
    # Per order: each batch's and each publish's mean time.
    machine = [
        [gauge.scale(s) for s in mean_profile([p.machine for p in group])]
        for group in groups
    ]
    publishes = [
        [gauge.scale(s) for s in mean_profile([p.publishes for p in group])]
        for group in groups
    ]
    head = passes[0]
    waits = wait_metrics([s for steps in machine for s in steps])
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "throughput_per_s": STREAM_ORDERS * head.records
        / sum(sum(steps) for steps in machine),
        "wait_p50_ms": waits["wait_p50_ms"],
        "wait_tail_ms": waits["wait_tail_ms"],
        "first_result_s": median([s for steps in publishes for s in steps]),
        "questions": head.questions,
        **head.quality,
    }
    outcome.info = {
        "repetitions": len(passes),
        "records": head.records,
        "batches": STREAM_BATCHES,
        "budget": STREAM_BUDGET,
        "wait_samples": waits["wait_samples"],
        "wait_tail_pct": waits["wait_tail_pct"],
        "wait_tail_pctl_ms": waits["wait_tail_pctl_ms"],
        "gauge_slowdown": gauge.slowdown,
        "model_sha256": head.bundle_sha256,
    }
    return outcome


def tier_costs(registry: Path, batches) -> Dict[str, float]:
    """The apply tiers' per-value cost: the last published bundle's
    column engines, compiled cold, transform every distinct arrival."""
    bundle = BundleRegistry(registry).load(BUNDLE)
    clock = TierClock()
    for column, model in bundle.models.items():
        engine = ApplyEngine(model)
        for value in dict.fromkeys(
            record.values[column] for batch in batches for record in batch
        ):
            clock.transform(engine, value)
    return clock.metrics()


def traced(ctx: RunContext, base, arrivals) -> Outcome:
    """A traced pass between two untraced ones over the same batches:
    the traced one gives the per-layer metrics, its wall time over the
    untraced mean the overhead."""
    plain = [stream_pass(base, arrivals(), ctx.work / "plain-0").wall_s]
    tracer = Tracer(f"golden_stream:{ctx.seed}")
    probe = LayerProbe(tracer)
    probe.install()
    batches = arrivals()
    try:
        traced_pass = stream_pass(base, batches, ctx.work / "traced", probe)
    finally:
        tracer.restore()
    tracer.write(ctx.trace_dir / f"golden_stream-{ctx.seed}.jsonl")
    plain.append(stream_pass(base, arrivals(), ctx.work / "plain-1").wall_s)

    outcome = Outcome(metrics={}, attempted=traced_pass.records)
    if not traced_pass.golden_ok:
        outcome.failed = traced_pass.records
        outcome.problems.append("maintained golden records differ from full_refusion()")
    stages: Dict[str, float] = {}
    totals: Dict[str, float] = {}
    for report in traced_pass.reports:
        for stage, seconds in report.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        for name in (
            "reused_replacements",
            "rejected_skips",
            "explained_cells",
            "unmatched_cells",
            "clusters_refused",
            "clusters_live",
        ):
            totals[name] = totals.get(name, 0) + getattr(report, name)
    for problem in probe.stage_mismatches(stages):
        outcome.problems.append(f"stage clock cross-check: {problem}")
    live = {"rows": 0, "intern_hits": 0, "sidecar_loads": 0}
    for column_stats in traced_pass.engine_stats.values():
        for name in live:
            live[name] += column_stats.get(name, 0)
    extra = {
        f"stream.{name}": totals[name]
        for name in (
            "reused_replacements",
            "rejected_skips",
            "explained_cells",
            "unmatched_cells",
        )
    }
    extra.update(
        {
            "fusion.clusters_refused": totals["clusters_refused"],
            "fusion.clusters_live": totals["clusters_live"],
            "fusion.refuse_ratio": (
                totals["clusters_refused"] / totals["clusters_live"]
                if totals["clusters_live"]
                else 0.0
            ),
            "serve.intern_hit_ratio": (
                live["intern_hits"] / live["rows"] if live["rows"] else 0.0
            ),
            "serve.sidecar_loads": live["sidecar_loads"],
            "trace.overhead_ratio": traced_pass.wall_s / median(plain),
            **tier_costs(ctx.work / "traced", batches),
        }
    )
    outcome.metrics = probe.collect(extra)
    outcome.info = {
        "records": traced_pass.records,
        "batches": STREAM_BATCHES,
        "budget": STREAM_BUDGET,
        "model_sha256": traced_pass.bundle_sha256,
    }
    return outcome
