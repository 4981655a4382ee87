"""Per-layer spans and counts for the traced run.

:meth:`LayerProbe.install` wraps the public calls into each layer of
the package (``align``, ``candidates``, ``core``, ``pipeline``,
``resolution``, ``stream``, ``fusion``, ``serve``) on the tracer;
:meth:`LayerProbe.collect` turns the recorded spans and boundary
counts into the per-layer metrics.  The tracer restores every original
attribute when the run ends.  :class:`TierClock` measures the apply
tiers' per-value cost.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List

import repro.candidates.store as store_module
import repro.core.incremental as incremental_module
import repro.pipeline.standardize as standardize_module
import repro.serve.replay as replay_module
from repro.candidates.store import ReplacementStore
from repro.core.incremental import IncrementalGrouper
from repro.pipeline.oracle import GroundTruthOracle
from repro.serve.bundle import BundleApplyEngine
from repro.serve.engine import ApplyEngine
from repro.serve.registry import ModelRegistry
from repro.stream.publisher import BundlePublisher
from repro.stream.resolver import IncrementalResolver
from repro.stream.standardizer import IncrementalStandardizer

from metrics import PER_LAYER
from spans import Tracer

#: consolidator stage -> the span names whose inclusive time is that
#: stage's work (the consolidator's own clock times the same stages)
STREAM_STAGES = {
    "engine": ("serve.apply_values",),
    "resolve": ("resolution.add_batch",),
    "derive": ("stream.derive",),
    "replay": ("stream.replay",),
    "learn": ("stream.learn",),
    "fuse": ("fusion.kernel",),
    "publish": ("stream.publish",),
}


#: apply tier -> the ApplyStats counter that moves when it settles a value
TIER_COUNTERS = (
    ("exact", "exact_hits"),
    ("program", "program_hits"),
    ("token", "token_hits"),
    ("passthrough", "misses"),
)


class TierClock:
    """Times ``ApplyEngine.transform`` on values the engine has not
    memoized and files each under the tier whose counter moved."""

    def __init__(self) -> None:
        self.tiers: Dict[str, List[float]] = {
            tier: [0, 0.0] for tier, _ in TIER_COUNTERS
        }

    def transform(self, engine: ApplyEngine, value: str) -> str:
        stats = engine.stats()
        before = [getattr(stats, counter) for _, counter in TIER_COUNTERS]
        start = time.perf_counter()
        out = engine.transform(value)
        seconds = time.perf_counter() - start
        for (tier, counter), old in zip(TIER_COUNTERS, before):
            if getattr(stats, counter) != old:
                self.tiers[tier][0] += 1
                self.tiers[tier][1] += seconds
        return out

    def metrics(self) -> Dict[str, float]:
        """``serve.<tier>_us`` (mean per value) and the hit counts."""
        values = {}
        for tier, counter in TIER_COUNTERS:
            count, seconds = self.tiers[tier]
            values[f"serve.{tier}_us"] = seconds / count * 1e6 if count else 0.0
            values[f"serve.{counter}"] = count
        return values


class LayerProbe:
    """Owns the boundary counters and the grouper instances seen."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(float)
        self.groupers: List[IncrementalGrouper] = []

    def _count(self, key: str, measure):
        def hook(result, args, kwargs):
            self.counts[key] += measure(result, args, kwargs)

        return hook

    def install(self) -> None:
        wrap = self.tracer.wrap
        count = self._count
        for name in ("alignment_segments", "aligned_segments"):
            wrap(store_module, name, "align")
        generated = count(
            "candidates.replacements", lambda r, a, k: len(r)
        )
        wrap(
            standardize_module,
            "generate_candidates",
            "candidates.generate",
            generated,
        )
        wrap(replay_module, "generate_candidates", "candidates.generate")
        wrap(
            ReplacementStore,
            "add_cell",
            "candidates.ingest",
            count("candidates.replacements", lambda r, a, k: r),
        )
        wrap(
            ReplacementStore,
            "apply_replacement",
            "candidates.apply",
            count("candidates.cells_changed", lambda r, a, k: len(r)),
        )
        wrap(
            ReplacementStore,
            "drain_dead",
            "candidates.apply",
            count("candidates.dead", lambda r, a, k: len(r)),
        )

        wrap(
            IncrementalGrouper,
            "__init__",
            "core.feed_init",
            lambda r, a, k: self.groupers.append(a[0]),
        )
        wrap(
            incremental_module,
            "build_graphs",
            "core.graph_build",
            count("core.graphs", lambda r, a, k: len(r[1])),
        )
        wrap(incremental_module, "search_pivot", "core.pivot")
        wrap(
            IncrementalGrouper,
            "next_group",
            "core.next_group",
            count("core.groups", lambda r, a, k: r is not None),
        )

        wrap(
            GroundTruthOracle,
            "review",
            "pipeline.oracle",
            count("pipeline.approved", lambda r, a, k: r.approved),
        )

        def resolved(result, args, kwargs):
            self.counts["resolution.pairs_compared"] += result.pairs_compared
            self.counts["resolution.merges"] += result.merges
            self.counts["resolution.new_clusters"] += result.new_clusters

        wrap(IncrementalResolver, "add_batch", "resolution.add_batch", resolved)

        for name in ("ingest", "move_cells"):
            wrap(IncrementalStandardizer, name, "stream.derive")
        for name in ("partition_live", "reuse_confirmed"):
            wrap(IncrementalStandardizer, name, "stream.replay")

        def novel(result, args, kwargs):
            self.counts["stream.novel_candidates"] += len(
                kwargs.get("novel") or ()
            )

        wrap(IncrementalStandardizer, "learn", "stream.learn", novel)
        wrap(BundlePublisher, "publish", "stream.publish")

        wrap(ApplyEngine, "apply_values", "serve.apply_values")
        wrap(ModelRegistry, "save", "serve.publish")
        wrap(ApplyEngine, "__init__", "serve.compile")
        wrap(
            ApplyEngine,
            "reload",
            "serve.reload",
            count("serve.reloads", lambda r, a, k: 1),
        )
        wrap(BundleApplyEngine, "reload", "serve.reload")

    def wrap_consolidator(self, consolidator) -> None:
        """The fusion kernel lives on the consolidator instance."""
        if consolidator.cluster_fusion is not None:
            self.tracer.wrap(consolidator, "cluster_fusion", "fusion.kernel")

    def search_stats(self) -> Dict[str, int]:
        totals = defaultdict(int)
        for grouper in self.groupers:
            totals["searches"] += grouper.stats.searches
            totals["expansions"] += grouper.stats.expansions
            totals["prunes"] += grouper.stats.prunes
            totals["completions"] += grouper.stats.completions
        return totals

    def collect(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric: span-derived values, boundary counts,
        then ``extra`` (workload-specific readings) on top."""
        own = self.tracer.self_times()
        inclusive = self.tracer.inclusive()
        calls = self.tracer.calls()
        counts = self.counts
        stats = self.search_stats()
        groups = counts["core.groups"]
        questions = calls.get("pipeline.oracle", 0)
        merges = counts["resolution.merges"]
        pairs = counts["resolution.pairs_compared"]
        values = {
            "align.calls": calls.get("align", 0),
            "align.s": own.get("align", 0.0),
            "candidates.replacements": counts["candidates.replacements"],
            "candidates.generate_s": own.get("candidates.generate", 0.0),
            "candidates.ingest_s": own.get("candidates.ingest", 0.0),
            "candidates.apply_s": own.get("candidates.apply", 0.0),
            "candidates.cells_changed": counts["candidates.cells_changed"],
            "candidates.dead": counts["candidates.dead"],
            "core.feed_init_s": own.get("core.feed_init", 0.0),
            "core.graph_build_s": own.get("core.graph_build", 0.0),
            "core.graph_builds": calls.get("core.graph_build", 0),
            "core.graphs": counts["core.graphs"],
            "core.pivot_s": own.get("core.pivot", 0.0),
            "core.pivot_searches": stats["searches"],
            "core.pivot_expansions": stats["expansions"],
            "core.pivot_prunes": stats["prunes"],
            "core.pivot_completions": stats["completions"],
            "core.next_group_s": own.get("core.next_group", 0.0),
            "core.groups": groups,
            "core.groups_per_search": (
                groups / stats["searches"] if stats["searches"] else 0.0
            ),
            "pipeline.oracle_s": own.get("pipeline.oracle", 0.0),
            "pipeline.questions": questions,
            "pipeline.approved": counts["pipeline.approved"],
            "pipeline.approve_ratio": (
                counts["pipeline.approved"] / questions if questions else 0.0
            ),
            "resolution.add_batch_s": own.get("resolution.add_batch", 0.0),
            "resolution.pairs_compared": pairs,
            "resolution.merges": merges,
            "resolution.new_clusters": counts["resolution.new_clusters"],
            "resolution.merges_per_pair": merges / pairs if pairs else 0.0,
            "serve.publish_s": own.get("serve.publish", 0.0),
            "serve.reload_s": own.get("serve.reload", 0.0),
            "serve.compile_s": own.get("serve.compile", 0.0),
            "serve.reloads": counts["serve.reloads"],
        }
        for stage, names in STREAM_STAGES.items():
            values[f"stream.{stage}_s"] = sum(
                inclusive.get(name, 0.0) for name in names
            )
        values["stream.novel_candidates"] = counts["stream.novel_candidates"]
        values["fusion.s"] = own.get("fusion.kernel", 0.0)
        values.update(extra)
        for metric in PER_LAYER:
            values.setdefault(metric.name, 0.0)
        return values

    def stage_mismatches(self, stage_seconds: Dict[str, float]) -> List[str]:
        """Stages whose wrapped calls took longer than the stage clock
        that encloses them — a broken span, since every wrapped call
        runs inside its stage."""
        inclusive = self.tracer.inclusive()
        bad = []
        for stage, names in STREAM_STAGES.items():
            wrapped = sum(inclusive.get(name, 0.0) for name in names)
            clock = stage_seconds.get(stage, 0.0)
            if wrapped > clock * 1.01 + 1e-3:
                bad.append(f"{stage}: wrapped {wrapped:.4f}s > {clock:.4f}s")
        return bad
