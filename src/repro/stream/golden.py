"""Streaming consolidation: Algorithm 1 folded over a record stream.

The paper's Algorithm 1 is *per-column standardization, then truth
discovery* — :class:`~repro.pipeline.consolidate.GoldenRecordCreation`
runs it once over a static table.  :class:`GoldenStreamConsolidator`
is the same algorithm folded over a record stream, and the one
implementation of the batch lifecycle: ``repro stream --columns``
runs it on N columns, and the single-column
:class:`~repro.stream.consolidator.StreamConsolidator` is this class
with one column, no fusion, and a bare model as its artifact.

One :meth:`GoldenStreamConsolidator.process_batch` call:

1. **serve fast path** — the live engine standardizes the batch's
   values, every column, before any of them reaches the learner;
2. **incremental resolution** — a single
   :class:`~repro.stream.resolver.IncrementalResolver` (one blocking
   index, one union-find, one cumulative
   :class:`~repro.data.table.ClusterTable`) folds the batch in; only
   pairs touching new records are compared;
3. **delta candidates** — one
   :class:`~repro.stream.standardizer.IncrementalStandardizer` *per
   column* (Algorithm 1 line 2's column loop) ingests the same appends
   and merge moves into its own replacement store;
4. **decision-cache replay** — each column re-applies its confirmed
   verdicts and silences its rejected ones without a question;
5. **budgeted learning** — only genuinely novel candidates are grouped
   and presented to that column's oracle;
6. **drift check** — each column with a
   :class:`~repro.stream.monitor.DriftMonitor` records its own
   unmatched cells; a tripped monitor relearns that column deeper,
   charged to that column's questions;
7. **incremental fusion** — golden records are maintained per cluster,
   and a batch re-fuses **only the clusters it touched**: clusters that
   gained records, clusters involved in a merge (both the surviving and
   the emptied slot), and clusters whose cell values a confirmed or
   replayed replacement rewrote (the ``changed_into`` deltas the
   standardizers report).  Cluster-local fusion kernels (majority
   consensus) make this exact; global iterative methods (Accu,
   TruthFinder estimate source weights across clusters) re-fuse
   everything, trading the delta win for correctness — the
   ``clusters_refused`` counter in :class:`BatchReport` makes the
   difference observable either way.  ``fusion=None`` skips this step
   and the golden delta log;
8. **atomic publication** — each confirming batch publishes one
   :class:`~repro.serve.bundle.ModelBundle` (all columns, one artifact)
   through a :class:`~repro.stream.publisher.ModelPublisher`, so
   subscribed :class:`~repro.serve.bundle.BundleApplyEngine` consumers
   hot-reload every column together — never a half-upgraded column set.

Per-batch cost scales with the batch and the *surviving* candidate and
decision state, never with a full re-cluster / re-generate / re-review
of everything seen so far.

**Sharding.**  The matching / alignment / grouping stages route through
one :class:`~repro.stream.shards.ShardPool` (the resolver's
resident-replica ``resolve`` scripts, the stateless ``derive`` kernel,
and one grouping ``round`` per column per batch).  Every parallel stage
is a pure computation merged in canonical order by this (single)
parent process, so ``--shards N`` publishes byte-identical artifacts
and asks identical questions at any shard count, under every blocking
mode.

**Durability.**  Oracle verdicts append to per-column decision logs
(``decisions-<column>.jsonl``) next to the published bundle, and a
consolidator pointed at a registry that already holds its bundle
resumes — rehydrated per-column logs, replayed verdicts, zero repeat
questions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..config import DEFAULT_CONFIG, Config
from ..core.grouping import Group
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..obs import NULL_OBS
from ..data.table import CellRef, ClusterTable, Record
from ..fusion import majority
from ..pipeline.consolidate import GoldenRecord
from ..pipeline.golden import FusionFn
from ..pipeline.oracle import REVERSE, Decision, GroundTruthOracle, Oracle
from ..pipeline.standardize import (
    AppliedReplacement,
    StandardizationLog,
    StepRecord,
)
from ..resolution.blocking import BlockKeyFn
from ..resolution.matcher import SimilarityFn, hybrid_similarity
from ..serve.bundle import (
    BundleApplyEngine,
    BundleRegistry,
    ModelBundle,
    build_bundle,
)
from ..serve.engine import ApplyEngine
from ..serve.model import TransformationModel, build_model
from ..serve.registry import slugify
from .decisions import DecisionCache, archive_log
from .deltas import GoldenDeltaLog
from .monitor import DriftMonitor
from .publisher import ModelPublisher
from .resolver import IncrementalResolver
from .scheduler import QUESTION_ORDERS, allocate_budget, member_yield
from .shards import ShardPool
from .standardizer import IncrementalStandardizer

#: Builds the reviewing oracle for one column once the consolidator's
#: state exists (the oracle usually needs that column's store).
GoldenOracleFactory = Callable[["GoldenStreamConsolidator", str], Oracle]

#: A cluster-local fusion kernel: the cluster's current values in, the
#: golden value out.  Kernels make incremental (touched-clusters-only)
#: fusion exact, because a cluster's golden value then depends on that
#: cluster alone.
ClusterFusionFn = Callable[[Sequence[str]], Optional[str]]

PathLike = Union[str, Path]

#: Table-level fusion functions with a known-equivalent cluster-local
#: kernel.  ``majority.fuse`` is per-cluster by construction; Accu and
#: TruthFinder couple clusters through source accuracy/trust and have
#: no exact local kernel.
CLUSTER_KERNELS: Dict[FusionFn, ClusterFusionFn] = {
    majority.fuse: majority.majority_value,
}


class _TimedOracle:
    """Per-batch oracle wrapper accumulating ``review`` wall-clock.

    Oracle time is split out of the learn stage because in production
    it is *human latency*, not compute — Fig. 9-style breakdowns are
    misleading when review time hides inside learning.  Everything but
    ``review`` delegates to the wrapped oracle.
    """

    def __init__(self, inner: Oracle) -> None:
        self._inner = inner
        self.seconds = 0.0
        self.reviews = 0

    def review(self, group: Group) -> Decision:
        started = time.perf_counter()
        try:
            return self._inner.review(group)
        finally:
            self.seconds += time.perf_counter() - started
            self.reviews += 1

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


@contextmanager
def _timed_stage(obs, stage_seconds: Dict[str, float], name: str, **tags):
    """Time one lifecycle stage as a ``stream.<name>`` span and fold
    its duration into the report's ``stage_seconds`` (accumulating:
    per-column stages are re-entered once per column, each pass tagged
    ``column=...`` so a trace keeps them apart)."""
    with obs.span("stream." + name, **tags) as span:
        yield span
    stage_seconds[name] = stage_seconds.get(name, 0.0) + span.seconds


def _sync_pool_metrics(obs, pool: Optional[ShardPool]) -> None:
    """Mirror a pool's parent-side aggregates into the registry.

    All gauges (set to the cumulative totals, so the sync is idempotent
    per batch) and all *volatile*: IPC volume and shard compute time
    legitimately differ across ``--shards`` values, and excluding them
    from the deterministic snapshot is what keeps that snapshot
    byte-identical at any shard count.
    """
    if pool is None or not obs.enabled:
        return
    metrics = obs.metrics
    metrics.gauge("shards.values_shipped", deterministic=False).set(
        pool.shipped_values
    )
    metrics.gauge(
        "shards.candidate_ids_shipped", deterministic=False
    ).set(pool.shipped_candidate_ids)
    metrics.gauge("shards.bytes_shipped", deterministic=False).set(
        pool.shipped_bytes
    )
    for op in sorted(pool.op_requests):
        metrics.gauge("shards.requests", deterministic=False, op=op).set(
            pool.op_requests[op]
        )
        metrics.gauge(
            "shards.op_seconds", deterministic=False, op=op
        ).set(round(pool.op_seconds.get(op, 0.0), 9))
    for shard, seconds in enumerate(pool.shard_seconds):
        metrics.gauge(
            "shards.busy_seconds", deterministic=False, shard=str(shard)
        ).set(round(seconds, 9))


class _CellCanonical:
    """Cell -> canonical-string view over rid-keyed ground truth.

    The cumulative table's cells move and grow; ground truth for a
    stream is naturally keyed by record id.  This adapter resolves the
    cell to its record at lookup time so
    :class:`~repro.pipeline.oracle.GroundTruthOracle` works unchanged.
    """

    def __init__(
        self, resolver: IncrementalResolver, by_rid: Dict[str, str]
    ) -> None:
        self._resolver = resolver
        self._by_rid = by_rid

    def get(self, cell: CellRef, default: Optional[str] = None):
        rid = self._resolver.rid_of_cell(cell)
        if rid is None:
            return default
        return self._by_rid.get(rid, default)


def _log_from_model(model: TransformationModel) -> StandardizationLog:
    """Reconstruct a cumulative log from a published model (resume).

    Published models are append-only: each version's group sequence
    extends the last.  Rehydrating the confirmed groups as approved
    steps lets a restarted consolidator's next publish *extend* the
    prior sequence — consumers keep their incremental
    :meth:`~repro.serve.engine.ApplyEngine.reload` path — instead of
    starting a fresh, shorter model.  Rejected steps are not persisted
    in the group sequence (only in provenance), so they are not
    rehydrated; that only means a resumed stream's provenance decision
    list restarts, never that a question is re-asked (the decision log
    covers rejections).
    """
    log = StandardizationLog()
    for confirmed in model.groups:
        decision = Decision(True, confirmed.direction)
        members = tuple(
            member.replacement.reversed()
            if confirmed.direction == REVERSE
            else member.replacement
            for member in confirmed.members
        )
        applied = [
            AppliedReplacement(
                member.replacement,
                member.whole,
                member.token,
                member.cells_changed,
            )
            for member in confirmed.members
        ]
        log.steps.append(
            StepRecord(
                len(log.steps),
                Group(confirmed.program, members, confirmed.structure),
                decision,
                sum(member.cells_changed for member in confirmed.members),
                applied,
            )
        )
    return log


def golden_ground_truth_oracle_factory(
    canonical_by_rid: Dict[str, Dict[str, str]],
    seed: int = 0,
    error_rate: float = 0.0,
) -> GoldenOracleFactory:
    """A :data:`GoldenOracleFactory` simulating the expert per column
    from ``column -> rid -> canonical`` ground truth (the multi-column
    analogue of
    :func:`~repro.stream.consolidator.ground_truth_oracle_factory`)."""

    def factory(
        consolidator: "GoldenStreamConsolidator", column: str
    ) -> Oracle:
        return GroundTruthOracle(
            _CellCanonical(
                consolidator.resolver, canonical_by_rid.get(column, {})
            ),
            consolidator.standardizers[column].store,
            error_rate=error_rate,
            seed=seed,
        )

    return factory


@dataclass
class BatchReport:
    """Everything one batch did, for observability and assertions."""

    index: int
    records: int
    #: cells rewritten by the serve fast path before resolution, all
    #: columns
    explained_cells: int = 0
    #: cells whose variation created candidate keys nothing had seen
    #: before, all columns (each drift monitor sees its own column's)
    unmatched_cells: int = 0
    merges: int = 0
    new_clusters: int = 0
    pairs_compared: int = 0
    #: resident values shipped to shard workers (0 without a pool)
    values_shipped: int = 0
    #: serialized bytes shipped to shard workers across the batch's
    #: data-plane ops (resolve scripts + alignment fan-out)
    bytes_shipped: int = 0
    #: cached-approved replacements re-applied without a question
    reused_replacements: int = 0
    reused_cells: int = 0
    #: live candidates silenced by a cached rejection
    rejected_skips: int = 0
    #: verdicts settled transitively from approved rewrites (yield
    #: scheduling only), recorded in the logs with source "inferred"
    inferred_verdicts: int = 0
    #: oracle questions spent this batch, per column (drift relearns
    #: included)
    questions_by_column: Dict[str, int] = field(default_factory=dict)
    groups_approved: int = 0
    cells_changed: int = 0
    #: some column's drift monitor tripped and relearned this batch
    drift_triggered: bool = False
    #: clusters whose golden record was recomputed this batch (the
    #: incremental-fusion delta; equals the live cluster count when the
    #: fusion method is global; 0 without fusion)
    clusters_refused: int = 0
    #: live (non-empty) clusters after the fusion step (0 without it)
    clusters_live: int = 0
    #: wall-clock spent inside the fusion refresh
    fusion_seconds: float = 0.0
    #: cluster key -> column -> golden value, for exactly the clusters
    #: whose golden record this batch actually changed — the payload of
    #: the golden delta log the serve tier tails (consumers apply
    #: ``golden_removed`` first, then these)
    golden_changed: Dict[str, Dict[str, Optional[str]]] = field(
        default_factory=dict
    )
    #: cluster keys whose golden record died (merge-emptied slots)
    golden_removed: List[str] = field(default_factory=list)
    #: version of the artifact (model or bundle) this batch published
    version: Optional[int] = None
    seconds: float = 0.0
    #: wall-clock per lifecycle stage (engine, resolve, derive, replay,
    #: learn, drift, oracle, fuse, publish); per-column stages
    #: accumulate across the column loop, and ``oracle`` is the review
    #: time *inside* learn/drift, split out because in production it is
    #: human latency, not compute
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def questions_asked(self) -> int:
        """Total oracle questions across every column."""
        return sum(self.questions_by_column.values())

    @property
    def model_version(self) -> Optional[int]:
        """The published version (single-column name)."""
        return self.version

    @property
    def bundle_version(self) -> Optional[int]:
        """The published version (multi-column name)."""
        return self.version

    def describe(self) -> str:
        per_column = ", ".join(
            f"{column}:{count}"
            for column, count in self.questions_by_column.items()
        )
        text = (
            f"batch {self.index}: {self.records} records, "
            f"{self.explained_cells} engine-explained, "
            f"{self.merges} merges, "
            f"{self.questions_asked} questions ({per_column}; "
            f"+{self.reused_replacements} reused, "
            f"{self.rejected_skips} silenced), "
            f"{self.cells_changed} cells changed"
        )
        if self.clusters_live:
            text += (
                f", {self.clusters_refused}/{self.clusters_live} "
                "clusters re-fused"
            )
        text += f", published v{self.version}" if self.version else (
            ", nothing published"
        )
        return text + (", DRIFT" if self.drift_triggered else "")

    def stats(self) -> Dict[str, object]:
        """The batch's counters as a JSON-friendly dict (one row of
        ``repro stream --stats`` output)."""
        return {
            "batch": self.index,
            "records": self.records,
            "merges": self.merges,
            "candidate_pairs": self.pairs_compared,
            "values_shipped": self.values_shipped,
            "bytes_shipped": self.bytes_shipped,
            "explained_cells": self.explained_cells,
            "unmatched_cells": self.unmatched_cells,
            "questions_asked": self.questions_asked,
            "questions_by_column": dict(self.questions_by_column),
            "reused_replacements": self.reused_replacements,
            "inferred_verdicts": self.inferred_verdicts,
            "cells_changed": self.cells_changed,
            "clusters_refused": self.clusters_refused,
            "clusters_live": self.clusters_live,
            "golden_changed": len(self.golden_changed),
            "golden_removed": len(self.golden_removed),
            "fusion_seconds": round(self.fusion_seconds, 6),
            "model_version": self.version,
            "bundle_version": self.version,
            "seconds": round(self.seconds, 6),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            },
        }


#: The multi-column name of :class:`BatchReport` (one class serves both).
GoldenBatchReport = BatchReport


class GoldenStreamConsolidator:
    """Streams Algorithm 1: N columns standardized incrementally over
    one shared resolver, golden records fused per batch.

    Parameters
    ----------
    columns:
        The columns being standardized (Algorithm 1 line 2's loop),
        also the fusion columns of every golden record.
    oracle_factory:
        Builds one reviewing oracle per column once the consolidator's
        state exists (see :func:`golden_ground_truth_oracle_factory`).
    key_attribute / attribute, similarity_threshold, similarity:
        Resolution mode — exactly one of ``key_attribute`` (exact-key
        clustering) or ``attribute`` (blocked similarity matching on
        that column).  The single shared resolver clusters whole
        records.
    block_keys / max_block_size:
        Similarity-mode blocking: the block-key function (default
        token blocking; see
        :func:`~repro.resolution.blocking.make_block_keys` for the
        MinHash-LSH modes behind ``--blocking lsh``) and the oversized
        -block guard.
    budget_per_batch:
        Oracle questions allowed per **column** per batch (the
        streaming analogue of ``GoldenRecordCreation``'s
        ``budget_per_column``; novel groups only).
    fusion / cluster_fusion:
        The truth-discovery method.  ``fusion`` is the table-level
        :data:`~repro.pipeline.golden.FusionFn` used for full
        re-fusion cross-checks; ``cluster_fusion`` is the per-cluster
        kernel incremental fusion uses.  When ``cluster_fusion`` is
        omitted it is looked up in :data:`CLUSTER_KERNELS`; fusion
        functions without a kernel (Accu, TruthFinder — they couple
        clusters through source weights) fall back to re-fusing every
        live cluster each batch, which is slower but exact.
        ``fusion=None`` skips fusion and the golden delta log.
    registry / bundle_name:
        Publish :class:`~repro.serve.bundle.ModelBundle` versions into
        this :class:`~repro.serve.bundle.BundleRegistry` under this
        name.  With a registry, per-column decision logs default to
        ``<registry>/<name>/decisions-<column>.jsonl`` and an existing
        bundle resumes (see ``resume``).
    use_engine / engine_use_programs:
        Serve fast path: standardize arrivals with the live
        :class:`~repro.serve.bundle.BundleApplyEngine` before
        resolution (all columns, one atomic reload per publish).
    monitors / relearn_budget:
        Optional ``column -> DriftMonitor`` mapping and the extra
        budget a tripped monitor's relearn of its column may spend
        (default four batches' worth).
    shards / shard_processes:
        One :class:`~repro.stream.shards.ShardPool` shared by the
        resolver and every column's alignment / grouping stages
        (``shard_processes=False`` keeps the same partitioned code path
        in-process).  Sharding never changes published bytes or
        question counts.
    decision_log_dir / persist_decisions:
        Override the directory the per-column verdict logs live in;
        falsy ``persist_decisions`` keeps verdicts in memory only.
    block_retention:
        Similarity mode: per-block member cap (rotation) so block
        lists stop growing with stream length.
    resume:
        When the registry already holds ``bundle_name``, warm-start
        every column from its latest bundle (engine + cumulative logs
        + publisher version) instead of starting over.
    golden_log:
        Path of the golden delta log (default
        ``<registry>/<name>/golden-deltas.jsonl``).
    question_order:
        ``"discovery"`` (default) gives every column the same
        ``budget_per_batch`` and spends it in feed order.  ``"yield"``
        pools one global budget of ``budget_per_batch x columns`` per
        batch and splits it across columns by marginal yield
        (:func:`~repro.stream.scheduler.allocate_budget`), ranks each
        column's questions by expected cells fixed, rolls an
        early-exhausted column's leftover into the next most promising
        one, and infers transitively-proven verdicts without a
        question.  Both orders are byte-identical across ``--shards``
        values.
    """

    #: serves the published artifact on the fast path
    ENGINE = BundleApplyEngine

    def __init__(
        self,
        columns: Sequence[str],
        oracle_factory: GoldenOracleFactory,
        key_attribute: Optional[str] = None,
        attribute: Optional[str] = None,
        similarity_threshold: float = 0.8,
        similarity: SimilarityFn = hybrid_similarity,
        block_keys: Optional[BlockKeyFn] = None,
        max_block_size: int = 50,
        budget_per_batch: int = 50,
        fusion: Optional[FusionFn] = majority.fuse,
        cluster_fusion: Optional[ClusterFusionFn] = None,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        registry: Optional[BundleRegistry] = None,
        bundle_name: Optional[str] = None,
        use_engine: bool = True,
        engine_use_programs: bool = True,
        monitors: Optional[Mapping[str, DriftMonitor]] = None,
        relearn_budget: Optional[int] = None,
        shards: int = 1,
        shard_processes: bool = True,
        decision_log_dir: Optional[PathLike] = None,
        persist_decisions: bool = True,
        block_retention: Optional[int] = None,
        resume: bool = True,
        golden_log: Optional[PathLike] = None,
        obs=None,
        question_order: str = "discovery",
    ) -> None:
        #: observability context (metrics registry + tracer + sink);
        #: defaults to the no-op NULL_OBS, under which the stage spans
        #: still time (stage_seconds stays populated) but nothing is
        #: recorded anywhere.
        self.obs = obs if obs is not None else NULL_OBS
        if not columns:
            raise ValueError("at least one column is required")
        if len(set(columns)) != len(tuple(columns)):
            raise ValueError(f"duplicate columns: {list(columns)}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if question_order not in QUESTION_ORDERS:
            raise ValueError(
                f"question_order must be one of {QUESTION_ORDERS}"
            )
        self.columns = tuple(columns)
        monitors = dict(monitors or {})
        unknown = sorted(set(monitors) - set(self.columns))
        if unknown:
            raise ValueError(f"monitors for unknown columns: {unknown}")
        self.monitors: Dict[str, DriftMonitor] = {
            column: monitors[column]
            for column in self.columns
            if column in monitors
        }
        self.oracle_factory = oracle_factory
        self.budget_per_batch = budget_per_batch
        self.relearn_budget = (
            relearn_budget
            if relearn_budget is not None
            else 4 * budget_per_batch
        )
        self.fusion = fusion
        self.cluster_fusion = (
            cluster_fusion
            if cluster_fusion is not None
            else CLUSTER_KERNELS.get(fusion)
        )
        self.config = config
        self.vocabulary = vocabulary
        self.bundle_name = bundle_name or "-".join(self.columns)
        self.use_engine = use_engine
        self.engine_use_programs = engine_use_programs
        self.shards = shards
        self.shard_processes = shard_processes
        self.block_retention = block_retention
        self.resume = resume
        self.question_order = question_order
        self._key_attribute = key_attribute
        self._attribute = attribute
        self._similarity_threshold = similarity_threshold
        self._similarity = similarity
        self._block_keys = block_keys
        self._max_block_size = max_block_size

        self.registry = registry
        if persist_decisions and decision_log_dir is None and (
            registry is not None
        ):
            decision_log_dir = registry.root / slugify(self.bundle_name)
        self.decision_log_dir = (
            Path(decision_log_dir)
            if (persist_decisions and decision_log_dir is not None)
            else None
        )
        # The golden delta log rides next to the published bundle by
        # default: `repro serve` tails it for lookups and
        # changed-clusters-only pushes (see repro.stream.deltas).
        if fusion is None:
            golden_log = None
        elif golden_log is None and registry is not None:
            golden_log = (
                registry.root
                / slugify(self.bundle_name)
                / "golden-deltas.jsonl"
            )
        self.golden_log_path = (
            Path(golden_log) if golden_log is not None else None
        )
        self._delta_log: Optional[GoldenDeltaLog] = None

        self.publisher = ModelPublisher(registry, self.bundle_name)
        self.engine = None
        self.resolver: Optional[IncrementalResolver] = None
        self.standardizers: Dict[str, IncrementalStandardizer] = {}
        self.oracles: Dict[str, Oracle] = {}
        self.pool: Optional[ShardPool] = None
        self.resumed_from: Optional[int] = None
        self.reports: List[BatchReport] = []
        #: cluster slot -> column -> current golden value (live slots)
        self._golden: Dict[int, Dict[str, Optional[str]]] = {}

    # -- artifact hooks (the single-column adapter overrides these) ------

    def decision_log_path(self, column: str) -> Optional[Path]:
        """The column's durable verdict log, or ``None`` in-memory."""
        if self.decision_log_dir is None:
            return None
        return self.decision_log_dir / f"decisions-{slugify(column)}.jsonl"

    def _column_model_name(self, column: str) -> str:
        return f"{self.bundle_name}-{column}"

    def _build_artifact(self):
        """What one confirming batch publishes."""
        return self.build_bundle()

    def _artifact_models(self, artifact) -> Mapping[str, TransformationModel]:
        """``column -> model`` inside a published artifact (resume)."""
        return artifact.models

    def _column_engine(self, column: str) -> Optional[ApplyEngine]:
        """The live engine standardizing ``column`` (engine present)."""
        return self.engine.engine(column)

    # -- state accessors ---------------------------------------------------

    @property
    def table(self) -> ClusterTable:
        """The cumulative cluster table (after >= 1 batch)."""
        self._require_ready()
        return self.resolver.table

    @property
    def bundle_version(self) -> int:
        """Version of the most recently published artifact (0 = none)."""
        return self.publisher.version

    def _require_ready(self) -> None:
        if self.resolver is None:
            raise RuntimeError("no batch processed yet")

    # -- models ------------------------------------------------------------

    def build_column_model(self, column: str) -> TransformationModel:
        """The cumulative model of one column (everything confirmed)."""
        self._require_ready()
        standardizer = self.standardizers[column]
        # Deliberately no shard count here: the execution topology is
        # not part of the learned knowledge, and the byte-identical
        # guarantee across --shards values depends on its absence.
        provenance = {
            "source": type(self).__name__,
            "batches": len(self.reports),
            "records": self.resolver.num_records,
            "questions_asked": standardizer.questions_asked,
        }
        if self.resumed_from is not None:
            provenance["resumed_from_version"] = self.resumed_from
        return build_model(
            standardizer.log,
            column,
            name=self._column_model_name(column),
            config=self.config,
            vocabulary=self.vocabulary,
            provenance=provenance,
        )

    def build_bundle(self) -> ModelBundle:
        """The cumulative bundle: every column's confirmed knowledge."""
        self._require_ready()
        provenance = {
            "source": type(self).__name__,
            "batches": len(self.reports),
            "records": self.resolver.num_records,
            "questions_by_column": {
                column: self.standardizers[column].questions_asked
                for column in self.columns
            },
        }
        if self.resumed_from is not None:
            provenance["resumed_from_version"] = self.resumed_from
        return build_bundle(
            {
                column: self.build_column_model(column)
                for column in self.columns
            },
            self.bundle_name,
            provenance=provenance,
        )

    # -- golden records ----------------------------------------------------

    def golden_records(self) -> List[GoldenRecord]:
        """The incrementally maintained golden record per live cluster
        (table order; emptied merge-loser slots are skipped)."""
        self._require_ready()
        records: List[GoldenRecord] = []
        for ci, cluster in enumerate(self.resolver.table.clusters):
            if not cluster.records:
                continue
            values = self._golden.get(ci, {})
            records.append(
                GoldenRecord(
                    ci,
                    cluster.key,
                    {col: values.get(col) for col in self.columns},
                )
            )
        return records

    def golden_by_key(self) -> Dict[str, Dict[str, Optional[str]]]:
        """``cluster key -> column -> golden value`` for live clusters."""
        return {
            record.key: dict(record.values)
            for record in self.golden_records()
        }

    def full_refusion(self) -> Dict[int, Dict[str, Optional[str]]]:
        """Fuse every live cluster from scratch with the table-level
        fusion function — the cross-check incremental fusion must
        match (and the slow path global methods fall back to)."""
        self._require_ready()
        per_column = {
            column: self.fusion(self.resolver.table, column)
            for column in self.columns
        }
        return {
            ci: {
                column: per_column[column].get(ci)
                for column in self.columns
            }
            for ci, cluster in enumerate(self.resolver.table.clusters)
            if cluster.records
        }

    def _refuse_clusters(self, touched: Set[int], report: BatchReport) -> None:
        """Refresh golden records for the batch's touched clusters.

        With a cluster-local kernel only ``touched`` is recomputed —
        each such cluster's golden value is a pure function of its own
        cells, so untouched clusters cannot have changed.  Without one
        (global fusion), everything live is re-fused.
        """
        start = time.perf_counter()
        table = self.resolver.table
        changed = report.golden_changed
        removed = report.golden_removed
        if self.cluster_fusion is None:
            previous = self._golden
            refreshed = self.full_refusion()
            for ci, values in refreshed.items():
                if previous.get(ci) != values:
                    changed[table.clusters[ci].key] = dict(values)
            for ci in previous:
                if ci not in refreshed:
                    removed.append(table.clusters[ci].key)
            self._golden = refreshed
            report.clusters_refused = len(refreshed)
        else:
            kernel = self.cluster_fusion
            refused = 0
            for ci in sorted(touched):
                cluster = table.clusters[ci]
                if not cluster.records:
                    # A merge emptied the slot; its golden record dies
                    # (no fusion work, so it does not count as re-fused).
                    if self._golden.pop(ci, None) is not None:
                        removed.append(cluster.key)
                    continue
                values = {
                    column: kernel(table.cluster_values(ci, column))
                    for column in self.columns
                }
                if self._golden.get(ci) != values:
                    changed[cluster.key] = dict(values)
                self._golden[ci] = values
                refused += 1
            report.clusters_refused = refused
        report.clusters_live = sum(
            1 for c in table.clusters if c.records
        )
        report.fusion_seconds = time.perf_counter() - start

    # -- lazy wiring -------------------------------------------------------

    def _ensure_ready(self, records: Sequence[Record]) -> None:
        if self.resolver is not None:
            return
        table_columns: List[str] = list(self.columns)
        for record in records:
            for name in record.values:
                if name not in table_columns:
                    table_columns.append(name)
        resolver_kwargs = {}
        if self._block_keys is not None:
            resolver_kwargs["block_keys"] = self._block_keys
        self.resolver = IncrementalResolver(
            tuple(table_columns),
            key_attribute=self._key_attribute,
            attribute=self._attribute,
            threshold=self._similarity_threshold,
            similarity=self._similarity,
            max_block_size=self._max_block_size,
            shards=self.shards,
            block_retention=self.block_retention,
            **resolver_kwargs,
        )
        if not self.resume:
            for column in self.columns:
                archive_log(self.decision_log_path(column))
            archive_log(self.golden_log_path)
        if self.golden_log_path is not None:
            self._delta_log = GoldenDeltaLog(self.golden_log_path)
        for column in self.columns:
            self.standardizers[column] = IncrementalStandardizer(
                self.resolver.table,
                column,
                self.config,
                self.vocabulary,
                decisions=DecisionCache(self.decision_log_path(column)),
            )
        if self.shards > 1:
            self.pool = ShardPool(
                self.shards,
                self.config,
                self.vocabulary,
                similarity=(
                    self._similarity if self._attribute is not None else None
                ),
                processes=self.shard_processes,
                obs=self.obs,
            )
        self._maybe_resume()
        for column in self.columns:
            self.oracles[column] = self.oracle_factory(self, column)
        for monitor in self.monitors.values():
            if not monitor.obs.enabled:
                # Route drift triggers through this stream's metrics
                # and event stream (an explicitly attached obs wins).
                monitor.obs = self.obs

    def _maybe_resume(self) -> None:
        """Warm-start every column from the registry's latest artifact.

        Rehydrating a column's group sequence is only sound when that
        column's verdicts are in its decision cache: without them the
        re-judged variation appends to the rehydrated sequence and
        every group comes out twice.  So an artifact where *any*
        non-empty column lacks its verdicts (``--no-decision-log``, or
        a deleted log) starts over as a whole — per-column partial
        resumes would publish a bundle mixing resumed and restarted
        histories.  New versions still publish under the next registry
        number; nothing is overwritten.
        """
        if not self.resume or self.registry is None:
            return
        versions = self.registry.versions(self.bundle_name)
        if not versions:
            return
        artifact = self.registry.load(self.bundle_name)
        models = self._artifact_models(artifact)
        for column in self.columns:
            model = models.get(column)
            if (
                model is not None
                and model.groups
                and len(self.standardizers[column].decisions) == 0
            ):
                return
        self.resumed_from = versions[-1]
        self.publisher.version = versions[-1]
        for column in self.columns:
            model = models.get(column)
            if model is not None:
                self.standardizers[column].log = _log_from_model(model)
        self._start_engine(artifact)

    def _start_engine(self, artifact) -> None:
        """Serve ``artifact`` on the fast path, reloading on publish."""
        if self.use_engine and self.engine is None:
            self.engine = self.ENGINE(
                artifact,
                use_programs=self.engine_use_programs,
                obs=self.obs,
            )
            self.publisher.subscribe(self.engine)

    # -- the lifecycle -----------------------------------------------------

    def process_batch(self, records: Sequence[Record]) -> BatchReport:
        """Fold one record batch into the consolidation state."""
        with self.obs.span(
            "stream.batch", batch=len(self.reports)
        ) as batch_span:
            report = self._process_batch(records)
        report.seconds = batch_span.seconds
        self._record_batch(report)
        return report

    def _process_batch(self, records: Sequence[Record]) -> BatchReport:
        # The table owns its records: copy so standardization never
        # mutates the caller's objects (batches stay replayable), and
        # normalize every consolidated column to "" when absent (JSON-
        # lines sources accept records with arbitrary keys).
        records = [
            Record(
                r.rid,
                {**{column: "" for column in self.columns}, **r.values},
                r.source,
            )
            for r in records
        ]
        self._ensure_ready(records)
        report = BatchReport(index=len(self.reports), records=len(records))
        stage = report.stage_seconds

        # 1. serve fast path: the live artifact standardizes arrivals —
        # all columns, before any of them reaches the learner.
        with _timed_stage(self.obs, stage, "engine"):
            if self.engine is not None and records:
                for column in self.columns:
                    engine = self._column_engine(column)
                    if engine is None:
                        continue
                    values = [r.values.get(column, "") for r in records]
                    outputs = engine.apply_values(values)
                    for record, value, out in zip(
                        records, values, outputs
                    ):
                        if out != value:
                            record.values[column] = out
                            report.explained_cells += 1

        # 2. incremental resolution, once for the whole record.
        pool_bytes_before = (
            self.pool.shipped_bytes if self.pool is not None else 0
        )
        with _timed_stage(self.obs, stage, "resolve"):
            resolution = self.resolver.add_batch(records, pool=self.pool)
        report.merges = resolution.merges
        report.new_clusters = resolution.new_clusters
        report.pairs_compared = resolution.pairs_compared
        report.values_shipped = resolution.values_shipped

        # 3-5. the per-column standardization loop (Algorithm 1 line 2):
        # every column ingests the same appends/moves into its own
        # store, replays its own decision cache, and learns over its
        # own novel remainder — sharing the one resolver and pool.
        # Records can be appended *and* merge-moved within one batch,
        # so moves only re-home pre-existing (already indexed) cells,
        # and appended cells are indexed at their *current* position.
        appended_rids = {rid for rid, _, _ in resolution.appended}
        first_old: Dict[str, Tuple[int, int]] = {}
        for rid, oc, orow, _nc, _nrow in resolution.moved:
            if rid not in appended_rids:
                first_old.setdefault(rid, (oc, orow))
        changed_cells: List[CellRef] = []
        unmatched: Dict[str, int] = {}
        yield_mode = self.question_order == "yield"
        #: column -> novel remainder, learned once every column replayed
        pending: Dict[str, List] = {}
        for column in self.columns:
            standardizer = self.standardizers[column]
            with _timed_stage(self.obs, stage, "derive", column=column):
                moves = [
                    (
                        CellRef(oc, orow, column),
                        CellRef(*self.resolver.position(rid), column),
                    )
                    for rid, (oc, orow) in first_old.items()
                ]
                if moves:
                    standardizer.move_cells(moves)
                new_cells = []
                for rid, _, _ in resolution.appended:
                    cluster, row = self.resolver.position(rid)
                    new_cells.append(CellRef(cluster, row, column))
                _indexed, unmatched[column] = standardizer.ingest(
                    new_cells, pool=self.pool
                )
            report.unmatched_cells += unmatched[column]

            with _timed_stage(self.obs, stage, "replay", column=column):
                approved, rejected_count, undecided = (
                    standardizer.partition_live()
                )
                reused, reused_cells = standardizer.reuse_confirmed(
                    approved, changed_into=changed_cells
                )
                report.reused_replacements += reused
                report.reused_cells += reused_cells
                report.rejected_skips += rejected_count
                report.cells_changed += reused_cells
                if reused_cells:
                    # Applying cached verdicts changed the store;
                    # refresh the novel set.
                    undecided = standardizer.undecided()
                if yield_mode:
                    # Transitive inference: candidates the approved
                    # chain already proves are settled (and applied)
                    # for free, before any budget is spent.
                    inferred, inferred_cells = (
                        standardizer.infer_transitive(
                            undecided, changed_into=changed_cells
                        )
                    )
                    report.inferred_verdicts += inferred
                    report.cells_changed += inferred_cells
                    if inferred:
                        undecided = standardizer.undecided()

            # Columns are learner-independent (per-column stores and
            # caches over the shared resolver), so the novel remainder
            # stays valid while the other columns replay.
            pending[column] = undecided

        # Spend the budget: "discovery" gives each column its own
        # budget in column order; "yield" splits one pooled budget by
        # marginal yield (largest-remainder apportionment over each
        # column's total pending yield) and spends it in descending-
        # yield order, so an early-exhausted column's leftover rolls
        # into the next most promising one.
        if yield_mode:
            yields = {
                column: sum(
                    member_yield(
                        self.standardizers[column].store,
                        self.resolver.table,
                        member,
                    )
                    for member in pending[column]
                )
                for column in self.columns
            }
            plan = allocate_budget(
                yields, self.budget_per_batch * len(self.columns), self.columns
            )
        else:
            plan = [(column, self.budget_per_batch) for column in self.columns]
        carry = 0
        for column, share in plan:
            budget = share + carry
            with _timed_stage(self.obs, stage, "learn", column=column):
                asked = self._learn(
                    report, column, budget, changed_cells,
                    novel=pending[column],
                )
            if yield_mode:
                carry = budget - asked

        # 6. drift check, per column: relearn a column deeper when the
        # stream stops being explained.  The signal (candidate-key
        # novelty) is independent of the engine, so monitoring works
        # in --no-engine mode too.
        for column, monitor in self.monitors.items():
            with _timed_stage(self.obs, stage, "drift", column=column):
                drift = monitor.record(
                    len(records),
                    unmatched[column],
                    batch=report.index,
                    column=column,
                )
                if drift.drifted:
                    report.drift_triggered = True
                    self._learn(
                        report, column, self.relearn_budget, changed_cells
                    )
                    monitor.reset()
        stage.setdefault("oracle", 0.0)

        # 7. incremental fusion over exactly the touched clusters: the
        # ones that gained records, both sides of every merge move, and
        # the ones whose cells a confirmed or replayed replacement
        # rewrote.
        if self.fusion is not None:
            touched: Set[int] = {slot for _, slot, _ in resolution.appended}
            for _rid, old, _orow, new, _nrow in resolution.moved:
                touched.update((old, new))
            touched.update(cell.cluster for cell in changed_cells)
            with _timed_stage(self.obs, stage, "fuse"):
                self._refuse_clusters(touched, report)

        # 8. publish one artifact; every column hot-reloads atomically.
        with _timed_stage(self.obs, stage, "publish"):
            if report.groups_approved:
                artifact = self._build_artifact()
                report.version, _path = self.publisher.publish(artifact)
                self._start_engine(artifact)

        # Append the batch's golden delta (changed clusters only) to the
        # durable log the serving tier tails.
        if self._delta_log is not None:
            self._delta_log.append(
                report.golden_changed,
                report.golden_removed,
                batch=report.index,
                bundle_version=report.version,
            )

        if self.pool is not None:
            # Data-plane bytes for the whole batch (resolve scripts
            # plus the alignment fan-out in steps 3/5).
            report.bytes_shipped = (
                self.pool.shipped_bytes - pool_bytes_before
            )
        return report

    def _learn(
        self,
        report: BatchReport,
        column: str,
        budget: int,
        changed_cells: List[CellRef],
        **kwargs,
    ) -> int:
        """One budgeted learning pass over ``column`` — its ``novel``
        remainder, or everything live for a drift relearn — charged to
        that column; returns the questions asked.  The oracle is
        wrapped so its review wall-clock is separable from learning."""
        oracle = _TimedOracle(self.oracles[column])
        steps = self.standardizers[column].learn(
            oracle,
            budget,
            pool=self.pool,
            changed_into=changed_cells,
            yield_ranked=self.question_order == "yield",
            **kwargs,
        )
        stage = report.stage_seconds
        stage["oracle"] = stage.get("oracle", 0.0) + oracle.seconds
        report.questions_by_column[column] = (
            report.questions_by_column.get(column, 0) + len(steps)
        )
        report.groups_approved += sum(
            1 for s in steps if s.decision.approved
        )
        report.cells_changed += sum(s.cells_changed for s in steps)
        return len(steps)

    def _record_batch(self, report: BatchReport) -> None:
        """Append the report; with an enabled obs context, mirror its
        counters into the registry (stable key schema documented in
        docs/observability.md) and emit the batch row."""
        self.reports.append(report)
        obs = self.obs
        if not obs.enabled:
            return
        metrics = obs.metrics
        # Deterministic counters: identical at any --shards value.
        metrics.counter("stream.batches").inc()
        metrics.counter("stream.records").inc(report.records)
        metrics.counter("stream.explained_cells").inc(
            report.explained_cells
        )
        metrics.counter("stream.unmatched_cells").inc(
            report.unmatched_cells
        )
        metrics.counter("stream.merges").inc(report.merges)
        metrics.counter("stream.new_clusters").inc(report.new_clusters)
        metrics.counter("stream.candidate_pairs").inc(
            report.pairs_compared
        )
        metrics.counter("stream.reused_replacements").inc(
            report.reused_replacements
        )
        metrics.counter("stream.reused_cells").inc(report.reused_cells)
        metrics.counter("stream.rejected_skips").inc(
            report.rejected_skips
        )
        metrics.counter("oracle.inferred_verdicts").inc(
            report.inferred_verdicts
        )
        metrics.counter("oracle.questions_saved").inc(
            report.reused_replacements
            + report.rejected_skips
            + report.inferred_verdicts
        )
        for column, asked in report.questions_by_column.items():
            metrics.counter("stream.questions", column=column).inc(asked)
        metrics.counter("stream.groups_approved").inc(
            report.groups_approved
        )
        metrics.counter("stream.cells_changed").inc(report.cells_changed)
        if self.fusion is not None:
            metrics.counter("stream.clusters_refused").inc(
                report.clusters_refused
            )
            metrics.counter("stream.golden_changed").inc(
                len(report.golden_changed)
            )
            metrics.counter("stream.golden_removed").inc(
                len(report.golden_removed)
            )
            metrics.gauge("stream.clusters_live").set(report.clusters_live)
            metrics.counter(
                "stream.fusion_seconds", deterministic=False
            ).inc(round(report.fusion_seconds, 9))
        if report.version is not None:
            metrics.counter("stream.publishes").inc()
        # Volatile: wall-clock and IPC volume vary run to run.
        metrics.counter("stream.values_shipped", deterministic=False).inc(
            report.values_shipped
        )
        metrics.counter("stream.bytes_shipped", deterministic=False).inc(
            report.bytes_shipped
        )
        metrics.histogram(
            "stream.batch_seconds", deterministic=False
        ).observe(report.seconds)
        for stage, seconds in report.stage_seconds.items():
            metrics.counter(
                "stream.stage_seconds", deterministic=False, stage=stage
            ).inc(round(seconds, 9))
        _sync_pool_metrics(obs, self.pool)
        obs.emit({"type": "batch", **report.stats()})

    def run(self, batches) -> List[BatchReport]:
        """Process every batch of an iterable; returns the reports."""
        return [self.process_batch(batch) for batch in batches]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the shard pool's worker processes and flush the
        golden delta log (idempotent)."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._delta_log is not None:
            self._delta_log.close()
            self._delta_log = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- roll-ups ----------------------------------------------------------

    @property
    def questions_asked(self) -> int:
        """Total oracle questions spent across batches and columns."""
        return sum(r.questions_asked for r in self.reports)

    @property
    def questions_saved(self) -> int:
        """Oracle work the incremental state avoided (cached approvals
        re-applied, cached rejections silenced, transitively inferred
        verdicts — all columns)."""
        return sum(
            r.reused_replacements + r.rejected_skips + r.inferred_verdicts
            for r in self.reports
        )

    @property
    def inferred_verdicts(self) -> int:
        """Verdicts settled transitively, never asked (yield mode)."""
        return sum(r.inferred_verdicts for r in self.reports)

    @property
    def clusters_refused(self) -> int:
        """Total golden-record recomputations across batches."""
        return sum(r.clusters_refused for r in self.reports)
