"""The single-column stream (``repro stream --dataset``).

A one-column stream is the N=1 case of Algorithm 1, so
:class:`StreamConsolidator` *is* the
:class:`~repro.stream.golden.GoldenStreamConsolidator` lifecycle with
one column and no fusion — serve fast path, incremental resolution,
delta candidates, decision-cache replay, budgeted learning, drift
check, publish + hot reload (see :mod:`repro.stream.golden`).  The
adapter only chooses the artifact: each confirming batch publishes a
bare :class:`~repro.serve.model.TransformationModel` into a
:class:`~repro.serve.registry.ModelRegistry`, served by one
:class:`~repro.serve.engine.ApplyEngine`, with its verdicts in
``<registry>/<name>/decisions.jsonl``: the registry layout, model
bytes and decision log of a dedicated single-column stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional

from ..config import DEFAULT_CONFIG, Config
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..pipeline.oracle import GroundTruthOracle, Oracle
from ..resolution.blocking import BlockKeyFn
from ..resolution.matcher import SimilarityFn, hybrid_similarity
from ..serve.engine import ApplyEngine
from ..serve.model import TransformationModel
from ..serve.registry import ModelRegistry
from .golden import GoldenStreamConsolidator, PathLike, _CellCanonical
from .monitor import DriftMonitor

#: Builds the reviewing oracle once the consolidator's state exists.
OracleFactory = Callable[["StreamConsolidator"], Oracle]


def ground_truth_oracle_factory(
    canonical_by_rid: Dict[str, str], seed: int = 0, error_rate: float = 0.0
) -> OracleFactory:
    """An :data:`OracleFactory` simulating the expert from rid-keyed
    ground truth (the streaming analogue of the one-shot harness)."""

    def factory(consolidator: "StreamConsolidator") -> Oracle:
        return GroundTruthOracle(
            _CellCanonical(consolidator.resolver, canonical_by_rid),
            consolidator.store,
            error_rate=error_rate,
            seed=seed,
        )

    return factory


class StreamConsolidator(GoldenStreamConsolidator):
    """Maintains consolidation state for one column over a stream of
    record batches.

    Parameters
    ----------
    column:
        The column being standardized.
    oracle_factory:
        Builds the reviewing oracle once the consolidator's internal
        state exists (the oracle usually needs the store for
        provenance-aware judging).
    registry / model_name:
        Publish model versions into this
        :class:`~repro.serve.registry.ModelRegistry` under this name.
        With a registry the decision log defaults to
        ``<registry>/<name>/decisions.jsonl`` and an existing model
        resumes (see ``resume``).
    monitor:
        Optional :class:`~repro.stream.monitor.DriftMonitor`; a
        triggered relearn may spend four batches' worth of budget.
    decision_log:
        Verdict-log path override; ``False``-y ``persist_decisions``
        disables persistence entirely.

    Every other parameter means what it does on
    :class:`~repro.stream.golden.GoldenStreamConsolidator`.
    """

    ENGINE = ApplyEngine

    def __init__(
        self,
        column: str,
        oracle_factory: OracleFactory,
        key_attribute: Optional[str] = None,
        attribute: Optional[str] = None,
        similarity_threshold: float = 0.8,
        similarity: SimilarityFn = hybrid_similarity,
        block_keys: Optional[BlockKeyFn] = None,
        max_block_size: int = 50,
        budget_per_batch: int = 50,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        registry: Optional[ModelRegistry] = None,
        model_name: Optional[str] = None,
        use_engine: bool = True,
        monitor: Optional[DriftMonitor] = None,
        shards: int = 1,
        shard_processes: bool = True,
        decision_log: Optional[PathLike] = None,
        persist_decisions: bool = True,
        block_retention: Optional[int] = None,
        resume: bool = True,
        obs=None,
        question_order: str = "discovery",
    ) -> None:
        super().__init__(
            [column],
            lambda consolidator, _column: oracle_factory(consolidator),
            key_attribute=key_attribute,
            attribute=attribute,
            similarity_threshold=similarity_threshold,
            similarity=similarity,
            block_keys=block_keys,
            max_block_size=max_block_size,
            budget_per_batch=budget_per_batch,
            fusion=None,
            config=config,
            vocabulary=vocabulary,
            registry=registry,
            bundle_name=model_name or column,
            use_engine=use_engine,
            monitors={column: monitor} if monitor is not None else None,
            shards=shards,
            shard_processes=shard_processes,
            persist_decisions=persist_decisions,
            block_retention=block_retention,
            resume=resume,
            obs=obs,
            question_order=question_order,
        )
        self.column = column
        self.model_name = self.bundle_name
        self.monitor = monitor
        if decision_log is None and self.decision_log_dir is not None:
            decision_log = self.decision_log_dir / "decisions.jsonl"
        self.decision_log = (
            Path(decision_log)
            if (persist_decisions and decision_log is not None)
            else None
        )

    # -- the artifact: one bare model --------------------------------------

    def decision_log_path(self, column: str) -> Optional[Path]:
        return self.decision_log

    def _column_model_name(self, column: str) -> str:
        return self.model_name

    def _build_artifact(self) -> TransformationModel:
        return self.build_model()

    def _artifact_models(self, model: TransformationModel):
        return {self.column: model}

    def _column_engine(self, column: str) -> Optional[ApplyEngine]:
        return self.engine

    # -- state accessors ---------------------------------------------------

    @property
    def standardizer(self):
        """The column's incremental standardizer (after >= 1 batch)."""
        return self.standardizers.get(self.column)

    @property
    def store(self):
        """The single shared replacement store (after >= 1 batch)."""
        self._require_ready()
        return self.standardizer.store

    @property
    def model_version(self) -> int:
        """Version of the most recently published model (0 = none)."""
        return self.publisher.version

    def build_model(self) -> TransformationModel:
        """The cumulative model: everything confirmed so far."""
        return self.build_column_model(self.column)
