"""Experiment harness: the runs behind every figure and table.

Each run copies the generated table, samples labeled pairs from the
*original* values (the paper labels before any updating), executes a
standardization method, and snapshots precision / recall / MCC after
every confirmed group — yielding the series plotted in Figures 6-8 and
10; Table 8 and Figure 9 have their own entry points.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.rules import rules_for
from ..baselines.single import SingleFeed
from ..baselines.wrangler import RuleSet
from ..config import DEFAULT_CONFIG, Config
from ..core.grouping import unsupervised_grouping
from ..core.incremental import IncrementalGrouper
from ..datagen.base import GeneratedDataset, lowercased
from ..fusion import accu, majority, truthfinder
from ..pipeline.golden import entity_precision, golden_records
from ..pipeline.oracle import GroundTruthOracle
from ..pipeline.standardize import Standardizer, StepRecord
from .metrics import Confusion, confusion_from_pairs
from .sampling import LabeledPair, sample_labeled_pairs


@dataclass(frozen=True)
class SeriesPoint:
    """Metrics after ``confirmed`` groups were reviewed."""

    confirmed: int
    precision: float
    recall: float
    mcc: float


@dataclass
class StandardizationSeries:
    """One curve of Figures 6-8/10 for one method on one dataset."""

    dataset: str
    method: str
    points: List[SeriesPoint] = field(default_factory=list)

    def final(self) -> SeriesPoint:
        return self.points[-1] if self.points else SeriesPoint(0, 1.0, 0.0, 0.0)


def _evaluate(pairs: List[LabeledPair], table) -> Confusion:
    return confusion_from_pairs(
        [(p.is_variant, (p.a, p.b)) for p in pairs],
        lambda pair: table.value(pair[0]) == table.value(pair[1]),
    )


def run_method_series(
    dataset: GeneratedDataset,
    method: str,
    budget: int,
    config: Config = DEFAULT_CONFIG,
    sample_size: int = 1000,
    seed: int = 0,
    oracle_error_rate: float = 0.0,
) -> StandardizationSeries:
    """Run ``method`` ('group' or 'single') and record the metric series.

    The series contains the zero-budget point plus one point per
    confirmed group, exactly the x-axis of Figures 6-8.
    """
    table = dataset.fresh_table()
    pairs = sample_labeled_pairs(
        table, dataset.column, dataset.labeler(), sample_size, seed
    )
    standardizer = Standardizer(table, dataset.column, config)
    oracle = GroundTruthOracle(
        dataset.canonical,
        standardizer.store,
        error_rate=oracle_error_rate,
        seed=seed,
    )
    if method == "group":
        feed = standardizer.default_feed()
    elif method == "single":
        feed = SingleFeed(standardizer.store)
    else:
        raise ValueError(f"unknown method {method!r}")

    series = StandardizationSeries(dataset.name, method)
    baseline = _evaluate(pairs, table)
    series.points.append(
        SeriesPoint(0, baseline.precision, baseline.recall, baseline.mcc)
    )

    def snapshot(step: StepRecord) -> None:
        confusion = _evaluate(pairs, table)
        series.points.append(
            SeriesPoint(
                step.index + 1,
                confusion.precision,
                confusion.recall,
                confusion.mcc,
            )
        )

    standardizer.run(oracle, budget, feed=feed, after_step=snapshot)
    return series


def run_trifacta_series(
    dataset: GeneratedDataset,
    budget: int,
    rules: Optional[RuleSet] = None,
    sample_size: int = 1000,
    seed: int = 0,
) -> StandardizationSeries:
    """The Trifacta baseline: rules applied once, metrics constant in
    the number of confirmed groups (the dotted lines of Figures 6-8)."""
    table = dataset.fresh_table()
    pairs = sample_labeled_pairs(
        table, dataset.column, dataset.labeler(), sample_size, seed
    )
    if rules is None:
        rules = rules_for(dataset.name)
    rules.apply_to_table(table, dataset.column)
    confusion = _evaluate(pairs, table)
    series = StandardizationSeries(dataset.name, "trifacta")
    for confirmed in range(budget + 1):
        series.points.append(
            SeriesPoint(
                confirmed, confusion.precision, confusion.recall, confusion.mcc
            )
        )
    return series


@dataclass(frozen=True)
class RuntimePoint:
    """Cumulative seconds until the k-th group is available (Figure 9)."""

    groups: int
    seconds: float


def run_grouping_runtime(
    dataset: GeneratedDataset,
    variant: str,
    max_groups: int,
    config: Config = DEFAULT_CONFIG,
) -> List[RuntimePoint]:
    """Time group generation for one Figure 9 curve.

    ``oneshot`` / ``earlyterm`` pay their full partitioning cost before
    the first group is available (dotted lines); ``incremental`` pays
    per invocation (solid line).

    The clock starts after a full collection, so a collection owed to
    earlier work (setup, or whatever ran before in the process) is not
    charged to the variant: one can cost more than the incremental
    grouper's first group.
    """
    store_table = dataset.fresh_table()
    standardizer = Standardizer(store_table, dataset.column, config)
    replacements = standardizer.store.replacements()
    gc.collect()

    if variant in ("oneshot", "earlyterm"):
        run_config = (
            config.without_early_termination()
            if variant == "oneshot"
            else config.with_early_termination()
        )
        start = time.perf_counter()
        outcome = unsupervised_grouping(replacements, config=run_config)
        upfront = time.perf_counter() - start
        available = len(outcome.groups)
        return [
            RuntimePoint(k, upfront)
            for k in range(1, min(max_groups, available) + 1)
        ]
    if variant == "incremental":
        grouper = IncrementalGrouper(replacements, config=config)
        points: List[RuntimePoint] = []
        elapsed = 0.0
        for k in range(1, max_groups + 1):
            start = time.perf_counter()
            group = grouper.next_group()
            elapsed += time.perf_counter() - start
            if group is None:
                break
            points.append(RuntimePoint(k, elapsed))
        return points
    raise ValueError(f"unknown grouping variant {variant!r}")


_FUSION_METHODS = {
    "majority": majority.fuse,
    "truthfinder": truthfinder.fuse,
    "accu": accu.fuse,
}


@dataclass(frozen=True)
class ConsolidationResult:
    """One cell of Table 8: golden-record precision for one setting."""

    dataset: str
    fusion: str
    standardized: bool
    precision: float


def run_consolidation(
    dataset: GeneratedDataset,
    budget: int,
    fusion: str = "majority",
    config: Config = DEFAULT_CONFIG,
    seed: int = 0,
    lowercase: bool = False,
) -> Tuple[ConsolidationResult, ConsolidationResult]:
    """Golden-record precision before and after standardization
    (Table 8's before/after rows).

    Correctness is *entity-level*, exactly as the paper scores it ("if
    they refer to the same entity, we increase TP"): a golden value in
    a variant surface form still counts when it denotes the right
    entity.  ``lowercase`` additionally reproduces the paper's only
    preprocessing (Section 8.3); it defaults off here because our
    synthetic ground truth is case-exact (see EXPERIMENTS.md).
    """
    fuse = _FUSION_METHODS[fusion]
    if lowercase:
        dataset = lowercased(dataset)

    before_table = dataset.fresh_table()
    before = entity_precision(
        before_table,
        dataset.column,
        golden_records(before_table, dataset.column, fuse),
        dataset.canonical,
        dataset.golden,
    )

    after_table = dataset.fresh_table()
    standardizer = Standardizer(after_table, dataset.column, config)
    oracle = GroundTruthOracle(dataset.canonical, standardizer.store, seed=seed)
    standardizer.run(oracle, budget)
    after = entity_precision(
        after_table,
        dataset.column,
        golden_records(after_table, dataset.column, fuse),
        dataset.canonical,
        dataset.golden,
    )
    return (
        ConsolidationResult(dataset.name, fusion, False, before),
        ConsolidationResult(dataset.name, fusion, True, after),
    )
