"""The human-in-the-loop standardization loop (Algorithm 1, lines 2-9).

A :class:`Standardizer` wires together candidate generation, a group
feed (the incremental grouper by default, or a baseline feed), an
oracle, and Section 7.1 application/maintenance.  The per-step callback
lets the evaluation harness snapshot metrics after every confirmed
group, which is exactly the x-axis of Figures 6-8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple

from ..candidates.generate import generate_candidates
from ..candidates.store import ReplacementStore
from ..config import DEFAULT_CONFIG, Config
from ..core.grouping import Group
from ..core.incremental import IncrementalGrouper
from ..core.replacement import Replacement
from ..core.scoring import global_frequencies
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..data.table import ClusterTable
from .oracle import Decision, Oracle, REVERSE


class GroupFeed(Protocol):
    """A producer of replacement groups in presentation order."""

    def next_group(self) -> Optional[Group]: ...

    def remove_replacements(self, dead) -> None: ...


@dataclass(frozen=True)
class AppliedReplacement:
    """One direction-resolved replacement as it was applied.

    ``whole`` / ``token`` record which provenance kinds the replacement
    had *at apply time* — the information a persisted model needs to
    compile value-level and token-level rewrite rules
    (:mod:`repro.serve.engine`) and to replay the run exactly
    (:mod:`repro.serve.replay`).
    """

    replacement: Replacement
    whole: bool
    token: bool
    cells_changed: int


@dataclass
class StepRecord:
    """One presented group and what happened to it."""

    index: int
    group: Group
    decision: Decision
    cells_changed: int
    applied: List[AppliedReplacement] = field(default_factory=list)


@dataclass
class StandardizationLog:
    """Full trace of a standardization run."""

    steps: List[StepRecord] = field(default_factory=list)

    @property
    def groups_confirmed(self) -> int:
        return len(self.steps)

    @property
    def groups_approved(self) -> int:
        return sum(1 for s in self.steps if s.decision.approved)

    @property
    def cells_changed(self) -> int:
        return sum(s.cells_changed for s in self.steps)


class Standardizer:
    """Standardizes the variant values of one column (Algorithm 1)."""

    def __init__(
        self,
        table: ClusterTable,
        column: str,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        store: Optional[ReplacementStore] = None,
    ) -> None:
        self.table = table
        self.column = column
        self.config = config
        self.vocabulary = vocabulary
        self.store = store if store is not None else generate_candidates(
            table, column, config
        )

    def default_feed(self) -> IncrementalGrouper:
        """The paper's method: incremental largest-group-first feed."""
        counts: Optional[Counter] = None
        if self.config.constant_match_terms > 0:
            counts = global_frequencies(self.table.column_values(self.column))
        return IncrementalGrouper(
            self.store.replacements(), self.vocabulary, self.config, counts
        )

    def run(
        self,
        oracle: Oracle,
        budget: int,
        feed: Optional[GroupFeed] = None,
        after_step: Optional[Callable[[StepRecord], None]] = None,
    ) -> StandardizationLog:
        """Present up to ``budget`` groups, applying approved ones.

        Every presented group consumes one unit of budget whether or not
        it is approved, matching the paper's "number of groups
        confirmed by a human" axis.
        """
        if feed is None:
            feed = self.default_feed()
        log = StandardizationLog()
        for step_index in range(budget):
            group = feed.next_group()
            if group is None:
                break
            decision = oracle.review(group)
            changed = 0
            applied: List[AppliedReplacement] = []
            if decision.approved:
                changed, applied = apply_group_recorded(
                    self.store, group, decision
                )
                feed.remove_replacements(self.store.drain_dead())
            record = StepRecord(step_index, group, decision, changed, applied)
            log.steps.append(record)
            if after_step is not None:
                after_step(record)
        return log


def apply_group_recorded(
    store: ReplacementStore,
    group: Group,
    decision: Decision,
    changed_into: Optional[List] = None,
) -> "Tuple[int, List[AppliedReplacement]]":
    """Apply a group against a store and record the direction-resolved
    replacement sequence with its provenance kinds (model fodder).

    Shared by the one-shot :class:`Standardizer` and the streaming
    :class:`repro.stream.standardizer.IncrementalStandardizer` so both
    paths produce byte-identical :class:`AppliedReplacement` traces.
    ``changed_into`` (when given) collects the rewritten cell refs —
    the incremental golden-record fuser re-fuses exactly the clusters
    those cells live in.
    """
    changed = 0
    applied: List[AppliedReplacement] = []
    for replacement in group.replacements:
        resolved = (
            replacement.reversed()
            if decision.direction == REVERSE
            else replacement
        )
        whole = bool(store.cell_pairs(resolved))
        token = bool(store.token_pairs(resolved))
        cells = store.apply_replacement(resolved)
        applied.append(
            AppliedReplacement(resolved, whole, token, len(cells))
        )
        changed += len(cells)
        if changed_into is not None:
            changed_into.extend(cells)
    return changed, applied
