"""Incremental standardization: learn only from novel variation.

The one-shot :class:`~repro.pipeline.standardize.Standardizer` generates
all candidates, groups them, and asks the oracle about every group —
every run pays the full human budget again.  The streaming
:class:`IncrementalStandardizer` keeps three things alive across
batches:

* the **candidate store** — new cells are delta-indexed with
  :meth:`~repro.candidates.store.ReplacementStore.add_cell`, so
  replacement groups grow in place instead of being regenerated;
* the **decision cache** — every oracle verdict is remembered per
  member replacement (in its learned orientation).  When later batches
  re-introduce already-judged variation, approved replacements are
  re-applied and rejected ones skipped *without asking again*: repeated
  variation costs zero new oracle questions.  Backed by a
  :class:`~repro.stream.decisions.DecisionCache`, the verdicts can be
  persisted as JSON-lines next to the model, extending the
  zero-question guarantee across restarts;
* the **cumulative log** — an append-only
  :class:`~repro.pipeline.standardize.StandardizationLog` of the novel
  confirmations, the exact shape :func:`repro.serve.model.build_model`
  consumes, so each publish extends the previous model version.

With a :class:`~repro.stream.shards.ShardPool`, the grouping *feed*
runs on the shard workers (per-structure-bucket sources partitioned
across shards, winners max-merged); candidate derivation stays in this
process.  The merge is order-preserving over pure computations, so a
sharded learner publishes byte-identical models and asks
byte-identical questions — see :mod:`repro.stream.shards`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Tuple, Union

from ..candidates.store import ReplacementStore
from ..config import DEFAULT_CONFIG, Config
from ..core.incremental import IncrementalGrouper
from ..core.replacement import Replacement
from ..core.scoring import global_frequencies
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..data.table import CellRef, ClusterTable
from ..pipeline.oracle import Decision, Oracle, REVERSE
from ..pipeline.standardize import (
    StandardizationLog,
    StepRecord,
    apply_group_recorded,
)
from .decisions import DecisionCache, PathLike
from .scheduler import (
    DEFAULT_LOOKAHEAD,
    YieldRankedFeed,
    approved_rewrites,
    transitive_direction,
)


class IncrementalStandardizer:
    """Standardizes one column of a *growing* clustered table.

    Parameters
    ----------
    table, column:
        The cumulative cluster table (owned by the resolver) and the
        column being standardized.
    config, vocabulary:
        The learning knobs and term vocabulary, fixed for the
        standardizer's lifetime (they are part of the published model's
        identity).
    decisions:
        An existing :class:`~repro.stream.decisions.DecisionCache`, or
        a path to persist one at, or ``None`` for a fresh in-memory
        cache.  A cache loaded from a previous run answers already-
        judged variation without a question.
    """

    def __init__(
        self,
        table: ClusterTable,
        column: str,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        decisions: Union[DecisionCache, PathLike, None] = None,
    ) -> None:
        self.table = table
        self.column = column
        self.config = config
        self.vocabulary = vocabulary
        #: starts empty; cells are delta-indexed as batches arrive
        self.store = ReplacementStore(table, column, config)
        #: learned-orientation member replacement -> oracle verdict
        if isinstance(decisions, DecisionCache):
            self.decisions = decisions
        else:
            self.decisions = DecisionCache(decisions)
        self.log = StandardizationLog()
        self.questions_asked = 0
        #: verdicts settled transitively from approved rewrites, never
        #: presented to the oracle (see :meth:`infer_transitive`)
        self.inferred_verdicts = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, cells: Iterable[CellRef]) -> Tuple[int, int]:
        """Delta-index new cells into the candidate store.

        Returns ``(cells indexed, cells unexplained)`` — a cell is
        *unexplained* when indexing it created at least one candidate
        key nothing in the current state had seen before (the drift
        monitor's unmatched signal).
        """
        indexed = unexplained = 0
        for cell in cells:
            indexed += 1
            if self.store.add_cell(cell) > 0:
                unexplained += 1
        return indexed, unexplained

    def move_cells(
        self, moves: Iterable[Tuple[CellRef, CellRef]]
    ) -> None:
        """Re-home cells displaced by a cluster merge.

        Old positions are purged first, then every cell is re-indexed at
        its new position — pairings among the moved cells themselves are
        derived exactly once because re-indexing is sequential.
        """
        moves = list(moves)
        for old, _new in moves:
            self.store.purge_cell(old)
        for _old, new in moves:
            self.store.add_cell(new)

    # -- decision-cache replay ---------------------------------------------

    def partition_live(
        self,
    ) -> Tuple[List[Replacement], int, List[Replacement]]:
        """One pass over the live candidates, split by cached verdict:
        ``(approved, rejected count, undecided)``."""
        approved: List[Replacement] = []
        rejected = 0
        undecided: List[Replacement] = []
        for replacement in self.store.replacements():
            decision = self.decisions.get(replacement)
            if decision is None:
                undecided.append(replacement)
            elif decision.approved:
                approved.append(replacement)
            else:
                rejected += 1
        return approved, rejected, undecided

    def reuse_confirmed(
        self,
        approved: Optional[List[Replacement]] = None,
        changed_into: Optional[List[CellRef]] = None,
    ) -> Tuple[int, int]:
        """Re-apply cached verdicts to the current candidate set.

        Returns ``(replacements reused, cells changed)``;
        ``changed_into`` (when given) collects the rewritten cell refs
        for delta consumers like the incremental golden-record fuser.
        Approved
        replacements are applied in their confirmed direction wherever
        the new provenance supports them; rejected ones are left alone
        (their cached verdict keeps them out of the question feed).
        Iterates to a fixed point: applying one cached replacement can
        re-derive provenance that another cached replacement covers.
        ``approved`` seeds the first round when the caller already
        partitioned the live set (saves one full scan when nothing is
        reusable).

        Application follows **confirmation order** — the decision
        cache's insertion order, which the durable JSON-lines log
        preserves across restarts.  That is the order the original run
        applied these replacements in, so a restarted stream replaying
        judged data walks its table through the same sequence of states
        and derives no new candidate keys: the zero-repeat-question
        guarantee depends on this, because two approved rewrites of the
        same value applied in opposite orders can converge to different
        strings and mint a question-worthy pair the first run never
        saw.
        """
        if approved is not None and not approved:
            return 0, 0  # nothing live is approved; the walk would no-op
        # Confirmation-order approved verdicts, snapshotted once: no
        # verdict is recorded during the walk, and rescanning the whole
        # (possibly replayed-from-disk) cache every round would cost
        # O(rounds x cache) on long-lived streams.
        approved_verdicts = [
            (replacement, decision)
            for replacement, decision in self.decisions.items()
            if decision.approved
        ]
        reused = 0
        changed = 0
        # Termination backstop: a legitimate cascade rewrites any cell
        # along an acyclic chain of rules, so it settles within one
        # round per approved verdict (+1 to observe the fixed point).
        # The cache's orientation-aware lookup prevents A<->B rewrite
        # cycles from ever being recorded, but a pathological verdict
        # history (hand-edited log, inconsistent oracle) must degrade
        # to a bounded walk, not an infinite loop.
        max_rounds = len(approved_verdicts) + 1
        for _round in range(max_rounds):
            progress = False
            for replacement, decision in approved_verdicts:
                # Liveness must be orientation-aware, like the cache
                # lookup that found the verdict: a pair re-derived in
                # the opposite orientation after a restart is the same
                # judged variation, and skipping it here would leave it
                # approved-but-never-reapplied (and, being decided, it
                # can never reach the question feed to recover).
                if (
                    replacement not in self.store
                    and replacement.reversed() not in self.store
                ):
                    continue  # no live provenance to rewrite
                resolved = (
                    replacement.reversed()
                    if decision.direction == REVERSE
                    else replacement
                )
                cells = self.store.apply_replacement(resolved)
                self.store.drain_dead()
                if cells:
                    reused += 1
                    changed += len(cells)
                    progress = True
                    if changed_into is not None:
                        changed_into.extend(cells)
            if not progress:
                break
        return reused, changed

    # -- transitive inference ----------------------------------------------

    def infer_transitive(
        self,
        undecided: Optional[List[Replacement]] = None,
        changed_into: Optional[List[CellRef]] = None,
    ) -> Tuple[int, int]:
        """Settle undecided candidates the approved rewrites already
        prove, without spending a question.

        When approved verdicts rewrite A→B and B→C, a derived A→C
        candidate asks nothing the oracle has not answered: the chain
        proves the equivalence and fixes the direction
        (:func:`~repro.stream.scheduler.transitive_direction`).  Each
        proven candidate is applied immediately and recorded in the
        decision log with ``"source": "inferred"``, so restarts replay
        it like any paid verdict and audits can tell machine-settled
        lines from human ones.  Returns ``(verdicts inferred, cells
        changed)``; ``undecided`` seeds the scan when the caller
        already partitioned the live set.
        """
        if undecided is None:
            undecided = self.undecided()
        if not undecided:
            return 0, 0
        forward = approved_rewrites(self.decisions)
        if not forward:
            return 0, 0
        inferred = 0
        changed = 0
        for candidate in undecided:
            if candidate in self.decisions:
                continue  # settled earlier in this very pass
            if (
                candidate not in self.store
                and candidate.reversed() not in self.store
            ):
                continue  # invalidated by an earlier application
            direction = transitive_direction(forward, candidate)
            if direction is None:
                continue
            decision = Decision(True, direction)
            resolved = (
                candidate.reversed()
                if direction == REVERSE
                else candidate
            )
            cells = self.store.apply_replacement(resolved)
            self.store.drain_dead()
            self.decisions.record(candidate, decision, source="inferred")
            # Extend the chain: a freshly settled rewrite can prove the
            # next candidate in the same scan (A→B asked, B→C inferred,
            # then A→C needs both).
            forward.setdefault(resolved.lhs, resolved.rhs)
            inferred += 1
            self.inferred_verdicts += 1
            if cells:
                changed += len(cells)
                if changed_into is not None:
                    changed_into.extend(cells)
        return inferred, changed

    # -- learning ----------------------------------------------------------

    def undecided(
        self,
        partition: Optional[
            Tuple[List[Replacement], int, List[Replacement]]
        ] = None,
    ) -> List[Replacement]:
        """Live candidates the oracle has never been asked about.
        Pass an existing :meth:`partition_live` result to avoid
        re-scanning the live set."""
        if partition is None:
            partition = self.partition_live()
        return partition[2]

    def skipped_rejected(
        self,
        partition: Optional[
            Tuple[List[Replacement], int, List[Replacement]]
        ] = None,
    ) -> int:
        """Live candidates silenced by a cached rejection (saved work).
        Pass an existing :meth:`partition_live` result to avoid
        re-scanning the live set."""
        if partition is None:
            partition = self.partition_live()
        return partition[1]

    def learn(
        self,
        oracle: Oracle,
        budget: int,
        novel: Optional[List[Replacement]] = None,
        pool=None,
        changed_into: Optional[List[CellRef]] = None,
        yield_ranked: bool = False,
        lookahead: int = DEFAULT_LOOKAHEAD,
    ) -> List[StepRecord]:
        """Present up to ``budget`` groups of *novel* candidates.

        Mirrors :meth:`repro.pipeline.standardize.Standardizer.run` —
        same grouping feed, same application and Section 7.1
        maintenance — but the feed only sees undecided candidates, and
        every verdict lands in the decision cache so no future batch
        asks about these members again.  ``novel`` supplies the
        undecided list when the caller already partitioned the live set
        (saves one full scan); it must reflect the *current* store
        state.

        With a :class:`~repro.stream.shards.ShardPool` the grouping
        feed is the shard-merged
        :class:`~repro.stream.shards.ShardedGroupFeed` — the questions
        (content and order), the verdict application, and the cumulative
        log are identical; only the graph building and pivot searching
        happen in parallel.  The oracle itself is never sharded: this
        method is the only place questions are spent either way.

        ``yield_ranked`` wraps whichever feed in a
        :class:`~repro.stream.scheduler.YieldRankedFeed`, spending the
        budget on the highest expected cells-fixed-per-question first
        instead of discovery order.  The wrapper is parent-side and
        pure, so sharded question streams stay byte-identical to
        unsharded ones under it.
        """
        if novel is None:
            novel = self.undecided()
        if not novel or budget <= 0:
            return []
        counts: Optional[Counter] = None
        if self.config.constant_match_terms > 0:
            counts = global_frequencies(self.table.column_values(self.column))
        if pool is not None and self.config.use_structure:
            feed = pool.group_feed(novel, counts)
        else:
            feed = IncrementalGrouper(
                novel, self.vocabulary, self.config, counts
            )
        if yield_ranked:
            feed = YieldRankedFeed(
                feed, self.store, self.table, lookahead=lookahead
            )
        steps: List[StepRecord] = []
        for _ in range(budget):
            group = feed.next_group()
            if group is None:
                break
            decision = oracle.review(group)
            self.questions_asked += 1
            changed = 0
            applied = []
            if decision.approved:
                changed, applied = apply_group_recorded(
                    self.store, group, decision, changed_into=changed_into
                )
                feed.remove_replacements(self.store.drain_dead())
            for member in group.replacements:
                self.decisions.record(member, decision)
            record = StepRecord(
                len(self.log.steps), group, decision, changed, applied
            )
            self.log.steps.append(record)
            steps.append(record)
        return steps
