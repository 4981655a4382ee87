"""Incremental (top-k) grouping (Section 6, Algorithms 5-7).

Instead of partitioning all candidates upfront, the incremental grouper
returns the *next largest* group per invocation (Theorem 6.4).  Each
graph carries a lower bound (the global thresholds of Section 5.2,
cached together with their witness paths) and an upper bound
(Lemma 6.2, seeded from posting-list lengths); graphs are visited in
descending upper-bound order and the scan stops as soon as the largest
lower bound ``tau`` dominates the remaining upper bounds.

With structure refinement (Section 7.2) each structure bucket becomes a
lazy source whose initial upper bound is simply its candidate count;
buckets are preprocessed (graphs + index built) only when their bound
reaches the front, which is where the paper's up-to-3-orders-of-
magnitude upfront-cost reduction comes from.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..config import DEFAULT_CONFIG, Config
from .grouping import (
    GraphMemo,
    Group,
    build_graphs,
    build_group_vocabulary,
    singleton_group,
)
from .index import InvertedIndex
from .labels import LabelTable
from .pivot import (
    GlobalBounds,
    PivotCandidate,
    SearchStats,
    initial_upper_bound,
    search_pivot,
)
from .program import Program
from .replacement import Replacement
from .structure import StructureKey, partition_by_structure, structure_key
from .terms import DEFAULT_VOCABULARY, TermVocabulary


class _Source:
    """One structure bucket behaving as a lazy top-k source."""

    def __init__(
        self,
        order: int,
        skey: Optional[StructureKey],
        replacements: Sequence[Replacement],
        vocabulary: TermVocabulary,
        config: Config,
        stats: SearchStats,
        table: LabelTable,
    ) -> None:
        self.order = order
        self.skey = skey
        self.replacements = list(replacements)
        self.vocabulary = vocabulary
        self.config = config
        self.stats = stats
        self.index: Optional[InvertedIndex] = None
        self.memo: GraphMemo = {None: table}
        self.by_gid: Dict[int, Replacement] = {}
        self.graphless: List[Replacement] = []
        self.live: Set[int] = set()
        self.up: Dict[int, int] = {}
        self.bounds = GlobalBounds()
        self.cached: Optional[Group] = None
        self._cached_members: Tuple[int, ...] = ()

    # -- bounds ----------------------------------------------------------

    def bound(self) -> int:
        """Upper bound on the size of this source's next group."""
        if self.cached is not None:
            return self.cached.size
        if self.index is None:
            # Unpreprocessed: the structure-group size itself (Section
            # 7.2's upper-bound seeding).
            return len(self.replacements)
        best = max((self.up[g] for g in self.live), default=0)
        if self.graphless:
            best = max(best, 1)
        return best

    def exhausted(self) -> bool:
        if self.cached is not None:
            return False
        if self.index is None:
            return not self.replacements
        return not self.live and not self.graphless

    # -- preprocessing (Algorithm 6) --------------------------------------

    def preprocess(self) -> None:
        if self.index is not None:
            return
        self.index, self.by_gid, self.graphless = build_graphs(
            self.replacements, self.vocabulary, self.config, self.stats, self.memo
        )
        self.live = set(self.by_gid)
        for gid in self.live:
            self.up[gid] = initial_upper_bound(self.index.graphs[gid], self.index)

    # -- Algorithm 7 -------------------------------------------------------

    def peek(self) -> Optional[Group]:
        """Compute (and cache) this source's next largest group."""
        if self.cached is not None:
            return self.cached
        self.preprocess()
        assert self.index is not None
        if not self.live:
            return self._pop_graphless()

        self.bounds.refresh(self.live)
        witness = self.bounds.best(self.live)
        tau = witness.count if witness is not None else 0

        for gid in sorted(self.live, key=lambda g: (-self.up[g], g)):
            if self.up[gid] <= tau:
                break
            found = search_pivot(
                self.index.graphs[gid],
                self.index,
                self.config,
                live=self.live,
                threshold=tau,
                bounds=self.bounds,
                stats=self.stats,
            )
            if found is not None:
                tau = found.count
                witness = found
                self.up[gid] = found.count
            else:
                self.up[gid] = max(tau, 1)

        if witness is None:
            # Every bound collapsed to <= 0 is impossible while graphs
            # remain; a threshold-0 search on any graph yields a
            # singleton witness.
            gid = min(self.live)
            witness = search_pivot(
                self.index.graphs[gid],
                self.index,
                self.config,
                live=self.live,
                threshold=0,
                bounds=self.bounds,
                stats=self.stats,
            )
            assert witness is not None

        if witness.count <= 1 and self.graphless:
            # Tie between a singleton graph group and a graphless
            # singleton; emit graphless ones first for determinism.
            return self._pop_graphless()

        members = tuple(sorted(witness.members))
        group = Group(
            Program(witness.path),
            tuple(self.by_gid[g] for g in members),
            self.skey,
        )
        self.cached = group
        self._cached_members = members
        return group

    def _pop_graphless(self) -> Optional[Group]:
        if not self.graphless:
            return None
        group = singleton_group(self.graphless[0])
        self.cached = group
        self._cached_members = ()
        return group

    def pop(self) -> Group:
        """Emit the cached group and retire its members (Algorithm 5)."""
        assert self.cached is not None, "peek() before pop()"
        group = self.cached
        if self._cached_members:
            self.live.difference_update(self._cached_members)
            self.bounds.refresh(self.live)
        else:
            self.graphless = self.graphless[1:]
        self.cached = None
        self._cached_members = ()
        return group

    def remove_replacements(self, dead: Set[Replacement]) -> None:
        """Drop candidates invalidated by applied replacements (§7.1).

        A touched *preprocessed* source resets to an unpreprocessed
        survivor list (original bucket order) instead of patching its
        index in place.  Patching would leave the posting lists, upper
        bounds, and cached witnesses reflecting graphs built *before*
        the removal — and since equal-share pivot paths tie-break on
        search visit order, the emitted **program** would then depend
        on whether the source happened to be preprocessed before or
        after the removal.  That timing is exactly what differs between
        the lazy single-process grouper and the sharded feed (which
        refines every shard's local winner eagerly), so the reset is
        what makes ``--shards N`` publish byte-identical models.
        Untouched sources keep their state: their (deterministic)
        build-plus-pop history is the same on every path.

        The reset keeps the built graph edges (``memo``) of the
        survivors, and the label table they index into: a memo hit is
        exactly the graph a fresh build would return, so the rebuild
        costs only the index, not the graphs.
        """
        if self.index is None:
            self.replacements = [r for r in self.replacements if r not in dead]
            return
        alive = {self.by_gid[g] for g in self.live} | set(self.graphless)
        if not (alive & dead):
            return
        self.replacements = [
            r for r in self.replacements if r in alive and r not in dead
        ]
        survivors = {(r.lhs, r.rhs) for r in self.replacements}
        self.memo = {  # key None holds the memo's label table
            k: v for k, v in self.memo.items() if k is None or k[:2] in survivors
        }
        self.index = None
        self.by_gid = {}
        self.graphless = []
        self.live = set()
        self.up = {}
        self.bounds = GlobalBounds()
        self.cached = None
        self._cached_members = ()


class IncrementalGrouper:
    """Produces replacement groups largest-first, lazily (Section 6)."""

    def __init__(
        self,
        replacements: Iterable[Replacement],
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        config: Config = DEFAULT_CONFIG,
        global_counts: Optional[Counter] = None,
    ) -> None:
        self.config = config
        self.stats = SearchStats()
        unique = list(dict.fromkeys(replacements))
        #: sources by order, and a heap of ``(-bound, order)``, one entry
        #: per non-exhausted source, built by the first :meth:`peek_best`
        self._sources: List[_Source] = []
        self._heap: Optional[List[Tuple[int, int]]] = None
        self._best: Optional[_Source] = None
        # One label table for every source: most labels recur across
        # structure groups, so each is made and keyed once per grouper.
        table = LabelTable()
        if config.use_structure:
            buckets = partition_by_structure(unique)
            for order, skey in enumerate(sorted(buckets)):
                bucket = buckets[skey]
                vocab = build_group_vocabulary(
                    bucket, vocabulary, config, global_counts
                )
                self._sources.append(
                    _Source(order, skey, bucket, vocab, config, self.stats, table)
                )
        elif unique:
            vocab = build_group_vocabulary(
                unique, vocabulary, config, global_counts
            )
            self._sources.append(
                _Source(0, None, unique, vocab, config, self.stats, table)
            )

    def peek_best(self) -> Optional[Tuple[Group, Optional[StructureKey]]]:
        """Refine sources until the next-largest group is dominant.

        Returns ``(group, source structure key)`` *without* emitting the
        group — the caller decides whether to :meth:`pop_best` it.  This
        is the primitive the sharded streaming learner merges on: each
        shard peeks its local winner, and the parent pops only the
        global winner, so losing shards keep their (still cached, still
        valid) candidates for the next round.  The returned structure
        key is the winning *source's* key — the global tie-break: source
        order is the rank of the key in the sorted key universe, so
        comparing ``(size desc, key asc)`` across shards reproduces the
        single-process emission order exactly.

        Classic lazy top-k: tighten the max-bound source (largest
        bound, then lowest order) until it holds a cached group.  A
        cached group's size *is* its source's bound, so once the
        max-bound source holds one, no rival's upper bound exceeds it.
        """
        heap, sources = self._heap, self._sources
        if heap is None:
            heap = self._heap = [
                (-s.bound(), s.order) for s in sources if not s.exhausted()
            ]
            heapq.heapify(heap)
        while heap:
            negative, order = heap[0]
            best = sources[order]
            bound = best.bound()
            if bound != -negative:
                # Sources are peeked and popped only from the top, so a
                # stale entry surfaces here: re-file it at its bound.
                if bound > 0:
                    heapq.heapreplace(heap, (-bound, order))
                else:
                    heapq.heappop(heap)
                continue
            if best.cached is not None:
                self._best = best
                return best.cached, best.skey
            best.peek()
        return None

    def pop_best(self) -> Group:
        """Emit the group the last :meth:`peek_best` returned, retiring
        its members from its source.  Requires a preceding successful
        ``peek_best`` with no intervening :meth:`remove_replacements`
        that invalidated it; re-peek after removals."""
        best = self._best
        assert best is not None and best.cached is not None, (
            "pop_best() requires a fresh successful peek_best()"
        )
        self._best = None
        return best.pop()

    def next_group(self) -> Optional[Group]:
        """The next largest group across all sources, or ``None``."""
        peeked = self.peek_best()
        if peeked is None:
            return None
        return self.pop_best()

    def groups(self, limit: Optional[int] = None) -> Iterable[Group]:
        """Iterate groups largest-first until exhaustion or ``limit``."""
        produced = 0
        while limit is None or produced < limit:
            group = self.next_group()
            if group is None:
                return
            produced += 1
            yield group

    def remove_replacements(self, dead: Iterable[Replacement]) -> None:
        """Propagate Section 7.1 candidate invalidation to all sources."""
        dead_set = set(dead)
        if not dead_set:
            return
        self._best = None
        for source in self._sources:
            source.remove_replacements(dead_set)
        self._heap = None
