"""Pivot-path search (Algorithms 3 and 4).

The *pivot path* of a graph ``G`` is the transformation path of ``G``
shared by the largest number of graphs in the collection.  The search
DFS-walks ``G`` from node 1, maintaining the posting-list state of the
current path prefix, with two optional prunings (Section 5.2):

* **local threshold** — a prefix shared by no more graphs than the best
  complete path found so far cannot improve on it;
* **global threshold** — a complete path containing graph ``G'`` proves
  a lower bound on ``G'``'s pivot share-count; prefixes below the bound
  of the currently-searched graph are skipped.

Deviation noted in DESIGN.md: prefix share-counts upper-bound complete
share-counts, so pruning uses the prefix count while scoring, bound
updates and group membership use the complete count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..config import DEFAULT_CONFIG, Config
from .functions import ConstantStr, StringFunction, label_sort_key
from .graph import TransformationGraph
from .index import InvertedIndex, PathState


@dataclass(frozen=True)
class PivotCandidate:
    """A complete transformation path with its sharing graphs."""

    count: int
    key: Tuple
    path: Tuple[StringFunction, ...]
    members: Tuple[int, ...]

    def restricted_to(self, live: Set[int]) -> Optional["PivotCandidate"]:
        """The candidate with dead members dropped (still a valid path
        shared by the surviving members), or ``None`` if none survive."""
        members = tuple(gid for gid in self.members if gid in live)
        if not members:
            return None
        if len(members) == len(self.members):
            return self
        return PivotCandidate(len(members), self.key, self.path, members)


@dataclass
class GlobalBounds:
    """Per-graph lower bounds and their witness paths (Algorithm 4 /
    Section 6).

    ``lo[gid]`` is the best known lower bound on the share-count of
    ``gid``'s pivot path; ``witness[gid]`` is a complete path achieving
    it.  Keeping the witness fixes the printed Algorithm 7's corner case
    where the next-largest group size equals tau (see DESIGN.md §5.4).
    """

    lo: Dict[int, int] = field(default_factory=dict)
    witness: Dict[int, PivotCandidate] = field(default_factory=dict)

    def lower(self, gid: int) -> int:
        return self.lo.get(gid, 1)

    def record(self, candidate: PivotCandidate) -> None:
        for gid in candidate.members:
            if candidate.count > self.lo.get(gid, 1) or (
                candidate.count == self.lo.get(gid, 1)
                and gid not in self.witness
            ):
                self.lo[gid] = candidate.count
                self.witness[gid] = candidate

    def refresh(self, live: Set[int]) -> None:
        """Filter witnesses after group removal; bounds stay valid
        because path containment survives member deletion."""
        for gid in list(self.witness):
            if gid not in live:
                del self.witness[gid]
                self.lo.pop(gid, None)
                continue
            restricted = self.witness[gid].restricted_to(live)
            if restricted is None:
                del self.witness[gid]
                self.lo.pop(gid, None)
            else:
                self.witness[gid] = restricted
                self.lo[gid] = restricted.count

    def best(self, live: Set[int]) -> Optional[PivotCandidate]:
        """The largest-count witness among live graphs (tau's witness)."""
        top: Optional[PivotCandidate] = None
        for gid, cand in self.witness.items():
            if gid not in live:
                continue
            if top is None or cand.count > top.count or (
                cand.count == top.count and cand.key < top.key
            ):
                top = cand
        return top


@dataclass
class SearchStats:
    """Instrumentation for the efficiency experiments (Figure 9)."""

    expansions: int = 0
    completions: int = 0
    prunes: int = 0
    searches: int = 0
    #: graphs registered from a fresh ``build_graph`` vs. from edges
    #: kept across a removal, in the memo or in a derived index
    #: (``built + reused`` = registered).
    graphs_built: int = 0
    graphs_reused: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.expansions += other.expansions
        self.completions += other.completions
        self.prunes += other.prunes
        self.searches += other.searches
        self.graphs_built += other.graphs_built
        self.graphs_reused += other.graphs_reused


def search_pivot(
    graph: TransformationGraph,
    index: InvertedIndex,
    config: Config = DEFAULT_CONFIG,
    live: Optional[Set[int]] = None,
    threshold: int = 0,
    bounds: Optional[GlobalBounds] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[PivotCandidate]:
    """Find the best transformation path of ``graph`` shared by strictly
    more than ``threshold`` graphs, or ``None`` if there is none.

    ``threshold=0`` always succeeds: the all-constant one-edge path is
    shared by at least ``graph`` itself.  With
    ``config.local_threshold`` / ``config.global_threshold`` disabled
    the search degenerates to the OneShot full enumeration of
    Algorithm 3.

    Beyond the paper's two prunings, the DFS applies three
    work-limiting devices in the spirit of Appendix E's accelerations
    (see DESIGN.md §5): posting-size pre-filtering before any join,
    dedup of sibling extensions that reach the same node with the same
    posting state, best-first child ordering (so the local threshold
    tightens as early as possible), and a hard expansion budget
    (``config.max_search_expansions``) beyond which the best path found
    so far is returned.
    """
    if stats is not None:
        stats.searches += 1
    best: List = [threshold, None]  # [best_count, Optional[PivotCandidate]]
    floor = bounds.lower(graph.gid) if (bounds and config.global_threshold) else 0
    budget = [config.max_search_expansions]
    _dfs(
        graph,
        index,
        config,
        live,
        node=1,
        state=None,
        path=[],
        best=best,
        floor=floor,
        bounds=bounds,
        stats=stats,
        budget=budget,
    )
    if best[1] is None and threshold <= 0:
        # Guarantee for threshold-0 searches (even under a tiny search
        # budget): the whole-target constant label always exists, so
        # every graph has at least its trivial singleton path.
        label = ConstantStr(graph.target)
        best[1] = PivotCandidate(
            1, (label_sort_key(label),), (label,), (graph.gid,)
        )
    return best[1]


def _dfs(
    graph: TransformationGraph,
    index: InvertedIndex,
    config: Config,
    live: Optional[Set[int]],
    node: int,
    state: Optional[PathState],
    path: List[int],
    best: List,
    floor: int,
    bounds: Optional[GlobalBounds],
    stats: Optional[SearchStats],
    budget: List,
) -> None:
    keys = index.keys
    if node == graph.last_node:
        members = index.complete_members(state) if state is not None else ()
        if not members:
            return
        labels = tuple(index.labels[lid] for lid in path)
        if all(isinstance(f, ConstantStr) for f in labels):
            # An input-independent program ("everything becomes T") is
            # not a transformation: grouping unrelated pairs under it
            # has no generalization value and the expert always rejects
            # it (DESIGN.md §5).  It only ever explains its own graph.
            members = (graph.gid,)
        count = len(members)
        candidate = PivotCandidate(
            count, tuple(keys[lid] for lid in path), labels, members
        )
        if stats is not None:
            stats.completions += 1
        if bounds is not None:
            bounds.record(candidate)
        if count > best[0] or (
            count == best[0]
            and best[1] is not None
            and candidate.key < best[1].key
        ):
            best[0] = count
            best[1] = candidate
        return

    if len(path) >= config.max_path_length or budget[0] <= 0:
        return

    prune_local = config.local_threshold
    postings = index.postings
    # Gather, dedupe, and order the extensions of this node before
    # recursing: exploring the widest-shared extension first raises the
    # local threshold quickly, which is what makes the pruning bite.
    # Siblings reaching the same node with the same posting state are
    # one extension; the smallest label key represents them.
    extensions: Dict[Tuple, Tuple[int, int, PathState]] = {}
    state_size = len(state) if state is not None else len(index)
    for j, lids in index.out_edges[graph.gid].get(node, ()):
        for lid in lids:
            # Cheap pre-filter: a join can never exceed the label's own
            # posting size, so skip the join outright when it cannot
            # beat the thresholds.
            cap = min(state_size, len(postings[lid]))
            if prune_local and cap <= best[0]:
                if stats is not None:
                    stats.prunes += 1
                continue
            if config.global_threshold and cap < floor:
                if stats is not None:
                    stats.prunes += 1
                continue
            if state is None:
                nxt = index.initial_state(lid, live)
            else:
                nxt = index.extend_state(state, lid)
            size = len(nxt)
            if size == 0:
                continue
            if prune_local and size <= best[0]:
                if stats is not None:
                    stats.prunes += 1
                continue
            if config.global_threshold and size < floor:
                if stats is not None:
                    stats.prunes += 1
                continue
            key = (j, tuple(sorted(nxt.items())))
            held = extensions.get(key)
            if held is None or keys[lid] < keys[held[1]]:
                extensions[key] = (size, lid, nxt)

    ordered = sorted(
        extensions.items(),
        key=lambda item: (-item[1][0], keys[item[1][1]]),
    )
    for (j, _skey), (size, lid, nxt) in ordered:
        # Thresholds may have tightened while exploring siblings.
        if prune_local and size <= best[0]:
            if stats is not None:
                stats.prunes += 1
            continue
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if stats is not None:
            stats.expansions += 1
        path.append(lid)
        _dfs(
            graph,
            index,
            config,
            live,
            j,
            nxt,
            path,
            best,
            floor,
            bounds,
            stats,
            budget,
        )
        path.pop()


def initial_upper_bound(
    graph: TransformationGraph,
    index: InvertedIndex,
    live: Optional[Set[int]] = None,
) -> int:
    """Lemma 6.2 upper bound on the pivot-path share-count of ``graph``.

    Every transformation path covers every output position ``k``; some
    edge ``(i, j)`` with ``i <= k < j`` is on the path, so the largest
    posting size among labels of edges covering ``k`` bounds the share
    count.  The tightest position gives the graph's initial bound.
    """
    n = len(graph.target)
    ub = [0] * (n + 1)  # 1-based positions 1..n
    postings = index.postings
    for i, targets in index.out_edges[graph.gid].items():
        for j, lids in targets:
            if live is None:
                edge_max = max((len(postings[lid]) for lid in lids), default=0)
            else:
                edge_max = max(
                    (index.posting_size_live(lid, live) for lid in lids), default=0
                )
            for k in range(i, j):
                if edge_max > ub[k]:
                    ub[k] = edge_max
    positions = ub[1:] if n >= 1 else []
    return max(1, min(positions)) if positions else 1
