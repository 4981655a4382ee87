"""One-shot unsupervised grouping (Algorithm 2 / Section 5).

``unsupervised_grouping`` partitions a set of candidate replacements
into groups that share a transformation program: every replacement's
graph is searched for its *pivot path* and graphs with equal pivot
paths form a group.  The two Figure 9 variants are driven by
``Config``: ``OneShot`` disables both early-termination prunings,
``EarlyTerm`` enables them (Section 5.2).  Structure refinement
(Section 7.2) pre-partitions candidates and mines per-structure-group
constant-string terms (Appendix E) before graphs are built.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..config import DEFAULT_CONFIG, Config
from .functions import ConstantStr
from .graph import _ALNUM_TOKEN, TransformationGraph, build_graph
from .index import InvertedIndex
from .pivot import GlobalBounds, PivotCandidate, SearchStats, search_pivot
from .program import Program
from .replacement import Replacement
from .scoring import top_constant_terms
from .structure import StructureKey, partition_by_structure, structure_key
from .terms import DEFAULT_VOCABULARY, TermVocabulary


@dataclass(frozen=True)
class Group:
    """A group of replacements sharing one transformation program."""

    program: Program
    replacements: Tuple[Replacement, ...]
    structure: Optional[StructureKey] = None

    @property
    def size(self) -> int:
        return len(self.replacements)

    def describe(self, limit: int = 5) -> str:
        """Short human-readable rendering for verification UIs."""
        from .explain import explain_program  # local: avoids import cycle

        shown = [repr(r) for r in self.replacements[:limit]]
        more = self.size - len(shown)
        if more > 0:
            shown.append(f"... and {more} more")
        return (
            f"[{self.size}] {explain_program(self.program)}\n  "
            + "\n  ".join(shown)
        )


def singleton_group(replacement: Replacement) -> Group:
    """Fallback group for replacements without a transformation graph
    (oversized strings): the trivial all-constant program."""
    return Group(
        Program((ConstantStr(replacement.rhs),)),
        (replacement,),
        structure_key(replacement),
    )


def group_sort_key(group: Group) -> Tuple:
    """Descending size, then canonical program key, then first member —
    the deterministic order groups are presented in."""
    return (-group.size, group.program.canonical(), group.replacements[:1])


@dataclass
class GroupingOutcome:
    """Result of a one-shot grouping run, with instrumentation."""

    groups: List[Group]
    stats: SearchStats = field(default_factory=SearchStats)

    def sorted_groups(self) -> List[Group]:
        return sorted(self.groups, key=group_sort_key)


def build_group_vocabulary(
    replacements: Sequence[Replacement],
    base: TermVocabulary,
    config: Config,
    global_counts: Optional[Counter] = None,
) -> TermVocabulary:
    """Vocabulary for one structure group: base terms plus any
    explicitly-configured constants plus mined constants (Appendix E)."""
    vocab = base
    if config.extra_constant_terms:
        vocab = vocab.with_constant_terms(config.extra_constant_terms)
    if config.constant_match_terms > 0 and global_counts is not None:
        mined = top_constant_terms(
            replacements, global_counts, config.constant_match_terms
        )
        vocab = vocab.with_constant_terms(mined)
    return vocab


def constant_whitelist(
    replacements: Sequence[Replacement], config: Config
) -> Optional[frozenset]:
    """Recurring alphanumeric tokens across a structure group's targets
    (Appendix E's ``freqStruc``-scored constant admission)."""
    if not config.scored_constants:
        return None
    member_counts: Counter = Counter()
    for replacement in replacements:
        tokens = set(_ALNUM_TOKEN.findall(replacement.rhs))
        member_counts.update(tokens)
    needed = max(2, math.ceil(len(replacements) * config.constant_token_min_share))
    return frozenset(
        token for token, count in member_counts.items() if count >= needed
    )


#: Edges of built graphs, keyed so that a hit is exactly the graph a
#: fresh ``build_graph`` would return (see :func:`graph_memo_key`).
GraphMemo = Dict[Tuple, Dict[Tuple[int, int], Tuple]]


def graph_memo_key(
    replacement: Replacement, whitelist: Optional[frozenset]
) -> Tuple:
    """Memo key of one graph build within a structure group.

    Vocabulary and config are fixed per group; the whitelist is not (it
    is recomputed over the surviving members), so the key keeps the part
    of it that can reach this graph.  ``_constant_admitted`` looks up
    the tokens of *substrings* of ``rhs`` — a ``"2"`` cut from ``"12"``
    counts — so that part is every whitelisted token occurring anywhere
    in ``rhs``, not only ``rhs``'s own tokens.
    """
    if whitelist is not None:
        whitelist = frozenset(t for t in whitelist if t in replacement.rhs)
    return (replacement.lhs, replacement.rhs, whitelist)


def build_graphs(
    replacements: Sequence[Replacement],
    vocabulary: TermVocabulary,
    config: Config,
    stats: Optional[SearchStats] = None,
    memo: Optional[GraphMemo] = None,
) -> Tuple[InvertedIndex, Dict[int, Replacement], List[Replacement]]:
    """Build graphs + inverted index for one structure group.

    Returns the index, the gid -> replacement mapping, and the list of
    replacements that could not get a graph (oversized strings).  With
    ``memo`` (owned by one structure group) a graph whose key was built
    before is registered from its kept edges instead of being rebuilt;
    ``stats`` counts ``graphs_built`` / ``graphs_reused``.
    """
    index = InvertedIndex()
    by_gid: Dict[int, Replacement] = {}
    graphless: List[Replacement] = []
    whitelist = constant_whitelist(replacements, config)
    built = reused = 0
    for replacement in replacements:
        key = edges = None
        if memo is not None:
            key = graph_memo_key(replacement, whitelist)
            edges = memo.get(key)
        if edges is None:
            graph = build_graph(
                replacement.lhs, replacement.rhs, vocabulary, config, whitelist
            )
            if graph is None:
                graphless.append(replacement)
                continue
            if memo is not None:
                memo[key] = graph.edges
            built += 1
        else:
            # A fresh graph object: ``gid`` is per index.
            graph = TransformationGraph(replacement.lhs, replacement.rhs, edges)
            reused += 1
        by_gid[index.add_graph(graph)] = replacement
    if stats is not None:
        stats.graphs_built += built
        stats.graphs_reused += reused
    return index, by_gid, graphless


def _group_structure_bucket(
    replacements: Sequence[Replacement],
    vocabulary: TermVocabulary,
    config: Config,
    stats: SearchStats,
) -> List[Group]:
    """Pivot-path grouping of one structure bucket (Algorithm 2 body)."""
    index, by_gid, graphless = build_graphs(
        replacements, vocabulary, config, stats
    )
    groups: List[Group] = [singleton_group(r) for r in graphless]
    if not by_gid:
        return groups

    sample: Optional[Set[int]] = None
    if config.sample_size is not None and len(by_gid) > config.sample_size:
        rng = random.Random(config.seed)
        sample = set(rng.sample(sorted(by_gid), config.sample_size))

    bounds = GlobalBounds() if config.global_threshold else None
    pivots: Dict[int, PivotCandidate] = {}
    for gid in sorted(by_gid):
        live = None if sample is None else (sample | {gid})
        found = search_pivot(
            index.graphs[gid],
            index,
            config,
            live=live,
            threshold=0,
            bounds=bounds,
            stats=stats,
        )
        assert found is not None, "threshold-0 search always succeeds"
        pivots[gid] = found

    # Group by pivot-path membership, largest path first.  Assigning
    # via the candidate's member list (all graphs containing the path)
    # rather than each graph's own tie-broken pivot keeps equal-count
    # ties from splitting a group (DESIGN.md §5.3) and matches the
    # incremental algorithm's output (Theorem 6.4).
    def pivot_key(candidate: PivotCandidate) -> Tuple:
        key = tuple(f.canonical() for f in candidate.path)
        if all(isinstance(f, ConstantStr) for f in candidate.path):
            # Input-independent paths only ever explain their own graph
            # (the search already restricts their members; DESIGN.md
            # §5): keep their keys distinct per graph so the straggler
            # pass below cannot re-merge what that rule kept apart —
            # the incremental grouper emits them as singletons too.
            key = key + (candidate.members,)
        return key

    distinct: Dict[Tuple, PivotCandidate] = {}
    for candidate in pivots.values():
        distinct.setdefault(pivot_key(candidate), candidate)
    skey = structure_key(replacements[0])
    assigned: Set[int] = set()
    grouped_gids: Dict[Tuple, List[int]] = {}
    order = sorted(distinct.values(), key=lambda c: (-c.count, c.key))
    for candidate in order:
        gids = [g for g in candidate.members if g not in assigned]
        if not gids:
            continue
        assigned.update(gids)
        grouped_gids.setdefault(pivot_key(candidate), []).extend(gids)
    # Under sampling, a graph's membership may be invisible to the
    # representative candidate of its pivot key (member lists were
    # computed against different samples); attach stragglers to their
    # own pivot's group so the result stays a partition.
    for gid, candidate in sorted(pivots.items()):
        if gid not in assigned:
            grouped_gids.setdefault(pivot_key(candidate), []).append(gid)
            assigned.add(gid)
    for candidate in order:
        gids = grouped_gids.pop(pivot_key(candidate), None)
        if not gids:
            continue
        members = tuple(by_gid[g] for g in sorted(gids))
        groups.append(Group(Program(candidate.path), members, skey))
    return groups


def unsupervised_grouping(
    replacements: Iterable[Replacement],
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    config: Config = DEFAULT_CONFIG,
    global_counts: Optional[Counter] = None,
) -> GroupingOutcome:
    """Partition candidates into transformation groups (Algorithm 2).

    With ``config.use_structure`` (the paper's default) candidates are
    first split by structure signature and each bucket is grouped
    independently; groups never span structure buckets (Section 7.2).
    """
    replacements = list(dict.fromkeys(replacements))
    stats = SearchStats()
    groups: List[Group] = []
    if config.use_structure:
        buckets = partition_by_structure(replacements)
        for skey in sorted(buckets):
            bucket = buckets[skey]
            vocab = build_group_vocabulary(bucket, vocabulary, config, global_counts)
            groups.extend(_group_structure_bucket(bucket, vocab, config, stats))
    elif replacements:
        vocab = build_group_vocabulary(
            replacements, vocabulary, config, global_counts
        )
        groups.extend(_group_structure_bucket(replacements, vocab, config, stats))
    groups.sort(key=group_sort_key)
    return GroupingOutcome(groups, stats)
