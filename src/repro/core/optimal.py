"""Exact optimal partition for small inputs (Definition 3).

The paper proves the optimal partition problem NP-complete by reduction
from set cover (Section 4.2) and therefore solves it greedily.  For
*small* replacement collections we can afford the exact answer: every
transformation path of every graph is enumerated, identical paths are
merged into candidate sets of graphs, and a branch-and-bound set cover
finds the minimum number of groups.  Tests use this to quantify how
close the greedy pivot-path partition gets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..config import DEFAULT_CONFIG, Config
from .functions import StringFunction, label_sort_key
from .graph import TransformationGraph, build_graph
from .replacement import Replacement
from .terms import DEFAULT_VOCABULARY, TermVocabulary


def enumerate_paths(
    graph: TransformationGraph, max_length: int = 6, cap: int = 20000
) -> List[Tuple[StringFunction, ...]]:
    """All transformation paths of a graph up to ``max_length`` labels.

    Exponential by design (Theorem 4.2's path space); ``cap`` guards
    accidental misuse on large graphs.
    """
    paths: List[Tuple[StringFunction, ...]] = []
    out_edges = graph.out_edges
    stack: List[Tuple[int, Tuple[StringFunction, ...]]] = [(1, ())]
    while stack:
        node, prefix = stack.pop()
        if node == graph.last_node:
            paths.append(prefix)
            if len(paths) > cap:
                raise ValueError("path enumeration cap exceeded")
            continue
        if len(prefix) >= max_length:
            continue
        for j, labels in out_edges.get(node, ()):
            for label in labels:
                stack.append((j, prefix + (label,)))
    return paths


def path_cover_sets(
    replacements: Sequence[Replacement],
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    config: Config = DEFAULT_CONFIG,
) -> Dict[Tuple, FrozenSet[int]]:
    """Map each distinct path (by canonical key) to the set of
    replacement indices whose graphs contain it."""
    cover: Dict[Tuple, Set[int]] = {}
    for idx, replacement in enumerate(replacements):
        graph = build_graph(replacement.lhs, replacement.rhs, vocabulary, config)
        if graph is None:
            # Graphless replacements can only ever be singletons.
            cover[("__singleton__", idx)] = {idx}
            continue
        for path in enumerate_paths(graph, config.max_path_length):
            key = tuple(f.canonical() for f in path)
            cover.setdefault(key, set()).add(idx)
    return {key: frozenset(v) for key, v in cover.items()}


def minimum_partition_size(
    replacements: Sequence[Replacement],
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    config: Config = DEFAULT_CONFIG,
) -> int:
    """The minimum number of groups in any valid partition (exact).

    Branch and bound over the set-cover formulation from the paper's
    NP-completeness proof: pick an uncovered element, branch on the
    candidate sets containing it.  Only feasible for small inputs.
    """
    cover = path_cover_sets(replacements, vocabulary, config)
    universe = frozenset(range(len(replacements)))
    if not universe:
        return 0
    sets = sorted(set(cover.values()), key=lambda s: (-len(s), sorted(s)))
    best: List[int] = [len(universe)]  # singletons always work

    def bound(remaining: FrozenSet[int]) -> int:
        largest = max((len(s & remaining) for s in sets), default=0)
        if largest == 0:
            return 10**9
        return -(-len(remaining) // largest)  # ceil

    def recurse(remaining: FrozenSet[int], used: int) -> None:
        if not remaining:
            best[0] = min(best[0], used)
            return
        if used + bound(remaining) >= best[0]:
            return
        element = min(remaining)
        for candidate in sets:
            if element in candidate:
                recurse(remaining - candidate, used + 1)

    recurse(universe, 0)
    return best[0]
