"""The int-id learner against a label-keyed reference (hypothesis).

The reference below is the pivot search as it was before labels were
interned: an inverted index keyed by the label objects themselves,
path states as ``{gid: frozenset(end_nodes)}``, and a DFS that sorts by
``label_sort_key`` on every comparison.  The shipped learner must find
exactly the same ``PivotCandidate``s (count, key, path, members) with
exactly the same ``SearchStats`` — one-shot, incremental, and through
removals, which touched sources follow by deriving their index in place
here and by a from-scratch rebuild in the reference.
"""

import contextlib
import random
import string
from typing import Dict, FrozenSet, List, Optional, Set, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, Config
from repro.core import grouping, incremental
from repro.core.functions import ConstantStr, label_sort_key
from repro.core.graph import build_graph
from repro.core.index import InvertedIndex
from repro.core.pivot import (
    GlobalBounds,
    PivotCandidate,
    SearchStats,
    initial_upper_bound,
    search_pivot,
)
from repro.core.replacement import Replacement

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = (
    DEFAULT_CONFIG,
    # OneShot (no early termination) under a small budget, so the
    # budget cut-off is exercised too.
    Config(local_threshold=False, global_threshold=False, max_search_expansions=150),
    Config(use_structure=False, aligned_constants=False),
)


# -- the label-keyed reference --------------------------------------------


class ReferenceIndex:
    def __init__(self) -> None:
        self._postings: Dict[object, Dict[int, Dict[int, List[int]]]] = {}
        self.graphs = {}
        self.last_node: Dict[int, int] = {}

    def add_graph(self, graph) -> int:
        gid = len(self.graphs)
        graph.gid = gid
        self.graphs[gid] = graph
        self.last_node[gid] = graph.last_node
        for (i, j), label in graph.all_labels():
            by_graph = self._postings.setdefault(label, {})
            by_graph.setdefault(gid, {}).setdefault(i, []).append(j)
        return gid

    def remove_graph(self, gid: int):
        graph = self.graphs.pop(gid)
        del self.last_node[gid]
        for by_graph in self._postings.values():
            by_graph.pop(gid, None)
        return graph

    def posting_size(self, label) -> int:
        return len(self._postings.get(label, ()))

    def posting_size_live(self, label, live: Optional[Set[int]]) -> int:
        raw = self._postings.get(label, {})
        if live is None:
            return len(raw)
        return sum(1 for gid in raw if gid in live)

    def initial_state(self, label, live) -> Dict[int, FrozenSet[int]]:
        state = {}
        for gid, starts in self._postings.get(label, {}).items():
            if live is not None and gid not in live:
                continue
            ends = starts.get(1)
            if ends:
                state[gid] = frozenset(ends)
        return state

    def extend_state(self, state, label, live) -> Dict[int, FrozenSet[int]]:
        posting = self._postings.get(label, {})
        nxt = {}
        for gid, ends in state.items():
            if live is not None and gid not in live:
                continue
            starts = posting.get(gid)
            if starts is None:
                continue
            new_ends: Set[int] = set()
            for end in ends:
                new_ends.update(starts.get(end, ()))
            if new_ends:
                nxt[gid] = frozenset(new_ends)
        return nxt

    def complete_members(self, state, live) -> Tuple[int, ...]:
        return tuple(
            sorted(
                gid
                for gid, ends in state.items()
                if (live is None or gid in live) and self.last_node[gid] in ends
            )
        )

    def __len__(self) -> int:
        return len(self.graphs)


def reference_search_pivot(
    graph,
    index,
    config=DEFAULT_CONFIG,
    live=None,
    threshold=0,
    bounds=None,
    stats=None,
):
    if stats is not None:
        stats.searches += 1
    best = [threshold, None]
    floor = bounds.lower(graph.gid) if (bounds and config.global_threshold) else 0
    budget = [config.max_search_expansions]
    _reference_dfs(graph, index, config, live, 1, None, [], best, floor, bounds, stats, budget)
    if best[1] is None and threshold <= 0:
        label = ConstantStr(graph.target)
        best[1] = PivotCandidate(1, (label_sort_key(label),), (label,), (graph.gid,))
    return best[1]


def _reference_dfs(graph, index, config, live, node, state, path, best, floor, bounds, stats, budget):
    if node == graph.last_node:
        members = index.complete_members(state, live) if state is not None else ()
        if not members:
            return
        if all(isinstance(f, ConstantStr) for f in path):
            members = (graph.gid,)
        count = len(members)
        candidate = PivotCandidate(
            count, tuple(label_sort_key(f) for f in path), tuple(path), members
        )
        if stats is not None:
            stats.completions += 1
        if bounds is not None:
            bounds.record(candidate)
        if count > best[0] or (
            count == best[0] and best[1] is not None and candidate.key < best[1].key
        ):
            best[0] = count
            best[1] = candidate
        return
    if len(path) >= config.max_path_length or budget[0] <= 0:
        return
    prune_local = config.local_threshold
    extensions = {}
    state_size = len(state) if state is not None else len(index)
    for j, labels in graph.out_edges.get(node, ()):
        for label in labels:
            cap = min(state_size, index.posting_size(label))
            if prune_local and cap <= best[0]:
                if stats is not None:
                    stats.prunes += 1
                continue
            if config.global_threshold and cap < floor:
                if stats is not None:
                    stats.prunes += 1
                continue
            if state is None:
                nxt = index.initial_state(label, live)
            else:
                nxt = index.extend_state(state, label, live)
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
            if held is None or label_sort_key(label) < label_sort_key(held[1]):
                extensions[key] = (size, label, nxt)
    ordered = sorted(
        extensions.items(), key=lambda item: (-item[1][0], label_sort_key(item[1][1]))
    )
    for (j, _skey), (size, label, nxt) in ordered:
        if prune_local and size <= best[0]:
            if stats is not None:
                stats.prunes += 1
            continue
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if stats is not None:
            stats.expansions += 1
        path.append(label)
        _reference_dfs(graph, index, config, live, j, nxt, path, best, floor, bounds, stats, budget)
        path.pop()


def reference_upper_bound(graph, index, live=None) -> int:
    n = len(graph.target)
    ub = [0] * (n + 1)
    for (i, j), labels in graph.edges.items():
        edge_max = max((index.posting_size_live(l, live) for l in labels), default=0)
        for k in range(i, j):
            ub[k] = max(ub[k], edge_max)
    positions = ub[1:]
    return max(1, min(positions)) if positions else 1


def reference_build_graphs(replacements, vocabulary, config, stats=None, memo=None):
    """Always builds afresh: no memo, no graph counters."""
    index = ReferenceIndex()
    by_gid, graphless = {}, []
    whitelist = grouping.constant_whitelist(replacements, config)
    for r in replacements:
        graph = build_graph(r.lhs, r.rhs, vocabulary, config, whitelist)
        if graph is None:
            graphless.append(r)
        else:
            by_gid[index.add_graph(graph)] = r
    return index, by_gid, graphless


@contextlib.contextmanager
def reference_learner(module):
    """Run ``module``'s grouping on the reference learner."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(module, "build_graphs", reference_build_graphs)
        )
        stack.enter_context(
            mock.patch.object(module, "search_pivot", reference_search_pivot)
        )
        if hasattr(module, "initial_upper_bound"):
            stack.enter_context(
                mock.patch.object(module, "initial_upper_bound", reference_upper_bound)
            )
        if module is incremental:
            # A touched source rebuilds from scratch at its next peek, so
            # the shipped learner's in-place derived state is checked
            # against fresh.
            stack.enter_context(
                mock.patch.object(module._Source, "_derive", reference_derive)
            )
        yield


def reference_derive(source) -> None:
    source.index = None
    source.stale = False
    source.preprocess()


def counters(stats: SearchStats) -> Tuple[int, int, int, int]:
    return (stats.searches, stats.expansions, stats.prunes, stats.completions)


# -- inputs: families that share programs, plus noise -----------------------

NAMES = ["Mary", "James", "Lee", "Ann", "Smith", "Bo"]
NUMBERS = ["9", "12", "3", "45", "2"]
STREETS = [("Street", "St"), ("Avenue", "Ave"), ("Road", "Rd")]
noise = st.text(alphabet=string.ascii_letters + string.digits + " .,", min_size=1, max_size=8)


@st.composite
def replacement(draw):
    kind = draw(st.sampled_from(["initial", "swap", "ordinal", "street", "noise"]))
    first, last = draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    number = draw(st.sampled_from(NUMBERS))
    if kind == "initial":
        return Replacement(f"{first} {last}", f"{first[0]}. {last}")
    if kind == "swap":
        return Replacement(f"{last}, {first}", f"{first} {last}")
    if kind == "ordinal":
        return Replacement(f"{number}th", number)
    if kind == "street":
        long, short = draw(st.sampled_from(STREETS))
        return Replacement(f"{number} {last} {long}", f"{number} {last} {short}")
    lhs, rhs = draw(noise), draw(noise)
    return Replacement(lhs, rhs if rhs != lhs else rhs + "x")


pools = st.lists(replacement(), min_size=1, max_size=10, unique=True)


# -- the equivalences --------------------------------------------------------


class TestSearchPivotMatchesReference:
    @SETTINGS
    @given(pools, st.sampled_from(CONFIGS), st.randoms(use_true_random=False))
    def test_same_candidates_and_stats(self, replacements, config, rng):
        graphs = [build_graph(r.lhs, r.rhs, config=config) for r in replacements]
        graphs = [g for g in graphs if g is not None]
        index, reference = InvertedIndex(), ReferenceIndex()
        for graph in graphs:
            assert reference.add_graph(graph) == index.add_graph(graph)
        gids = sorted(index.graphs)
        bounds, ref_bounds = GlobalBounds(), GlobalBounds()
        stats, ref_stats = SearchStats(), SearchStats()
        for gid in gids:
            live = set(rng.sample(gids, rng.randint(1, len(gids)))) | {gid}
            live = None if rng.random() < 0.3 else live
            threshold = rng.randint(0, 2)
            graph = index.graphs[gid]
            found = search_pivot(graph, index, config, live, threshold, bounds, stats)
            expected = reference_search_pivot(
                graph, reference, config, live, threshold, ref_bounds, ref_stats
            )
            assert found == expected
            assert initial_upper_bound(graph, index, live) == reference_upper_bound(
                graph, reference, live
            )
        assert counters(stats) == counters(ref_stats)
        assert bounds == ref_bounds


class TestOneIndexAsLiveShrinks:
    @SETTINGS
    @given(pools, st.sampled_from(CONFIGS), st.randoms(use_true_random=False))
    def test_repeated_searches_match_reference(self, replacements, config, rng):
        """One index searched round after round while each round's
        winner is popped from ``live``, as a structure source does:
        whatever the index carries from one search to the next must
        give what the reference computes afresh."""
        graphs = [build_graph(r.lhs, r.rhs, config=config) for r in replacements]
        graphs = [g for g in graphs if g is not None]
        index, reference = InvertedIndex(), ReferenceIndex()
        for graph in graphs:
            assert reference.add_graph(graph) == index.add_graph(graph)
        live = set(index.graphs)
        bounds, ref_bounds = GlobalBounds(), GlobalBounds()
        stats, ref_stats = SearchStats(), SearchStats()
        while live:
            bounds.refresh(live)
            ref_bounds.refresh(live)
            winner = None
            for gid in sorted(live):
                threshold = rng.randint(0, 1)
                graph = index.graphs[gid]
                found = search_pivot(graph, index, config, live, threshold, bounds, stats)
                expected = reference_search_pivot(
                    graph, reference, config, live, threshold, ref_bounds, ref_stats
                )
                assert found == expected
                if found is not None and (winner is None or found.count > winner.count):
                    winner = found
            assert counters(stats) == counters(ref_stats)
            assert bounds == ref_bounds
            live -= set(winner.members) if winner is not None else {min(live)}


class TestGroupingMatchesReference:
    @SETTINGS
    @given(pools, st.sampled_from(CONFIGS))
    def test_one_shot_grouping(self, replacements, config):
        outcome = grouping.unsupervised_grouping(replacements, config=config)
        with reference_learner(grouping):
            expected = grouping.unsupervised_grouping(replacements, config=config)
        assert outcome.groups == expected.groups
        assert counters(outcome.stats) == counters(expected.stats)

    @SETTINGS
    @given(pools, st.sampled_from(CONFIGS), st.randoms(use_true_random=False))
    def test_incremental_with_removals(self, replacements, config, rng):
        """Groups interleaved with Section 7.1 removals: touched sources
        derive their index in place here and rebuild it from scratch in
        the reference."""
        seed = rng.random()

        def run():
            chooser = random.Random(seed)
            grouper = incremental.IncrementalGrouper(replacements, config=config)
            alive = set(replacements)
            emitted = []
            while True:
                group = grouper.next_group()
                if group is None:
                    break
                emitted.append(group)
                alive.difference_update(group.replacements)
                dead = {r for r in sorted(alive) if chooser.random() < 0.2}
                alive -= dead
                grouper.remove_replacements(dead)
            return emitted, grouper.stats

        emitted, stats = run()
        with reference_learner(incremental):
            expected, ref_stats = run()
        assert emitted == expected
        assert counters(stats) == counters(ref_stats)
