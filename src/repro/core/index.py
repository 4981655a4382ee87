"""Inverted index over transformation-graph edge labels (Section 5.1).

The posting list of a string function ``f`` holds every triple
``<G, i, j>`` such that edge ``(i, j)`` of graph ``G`` carries label
``f``.  Intersections are *adjacency-aware*: an entry ``<G, i1, j1>``
joins ``<G, i2, j2>`` only when ``j1 == i2``, producing ``<G, i1, j2>``.

Labels are interned once, when a graph is registered, into dense int
ids: ``labels[id]`` is the label, ``keys[id]`` its
:func:`~repro.core.functions.label_sort_key`, and ``ids`` maps back.
Each graph's edges are kept as id tuples (``out_edges[gid]``), so the
pivot search never hashes or re-keys a label object.

A posting is ``{gid: {start: end_mask}}`` where bit ``j`` of
``end_mask`` is set iff the label sits on edge ``(start, j)``.  Because
every path the pivot search maintains starts at node ``n1``, a path
state is ``{gid: end_mask}``: which graphs contain the current path as
a prefix from node 1, with bit ``j`` set for every end position ``j``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .functions import StringFunction, label_sort_key
from .graph import TransformationGraph

#: ``gid -> start_node -> end_mask``
Posting = Dict[int, Dict[int, int]]

#: ``gid -> end_mask`` for paths anchored at node 1.
PathState = Dict[int, int]

#: ``node -> [(end_node, label ids)]``, in the graph's edge order.
IdEdges = Dict[int, List[Tuple[int, Tuple[int, ...]]]]


class InvertedIndex:
    """Index of interned edge labels across a collection of graphs."""

    def __init__(self) -> None:
        self.ids: Dict[StringFunction, int] = {}
        self.labels: List[StringFunction] = []
        self.keys: List[Tuple] = []
        self.postings: List[Posting] = []
        self.graphs: Dict[int, TransformationGraph] = {}
        self.last_node: Dict[int, int] = {}
        self.out_edges: Dict[int, IdEdges] = {}

    def add_graph(self, graph: TransformationGraph) -> int:
        """Register a graph; assigns and returns its gid."""
        gid = len(self.graphs)
        graph.gid = gid
        self.graphs[gid] = graph
        self.last_node[gid] = graph.last_node
        ids = self.ids
        postings = self.postings
        out: IdEdges = {}
        for i, targets in graph.out_edges.items():
            row = out[i] = []
            for j, labels in targets:
                bit = 1 << j
                edge_ids = []
                for label in labels:
                    lid = ids.get(label)
                    if lid is None:
                        lid = ids[label] = len(self.labels)
                        self.labels.append(label)
                        self.keys.append(label_sort_key(label))
                        postings.append({})
                    starts = postings[lid].setdefault(gid, {})
                    starts[i] = starts.get(i, 0) | bit
                    edge_ids.append(lid)
                row.append((j, tuple(edge_ids)))
        self.out_edges[gid] = out
        return gid

    def add_graphs(self, graphs: Iterable[TransformationGraph]) -> List[int]:
        return [self.add_graph(g) for g in graphs]

    def posting_size_live(self, lid: int, live: Optional[Set[int]]) -> int:
        """Distinct *live* graphs containing label ``lid``."""
        posting = self.postings[lid]
        if live is None:
            return len(posting)
        return sum(1 for gid in posting if gid in live)

    def initial_state(
        self, lid: int, live: Optional[Set[int]] = None
    ) -> PathState:
        """Path state for the single-label path ``[lid]`` from node 1."""
        state: PathState = {}
        for gid, starts in self.postings[lid].items():
            if live is not None and gid not in live:
                continue
            ends = starts.get(1)
            if ends:
                state[gid] = ends
        return state

    def extend_state(self, state: PathState, lid: int) -> PathState:
        """Adjacency-aware intersection: append label ``lid`` to the
        path.  The new end mask of a graph ORs the follow masks of the
        label's starts whose bit is set in the current end mask."""
        posting = self.postings[lid]
        nxt: PathState = {}
        for gid, ends in state.items():
            starts = posting.get(gid)
            if starts is None:
                continue
            mask = 0
            for start, follow in starts.items():
                if ends >> start & 1:
                    mask |= follow
            if mask:
                nxt[gid] = mask
        return nxt

    def complete_members(self, state: PathState) -> Tuple[int, ...]:
        """Graphs for which the path is a full transformation path.

        An entry ``<G, 1, j>`` is complete iff ``j`` is ``G``'s last
        node — the path spans ``G``'s entire output string.
        """
        last_node = self.last_node
        return tuple(
            sorted(
                gid
                for gid, ends in state.items()
                if ends >> last_node[gid] & 1
            )
        )

    def __len__(self) -> int:
        return len(self.graphs)
