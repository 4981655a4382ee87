"""Tests for the inverted index and adjacency-aware intersection,
validated against the paper's Example 5.1."""

import pytest

from repro.core.functions import ConstantStr, SubStr, label_sort_key
from repro.core.graph import build_graph
from repro.core.index import InvertedIndex
from repro.core.positions import BEGIN, END, MatchPos
from repro.core.terms import CAPITALS, LOWERCASE, MatchContext, WHITESPACE


@pytest.fixture
def example_51_index():
    """Example 5.1: three replacement graphs."""
    index = InvertedIndex()
    g1 = build_graph("Lee, Mary", "M. Lee")
    g2 = build_graph("Smith, James", "J. Smith")
    g3 = build_graph("Lee, Mary", "Mary Lee")
    index.add_graphs([g1, g2, g3])
    return index, g1, g2, g3


def _find_label(graph, i, j, produces_text):
    ctx = MatchContext(graph.source)
    for label in graph.labels(i, j):
        if isinstance(label, SubStr) and label.produces(ctx, produces_text):
            return label
    raise AssertionError(f"no SubStr label on ({i},{j}) producing {produces_text!r}")


class TestInterning:
    def test_each_label_interned_once(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        distinct = {
            label for g in (g1, g2, g3) for _, label in g.all_labels()
        }
        assert len(index.labels) == len(distinct) == len(index.ids)
        for label, lid in index.ids.items():
            assert index.labels[lid] == label
            assert index.keys[lid] == label_sort_key(label)

    def test_id_edges_mirror_graph_edges(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        for g in (g1, g2, g3):
            as_labels = {
                i: [(j, tuple(index.labels[lid] for lid in lids)) for j, lids in row]
                for i, row in index.out_edges[g.gid].items()
            }
            assert as_labels == g.out_edges


class TestPostings:
    def test_gids_assigned_sequentially(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        assert (g1.gid, g2.gid, g3.gid) == (0, 1, 2)

    def test_last_nodes_tracked(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        assert index.last_node[g1.gid] == 7
        assert index.last_node[g2.gid] == 9
        assert index.last_node[g3.gid] == 9

    def test_constant_posting_single_graph(self, example_51_index):
        index, g1, _, _ = example_51_index
        posting = index.postings[index.ids[ConstantStr("M. Lee")]]
        assert set(posting) == {g1.gid}
        assert posting[g1.gid] == {1: 1 << 7}

    def test_posting_size_counts_graphs(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        # f2-style label: extract the capital after the whitespace;
        # present in all three graphs (each target starts with it).
        f2 = SubStr(MatchPos(WHITESPACE, 1, END), MatchPos(CAPITALS, -1, END))
        assert len(index.postings[index.ids[f2]]) == 3

    def test_posting_size_live_filtering(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        f2 = SubStr(MatchPos(WHITESPACE, 1, END), MatchPos(CAPITALS, -1, END))
        assert index.posting_size_live(index.ids[f2], {g1.gid}) == 1
        assert index.posting_size_live(index.ids[f2], None) == 3

    def test_unknown_label_empty(self, example_51_index):
        index, *_ = example_51_index
        assert ConstantStr("nope") not in index.ids


class TestRemoval:
    def test_add_after_a_hole_never_reuses_a_gid(self, example_51_index):
        """With gid 0 removed the index holds two graphs, but gid 2 is
        still taken: a new graph numbers past every issued gid."""
        index, g1, g2, g3 = example_51_index
        index.remove_graph(g1.gid)
        g4 = build_graph("Smith, James", "James Smith")
        assert index.add_graph(g4) == 3
        assert index.graphs[g3.gid] is g3
        assert sorted(index.graphs) == [1, 2, 3]

    def test_explicit_gid_must_be_free(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        with pytest.raises(ValueError):
            index.add_graph(build_graph("9th", "9"), g2.gid)
        index.remove_graph(g2.gid)
        assert index.add_graph(g2, g2.gid) == 1
        assert index.add_graph(build_graph("9th", "9")) == 3

    def test_removal_unposts_and_drops_empty_postings(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        lid = index.ids[ConstantStr("M. Lee")]
        f2 = SubStr(MatchPos(WHITESPACE, 1, END), MatchPos(CAPITALS, -1, END))
        assert index.remove_graph(g1.gid) is g1
        assert lid not in index.postings
        assert set(index.postings[index.ids[f2]]) == {g2.gid, g3.gid}
        assert g1.gid not in index.last_node and g1.gid not in index.out_edges
        assert all(g1.gid not in posting for posting in index.postings.values())
        assert len(index) == 2


class TestIntersection:
    def test_example_51_path_intersection(self, example_51_index):
        """I[f2] ∩ I[f3] ∩ I[f1] = {<G1,1,7>, <G2,1,9>} (Example 5.1)."""
        index, g1, g2, g3 = example_51_index
        f2 = _find_label(g1, 1, 2, "M")
        f3 = ConstantStr(". ")
        f1 = _find_label(g1, 4, 7, "Lee")

        state = index.initial_state(index.ids[f2])
        assert set(state) == {g1.gid, g2.gid, g3.gid}  # all start with a capital

        state = index.extend_state(state, index.ids[f3])
        assert set(state) == {g1.gid, g2.gid}  # G3 has no '. '

        state = index.extend_state(state, index.ids[f1])
        assert state[g1.gid] == 1 << 7
        assert state[g2.gid] == 1 << 9

        members = index.complete_members(state)
        assert members == (g1.gid, g2.gid)

    def test_adjacency_required(self, example_51_index):
        """Non-adjacent edges must not join (Section 5.1)."""
        index, g1, _, _ = example_51_index
        f2 = _find_label(g1, 1, 2, "M")
        f1 = _find_label(g1, 4, 7, "Lee")
        state = index.initial_state(index.ids[f2])  # ends at node 2
        assert state[g1.gid] == 1 << 2
        state = index.extend_state(state, index.ids[f1])  # needs start 2, not 4
        assert g1.gid not in state

    def test_initial_state_requires_start_node_one(self, example_51_index):
        index, g1, _, _ = example_51_index
        f1 = _find_label(g1, 4, 7, "Lee")  # starts at node 4
        state = index.initial_state(index.ids[f1])
        assert g1.gid not in state

    def test_live_filtering_in_joins(self, example_51_index):
        index, g1, g2, g3 = example_51_index
        f2 = _find_label(g1, 1, 2, "M")
        state = index.initial_state(index.ids[f2], live={g2.gid})
        assert set(state) == {g2.gid}

    def test_state_size_with_live(self, example_51_index):
        """Live filtering happens once, at the path's first label; every
        extension of that state stays inside the live set."""
        index, g1, g2, g3 = example_51_index
        f2 = _find_label(g1, 1, 2, "M")
        assert len(index.initial_state(index.ids[f2])) == 3
        state = index.initial_state(index.ids[f2], {g1.gid, g2.gid})
        assert len(state) == 2
        state = index.extend_state(state, index.ids[ConstantStr(". ")])
        assert set(state) <= {g1.gid, g2.gid}

    def test_incomplete_path_has_no_members(self, example_51_index):
        index, g1, g2, _ = example_51_index
        f2 = _find_label(g1, 1, 2, "M")
        state = index.initial_state(index.ids[f2])
        state = index.extend_state(state, index.ids[ConstantStr(". ")])
        assert index.complete_members(state) == ()
