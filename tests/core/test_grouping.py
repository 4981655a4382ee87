"""Tests for one-shot unsupervised grouping (Algorithm 2, Figure 2)."""

import pytest

from repro.config import Config
from repro.core.graph import build_graph
from repro.core.grouping import (
    Group,
    build_graphs,
    constant_whitelist,
    graph_memo_key,
    group_sort_key,
    singleton_group,
    unsupervised_grouping,
)
from repro.core.pivot import SearchStats
from repro.core.program import Program
from repro.core.replacement import Replacement
from repro.core.terms import DEFAULT_VOCABULARY


@pytest.fixture
def figure2_candidates():
    """The candidate replacements of the paper's Figure 2."""
    return [
        Replacement("Lee, Mary", "M. Lee"),
        Replacement("Smith, James", "J. Smith"),
        Replacement("Lee, Mary", "Mary Lee"),
        Replacement("Smith, James", "James Smith"),
        Replacement("Mary Lee", "M. Lee"),
        Replacement("James Smith", "J. Smith"),
        Replacement("9th", "9"),
        Replacement("3rd", "3"),
        Replacement("Street", "St"),
        Replacement("Avenue", "Ave"),
    ]


def _group_sets(groups):
    return {frozenset(g.replacements) for g in groups}


class TestFigure2:
    def test_paper_groups_recovered(self, figure2_candidates):
        outcome = unsupervised_grouping(figure2_candidates)
        expected = {
            # Group 1: transpose first/last name.
            frozenset(
                {
                    Replacement("Lee, Mary", "Mary Lee"),
                    Replacement("Smith, James", "James Smith"),
                }
            ),
            # Group 2: initial of first name + last name.
            frozenset(
                {
                    Replacement("Lee, Mary", "M. Lee"),
                    Replacement("Smith, James", "J. Smith"),
                }
            ),
            # Group: first-name initialing from "First Last".
            frozenset(
                {
                    Replacement("Mary Lee", "M. Lee"),
                    Replacement("James Smith", "J. Smith"),
                }
            ),
            # Group 3: drop ordinal suffix.
            frozenset({Replacement("9th", "9"), Replacement("3rd", "3")}),
            # Group 4: street-type abbreviation (needs affix functions).
            frozenset(
                {Replacement("Street", "St"), Replacement("Avenue", "Ave")}
            ),
        }
        assert expected <= _group_sets(outcome.groups)

    def test_partition_property(self, figure2_candidates):
        outcome = unsupervised_grouping(figure2_candidates)
        scattered = [r for g in outcome.groups for r in g.replacements]
        assert sorted(scattered) == sorted(figure2_candidates)

    def test_programs_consistent_with_members(self, figure2_candidates):
        for group in unsupervised_grouping(figure2_candidates).groups:
            for member in group.replacements:
                assert group.program.produces(member.lhs, member.rhs), (
                    f"{group.program.describe()} inconsistent with {member}"
                )

    def test_sorted_groups_descending(self, figure2_candidates):
        outcome = unsupervised_grouping(figure2_candidates)
        sizes = [g.size for g in outcome.sorted_groups()]
        assert sizes == sorted(sizes, reverse=True)

    def test_deterministic(self, figure2_candidates):
        a = unsupervised_grouping(figure2_candidates)
        b = unsupervised_grouping(figure2_candidates)
        assert [g.replacements for g in a.sorted_groups()] == [
            g.replacements for g in b.sorted_groups()
        ]

    def test_duplicates_collapse(self, figure2_candidates):
        outcome = unsupervised_grouping(figure2_candidates * 2)
        scattered = [r for g in outcome.groups for r in g.replacements]
        assert sorted(scattered) == sorted(figure2_candidates)


class TestConfigurations:
    def test_no_affix_splits_street_group(self):
        candidates = [Replacement("Street", "St"), Replacement("Avenue", "Ave")]
        with_affix = unsupervised_grouping(candidates)
        without = unsupervised_grouping(candidates, config=Config(use_affix=False))
        assert len(with_affix.groups) == 1
        assert len(without.groups) == 2  # no shared program without affix

    def test_no_structure_still_partitions(self, figure2_candidates):
        outcome = unsupervised_grouping(
            figure2_candidates, config=Config(use_structure=False)
        )
        scattered = [r for g in outcome.groups for r in g.replacements]
        assert sorted(scattered) == sorted(figure2_candidates)

    def test_structure_separates_shapes(self):
        # Same transformation family, different structure: kept apart
        # (Section 7.2 refinement).
        candidates = [
            Replacement("9th", "9"),
            Replacement("3rd", "3"),
            Replacement("Lee, Mary", "Mary Lee"),
        ]
        outcome = unsupervised_grouping(candidates)
        for group in outcome.groups:
            shapes = {
                (r.lhs.isdigit(), "," in r.lhs) for r in group.replacements
            }
            assert len(shapes) == 1

    def test_oneshot_equals_earlyterm_groups(self, figure2_candidates):
        """Figure 9's methods produce identical groups (Section 8.2)."""
        fast = unsupervised_grouping(figure2_candidates)
        slow = unsupervised_grouping(
            figure2_candidates, config=Config().without_early_termination()
        )
        assert _group_sets(fast.groups) == _group_sets(slow.groups)

    def test_empty_input(self):
        assert unsupervised_grouping([]).groups == []


class TestGroupHelpers:
    def test_singleton_group(self):
        r = Replacement("a" * 100, "b")
        g = singleton_group(r)
        assert g.size == 1 and g.replacements == (r,)
        assert g.program.produces(r.lhs, r.rhs)

    def test_group_sort_key_orders_by_size_desc(self):
        big = singleton_group(Replacement("a", "b"))
        bigger = Group(big.program, big.replacements * 2)
        assert group_sort_key(bigger) < group_sort_key(big)

    def test_describe_lists_members(self):
        g = singleton_group(Replacement("x", "y"))
        assert "'x' -> 'y'" in g.describe()


def built_graphs(replacements, config, memo=None, stats=None):
    """``build_graphs`` as comparable data: per replacement its edges,
    plus the graphless list."""
    index, by_gid, graphless = build_graphs(
        replacements, DEFAULT_VOCABULARY, config, stats, memo
    )
    return (
        [(by_gid[gid], index.graphs[gid].edges) for gid in sorted(by_gid)],
        graphless,
    )


class TestGraphMemo:
    #: Unaligned constants let a "2" be cut out of "12".
    CONFIG = Config(aligned_constants=False)
    BUCKET = [
        Replacement("12 Main Street", "12 Main"),
        Replacement("2 Oak Street", "2 Oak"),
        Replacement("2 Elm Street", "2 Elm"),
        Replacement("Pine Street", "Pine"),
    ]

    def test_partial_token_of_rhs_is_in_the_key(self):
        """Constant admission tokenizes substrings of rhs, so a
        whitelisted "2" reaches "12 Main" though it is none of its own
        tokens: the graphs differ and so must the keys."""
        target = self.BUCKET[0]
        with_two, without = frozenset({"2", "Oak"}), frozenset({"Oak"})
        graphs = [
            build_graph(target.lhs, target.rhs, DEFAULT_VOCABULARY, self.CONFIG, w)
            for w in (with_two, without)
        ]
        assert graphs[0].edges != graphs[1].edges
        assert graph_memo_key(target, with_two) == ("12 Main Street", "12 Main", {"2"})
        assert graph_memo_key(target, without) == ("12 Main Street", "12 Main", set())
        assert graph_memo_key(target, None)[2] is None

    def test_memoized_builds_equal_fresh_builds_across_a_whitelist_change(self):
        memo = {}
        stats = SearchStats()
        assert constant_whitelist(self.BUCKET, self.CONFIG) == {"2"}
        first = built_graphs(self.BUCKET, self.CONFIG, memo, stats)
        assert first == built_graphs(self.BUCKET, self.CONFIG)
        # Dropping "2 Elm" leaves "2" in one target: no longer recurring,
        # so "12 Main" loses its "2" constants and must be rebuilt.
        survivors = [r for r in self.BUCKET if r.rhs != "2 Elm"]
        assert constant_whitelist(survivors, self.CONFIG) == frozenset()
        second = built_graphs(survivors, self.CONFIG, memo, stats)
        assert second == built_graphs(survivors, self.CONFIG)
        assert second[0][0][1] != first[0][0][1]
        # Only "Pine", out of reach of the changed whitelist, is reused.
        assert (stats.graphs_built, stats.graphs_reused) == (6, 1)

    def test_memo_hit_is_a_fresh_graph_object(self):
        memo = {}
        pine = self.BUCKET[3:]
        index1, _, _ = build_graphs(pine, DEFAULT_VOCABULARY, self.CONFIG, memo=memo)
        index2, _, _ = build_graphs(pine, DEFAULT_VOCABULARY, self.CONFIG, memo=memo)
        assert index2.graphs[0] is not index1.graphs[0]
        assert index2.graphs[0].id_edges is index1.graphs[0].id_edges
