"""Tests for the incremental (top-k) grouping (Section 6, Theorem 6.4)."""

from unittest import mock

import pytest

from repro.config import Config
from repro.core import incremental
from repro.core.grouping import unsupervised_grouping
from repro.core.incremental import IncrementalGrouper
from repro.core.replacement import Replacement
from repro.datagen import DATASETS
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer


@pytest.fixture
def figure2_candidates():
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


@pytest.fixture
def bigger_candidates():
    """A mixed pool with one dominant group (ordinal strips)."""
    ordinals = [
        Replacement(f"{n}th", str(n)) for n in (4, 5, 6, 7, 8, 9, 11, 12)
    ]
    streets = [Replacement("Street", "St"), Replacement("Avenue", "Ave")]
    names = [
        Replacement("Lee, Mary", "Mary Lee"),
        Replacement("Smith, James", "James Smith"),
    ]
    return ordinals + streets + names


class TestOrdering:
    def test_first_group_is_largest(self, bigger_candidates):
        grouper = IncrementalGrouper(bigger_candidates)
        first = grouper.next_group()
        assert first is not None
        assert first.size == 8  # the ordinal strip family

    def test_sizes_non_increasing(self, bigger_candidates):
        """Theorem 6.4: groups arrive largest-first."""
        sizes = [g.size for g in IncrementalGrouper(bigger_candidates).groups()]
        assert sizes == sorted(sizes, reverse=True)

    def test_exhaustion_returns_none(self, figure2_candidates):
        grouper = IncrementalGrouper(figure2_candidates)
        list(grouper.groups())
        assert grouper.next_group() is None

    def test_limit(self, bigger_candidates):
        groups = list(IncrementalGrouper(bigger_candidates).groups(limit=2))
        assert len(groups) == 2


class TestTheorem64:
    def test_same_groups_as_oneshot(self, figure2_candidates):
        """Incremental and one-shot produce the same partition."""
        oneshot = {
            frozenset(g.replacements)
            for g in unsupervised_grouping(figure2_candidates).groups
        }
        incremental = {
            frozenset(g.replacements)
            for g in IncrementalGrouper(figure2_candidates).groups()
        }
        assert oneshot == incremental

    def test_same_groups_bigger_pool(self, bigger_candidates):
        oneshot = sorted(
            len(g.replacements)
            for g in unsupervised_grouping(bigger_candidates).groups
        )
        incremental = sorted(
            g.size for g in IncrementalGrouper(bigger_candidates).groups()
        )
        assert oneshot == incremental

    def test_partition_property(self, bigger_candidates):
        scattered = [
            r
            for g in IncrementalGrouper(bigger_candidates).groups()
            for r in g.replacements
        ]
        assert sorted(scattered) == sorted(bigger_candidates)

    def test_programs_consistent(self, bigger_candidates):
        for group in IncrementalGrouper(bigger_candidates).groups():
            for member in group.replacements:
                assert group.program.produces(member.lhs, member.rhs)


class TestRemoval:
    def test_removed_replacements_never_emitted(self, bigger_candidates):
        grouper = IncrementalGrouper(bigger_candidates)
        first = grouper.next_group()
        dead = {Replacement("Street", "St")}
        grouper.remove_replacements(dead)
        emitted = [r for g in grouper.groups() for r in g.replacements]
        assert Replacement("Street", "St") not in emitted
        assert Replacement("Avenue", "Ave") in emitted

    def test_removal_before_first_group(self, figure2_candidates):
        grouper = IncrementalGrouper(figure2_candidates)
        grouper.remove_replacements(set(figure2_candidates[:5]))
        emitted = [r for g in grouper.groups() for r in g.replacements]
        assert sorted(emitted) == sorted(figure2_candidates[5:])

    def test_remove_everything(self, figure2_candidates):
        grouper = IncrementalGrouper(figure2_candidates)
        grouper.remove_replacements(set(figure2_candidates))
        assert grouper.next_group() is None

    def test_remove_empty_set_is_noop(self, figure2_candidates):
        grouper = IncrementalGrouper(figure2_candidates)
        grouper.remove_replacements(set())
        assert grouper.next_group() is not None


class TestConfigurations:
    def test_without_structure(self, figure2_candidates):
        config = Config(use_structure=False)
        scattered = [
            r
            for g in IncrementalGrouper(figure2_candidates, config=config).groups()
            for r in g.replacements
        ]
        assert sorted(scattered) == sorted(figure2_candidates)

    def test_graphless_fallback(self):
        """Oversized strings still come out, as singletons."""
        config = Config(max_string_length=8)
        replacements = [
            Replacement("averylongstring" * 3, "anotherverylongone" * 3),
            Replacement("9th", "9"),
        ]
        groups = list(IncrementalGrouper(replacements, config=config).groups())
        assert sorted(g.size for g in groups) == [1, 1]

    def test_empty_pool(self):
        assert IncrementalGrouper([]).next_group() is None

    def test_single_replacement(self):
        groups = list(IncrementalGrouper([Replacement("a b", "b a")]).groups())
        assert len(groups) == 1 and groups[0].size == 1


class TestGraphReuse:
    def test_counters_cover_every_registered_graph(self):
        """On the one-shot Address input (scale 0.15, seed 7, 100
        questions) every registered graph is either built or reused,
        and sources reset by applied groups do reuse their graphs."""
        dataset = DATASETS["Address"](scale=0.15, seed=7)
        standardizer = Standardizer(dataset.fresh_table(), dataset.column)
        feed = standardizer.default_feed()
        registered = []
        build_graphs = incremental.build_graphs

        def counting(*args, **kwargs):
            result = build_graphs(*args, **kwargs)
            registered.append(len(result[1]))
            return result

        oracle = GroundTruthOracle(dataset.canonical, standardizer.store, seed=7)
        with mock.patch.object(incremental, "build_graphs", counting):
            standardizer.run(oracle, 100, feed=feed)
        stats = feed.stats
        assert stats.graphs_built + stats.graphs_reused == sum(registered)
        assert stats.graphs_reused > 0

    def test_untouched_pool_builds_every_graph_once(self, bigger_candidates):
        grouper = IncrementalGrouper(bigger_candidates)
        list(grouper.groups())
        assert grouper.stats.graphs_reused == 0
        assert grouper.stats.graphs_built == len(bigger_candidates)

    def test_merge_sums_graph_counters(self):
        total = incremental.SearchStats(graphs_built=2, graphs_reused=1)
        total.merge(incremental.SearchStats(graphs_built=3, graphs_reused=4))
        assert (total.graphs_built, total.graphs_reused) == (5, 5)
