"""The label table's invariant (hypothesis).

Graphs are built with their labels interned into a ``LabelTable`` that
one structure source shares across every build and every reset.  Ids
issued for one graph must never change what another graph's edges
mean: a graph built through a shared table, in any order and under any
vocabulary, reads exactly the labels of the same graph built with a
table of its own, and every label still produces its edge's text.
"""

import copy
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.core.functions import label_sort_key
from repro.core.graph import build_graph
from repro.core.grouping import constant_whitelist
from repro.core.incremental import IncrementalGrouper
from repro.core.labels import LabelTable
from repro.core.terms import DEFAULT_VOCABULARY, MatchContext

from test_index_reference import CONFIGS, pools

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The reference configs plus affix labels off, scored constants off and
#: a constant-string term, so every label kind and key shape is drawn.
TABLE_CONFIGS = CONFIGS + (
    Config(use_affix=False, scored_constants=False),
    Config(aligned_constants=False, extra_constant_terms=("St", "e")),
)
VOCABULARIES = (DEFAULT_VOCABULARY, DEFAULT_VOCABULARY.with_constant_terms(["e", ","]))


def assert_fresh(graph, vocabulary, config, whitelist):
    """``graph`` reads the labels of a private-table build, and each of
    them produces its edge's text on the source."""
    fresh = build_graph(graph.source, graph.target, vocabulary, config, whitelist)
    assert graph.edges == fresh.edges
    ctx = MatchContext(graph.source, vocabulary)
    for (i, j), labels in graph.edges.items():
        for label in labels:
            assert label.produces(ctx, graph.target[i - 1 : j - 1])


class TestSharedTable:
    @SETTINGS
    @given(pools, st.sampled_from(TABLE_CONFIGS), st.randoms(use_true_random=False))
    def test_shared_builds_equal_fresh_builds(self, replacements, config, rng):
        whitelist = constant_whitelist(replacements, config)
        table = LabelTable()
        order = list(replacements)
        rng.shuffle(order)
        lazy_ids_at = rng.randint(0, len(order))
        for at, r in enumerate(order):
            if at == lazy_ids_at:
                # ``ids`` is built on first read: an equal (not
                # identical) object finds the id ``label()`` issued by
                # key, and later keys keep ``ids`` up to date.
                issued = len(table.labels)
                for lid, label in enumerate(list(table.labels)):
                    assert table.intern(copy.copy(label)) == lid
                assert len(table.labels) == issued
            vocabulary = rng.choice(VOCABULARIES)
            graph = build_graph(r.lhs, r.rhs, vocabulary, config, whitelist, table)
            if graph is not None:
                assert graph.table is table
                assert_fresh(graph, vocabulary, config, whitelist)

        assert len(table.ids) == len(table.labels) == len(table.keys)
        for lid, label in enumerate(table.labels):
            assert table.ids[label] == lid
            assert table.keys[lid] == label_sort_key(label)


class TestResetKeepsTable:
    @SETTINGS
    @given(pools, st.sampled_from(TABLE_CONFIGS), st.randoms(use_true_random=False))
    def test_memo_rebuild_equals_fresh_build(self, replacements, config, rng):
        """Every source rebuilt after a Section 7.1 removal reads the
        graphs a fresh build would give, through its kept table."""
        chooser = random.Random(rng.random())
        grouper = IncrementalGrouper(replacements, config=config)
        alive = set(replacements)
        while (group := grouper.next_group()) is not None:
            alive.difference_update(group.replacements)
            dead = {r for r in sorted(alive) if chooser.random() < 0.3}
            alive -= dead
            grouper.remove_replacements(dead)
            for source in grouper._sources:
                source.preprocess()
                whitelist = constant_whitelist(source.replacements, config)
                for gid in source.by_gid:
                    graph = source.index.graphs[gid]
                    assert graph.table is source.index.table
                    assert_fresh(graph, source.vocabulary, config, whitelist)
