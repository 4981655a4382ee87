"""A touched structure source derives exactly the fresh state (hypothesis).

After a Section 7.1 removal touches a preprocessed source, the source
unposts its gone graphs and, at its next peek, patches its index in
place (``_Source._derive``) instead of rebuilding it.  The derived state
must equal what a fresh ``preprocess()`` over the same survivors builds:
postings, edges, last nodes, live set, upper bounds, gid map and
graphless list, once the derived gids (which keep their old values) are
mapped onto the fresh ones by rank.  Every live graph's pivot search
must then return the same candidate with the same counters on both.
Until its next peek a touched source is ranked by its size, as an
unpreprocessed one is, and it may be touched again before it derives.
"""

from typing import Dict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, Config
from repro.core import incremental
from repro.core.pivot import GlobalBounds, SearchStats, search_pivot
from repro.core.replacement import Replacement

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = (
    DEFAULT_CONFIG,
    Config(use_structure=False),
    Config(scored_constants=False),
)

NAMES = ["Lee", "Ann", "Smith", "Bo", "Mary"]
NUMBERS = ["9", "12", "3", "45"]
STREETS = [("Street", "St"), ("Avenue", "Ave"), ("Road", "Rd")]


@st.composite
def replacement(draw):
    """Families whose targets share tokens, so removals shift the
    constant whitelist, plus noise."""
    kind = draw(st.sampled_from(["street", "street", "initial", "ordinal", "noise"]))
    first, last = draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    number = draw(st.sampled_from(NUMBERS))
    if kind == "street":
        long, short = draw(st.sampled_from(STREETS))
        return Replacement(f"{number} {last} {long}", f"{number} {last} {short}")
    if kind == "initial":
        return Replacement(f"{first} {last}", f"{first[0]}. {last}")
    if kind == "ordinal":
        return Replacement(f"{number}th", number)
    lhs = draw(st.text(alphabet="aB1 -", min_size=1, max_size=5))
    rhs = draw(st.text(alphabet="aB1 -", min_size=1, max_size=5))
    return Replacement(lhs, rhs if rhs != lhs else rhs + "x")


@st.composite
def scenarios(draw):
    held = draw(st.lists(replacement(), min_size=6, max_size=16, unique=True))
    # Candidates no source holds: dead sets mix these with live and
    # already-popped ones.
    extra = [r for r in draw(st.lists(replacement(), max_size=3)) if r not in held]
    rounds = draw(st.lists(st.integers(0, 2), min_size=3, max_size=8))
    return held, extra, rounds, draw(st.randoms(use_true_random=False))


def fresh_twin(source) -> "incremental._Source":
    """A never-touched source over ``source``'s survivors, sharing its
    label table (so label ids agree) but none of its graphs."""
    twin = incremental._Source(
        source.order,
        source.skey,
        source.replacements,
        source.vocabulary,
        source.config,
        SearchStats(),
        source.index.table,
    )
    twin.preprocess()
    return twin


def rank_map(derived_gids, fresh_gids) -> Dict[int, int]:
    derived, fresh = sorted(derived_gids), sorted(fresh_gids)
    assert len(derived) == len(fresh)
    return dict(zip(derived, fresh))


def assert_fresh(source) -> None:
    twin = fresh_twin(source)
    index, fresh = source.index, twin.index
    to = rank_map(index.graphs, fresh.graphs)
    assert {
        lid: {to[g]: starts for g, starts in posting.items()}
        for lid, posting in index.postings.items()
    } == fresh.postings
    assert {to[g]: edges for g, edges in index.out_edges.items()} == fresh.out_edges
    assert {to[g]: last for g, last in index.last_node.items()} == fresh.last_node
    assert {to[g] for g in source.live} == twin.live
    assert {to[g]: up for g, up in source.up.items()} == twin.up
    assert {to[g]: r for g, r in source.by_gid.items()} == twin.by_gid
    assert source.graphless == twin.graphless
    assert source.bounds == GlobalBounds() and source.cached is None
    assert not source.stale
    for gid in sorted(source.live):
        stats, twin_stats = SearchStats(), SearchStats()
        found = search_pivot(
            index.graphs[gid], index, source.config, source.live, 0,
            GlobalBounds(), stats,
        )
        expected = search_pivot(
            fresh.graphs[to[gid]], fresh, twin.config, twin.live, 0,
            GlobalBounds(), twin_stats,
        )
        assert (found.count, found.key, found.path) == (
            expected.count, expected.key, expected.path,
        )
        assert tuple(to[g] for g in found.members) == expected.members
        assert stats == twin_stats


@SETTINGS
@given(scenarios(), st.sampled_from(CONFIGS))
def test_derived_source_equals_fresh_preprocess(scenario, config):
    """Rounds of pops, each followed by a removal of random live,
    popped and never-held candidates; a touched source derives now or
    is left touched into the next round."""
    held, extra, rounds, rng = scenario
    grouper = incremental.IncrementalGrouper(held, config=config)
    alive, popped = list(held), []
    for pops in rounds:
        for _ in range(pops):
            group = grouper.next_group()
            if group is not None:
                popped.extend(group.replacements)
                alive = [r for r in alive if r not in group.replacements]
        dead = [r for r in alive if rng.random() < 0.3]
        dead += [r for r in popped + extra if rng.random() < 0.2]
        alive = [r for r in alive if r not in dead]
        grouper.remove_replacements(dead)
        for source in grouper._sources:
            if not source.stale:
                continue
            # Ranked, until its next peek, as the unpreprocessed source
            # it replaces.
            assert source.bound() == len(source.replacements)
            if rng.random() < 0.6:
                source._derive()
                assert_fresh(source)
    for source in grouper._sources:
        if source.stale:
            source._derive()
            assert_fresh(source)
