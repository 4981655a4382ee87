"""The sharded grouping feed emits one grouper's stream (hypothesis).

A ``ShardPool`` feed refines every shard's local winner eagerly, so its
structure sources are preprocessed, and touched by removals, at other
moments than the lazy single-process ``IncrementalGrouper``'s.  With
pops and Section 7.1 removals interleaved (dead sets mixing live,
popped and never-held candidates), the feed at 1, 2 and 3 inline
shards must still emit exactly the grouper's groups, programs and
order.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalGrouper
from repro.core.replacement import Replacement
from repro.stream.shards import ShardPool

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ["Lee", "Ann", "Smith", "Bo"]
NUMBERS = ["9", "12", "3", "45"]
STREETS = [("Street", "St"), ("Avenue", "Ave"), ("Road", "Rd")]


@st.composite
def replacement(draw):
    kind = draw(st.sampled_from(["street", "initial", "ordinal", "noise"]))
    first, last = draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    number = draw(st.sampled_from(NUMBERS))
    if kind == "street":
        long, short = draw(st.sampled_from(STREETS))
        return Replacement(f"{number} {last} {long}", f"{number} {last} {short}")
    if kind == "initial":
        return Replacement(f"{first} {last}", f"{first[0]}. {last}")
    if kind == "ordinal":
        return Replacement(f"{number}th", number)
    lhs = draw(st.text(alphabet="aB1 -", min_size=1, max_size=4))
    rhs = draw(st.text(alphabet="aB1 -", min_size=1, max_size=4))
    return Replacement(lhs, rhs if rhs != lhs else rhs + "x")


@st.composite
def scenarios(draw):
    held = draw(st.lists(replacement(), min_size=4, max_size=14, unique=True))
    extra = [r for r in draw(st.lists(replacement(), max_size=3)) if r not in held]
    rounds = draw(st.lists(st.integers(0, 3), min_size=2, max_size=10))
    return held, extra, rounds, draw(st.randoms(use_true_random=False))


def signature(group):
    if group is None:
        return None
    return group.replacements, group.program.canonical(), group.structure


def emitted(feed, held, extra, rounds, seed):
    """The feed's groups under rounds of pops and seeded removals,
    then drained to exhaustion."""
    rng = random.Random(seed)
    out, alive, popped = [], list(held), []
    for pops in rounds:
        for _ in range(pops):
            group = feed.next_group()
            out.append(signature(group))
            if group is not None:
                popped.extend(group.replacements)
                alive = [r for r in alive if r not in group.replacements]
        dead = [r for r in alive if rng.random() < 0.3]
        dead += [r for r in popped + extra if rng.random() < 0.2]
        alive = [r for r in alive if r not in dead]
        feed.remove_replacements(dead)
    while (group := feed.next_group()) is not None:
        out.append(signature(group))
    return out


@SETTINGS
@given(scenarios())
def test_inline_shard_feed_emits_the_grouper_stream(scenario):
    held, extra, rounds, rng = scenario
    seed = rng.random()
    expected = emitted(IncrementalGrouper(held), held, extra, rounds, seed)
    for shards in (1, 2, 3):
        with ShardPool(shards, processes=False) as pool:
            feed = pool.group_feed(held)
            assert emitted(feed, held, extra, rounds, seed) == expected
