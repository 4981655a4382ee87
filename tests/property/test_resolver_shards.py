"""A pooled resolver against an unpooled one, batch by batch.

``IncrementalResolver`` with a ``ShardPool`` evaluates each batch's
comparisons on the shard workers, against resident replicas of the
member values of the blocks each shard owns.  Two invariants must hold
after every batch, for any batch cut, block retention and shard count:

* the pooled resolver's clusters, merge moves, merge count and
  comparison count equal an unpooled resolver's;
* each shard's replica holds exactly the records that have a live
  block on that shard, with the parent's values.

Values come from a five-token alphabet so blocks collide often, and
retention as low as 1 rotates members out inside a batch.
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.table import Record
from repro.resolution.similarity import overlap
from repro.stream import IncrementalResolver
from repro.stream.shards import ShardPool

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

value = st.lists(
    st.sampled_from("abcde"), min_size=1, max_size=3
).map(" ".join)
batches_strategy = st.lists(
    st.lists(value, min_size=1, max_size=6), min_size=1, max_size=5
)


def tok_overlap(a: str, b: str) -> float:
    return overlap(a.split(), b.split())


def build(pool, retention):
    return IncrementalResolver(
        ("name",),
        attribute="name",
        threshold=0.5,
        similarity=tok_overlap,
        pool=pool,
        block_retention=retention,
    )


def layout(resolver) -> List[List[str]]:
    return [[r.rid for r in c.records] for c in resolver.table.clusters]


def live_on_shard(resolver, shard: int) -> Dict[str, str]:
    """rid -> parent value for every member of a block on ``shard``."""
    partition = resolver._blocks._partitions[shard]
    return {
        rid: resolver._values[rid]
        for members in partition.values()
        for rid in members
    }


@SETTINGS
@given(
    batches_strategy,
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from([2, 3]),
)
def test_pooled_resolver_matches_unpooled(batches, retention, shards):
    with ShardPool(shards, similarity=tok_overlap, processes=False) as pool:
        pooled = build(pool, retention)
        inline = build(None, retention)
        replicas = pool._backend._servers
        rid = 0
        for values in batches:
            records = []
            for text in values:
                records.append(Record(f"r{rid}", {"name": text}))
                rid += 1
            got = pooled.add_batch(records)
            want = inline.add_batch(
                [Record(r.rid, dict(r.values)) for r in records]
            )
            assert layout(pooled) == layout(inline)
            assert got.moved == want.moved
            assert got.merges == want.merges
            assert got.pairs_compared == want.pairs_compared
            for shard, replica in enumerate(replicas):
                assert replica.values == live_on_shard(pooled, shard)
