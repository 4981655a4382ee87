import json

from inputs import (
    ONESHOT_DATA_SEED,
    address_input,
    golden_base,
    order_rng,
    permuted,
    stream_batches,
)

SCALE = 0.05


def serialized(rows) -> bytes:
    return json.dumps(rows, ensure_ascii=False, sort_keys=True).encode()


def oneshot_bytes(seed):
    base = address_input(SCALE, ONESHOT_DATA_SEED)
    data = permuted(base, order_rng(seed, "oneshot"))
    return serialized(
        [
            [cluster.key, [[r.rid, r.values, r.source] for r in cluster.records]]
            for cluster in data.table.clusters
        ]
    )


def test_oneshot_table_is_a_function_of_the_seed():
    assert oneshot_bytes(3) == oneshot_bytes(3)
    assert oneshot_bytes(3) != oneshot_bytes(4)


def test_reordering_keeps_content_and_truth():
    base = address_input(SCALE, ONESHOT_DATA_SEED)
    shuffled = permuted(base, order_rng(9))
    rows = lambda data: sorted(  # noqa: E731
        (r.rid, r.values[data.column], cluster.key)
        for cluster in data.table.clusters
        for r in cluster.records
    )
    assert rows(shuffled) == rows(base)
    truth = shuffled.canonical_cells(shuffled.table)
    assert len(truth) == base.table.num_records


def test_stream_batches_are_a_function_of_the_seed():
    records = golden_base().records[:200]

    def cut(seed):
        batches = stream_batches(records, order_rng(seed), 7)
        return serialized(
            [[[r.rid, r.values, r.source] for r in batch] for batch in batches]
        )

    assert cut(1) == cut(1)
    assert cut(1) != cut(2)
    batches = stream_batches(records, order_rng(1), 7)
    assert len(batches) == 7
    assert sorted(r.rid for b in batches for r in b) == sorted(
        r.rid for r in records
    )
