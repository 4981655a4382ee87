"""MinHash-LSH blocking vs token blocking on a high-cardinality stream.

Token blocking puts every record sharing a token in one block.  On
attributes with a popular vocabulary — street suffixes, city names,
legal-entity suffixes — a handful of tokens ("street", "springfield")
collect most of the stream, and the within-block scan makes
similarity-mode resolution O(block²) per batch.  The classic fix is a
block-size guard, but skipping an oversized block *silently drops
recall*.

``lsh_keys`` blocks by banded MinHash signatures over character
shingles instead: two values share a block only when their shingle
sets are actually similar, so blocks stay near-duplicate-sized no
matter how popular the vocabulary is, and no guard (or recall loss) is
needed.

This benchmark asserts the two claims of the LSH release:

* **>= 3x wall-clock** on a high-cardinality similarity-mode stream
  versus token blocking doing the same (unguarded) work, driven by
  candidate pruning — the LSH path evaluates a small fraction of the
  token path's comparisons while co-clustering the same entities;
* **sharding stays unobservable**: under ``--blocking lsh`` the
  consolidator publishes identical models and asks identical oracle
  questions at ``--shards 1`` and ``--shards 4``.
"""

import os
import random
import time

import pytest

from repro.data.table import Record
from repro.datagen import address_dataset, dataset_stream
from repro.datagen.base import GeneratorSpec
from repro.resolution.blocking import lsh_keys, token_keys
from repro.stream import (
    IncrementalResolver,
    StreamConsolidator,
    ground_truth_oracle_factory,
)

from conftest import SCALE, print_banner, record_result, report

SEED = 47
MIN_SPEEDUP = 3.0
#: The candidate-pruning and recall assertions are deterministic and
#: always enforced; the wall-clock ratio compares two timed runs, so
#: shared CI runners may set REPRO_BENCH_ASSERT_SPEEDUP=0 to report
#: it without asserting (same escape hatch as bench_stream_sharded).
ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"
THRESHOLD = 0.6
#: Token-path pairs grow quadratically with entity count while the
#: LSH path grows linearly, so the measured gap is size-sensitive: at
#: the default scale it is ~2x the asserted minimum.  The floor keeps
#: the stream in the high-cardinality regime the claim is about even
#: when REPRO_BENCH_SCALE trims the rest of the suite (the whole
#: benchmark stays a few seconds).
N_ENTITIES = max(280, int(340 * SCALE))
VARIANTS = 4
N_BATCHES = 5

#: The popular vocabulary: every value carries two of these, so token
#: blocking concentrates the whole stream into a few giant blocks.
SUFFIXES = ["street", "avenue", "road", "boulevard"]
CITIES = ["springfield", "shelbyville", "centerville"]


def make_batches(n_entities=N_ENTITIES, variants=VARIANTS, seed=SEED):
    """``n_entities * variants`` records whose values share a popular
    suffix/city vocabulary (high-cardinality token blocks) around a
    distinguishing per-entity core."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"

    def entity_core(i):
        stem = "".join(rng.choice(letters) for _ in range(9))
        return f"{stem}{i}"

    records = []
    for i in range(n_entities):
        core = entity_core(i)
        number = rng.randrange(1, 999)
        suffix = rng.choice(SUFFIXES)
        city = rng.choice(CITIES)
        base = f"{number} {core} {suffix} {city}"
        for v in range(variants):
            value = base
            if v and rng.random() < 0.8:  # small typo in the core
                pos = value.index(core) + rng.randrange(len(core))
                value = value[:pos] + rng.choice(letters) + value[pos + 1 :]
            records.append((f"e{i}", Record(f"e{i}v{v}", {"addr": value})))
    rng.shuffle(records)
    per_batch = (len(records) + N_BATCHES - 1) // N_BATCHES
    batches = [
        records[i : i + per_batch]
        for i in range(0, len(records), per_batch)
    ]
    return batches


def run_stream(batches, block_keys):
    resolver = IncrementalResolver(
        ("addr",),
        attribute="addr",
        threshold=THRESHOLD,
        block_keys=block_keys,
        # No oversized-block guard: both paths keep full recall, so
        # the token path pays the true O(block²) cost LSH prunes.
        max_block_size=10**9,
    )
    start = time.perf_counter()
    pairs = 0
    for batch in batches:
        result = resolver.add_batch([record for _, record in batch])
        pairs += result.pairs_compared
    elapsed = time.perf_counter() - start
    # entity -> set of cluster slots its records landed in
    placement = {}
    for batch in batches:
        for entity, record in batch:
            slot, _row = resolver.position(record.rid)
            placement.setdefault(entity, set()).add(slot)
    return elapsed, pairs, placement


def recall_of(placement):
    """Fraction of entities whose variants all share one cluster."""
    whole = sum(1 for slots in placement.values() if len(slots) == 1)
    return whole / len(placement)


def test_lsh_blocking_speedup_and_pruning():
    batches = make_batches()
    n_records = sum(len(b) for b in batches)

    t_token, pairs_token, placed_token = run_stream(batches, token_keys)
    t_lsh, pairs_lsh, placed_lsh = run_stream(
        batches, lsh_keys(bands=8, rows=4)
    )

    speedup = t_token / t_lsh if t_lsh > 0 else float("inf")
    prune = pairs_lsh / pairs_token if pairs_token else 0.0
    recall_token = recall_of(placed_token)
    recall_lsh = recall_of(placed_lsh)

    print_banner(
        "MinHash-LSH blocking vs token blocking "
        "(high-cardinality similarity stream)"
    )
    report(
        f"stream: {n_records} records ({N_ENTITIES} entities x "
        f"{VARIANTS} variants) in {len(batches)} batches, "
        f"threshold {THRESHOLD}"
    )
    report(
        f"token blocking : {t_token:8.3f}s   "
        f"{pairs_token:9d} pairs compared   "
        f"entity recall {recall_token:.3f}"
    )
    report(
        f"lsh blocking   : {t_lsh:8.3f}s   "
        f"{pairs_lsh:9d} pairs compared   "
        f"entity recall {recall_lsh:.3f}"
    )
    report(
        f"speedup: {speedup:5.2f}x   candidates kept: {prune:.1%}"
    )
    record_result(
        "lsh_blocking",
        directions={
            "records": "info",
            "token_seconds": "lower",
            "lsh_seconds": "lower",
            "speedup": "higher",
            "pairs_token": "info",
            "pairs_lsh": "lower",
            "recall_token": "higher",
            "recall_lsh": "higher",
        },
        test="speedup",
        records=n_records,
        token_seconds=round(t_token, 4),
        lsh_seconds=round(t_lsh, 4),
        speedup=round(speedup, 3),
        pairs_token=pairs_token,
        pairs_lsh=pairs_lsh,
        recall_token=round(recall_token, 4),
        recall_lsh=round(recall_lsh, 4),
    )

    # Pruning is the mechanism; recall is the constraint that makes it
    # meaningful; wall-clock is the claim.
    assert pairs_lsh < pairs_token * 0.25, (
        f"LSH must prune the candidate set "
        f"({pairs_lsh} vs {pairs_token} pairs)"
    )
    assert recall_lsh >= recall_token - 0.02, (
        f"LSH pruning must not cost entity recall "
        f"({recall_lsh:.3f} vs {recall_token:.3f})"
    )
    if ASSERT_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"LSH blocking must be >= {MIN_SPEEDUP}x faster than token "
            f"blocking on a high-cardinality stream (got {speedup:.2f}x)"
        )
    else:
        report(
            "(REPRO_BENCH_ASSERT_SPEEDUP=0: speedup reported, not "
            "asserted — pruning and recall still asserted above)"
        )


SPEC = GeneratorSpec(
    n_clusters=max(8, int(60 * SCALE)),
    mean_cluster_size=4.0,
    conflict_rate=0.1,
    variant_rate=0.85,
    seed=SEED,
)


@pytest.fixture(scope="module")
def lsh_stream():
    dataset = address_dataset(spec=SPEC, seed=SEED)
    return dataset_stream(dataset, batches=3, seed=SEED)


def run_consolidator(stream, shards):
    consolidator = StreamConsolidator(
        column=stream.column,
        oracle_factory=ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=SEED
        ),
        attribute=stream.column,
        similarity_threshold=THRESHOLD,
        block_keys=lsh_keys(bands=8, rows=2),
        budget_per_batch=60,
        use_engine=False,
        shards=shards,
        model_name="lsh-bench",
        persist_decisions=False,
    )
    with consolidator:
        consolidator.run(stream.batches)
        questions = [r.questions_asked for r in consolidator.reports]
        groups = [g.to_dict() for g in consolidator.build_model().groups]
        final = {
            r.rid: r.values[stream.column]
            for c in consolidator.table.clusters
            for r in c.records
        }
    return questions, groups, final


def test_lsh_sharded_models_and_questions_identical(lsh_stream):
    q1, g1, f1 = run_consolidator(lsh_stream, shards=1)
    q4, g4, f4 = run_consolidator(lsh_stream, shards=4)
    report(
        f"LSH consolidator: --shards 1 vs --shards 4 -> "
        f"questions {q1} vs {q4}, {len(g1)} published groups each"
    )
    record_result(
        "lsh_blocking",
        directions={"questions": "info", "groups": "info"},
        test="sharded_equivalence",
        questions=sum(q1),
        groups=len(g1),
        identical=(q1 == q4 and g1 == g4 and f1 == f4),
    )
    assert q4 == q1, "sharding must not change the oracle bill"
    assert g4 == g1, "published group sequences must be identical"
    assert f4 == f1, "final standardization must be identical"
