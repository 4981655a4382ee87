"""Streaming consolidation: batches in, bundle versions out.

Records arrive in batches; each batch is folded into persistent
consolidation state instead of re-clustering and re-learning from
scratch.  The current model standardizes arrivals first (the serve fast
path), cached oracle decisions absorb repeated variation for free, only
genuinely novel variation is reviewed, and every batch of new
confirmations publishes the next (one-column) model bundle version into
a registry with the serving engine hot-reloaded in place.

Run::

    python examples/streaming_consolidation.py [scale]
"""

import sys
import tempfile

from repro.datagen import address_dataset, dataset_stream
from repro.serve import ModelRegistry
from repro.stream import (
    DriftMonitor,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)


def main(scale: float = 0.08) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as root:
        run(ModelRegistry(root), scale)


def run(registry: ModelRegistry, scale: float) -> None:
    seed = 11
    dataset = address_dataset(scale=scale, seed=seed)
    stream = dataset_stream(dataset, batches=4, seed=seed)
    print(
        f"stream: {stream.num_records} records arriving in "
        f"{len(stream.batches)} batches ({dataset.name})"
    )

    consolidator = GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=seed
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=60,
        registry=registry,
        bundle_name="address-stream",
        monitors={
            stream.column: DriftMonitor(window=3, miss_rate_threshold=0.8)
        },
    )

    for batch in stream.batches:
        report = consolidator.process_batch(batch)
        print("  " + report.describe())

    print(
        f"done: {consolidator.questions_asked} oracle questions asked, "
        f"{consolidator.questions_saved} saved by reusing prior "
        f"decisions"
    )
    print(
        f"published versions: {registry.catalog()} "
        f"(under {registry.root})"
    )
    engine = consolidator.engine and consolidator.engine.engine(stream.column)
    if engine is not None and engine.exact:
        example = next(iter(engine.exact))
        print(
            f"serving engine is live at "
            f"{engine.model.groups_confirmed} groups; "
            f"{example!r} -> {engine.transform(example)!r}"
        )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.08)
