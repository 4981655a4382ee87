"""Learn once, apply forever: the ``repro.serve`` workflow.

1. Run the human-in-the-loop standardization on a synthetic Address
   sample and persist everything it learned as a versioned one-column
   bundle (what ``repro learn --registry`` publishes);
2. reload the model and standardize a *fresh* table with the compiled
   O(N) apply engine — no graphs, no pivot search, no human;
3. answer a couple of transform requests the way ``repro serve`` does
   on stdin/stdout (JSON in, JSON out).

Run:  python examples/learn_apply_serve.py [scale]
"""

from __future__ import annotations

import io
import json
import sys
import tempfile

from repro import ApplyEngine, ModelRegistry, Standardizer, build_model
from repro.datagen import address_dataset
from repro.pipeline.oracle import GroundTruthOracle
from repro.serve import ModelSource, ServeServer, as_bundle


def main(scale: float = 0.08) -> None:
    with tempfile.TemporaryDirectory(prefix="repro_models_") as root:
        run(ModelRegistry(root), scale)


def run(registry: ModelRegistry, scale: float) -> None:
    # 1. Learn and persist.
    dataset = address_dataset(scale=scale, seed=11)
    table = dataset.fresh_table()
    standardizer = Standardizer(table, dataset.column)
    oracle = GroundTruthOracle(dataset.canonical, standardizer.store, seed=11)
    log = standardizer.run(oracle, budget=40)
    model = build_model(
        log,
        dataset.column,
        name="address",
        provenance={"dataset": dataset.name, "seed": 11, "scale": scale},
    )
    path = registry.save(as_bundle(model))
    print(f"learned:  {model.describe()}")
    print(f"saved:    {path}")

    # 2. Reload and batch-apply to fresh data.
    engine = ApplyEngine(registry.load("address").models[dataset.column])
    fresh = dataset.fresh_table()
    changed = engine.apply_table(fresh)
    stats = engine.stats()
    print(
        f"applied:  {stats.rows} rows, {len(changed)} cells changed "
        f"(exact={stats.exact_hits} program={stats.program_hits} "
        f"token={stats.token_hits})"
    )

    # 3. The serve protocol, driven in-memory through the stdio
    #    transport of the same server `repro serve --listen` runs.
    requests = "".join(
        json.dumps(r) + "\n"
        for r in (
            {"op": "apply", "value": "5 Main St, 10001 New York"},
            {"op": "version"},
            {"op": "shutdown"},
        )
    )
    server = ServeServer(ModelSource(model=registry.load("address")))
    responses = io.BytesIO()
    server.serve_lines(io.BytesIO(requests.encode("utf-8")), responses)
    print("serve protocol:")
    for line in responses.getvalue().decode("utf-8").splitlines():
        print(f"  {line[:72]}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.08)
