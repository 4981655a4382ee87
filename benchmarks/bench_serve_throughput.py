"""Network serving tier throughput under concurrent load + hot reload.

The claim under test: the asyncio serving tier sustains real
concurrent traffic — many clients pipelining batch applies — *while a
new model version is published and hot-swapped mid-run*, without
dropping or corrupting a single request.  Measured on one in-process
server (no network stack noise beyond loopback):

* ``requests_per_second`` — completed request/reply round trips per
  second across all clients;
* ``rows_per_second`` — standardized values per second (each request
  carries a batch);
* the mid-run publish must actually swap (both versions observed) and
  every reply must byte-match the offline engine of the version it
  claims — throughput that breaks correctness does not count.

The absolute floor is asserted only when
``REPRO_BENCH_ASSERT_SPEEDUP`` is on (default), mirroring the other
gates; the recorded trajectory feeds ``repro bench check``.
"""

import asyncio
import json
import os
import time

import pytest

from repro.datagen import address_dataset
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.serve import (
    ApplyEngine,
    ModelRegistry,
    ModelSource,
    ServeServer,
    TransformationModel,
    build_model,
)

from conftest import (
    BASE_SCALES,
    BUDGETS,
    SCALE,
    print_banner,
    record_result,
    report,
    synthetic_exact_model,
)

ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

SEED = 13
CLIENTS = 8
REQUESTS_PER_CLIENT = 40
BATCH_VALUES = 64
#: Conservative absolute floor — loopback asyncio round trips with a
#: compiled-engine apply per request run far above this everywhere.
MIN_REQUESTS_PER_SECOND = 100.0


@pytest.fixture(scope="module")
def serve_model():
    dataset = address_dataset(
        scale=BASE_SCALES["Address"] * SCALE * 0.3, seed=SEED
    )
    table = dataset.fresh_table()
    standardizer = Standardizer(table, dataset.column)
    oracle = GroundTruthOracle(
        dataset.canonical, standardizer.store, seed=SEED
    )
    log = standardizer.run(oracle, BUDGETS["Address"])
    model = build_model(
        log,
        dataset.column,
        name="address-serve-bench",
        provenance={"dataset": dataset.name, "seed": SEED},
    )
    values = list(table.column_values(dataset.column))
    batch = (values * ((BATCH_VALUES // max(1, len(values))) + 1))[
        :BATCH_VALUES
    ]
    return model, batch


def test_serve_throughput_under_hot_reload(
    benchmark, serve_model, tmp_path
):
    model, batch = serve_model
    # v2 = the identity variant: observably different outputs, so a
    # reply's claimed version is checkable against offline engines.
    payload = model.to_dict()
    payload["groups"] = []
    identity = TransformationModel.from_dict(payload)
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, "addr")
    expected = {
        1: ApplyEngine(model).apply_values(batch),
        2: ApplyEngine(identity).apply_values(batch),
    }

    async def hammer():
        server = ServeServer(
            ModelSource(registry=registry, name="addr"),
            poll_interval=0.02,
        )
        await server.start("127.0.0.1", 0)
        host, port = server.address
        total = CLIENTS * REQUESTS_PER_CLIENT
        published = asyncio.Event()

        async def publisher():
            # Let half the load land on v1 first, then publish and wait
            # for the registry poller's swap to actually install before
            # releasing the second half — so traffic against both
            # versions is guaranteed even on a single slow core.
            await asyncio.sleep(0.0)
            while server._m_requests.value < total // 2:
                await asyncio.sleep(0.005)
            registry.save(identity, "addr")
            while server.source.current()[0] < 2:
                await asyncio.sleep(0.005)
            published.set()

        async def client_session():
            reader, writer = await asyncio.open_connection(host, port)
            line = (
                json.dumps({"op": "apply", "values": batch}) + "\n"
            ).encode()
            versions = set()
            try:
                for i in range(REQUESTS_PER_CLIENT):
                    if i == REQUESTS_PER_CLIENT // 2:
                        await published.wait()
                    writer.write(line)
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    assert reply["ok"], reply
                    version = reply["version"]
                    versions.add(version)
                    assert reply["values"] == expected[version], (
                        f"reply does not match offline v{version}"
                    )
            finally:
                writer.close()
                await writer.wait_closed()
            return versions

        try:
            publish_task = asyncio.create_task(publisher())
            started = time.perf_counter()
            version_sets = await asyncio.gather(
                *(client_session() for _ in range(CLIENTS))
            )
            elapsed = time.perf_counter() - started
            await publish_task
            versions_seen = set().union(*version_sets)
            stats = {
                "elapsed": elapsed,
                "requests": total,
                "replies_ok": server._m_replies_ok.value,
                "replies_error": server._m_replies_err.value,
                "reloads": server._m_reloads.value,
                "versions_seen": sorted(versions_seen),
            }
        finally:
            await server.stop()
        return stats

    stats = benchmark.pedantic(
        lambda: asyncio.run(hammer()), rounds=1, iterations=1
    )

    total = CLIENTS * REQUESTS_PER_CLIENT
    requests_per_second = total / stats["elapsed"]
    rows_per_second = requests_per_second * BATCH_VALUES

    print_banner("Serve throughput under concurrent load + hot reload")
    report(
        f"clients={CLIENTS}  requests={total}  batch={BATCH_VALUES} values\n"
        f"elapsed          : {stats['elapsed']:.3f}s\n"
        f"requests/second  : {requests_per_second:,.0f}\n"
        f"rows/second      : {rows_per_second:,.0f}\n"
        f"mid-run reloads  : {stats['reloads']} "
        f"(versions answered: {stats['versions_seen']})\n"
        f"errors           : {stats['replies_error']}"
    )
    record_result(
        "serve_throughput",
        directions={
            "clients": "info",
            "requests": "info",
            "batch_values": "info",
            "elapsed_seconds": "lower",
            "requests_per_second": "higher",
            "rows_per_second": "higher",
            "reloads": "info",
        },
        clients=CLIENTS,
        requests=total,
        batch_values=BATCH_VALUES,
        elapsed_seconds=round(stats["elapsed"], 4),
        requests_per_second=round(requests_per_second, 1),
        rows_per_second=round(rows_per_second, 1),
        reloads=stats["reloads"],
    )

    # Correctness gates are unconditional: zero dropped, zero errors,
    # and the mid-run publish really swapped under the load.
    assert stats["replies_ok"] == total
    assert stats["replies_error"] == 0
    assert stats["versions_seen"] == [1, 2], (
        "hot swap not observed mid-run"
    )
    if ASSERT_SPEEDUP:
        assert requests_per_second >= MIN_REQUESTS_PER_SECOND, (
            f"serving tier sustained only {requests_per_second:.0f} "
            f"req/s (floor {MIN_REQUESTS_PER_SECOND})"
        )


#: Exact-rule count for the swap-latency bench — large enough that the
#: compile is a visible share of one registry poll.
SWAP_RULES = int(6000 * max(0.25, min(1.0, SCALE)))
SWAP_ROUNDS = 3


def test_hot_swap_latency(tmp_path):
    """One registry poll that finds a new full-swap publish: load
    the artifact and compile a fresh engine from it.  The swapped-in
    engine must serve byte-identically to an offline engine over the
    same version."""
    versions = [
        synthetic_exact_model(SWAP_RULES, name=f"swap-v{i}", salt=str(i))
        for i in range(SWAP_ROUNDS + 1)
    ]
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(versions[0], "swap")
    source = ModelSource(registry=registry, name="swap")
    source.current()  # initial load, outside the measured window
    best = float("inf")
    for i, model in enumerate(versions[1:], start=1):
        registry.save(model, "swap")
        start = time.perf_counter()
        swapped = source.refresh()
        best = min(best, time.perf_counter() - start)
        assert swapped == i + 1, "publish must have swapped"
    sample = [g.members[0].lhs for g in versions[-1].groups[:32]]
    engine = source.current()[1].engine(versions[-1].column)
    assert engine.apply_values(sample) == ApplyEngine(
        versions[-1]
    ).apply_values(sample), "swapped engine must serve byte-identical outputs"

    print_banner("Hot-swap latency: one registry poll over a new publish")
    report(f"exact rules        : {SWAP_RULES}")
    report(f"swap               : {best * 1000:8.1f}ms")

    record_result(
        "serve_hot_swap",
        directions={"rules": "info", "swap_seconds": "lower"},
        rules=SWAP_RULES,
        swap_seconds=round(best, 4),
    )
