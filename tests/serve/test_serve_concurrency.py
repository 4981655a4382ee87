"""Concurrency regression: N asyncio clients hammer batch-apply while
``--follow`` hot swaps land underneath them.  Zero requests may be
dropped, every reply must be version-consistent, and the deterministic
``serve.*`` counters must land on exact, load-independent totals.
"""

import asyncio

from repro.serve import ApplyEngine, ModelRegistry, ModelSource

from harness import ServeClient, start_test_server, wait_for_version

CLIENTS = 8
REQUESTS_PER_CLIENT = 25
HALF = REQUESTS_PER_CLIENT // 2


def test_hammering_clients_during_hot_swaps_drop_nothing(
    learned_model, identity_model, changing_values, tmp_path
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "addr")
    models = {1: learned_model}
    values = changing_values
    expected = {
        id(learned_model): ApplyEngine(learned_model).apply_values(values),
        id(identity_model): ApplyEngine(identity_model).apply_values(values),
    }

    async def scenario():
        server = await start_test_server(
            ModelSource(registry=registry, name="addr"),
            poll_interval=0.02,
        )

        swapped = asyncio.Event()

        async def publisher():
            # The first half of every client's load lands on v1; the
            # second half is held until the follow poller has swapped
            # the first publish in, so both versions are answered
            # however the scheduler orders the tasks.
            while server._m_requests.value < CLIENTS * HALF:
                await asyncio.sleep(0.005)
            try:
                for i in range(10):
                    model = identity_model if i % 2 == 0 else learned_model
                    path = registry.save(model, "addr")
                    models[int(path.stem[1:])] = model
                    if i == 0:
                        await wait_for_version(server, 2)
                        swapped.set()
                    await asyncio.sleep(0.03)
            finally:
                swapped.set()  # never strand the clients on a failure

        async def hammer(client_index):
            """One client's full session; returns its replies."""
            replies = []
            async with await ServeClient.connect(*server.address) as client:
                for i in range(REQUESTS_PER_CLIENT):
                    if i == HALF:
                        await swapped.wait()
                    request_id = f"c{client_index}-r{i}"
                    reply = await client.rpc(
                        op="apply", values=values, id=request_id
                    )
                    replies.append((request_id, reply))
            return replies

        try:
            publish_task = asyncio.create_task(publisher())
            sessions = await asyncio.gather(
                *(hammer(i) for i in range(CLIENTS))
            )
            await publish_task

            versions_seen = set()
            for replies in sessions:
                # Zero dropped: every request answered, in order.
                assert len(replies) == REQUESTS_PER_CLIENT
                for request_id, reply in replies:
                    assert reply["ok"], reply
                    assert reply["id"] == request_id
                    version = reply["version"]
                    versions_seen.add(version)
                    assert reply["values"] == expected[id(models[version])]
            assert 1 in versions_seen and len(versions_seen) >= 2, (
                f"no swap observed under load (saw {versions_seen})"
            )

            # Deterministic counter totals: exact, not approximate.
            total = CLIENTS * REQUESTS_PER_CLIENT
            assert server._m_requests.value == total
            assert server._m_replies_ok.value == total
            assert server._m_replies_err.value == 0
            assert server._m_conns_opened.value == CLIENTS
            for _ in range(100):
                if server._m_conns_closed.value == CLIENTS:
                    break
                await asyncio.sleep(0.02)
            assert server._m_conns_closed.value == CLIENTS
            assert server._m_latency.count == total

            # The deterministic snapshot view carries the same totals.
            snapshot = server.obs.metrics.snapshot(deterministic_only=True)
            assert snapshot["serve.requests"] == total
            assert snapshot["serve.replies{ok=true}"] == total
            assert snapshot["serve.replies{ok=false}"] == 0
        finally:
            await server.stop()

    asyncio.run(scenario())
