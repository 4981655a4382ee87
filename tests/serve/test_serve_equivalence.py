"""Serve == offline equivalence: the network tier must answer
byte-identically to :meth:`ApplyEngine.apply_values` run offline
against whichever model version the reply claims — including while
versions are being hot-swapped under the requests.
"""

import asyncio

from repro.serve import ApplyEngine, ModelRegistry, ModelSource

from harness import ServeClient, start_test_server, wait_for_version


def run(coro):
    return asyncio.run(coro)


def test_served_answers_match_offline_engine(
    learned_model, address_dataset
):
    offline = ApplyEngine(learned_model)
    values = list(
        address_dataset.fresh_table().column_values(address_dataset.column)
    )[:300]

    async def scenario():
        server = await start_test_server(ModelSource(model=learned_model))
        try:
            async with await ServeClient.connect(*server.address) as client:
                reply = await client.rpc(op="apply", values=values)
                assert reply["ok"]
                assert reply["values"] == offline.apply_values(values)
                for value in values[:25]:
                    one = await client.rpc(op="apply", value=value)
                    assert one["value"] == offline.transform(value)
        finally:
            await server.stop()

    run(scenario())


def test_responses_after_hot_swap_equal_a_fresh_engine(
    learned_model, identity_model, changing_values, tmp_path
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "addr")

    async def scenario():
        server = await start_test_server(
            ModelSource(registry=registry, name="addr"),
            poll_interval=0.05,
        )
        try:
            async with await ServeClient.connect(*server.address) as client:
                before = await client.rpc(op="apply", values=changing_values)
                assert before["version"] == 1
                assert before["values"] == ApplyEngine(
                    learned_model
                ).apply_values(changing_values)

                registry.save(identity_model, "addr")
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if (await client.rpc(op="ping"))["version"] == 2:
                        break
                after = await client.rpc(op="apply", values=changing_values)
                assert after["version"] == 2
                # Exactly what a fresh engine over the fresh load gives.
                fresh = ApplyEngine(registry.load("addr", 2))
                assert after["values"] == fresh.apply_values(changing_values)
                # ...and visibly different from v1 (the swap is real).
                assert after["values"] != before["values"]
        finally:
            await server.stop()

    run(scenario())


def test_no_torn_reads_mix_versions_within_one_batch(
    learned_model, identity_model, changing_values, tmp_path
):
    """Requests hammered across many hot swaps: every reply must equal
    the offline output of the single version it claims — a reply mixing
    two versions' outputs matches neither and fails."""
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "addr")
    models = {1: learned_model}
    values = changing_values
    expected = {
        True: ApplyEngine(learned_model).apply_values(values),
        False: ApplyEngine(identity_model).apply_values(values),
    }
    assert expected[True] != expected[False]

    async def scenario():
        server = await start_test_server(
            ModelSource(registry=registry, name="addr"),
            poll_interval=0.02,
        )

        async def publisher():
            # Alternate learned/identity publishes under the load, then
            # wait for the follow poller to swap the last one in.
            for i in range(12):
                model = identity_model if i % 2 == 0 else learned_model
                path = registry.save(model, "addr")
                last = int(path.stem[1:])
                models[last] = model
                await asyncio.sleep(0.04)
            await wait_for_version(server, last)

        try:
            async with await ServeClient.connect(*server.address) as client:
                seen_versions = set()

                async def apply_and_check():
                    reply = await client.rpc(op="apply", values=values)
                    assert reply["ok"]
                    version = reply["version"]
                    seen_versions.add(version)
                    is_learned = models[version] is learned_model
                    assert reply["values"] == expected[is_learned], (
                        f"reply at claimed version {version} does not "
                        "match that version's offline output"
                    )

                await apply_and_check()  # before any publish: v1
                publish_task = asyncio.create_task(publisher())
                while not publish_task.done():
                    await apply_and_check()
                await publish_task
                await apply_and_check()  # after the last swap
                assert len(seen_versions) >= 2, (
                    f"load never observed a swap (saw {seen_versions})"
                )
        finally:
            await server.stop()

    run(scenario())
