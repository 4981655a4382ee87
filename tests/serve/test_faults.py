"""Fault-injection tests: the serving tier under hostile conditions.

Every scenario here is a thing that happens in production — clients
that vanish, drip, or flood; publishers that crash mid-write; a server
SIGKILLed mid-request — and the assertion is always the same shape:
the durable artifacts (registry, metrics file, delta log) stay
readable and the survivors keep getting correct answers.
"""

import asyncio
import json

from repro.obs.summary import iter_rows, validate_rows
from repro.serve import ApplyEngine, ModelRegistry, ModelSource

from harness import FaultInjector, ServeClient, spawn_cli_server, start_test_server, stop_cli_server


def run(coro):
    return asyncio.run(coro)


async def _settled(predicate, timeout=5.0, interval=0.02):
    """Poll an async-loop-friendly condition until true or timeout."""
    for _ in range(int(timeout / interval)):
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def test_vanishing_clients_leave_the_server_serving(learned_model):
    async def scenario():
        server = await start_test_server(ModelSource(model=learned_model))
        injector = FaultInjector(*server.address)
        try:
            for _ in range(5):
                await injector.abort_mid_request()
                await injector.disconnect_after_request(
                    {"op": "apply", "values": ["9th St"] * 50}
                )
            # Every aborted connection unwinds to closed state.
            assert await _settled(
                lambda: server._m_conns_closed.value
                == server._m_conns_opened.value
            ), "aborted connections never closed out"
            assert server._m_conns.value == 0
            # And a well-behaved client is entirely unaffected.
            async with await ServeClient.connect(*server.address) as client:
                reply = await client.rpc(op="apply", value="9th St")
                assert reply["ok"]
        finally:
            await server.stop()

    run(scenario())


def test_slow_loris_is_cut_off_while_fast_clients_proceed(learned_model):
    async def scenario():
        server = await start_test_server(
            ModelSource(model=learned_model), idle_timeout=0.3
        )
        injector = FaultInjector(*server.address)
        try:
            # ~40 bytes at 2 bytes per 60ms ≈ 1.2s > the 0.3s deadline:
            # the server must cut the drip off, not wait forever.
            loris = asyncio.create_task(
                injector.slow_loris(
                    {"op": "apply", "value": "9th St"}, chunk=2, delay=0.06
                )
            )
            async with await ServeClient.connect(*server.address) as client:
                for _ in range(10):
                    assert (await client.rpc(op="ping"))["ok"]
            assert await loris is None, "slow loris was served anyway"
            idle = server.obs.metrics.counter(
                "serve.idle_closes", deterministic=False
            )
            assert idle.value >= 1
        finally:
            await server.stop()

    run(scenario())


def test_oversized_request_one_error_reply_then_close(learned_model):
    async def scenario():
        server = await start_test_server(
            ModelSource(model=learned_model), max_request_bytes=4096
        )
        injector = FaultInjector(*server.address)
        try:
            reply = await injector.oversized(64 * 1024)
            assert not reply["ok"] and "too large" in reply["error"]
            assert server._m_oversized.value == 1
            # Under the limit still flows on a fresh connection.
            async with await ServeClient.connect(*server.address) as client:
                ok = await client.rpc(op="apply", value="x" * 1024)
                assert ok["ok"]
        finally:
            await server.stop()

    run(scenario())


def test_torn_publish_is_skipped_and_recovery_swaps_forward(
    learned_model, tmp_path
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
                assert (await client.rpc(op="ping"))["version"] == 1
                # A publisher crash leaves a half-written v2 behind.
                FaultInjector.torn_publish(tmp_path / "reg", "addr")
                assert await _settled(
                    lambda: server.source.load_errors >= 1
                ), "the poller never tried the torn file"
                reply = await client.rpc(op="apply", value="9th St")
                assert reply["ok"] and reply["version"] == 1
                # The next *completed* publish (v3 — the torn file
                # claimed v2's number) swaps in despite the wreck.
                registry.save(learned_model, "addr")
                assert await _settled(
                    lambda: server.source.current()[0] == 3
                ), "recovery publish never swapped in"
                assert (await client.rpc(op="ping"))["version"] == 3
        finally:
            await server.stop()

    run(scenario())


def test_sigkill_mid_request_leaves_artifacts_usable(
    learned_model, tmp_path
):
    """SIGKILL a real `repro serve --listen` subprocess while a request
    is in flight; the registry and the metrics file must both remain
    readable, and a restarted server must serve from them unchanged."""
    registry_root = tmp_path / "reg"
    ModelRegistry(registry_root).save(learned_model, "addr")
    metrics_path = tmp_path / "serve-metrics.jsonl"
    args = [
        "--registry",
        str(registry_root),
        "--name",
        "addr",
        "--metrics",
        str(metrics_path),
        "--snapshot-interval",
        "0.05",
    ]
    proc, host, port = spawn_cli_server(args)
    try:

        async def first_life():
            async with await ServeClient.connect(host, port) as client:
                for _ in range(5):
                    assert (await client.rpc(op="ping"))["ok"]
                # Leave a big batch in flight, then pull the plug.
                await client.send_raw(
                    (
                        json.dumps(
                            {"op": "apply", "values": ["9th St"] * 5000}
                        )
                        + "\n"
                    ).encode()
                )
                FaultInjector.kill(proc)

        run(first_life())
    finally:
        stop_cli_server(proc)

    # The metrics file survived the kill: every complete row parses
    # and conforms to the documented schema (a torn final line is the
    # recognized crash signature and is tolerated).
    rows = list(iter_rows(metrics_path))
    assert rows and rows[0]["type"] == "meta"
    assert validate_rows(rows) == []

    # The registry survived too: a second life serves the same model.
    proc2, host2, port2 = spawn_cli_server(args)
    try:

        async def second_life():
            async with await ServeClient.connect(host2, port2) as client:
                reply = await client.rpc(op="apply", value="9th St")
                assert reply["ok"] and reply["version"] == 1
                offline = ApplyEngine(
                    ModelRegistry(registry_root).load("addr")
                )
                assert reply["value"] == offline.transform("9th St")
                bye = await client.rpc(op="shutdown")
                assert bye["ok"]

        run(second_life())
        proc2.wait(timeout=10)
        assert proc2.returncode == 0
    finally:
        stop_cli_server(proc2)

    # After the clean shutdown the metrics file (appended by the
    # second life) still validates end-to-end.
    rows = list(iter_rows(metrics_path))
    assert validate_rows(rows) == []
    assert any(row["type"] == "snapshot" for row in rows)
