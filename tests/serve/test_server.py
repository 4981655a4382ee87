"""Core protocol tests for the asyncio network serving tier.

The contract under test (docs/serving.md): every accepted request gets
exactly one reply or a clean close; replies echo ``id``; malformed
input answers ``ok: false`` without killing the connection; bundle
mode serves per-column and whole-record applies against one version
snapshot; lookups and pushes track the golden delta log.
"""

import asyncio
import json

import pytest

from repro.serve import (
    ApplyEngine,
    BundleApplyEngine,
    ModelRegistry,
    ModelSource,
    build_bundle,
    parse_listen,
)
from repro.stream.deltas import GoldenDeltaLog

from harness import ServeClient, start_test_server


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def static_source(learned_model):
    return ModelSource(model=learned_model)


def test_ping_version_apply_roundtrip(static_source, learned_model):
    async def scenario():
        server = await start_test_server(static_source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                pong = await client.rpc(op="ping", id=7)
                assert pong == {
                    "ok": True,
                    "pong": True,
                    "version": 1,
                    "id": 7,
                }
                version = await client.rpc(op="version")
                assert version["mode"] == "model"
                assert version["column"] == learned_model.column
                reply = await client.rpc(op="apply", value="9th St")
                assert reply["ok"] and reply["version"] == 1
                batch = await client.rpc(
                    op="apply", values=["9th St", "Main Street"]
                )
                assert batch["ok"] and len(batch["values"]) == 2
        finally:
            await server.stop()

    run(scenario())


def test_every_request_gets_exactly_one_reply(static_source):
    async def scenario():
        server = await start_test_server(static_source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                n = 50
                payload = b"".join(
                    (json.dumps({"op": "ping", "id": i}) + "\n").encode()
                    for i in range(n)
                )
                # One write carrying 50 pipelined requests.
                await client.send_raw(payload)
                ids = [
                    (await client.read_json())["id"] for i in range(n)
                ]
                assert ids == list(range(n))
        finally:
            await server.stop()

    run(scenario())


def test_malformed_and_unknown_requests_answer_not_kill(static_source):
    async def scenario():
        server = await start_test_server(static_source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                bad = await client.rpc(op="frobnicate")
                assert not bad["ok"] and "unknown op" in bad["error"]
                await client.send_raw(b"this is not json\n")
                parse = await client.read_json()
                assert not parse["ok"] and "bad request" in parse["error"]
                await client.send_raw(b'["a", "list"]\n')
                shape = await client.read_json()
                assert not shape["ok"]
                await client.send_raw(b"\n\n")  # blank lines are skipped
                still = await client.rpc(op="ping")
                assert still["ok"], "connection died after bad input"
        finally:
            await server.stop()

    run(scenario())


def test_partial_line_at_eof_is_a_clean_close(static_source):
    """A request never terminated by a newline was never accepted: the
    server closes without replying (and without counting a request)."""

    async def scenario():
        server = await start_test_server(static_source)
        try:
            client = await ServeClient.connect(*server.address)
            await client.send_raw(b'{"op": "ping"')
            client.writer.write_eof()
            tail = await asyncio.wait_for(client.reader.read(), 10.0)
            assert tail == b""
            await client.close()
            assert server._m_requests.value == 0
        finally:
            await server.stop()

    run(scenario())


def test_shutdown_op_stops_the_server(static_source):
    async def scenario():
        server = await start_test_server(static_source)
        client = await ServeClient.connect(*server.address)
        bye = await client.rpc(op="shutdown")
        assert bye["ok"] and bye["bye"]
        await asyncio.wait_for(server.wait_stopped(), 10.0)
        await server.stop()
        await client.close()
        with pytest.raises(OSError):
            await asyncio.wait_for(
                asyncio.open_connection(*server.address), 5.0
            )

    run(scenario())


def test_stats_and_metrics_ops(static_source):
    async def scenario():
        server = await start_test_server(static_source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                for _ in range(3):
                    await client.rpc(op="apply", value="9th St")
                stats = await client.rpc(op="stats")
                assert stats["ok"]
                serve = stats["serve"]
                # The stats request itself is counted before dispatch.
                assert serve["requests"] == 4
                assert serve["replies_ok"] == 3
                assert serve["latency"]["count"] == 3
                assert serve["latency"]["p99"] >= serve["latency"]["p50"]
                assert "engine" in stats
                prom = await client.rpc(op="metrics")
                assert "serve_requests" in prom["prometheus"]
        finally:
            await server.stop()

    run(scenario())


def test_bundle_mode_column_record_and_unknown_column(
    learned_model, tmp_path
):
    bundle = build_bundle(
        {learned_model.column: learned_model}, name="addresses"
    )
    source = ModelSource(model=bundle)
    offline = BundleApplyEngine(bundle)
    column = learned_model.column

    async def scenario():
        server = await start_test_server(source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                version = await client.rpc(op="version")
                assert version["mode"] == "bundle"
                assert version["columns"] == [column]
                one = await client.rpc(op="apply", column=column, value="9th St")
                assert one["value"] == offline.apply_column(column, ["9th St"])[0]
                many = await client.rpc(
                    op="apply", column=column, values=["9th St", "Elm"]
                )
                assert many["values"] == offline.apply_column(
                    column, ["9th St", "Elm"]
                )
                record = await client.rpc(
                    op="apply", record={column: "9th St", "city": "NYC"}
                )
                assert record["record"]["city"] == "NYC"
                assert record["record"][column] == one["value"]
                # The network tier refuses unknown columns instead of
                # silently passing them through.
                unknown = await client.rpc(
                    op="apply", column="nope", value="x"
                )
                assert not unknown["ok"] and "unknown column" in unknown["error"]
                missing = await client.rpc(op="apply")
                assert not missing["ok"]
        finally:
            await server.stop()

    run(scenario())


def test_lookup_and_subscribe_track_the_delta_log(learned_model, tmp_path):
    from repro.serve.server import GoldenTable

    log_path = tmp_path / "golden-deltas.jsonl"
    with GoldenDeltaLog(log_path) as log:
        log.append(
            {"k1": {"address": "9th Street"}}, [], batch=0, bundle_version=1
        )

    source = ModelSource(model=learned_model)

    async def scenario():
        server = await start_test_server(
            source, golden=GoldenTable(log_path), poll_interval=0.05
        )
        try:
            async with await ServeClient.connect(*server.address) as client:
                hit = await client.rpc(op="lookup", key="k1")
                assert hit["found"]
                assert hit["record"] == {"address": "9th Street"}
                miss = await client.rpc(op="lookup", key="k2")
                assert not miss["found"] and miss["ok"]
                sub = await client.rpc(op="subscribe")
                assert sub["subscribed"] and sub["seq"] == 1
                # A new batch published while subscribed is pushed.
                with GoldenDeltaLog(log_path) as log:
                    log.append(
                        {"k2": {"address": "Elm Avenue"}},
                        ["k1"],
                        batch=1,
                        bundle_version=2,
                    )
                push = await client.read_json()
                assert push["push"] == "golden" and push["seq"] == 2
                assert push["removed"] == ["k1"]
                # ...and the lookup table applied the same delta.
                gone = await client.rpc(op="lookup", key="k1")
                assert not gone["found"]
                now = await client.rpc(op="lookup", key="k2")
                assert now["record"] == {"address": "Elm Avenue"}
        finally:
            await server.stop()

    run(scenario())


def test_lookup_without_golden_log_is_an_error(static_source):
    async def scenario():
        server = await start_test_server(static_source)
        try:
            async with await ServeClient.connect(*server.address) as client:
                reply = await client.rpc(op="lookup", key="k")
                assert not reply["ok"]
                sub = await client.rpc(op="subscribe")
                assert not sub["ok"]
        finally:
            await server.stop()

    run(scenario())


def test_registry_source_serves_latest_and_skips_older(
    learned_model, identity_model, tmp_path
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "addr")
    registry.save(identity_model, "addr")
    source = ModelSource(registry=registry, name="addr")
    version, engine = source.current()
    assert version == 2
    # v2 is the identity variant: engine output == input everywhere.
    assert engine.transform("9th St") == "9th St"
    # Stable on repeated reads (cache hit, same object).
    assert source.current()[1] is engine


def test_parse_listen():
    assert parse_listen("127.0.0.1:7007") == ("127.0.0.1", 7007)
    assert parse_listen("localhost:0") == ("localhost", 0)
    with pytest.raises(ValueError):
        parse_listen("7007")
    with pytest.raises(ValueError):
        parse_listen(":7007")
    with pytest.raises(ValueError):
        parse_listen("host:port")
