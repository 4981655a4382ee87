"""A subscriber that stops reading must not stall anyone else.

Golden-delta pushes fan out from one loop.  If that loop waited for
each subscriber's socket to drain, one client that stopped reading
would freeze pushes to every other subscriber and the lookup table
behind them.  The server instead cuts off a subscriber whose unsent
backlog passes ``MAX_REQUEST_BYTES`` and keeps pushing to the rest.
Every wait here is bounded, so a stalling server fails the test
instead of hanging it.
"""

import asyncio
import socket
import time

from repro.serve import ModelSource
from repro.serve.server import GoldenTable
from repro.stream.deltas import GoldenDeltaLog

from harness import ServeClient, start_test_server

#: Rows per append burst and bytes per row: each burst stays well under
#: the drop threshold, so only a client that stops reading piles up a
#: backlog past it.
BURST_ROWS = 16
ROW_BYTES = 32_000
BURSTS = 12


async def _stuck_subscriber(host, port):
    """Subscribe with a tiny receive buffer, then never read again."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    client = ServeClient(*await asyncio.open_connection(sock=sock))
    ack = await client.rpc(op="subscribe")
    assert ack["subscribed"]
    return client


async def _closed_by_server(client, timeout=10.0):
    """Drain whatever the server sent; True once it reaches EOF/reset."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            chunk = await asyncio.wait_for(client.reader.read(1 << 16), 1.0)
        except asyncio.TimeoutError:
            continue
        except ConnectionError:
            return True
        if not chunk:
            return True
    return False


def test_stalled_subscriber_is_dropped_and_others_keep_up(
    learned_model, tmp_path
):
    log_path = tmp_path / "golden-deltas.jsonl"
    with GoldenDeltaLog(log_path) as log:
        log.append({"k": {"address": "seed"}}, [], batch=0)

    async def scenario():
        server = await start_test_server(
            ModelSource(model=learned_model),
            golden=GoldenTable(log_path),
            poll_interval=0.02,
        )
        stuck = await _stuck_subscriber(*server.address)
        try:
            async with await ServeClient.connect(*server.address) as healthy:
                ack = await healthy.rpc(op="subscribe")
                assert ack["seq"] == 1
                seqs = []
                last_value = None
                with GoldenDeltaLog(log_path) as log:
                    for burst in range(BURSTS):
                        for i in range(BURST_ROWS):
                            n = burst * BURST_ROWS + i
                            last_value = f"{n}:" + "x" * ROW_BYTES
                            log.append(
                                {"k": {"address": last_value}}, [], batch=n
                            )
                        target = log.seq
                        # The reading subscriber gets every burst, in
                        # order, while the stuck one never reads.
                        while not seqs or seqs[-1] < target:
                            push = await healthy.read_json(timeout=10.0)
                            assert push["push"] == "golden"
                            seqs.append(push["seq"])
                assert seqs == list(range(2, target + 1))
                hit = await healthy.rpc(op="lookup", key="k")
                assert hit["record"] == {"address": last_value}
                assert hit["seq"] == target
            assert await _closed_by_server(stuck)
            drops = server.obs.metrics.counter(
                "serve.subscriber_drops", deterministic=False
            )
            assert drops.value == 1
        finally:
            stuck.abort()
            await server.stop()

    asyncio.run(scenario())
