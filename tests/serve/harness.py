"""Harness for the network serving tier tests.

Three layers:

* :class:`ServeClient` — a line-protocol client (one JSON request out,
  one JSON reply in) over an asyncio stream;
* :func:`start_test_server` / :func:`spawn_cli_server` — an in-process
  :class:`~repro.serve.server.ServeServer` on an ephemeral port, and a
  real ``python -m repro serve --listen`` subprocess (whose bound port
  is parsed from the stderr banner) for kill/restart fault tests;
* :class:`FaultInjector` — the misbehaving clients and broken
  publishers the fault suite throws at a live server: aborted
  connections mid-request, slow-loris byte drips, oversized lines,
  torn (half-written) model files in the registry, SIGKILL.

Tests drive everything with ``asyncio.run`` — no external async test
plugin is assumed.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.registry import slugify
from repro.serve.server import ServeServer

REPO_ROOT = Path(__file__).resolve().parents[2]
BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


class ServeClient:
    """One connection speaking the newline-delimited JSON protocol."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def read_json(self, timeout=10.0):
        line = await asyncio.wait_for(self.reader.readline(), timeout)
        if not line:
            raise EOFError("server closed the connection")
        return json.loads(line)

    async def rpc(self, timeout=10.0, **request):
        await self.send_raw((json.dumps(request) + "\n").encode())
        return await self.read_json(timeout=timeout)

    async def close(self):
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def abort(self):
        """Hard-drop the connection without a FIN handshake."""
        self.writer.transport.abort()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *_exc):
        await self.close()


async def start_test_server(source, **kwargs) -> ServeServer:
    """A started in-process server on 127.0.0.1:<ephemeral>."""
    server = ServeServer(source, **kwargs)
    await server.start("127.0.0.1", 0)
    return server


async def wait_for_version(server, version, timeout=10.0) -> None:
    """Block until the follow poller has swapped ``version`` (or a
    newer one) in; fail after ``timeout`` seconds.  Tests that need
    traffic on both sides of a swap wait here instead of sleeping."""
    deadline = time.monotonic() + timeout
    while server.source.current()[0] < version:
        assert time.monotonic() < deadline, f"v{version} never swapped in"
        await asyncio.sleep(0.005)


def spawn_cli_server(args, timeout=30.0):
    """Launch ``python -m repro serve --listen 127.0.0.1:0 <args>`` and
    return ``(proc, host, port)`` once the stderr banner announces the
    bound address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"]
        + list(args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + timeout
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline().decode("utf-8", "replace")
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(
                    "serve subprocess died before binding: "
                    + proc.stderr.read().decode("utf-8", "replace")
                )
            time.sleep(0.01)
            continue
        banner += line
        match = BANNER.search(banner)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise RuntimeError(f"no listening banner within {timeout}s: {banner!r}")


def stop_cli_server(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10)
    if proc.stdout:
        proc.stdout.close()
    if proc.stderr:
        proc.stderr.close()


class FaultInjector:
    """Misbehaving clients and broken publishers, aimed at one server."""

    def __init__(self, host, port):
        self.host = host
        self.port = port

    async def abort_mid_request(self, payload=b'{"op": "ping"'):
        """Open, send a partial request, and hard-drop the connection."""
        client = await ServeClient.connect(self.host, self.port)
        await client.send_raw(payload)
        client.abort()

    async def disconnect_after_request(self, request=None):
        """Send a full request but vanish before reading the reply."""
        client = await ServeClient.connect(self.host, self.port)
        line = json.dumps(request or {"op": "ping"}) + "\n"
        await client.send_raw(line.encode())
        client.abort()

    async def slow_loris(self, request=None, chunk=2, delay=0.01):
        """Drip a request byte-by-byte; returns the reply (or None if
        the server idle-closed us first — also a correct outcome)."""
        data = (json.dumps(request or {"op": "ping"}) + "\n").encode()
        client = await ServeClient.connect(self.host, self.port)
        try:
            for i in range(0, len(data), chunk):
                await client.send_raw(data[i : i + chunk])
                await asyncio.sleep(delay)
            return await client.read_json()
        except (EOFError, ConnectionError):
            return None
        finally:
            await client.close()

    async def oversized(self, size):
        """Send one request line larger than the server's limit;
        returns the error reply (the server must answer, then close)."""
        junk = json.dumps({"op": "apply", "value": "x" * size}) + "\n"
        async with await ServeClient.connect(self.host, self.port) as client:
            await client.send_raw(junk.encode())
            reply = await client.read_json()
            # The connection must now be closed server-side.
            follow_up = await asyncio.wait_for(
                client.reader.readline(), timeout=10.0
            )
            assert follow_up == b"", "oversized connection stayed open"
            return reply

    @staticmethod
    def torn_publish(registry_root, name, payload=b'{"kind": "repro'):
        """Plant a half-written model file as the newest version —
        what a publisher crash *between* open and atomic rename can
        never produce, but a broken publisher writing in place would.
        The serving tier must skip it and keep answering."""
        slug_dir = Path(registry_root) / slugify(name)
        versions = [
            int(m.group(1))
            for m in (
                re.match(r"^v(\d+)\.json$", p.name)
                for p in slug_dir.glob("v*.json")
            )
            if m
        ]
        torn = slug_dir / f"v{max(versions, default=0) + 1}.json"
        torn.write_bytes(payload)
        return torn

    @staticmethod
    def kill(proc):
        """SIGKILL — no shutdown handlers, no flush, nothing."""
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
