"""``repro serve``: one server, two transports.

One JSON request per line in, one JSON response per line out, either
over stdin/stdout (:meth:`ServeServer.serve_lines`) or as a
stdlib-only :mod:`asyncio` JSON-over-TCP service (``--listen``).  Both
share one dispatcher, one :class:`ModelSource` and one sorted-key
reply encoder, so a request gets the same reply bytes on either.
Three moving parts:

* :class:`ModelSource` — loads the latest published bundle from a
  registry, compiles it, and **atomically swaps** engine instances
  forwards.  Every request captures one
  ``(version, engine)`` snapshot at dispatch, so a batch reply is
  always computed against a single model version even while a swap
  lands mid-flight — in-flight requests simply keep the instance they
  started with.  Torn or half-published artifacts are skipped (the
  loader walks versions downward to the newest *loadable* one), so a
  crashed publisher can never take the serving tier down;
* :class:`GoldenTable` — an in-memory golden-record table maintained
  by tailing the stream's golden delta log
  (:mod:`repro.stream.deltas`): per-batch changed-clusters-only rows,
  never a whole-table re-read.  Lookups answer from it; subscribed
  TCP connections get each delta pushed as a ``{"push": "golden",
  ...}`` line;
* :class:`ServeServer` — the op dispatcher, a registry poller that
  hot-swaps new versions without dropping requests (between requests
  on stdio), the TCP read loop with idle-timeout and request-size
  guards, and ``serve.*`` metrics/spans through :mod:`repro.obs`
  (request counts per op, reply outcomes, p50/p99 request latency,
  reload and push counters).

Delivery contract (TCP): every *accepted* request (one complete
newline-terminated line) gets exactly one reply, or the connection is
closed cleanly — never a silent drop, never two replies.  Oversized
requests get one error reply and a close (the line boundary is lost);
idle connections past the timeout are closed; a request that trips an
internal error is answered ``{"ok": false, ...}`` and serving
continues.  On stdio every non-blank line gets exactly one reply,
until EOF or a ``shutdown`` op.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import threading
import time
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..obs import NULL_OBS, MemorySink, Obs, prometheus_text
from .bundle import BundleApplyEngine, ModelBundle, as_bundle, load_artifact
from .model import TransformationModel
from .registry import ModelRegistry

PathLike = Union[str, Path]

#: Default cap on one request line; beyond it the request is answered
#: with an error and the connection closed (the framing is lost).
MAX_REQUEST_BYTES = 1 << 20

#: Artifact-load failures the source treats as "skip this version":
#: torn JSON, foreign kinds, missing files mid-swap, bad programs.
_LOAD_ERRORS = (OSError, ValueError, KeyError, re.error)


def encode_reply(response: Dict) -> bytes:
    """One protocol line: sorted-key JSON, ``\n``-terminated, UTF-8."""
    return (
        json.dumps(response, ensure_ascii=False, sort_keys=True) + "\n"
    ).encode("utf-8")


class ModelSource:
    """Loads, compiles, and atomically swaps the served engine.

    The served ``(version, engine)`` lives in one :attr:`snapshot`
    tuple.  A **static** source (``model``) sets it at construction and
    never changes it.  A **registry** source (``registry`` + ``name``)
    loads it on the first :meth:`current`; after that only
    :meth:`refresh` — the server's poller — changes it, and only
    forwards.  Every artifact compiles to a
    :class:`~repro.serve.bundle.BundleApplyEngine`; a bare model is
    served as its one-column bundle.

    Swaps always install a *fresh* engine instance — never an in-place
    :meth:`~repro.serve.engine.ApplyEngine.reload` — so an in-flight
    request holding the old instance computes its whole reply against
    one consistent version.  Compiling the fresh engine takes time
    linear in the artifact's rules, like parsing the artifact does.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
        model: Optional[Union[TransformationModel, ModelBundle]] = None,
        use_programs: bool = True,
        obs=NULL_OBS,
        model_version: int = 1,
    ) -> None:
        if model is None and (registry is None or name is None):
            raise ValueError(
                "ModelSource needs a registry+name or a preloaded model"
            )
        self.registry = registry if model is None else None
        self.name = name
        self.use_programs = use_programs
        self.obs = obs if obs is not None else NULL_OBS
        self.load_errors = 0
        self.last_load_error: Optional[str] = None
        self._lock = threading.Lock()
        self.snapshot: Optional[Tuple[int, BundleApplyEngine]] = None
        if model is not None:
            self.snapshot = (model_version, self._compile(as_bundle(model)))

    def _compile(self, bundle: ModelBundle) -> BundleApplyEngine:
        return BundleApplyEngine(
            bundle, use_programs=self.use_programs, obs=self.obs
        )

    def current(self) -> Tuple[int, BundleApplyEngine]:
        """The ``(version, engine)`` snapshot requests dispatch against."""
        if self.snapshot is None:
            self.refresh()
            if self.snapshot is None:
                raise FileNotFoundError(
                    f"no loadable version of {self.name!r} "
                    f"under {self.registry.root}"
                )
        return self.snapshot

    def refresh(self) -> Optional[int]:
        """Swap in the newest loadable version newer than the served
        one (the poller's path; safe from any thread).  Returns the new
        version when a swap happened, else ``None``.

        Versions are tried newest-first down to the served one, so a
        swap only ever moves forwards; unloadable files (torn
        publishes) are skipped and counted in :attr:`load_errors` — a
        crashed publisher degrades freshness, never availability.
        """
        if self.registry is None:
            return None
        with self._lock:
            served = self.snapshot[0] if self.snapshot is not None else 0
            for version in reversed(self.registry.versions(self.name)):
                if version <= served:
                    break
                try:
                    artifact = load_artifact(
                        self.registry.path(self.name, version)
                    )
                except _LOAD_ERRORS as exc:
                    self.load_errors += 1
                    self.last_load_error = f"v{version}: {exc}"
                    continue
                self.snapshot = (version, self._compile(artifact))
                return version
        return None


class GoldenTable:
    """``cluster key -> column -> golden value``, tailed from a delta
    log (missing file = empty table that fills in as the stream runs)."""

    def __init__(self, path: PathLike) -> None:
        # Lazy: importing repro.stream pulls in the consolidator, which
        # imports this package.
        from ..stream.deltas import GoldenDeltaReader

        self.path = Path(path)
        self._reader = GoldenDeltaReader(self.path)
        self.records: Dict[str, Dict[str, Optional[str]]] = {}
        self.was_reset = False

    @property
    def seq(self) -> int:
        """Sequence number of the last applied delta row."""
        return self._reader.seq

    def refresh(self) -> List[Dict]:
        """Apply any new delta rows; returns them (for push fan-out).

        Removals apply before changes (the writer's contract), and a
        log that was archived and restarted resets the table first.
        """
        rows = self._reader.poll()
        if self._reader.reset:
            self.records.clear()
            self.was_reset = True
        for row in rows:
            for key in row.get("removed", ()):
                self.records.pop(key, None)
            changed = row.get("changed", {})
            if isinstance(changed, dict):
                for key, values in changed.items():
                    if isinstance(values, dict):
                        self.records[key] = dict(values)
        return rows

    def lookup(self, key: str) -> Optional[Dict[str, Optional[str]]]:
        record = self.records.get(key)
        return dict(record) if record is not None else None


class ServeServer:
    """The serving tier: one dispatcher behind the stdio transport
    (:meth:`serve_lines`) and the asyncio TCP transport (:meth:`start`
    / :meth:`serve`).  See the module docstring for the protocol and
    delivery contract."""

    #: Ops the dispatcher answers.  Metrics label any other op
    #: ``"unknown"``, so client-chosen strings cannot mint series.
    OPS = frozenset(
        "apply lookup metrics ping shutdown stats subscribe version".split()
    )

    def __init__(
        self,
        source: ModelSource,
        golden: Optional[GoldenTable] = None,
        obs: Optional[Obs] = None,
        poll_interval: float = 0.25,
        idle_timeout: Optional[float] = None,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        snapshot_interval: Optional[float] = None,
    ) -> None:
        self.source = source
        self.golden = golden
        # Latency tracking and the stats op need real instruments even
        # when nobody asked for a metrics file.
        self.obs = obs if obs is not None and obs.enabled else Obs(
            sink=MemorySink()
        )
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.max_request_bytes = max_request_bytes
        self.snapshot_interval = snapshot_interval

        metrics = self.obs.metrics
        self._m_requests = metrics.counter("serve.requests")
        self._m_replies_ok = metrics.counter("serve.replies", ok="true")
        self._m_replies_err = metrics.counter("serve.replies", ok="false")
        self._m_latency = metrics.histogram(
            "serve.request_seconds", deterministic=False
        )
        self._m_conns = metrics.gauge(
            "serve.connections", deterministic=False
        )
        self._m_conns_opened = metrics.counter("serve.connections_opened")
        self._m_conns_closed = metrics.counter("serve.connections_closed")
        self._m_oversized = metrics.counter("serve.oversized")
        self._m_internal = metrics.counter("serve.internal_errors")
        self._m_reloads = metrics.counter(
            "serve.reloads", deterministic=False
        )
        self._m_reload_errors = metrics.counter(
            "serve.reload_errors", deterministic=False
        )
        self._m_pushes = metrics.counter(
            "serve.pushes", deterministic=False
        )
        self._m_subscriber_drops = metrics.counter(
            "serve.subscriber_drops", deterministic=False
        )
        self._m_golden_seq = metrics.gauge(
            "serve.golden_seq", deterministic=False
        )

        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._subscribers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._bg_tasks: List[asyncio.Task] = []
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, warm the engine, and launch the background loops."""
        self._stopped = asyncio.Event()
        self._warm()
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=self.max_request_bytes
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.source.registry is not None:
            self._bg_tasks.append(
                asyncio.create_task(self._reload_loop())
            )
        if self.golden is not None:
            self._bg_tasks.append(
                asyncio.create_task(self._golden_loop())
            )
        if self.snapshot_interval:
            self._bg_tasks.append(
                asyncio.create_task(self._snapshot_loop())
            )
        self.obs.event(
            "serve.listening", host=self.address[0], port=self.address[1]
        )

    def request_stop(self) -> None:
        """Ask the server to stop (idempotent; safe from handlers)."""
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, let in-flight requests finish, close all."""
        self.request_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._bg_tasks:
            task.cancel()
        for task in self._bg_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._bg_tasks.clear()
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=2.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self.obs.flush_snapshot()

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """start() + block until a shutdown op / request_stop()."""
        await self.start(host, port)
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    def serve_lines(
        self, in_stream: Iterable[bytes], out_stream: IO[bytes]
    ) -> int:
        """The stdio transport: answer each non-blank line of the
        binary ``in_stream`` on ``out_stream`` until EOF or a
        ``shutdown`` op, then flush the metrics snapshot; returns the
        number of requests answered.  Between requests the registry and
        golden log are polled at most once per ``poll_interval``.
        ``subscribe`` is refused: nothing can be pushed to stdio."""
        self._warm()
        polled = time.monotonic()
        served = 0
        try:
            for line in in_stream:
                if not line.strip():
                    continue
                if time.monotonic() - polled >= self.poll_interval:
                    self._refresh_source()
                    if self.golden is not None:
                        self._refresh_golden()
                    polled = time.monotonic()
                started = time.perf_counter()
                response, op = self._answer(line, can_push=False)
                out_stream.write(encode_reply(response))
                out_stream.flush()
                self._account_reply(response, started)
                served += 1
                if op == "shutdown" and response.get("ok"):
                    break
        finally:
            self.obs.flush_snapshot()
        return served

    # -- polling -----------------------------------------------------------

    def _warm(self) -> None:
        """Fail fast (and warm the compile) before the first request."""
        self.source.current()
        if self.golden is not None:
            self._refresh_golden()

    def _refresh_source(self) -> None:
        """Poll the registry once; count swaps and load errors."""
        before_errors = self.source.load_errors
        try:
            swapped = self.source.refresh()
        except Exception as exc:
            self._m_reload_errors.inc()
            self.obs.event("serve.reload_error", error=str(exc))
            return
        if self.source.load_errors > before_errors:
            self._m_reload_errors.inc(
                self.source.load_errors - before_errors
            )
        if swapped is not None:
            self._m_reloads.inc()
            self.obs.event("serve.reload", version=swapped)

    def _refresh_golden(self) -> List[Dict]:
        """Apply new golden delta rows; returns them (for pushes)."""
        try:
            rows = self.golden.refresh()
        except Exception as exc:
            self.obs.event("serve.golden_error", error=str(exc))
            return []
        self._m_golden_seq.set(self.golden.seq)
        return rows

    async def _reload_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            # Load + compile off-loop; the swap itself is one attribute
            # rebind inside the source.
            await loop.run_in_executor(None, self._refresh_source)

    async def _golden_loop(self) -> None:
        while True:
            await asyncio.sleep(self.poll_interval)
            rows = self._refresh_golden()
            if not rows or not self._subscribers:
                continue
            for row in rows:
                line = encode_reply(
                    {
                        "push": "golden",
                        "seq": row.get("seq"),
                        "bundle_version": row.get("bundle_version"),
                        "changed": row.get("changed", {}),
                        "removed": row.get("removed", []),
                    }
                )
                for writer in list(self._subscribers):
                    try:
                        writer.write(line)
                        self._m_pushes.inc()
                    except (ConnectionError, RuntimeError):
                        self._subscribers.discard(writer)
                        continue
                    # Never wait on one subscriber: one that stops
                    # reading is cut off instead of stalling the rest.
                    buffered = writer.transport.get_write_buffer_size()
                    if buffered > MAX_REQUEST_BYTES:
                        writer.transport.abort()
                        self._subscribers.discard(writer)
                        self._m_subscriber_drops.inc()

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            self.obs.flush_snapshot()

    # -- connections -------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._m_conns_opened.inc()
        self._m_conns.inc()
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished; nothing left to answer
        finally:
            self._subscribers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._m_conns.inc(-1)
            self._m_conns_closed.inc()
            self._conn_tasks.discard(task)

    async def _read_line(self, reader) -> Optional[bytes]:
        """One request line; None = close the connection (EOF, idle
        timeout, or an unframeable oversized request)."""
        try:
            if self.idle_timeout:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
            else:
                line = await reader.readline()
        except asyncio.TimeoutError:
            self.obs.metrics.counter(
                "serve.idle_closes", deterministic=False
            ).inc()
            return None
        except (asyncio.LimitOverrunError, ValueError):
            self._m_oversized.inc()
            return b"__OVERSIZED__"
        if not line:
            return None  # EOF
        if not line.endswith(b"\n"):
            # A partial line at EOF: never a complete (accepted)
            # request, so a clean close honors the contract.
            return None
        return line

    async def _connection_loop(self, reader, writer) -> None:
        while True:
            line = await self._read_line(reader)
            if line is None:
                return
            if line == b"__OVERSIZED__":
                # One reply, then close: the line boundary is gone, so
                # resynchronizing on this connection is impossible.
                await self._send(
                    writer,
                    {"ok": False, "error": "request too large"},
                )
                return
            if not line.strip():
                continue
            started = time.perf_counter()
            response, op = self._answer(line)
            await self._send(writer, response)
            self._account_reply(response, started)
            if op == "subscribe" and response.get("ok"):
                self._subscribers.add(writer)
            if op == "shutdown" and response.get("ok"):
                self.request_stop()
                return

    async def _send(self, writer, response: Dict) -> None:
        writer.write(encode_reply(response))
        await writer.drain()

    def _account_reply(self, response: Dict, started: float) -> None:
        """Count one sent reply and its latency (both transports)."""
        self._m_latency.observe(time.perf_counter() - started)
        if response.get("ok"):
            self._m_replies_ok.inc()
        else:
            self._m_replies_err.inc()

    # -- dispatch ----------------------------------------------------------

    def _answer(
        self, line: bytes, can_push: bool = True
    ) -> Tuple[Dict, str]:
        """Parse + dispatch one request line; never raises.  Returns
        the reply and the op's metric label (``""`` for a bad line)."""
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._m_requests.inc()
            self.obs.metrics.counter("serve.requests_bad").inc()
            return {"ok": False, "error": f"bad request: {exc}"}, ""
        op = str(request.get("op", "apply"))
        label = op if op in self.OPS else "unknown"
        self._m_requests.inc()
        self.obs.metrics.counter("serve.ops", op=label).inc()
        with self.obs.span("serve.request", op=label):
            try:
                response = self._dispatch(request, op, can_push)
            except Exception as exc:  # a handler bug must not kill serving
                self._m_internal.inc()
                response = {"ok": False, "error": f"internal error: {exc}"}
        if "id" in request:
            response["id"] = request["id"]
        return response, label

    def _dispatch(self, request: Dict, op: str, can_push: bool) -> Dict:
        version, engine = self.source.current()
        if op == "ping":
            return {"ok": True, "pong": True, "version": version}
        if op == "version":
            return {
                "ok": True,
                "version": version,
                "name": engine.bundle.name,
                "groups": engine.bundle.groups_confirmed,
                "columns": engine.columns,
            }
        if op == "stats":
            return self._stats_response(version, engine)
        if op == "metrics":
            return {
                "ok": True,
                "prometheus": prometheus_text(self.obs.metrics),
            }
        if op == "lookup":
            return self._lookup_response(request)
        if op == "subscribe":
            if not can_push:
                return {"ok": False, "error": "subscribe needs --listen"}
            if self.golden is None:
                return {
                    "ok": False,
                    "error": "no golden delta log configured",
                }
            return {"ok": True, "subscribed": True, "seq": self.golden.seq}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        if op == "apply":
            return self._apply_response(request, version, engine)
        return {"ok": False, "error": f"unknown op: {op!r}"}

    def _apply_response(
        self, request: Dict, version: int, engine: BundleApplyEngine
    ) -> Dict:
        """Answer a whole ``record``, or one column's ``values`` /
        ``value``, always against the one snapshot taken at dispatch.
        A one-column bundle needs no ``column``."""
        if "record" in request:
            record = request["record"]
            if not isinstance(record, dict) or any(
                not isinstance(k, str) or not isinstance(v, str)
                for k, v in record.items()
            ):
                return {
                    "ok": False,
                    "error": "record must map column names to strings",
                }
            return {
                "ok": True,
                "record": engine.apply_record(record),
                "version": version,
            }
        column = request.get("column")
        if column is None and len(engine.columns) == 1:
            [column] = engine.columns
        if not isinstance(column, str):
            return {
                "ok": False,
                "error": "apply needs 'column' or 'record'",
            }
        column_engine = engine.engine(column)
        if column_engine is None:
            return {
                "ok": False,
                "error": f"unknown column: {column!r} "
                f"(bundle has {engine.columns})",
            }
        if "values" in request:
            values = request["values"]
            if not isinstance(values, list) or any(
                not isinstance(v, str) for v in values
            ):
                return {"ok": False, "error": "values must be a string list"}
            outputs = column_engine.apply_values(values)
            changed = sum(1 for v, o in zip(values, outputs) if v != o)
            return {
                "ok": True,
                "values": outputs,
                "changed": changed,
                "version": version,
            }
        if "value" in request:
            value = request["value"]
            if not isinstance(value, str):
                return {"ok": False, "error": "value must be a string"}
            out = column_engine.transform(value)
            # apply_values mirrors its counters into obs; transform
            # leaves that to its caller.
            column_engine.sync_obs()
            return {"ok": True, "value": out, "version": version}
        return {"ok": False, "error": "apply needs 'value' or 'values'"}

    def _lookup_response(self, request: Dict) -> Dict:
        if self.golden is None:
            return {"ok": False, "error": "no golden delta log configured"}
        key = request.get("key")
        if not isinstance(key, str):
            return {"ok": False, "error": "lookup needs a string 'key'"}
        record = self.golden.lookup(key)
        return {
            "ok": True,
            "key": key,
            "found": record is not None,
            "record": record,
            "seq": self.golden.seq,
        }

    def _stats_response(
        self, version: int, engine: BundleApplyEngine
    ) -> Dict:
        latency = self._m_latency
        serve = {
            "requests": self._m_requests.value,
            "replies_ok": self._m_replies_ok.value,
            "replies_error": self._m_replies_err.value,
            "connections": self._m_conns.value,
            "connections_opened": self._m_conns_opened.value,
            "oversized": self._m_oversized.value,
            "internal_errors": self._m_internal.value,
            "reloads": self._m_reloads.value,
            "reload_errors": self._m_reload_errors.value,
            "load_errors": self.source.load_errors,
            "pushes": self._m_pushes.value,
            "subscribers": len(self._subscribers),
            "latency": {
                "count": latency.count,
                "p50": latency.p50,
                "p99": latency.p99,
            },
        }
        if self.golden is not None:
            serve["golden_seq"] = self.golden.seq
            serve["golden_records"] = len(self.golden.records)
        return {
            "ok": True,
            "version": version,
            "serve": serve,
            "engine": engine.stats(),
        }


def parse_listen(listen: str) -> Tuple[str, int]:
    """``host:port`` -> tuple; port 0 asks the OS for an ephemeral one."""
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--listen wants HOST:PORT (e.g. 127.0.0.1:7007), got {listen!r}"
        )
    return host, int(port)


def run_server(
    server: ServeServer,
    host: str,
    port: int,
    banner=None,
) -> int:
    """Run the server until a shutdown op or Ctrl-C (the CLI's path).

    ``banner(host, port)`` is called once the socket is bound — the CLI
    prints the actual address to stderr there, which is what lets
    ``--listen host:0`` callers (tests, supervisors) discover the port.
    """

    async def main() -> None:
        await server.start(host, port)
        if banner is not None:
            banner(*server.address)
        try:
            await server.wait_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; server closed", file=sys.stderr)
    return 0
