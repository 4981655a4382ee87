"""Sharded execution of the streaming learner (``repro stream --shards``).

This module fans the streaming learner's grouping feed across a pool
of shard worker processes without giving up two properties the whole
subsystem is built on:

* **determinism** — the same batch sequence must publish byte-identical
  models at any shard count, and
* **oracle frugality** — sharding must not add a single question.

Both hold because the incremental grouper is a lazy top-k merge over
independent per-structure-bucket sources.  Each learn round bin-packs
whole buckets onto the shards, largest first
(:meth:`ShardedGroupFeed._partition`); each shard refines only its
*local* winner
(:meth:`~repro.core.incremental.IncrementalGrouper.peek_best`), all
shards refine concurrently, and the parent pops the global winner —
``(size desc, structure key asc)``, exactly the single-process emission
order.  The oracle, the decision cache, the replacement store, and
publication stay in the parent; shard workers never see a question.

Candidate alignment and entity resolution are not sharded: the
replacement store (:class:`~repro.candidates.store.ReplacementStore`)
and the resolver (:class:`~repro.stream.resolver.IncrementalResolver`)
run in the parent at any shard count.

Worker processes are persistent for the consolidator's lifetime (state
ships once, batches ship deltas), mirroring the long-lived shards of a
production learner.  A worker that dies makes the parent's next wait
on it raise instead of block.  An in-process backend with the same
message protocol backs ``processes=False`` (the determinism tests),
configurations that do not pickle, and hosts that refuse to spawn
workers.  A consolidator at ``shards=1`` builds no pool at all.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config import DEFAULT_CONFIG, Config
from ..core.grouping import Group
from ..core.incremental import IncrementalGrouper
from ..core.replacement import Replacement
from ..core.structure import StructureKey, partition_by_structure
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..obs import NULL_OBS
from ..obs.trace import RemoteSpan, TraceContext

#: Parent-side reply callback: ``observer(shard, op, seconds, spans)``
#: is invoked once per reply with the shard's compute time for that
#: request (shipped back alongside the result; queue wait excluded)
#: and — when the request carried trace context — the worker's
#: recorded span list (:data:`~repro.obs.trace.RemoteSpan`), which the
#: pool re-attaches under the parent's active span.
Observer = Callable[[int, str, float, Optional[List[RemoteSpan]]], None]

#: Longest single wait on a worker's reply: between waits the parent
#: checks that the worker is still alive, so a dead worker raises
#: within this many seconds instead of blocking the parent forever.
REPLY_POLL_SECONDS = 1.0


class ShardStandardizer:
    """The shard-local half of the streaming learner.

    One instance runs inside each shard (worker process or inline) and
    owns the shard's partition of the grouping feed.  It speaks a small
    ``(op, payload, ctx) -> reply`` protocol so the process and inline
    backends stay byte-for-byte equivalent (``ctx`` is the parent's
    trace context — ``(trace id, parent span id)`` — or ``None`` when
    nobody is recording; a live context makes the op time itself as a
    ``shard.<op>`` remote-span record that rides back with the reply,
    see :func:`_serve_op`):

    ===========  ============================================  =========
    op           payload                                       reply
    ===========  ============================================  =========
    ``round``    ``(replacements, counts)``                    ``True``
    ``peek``     ``None``                                      ``None`` or ``(size, skey)``
    ``pop``      ``None``                                      :class:`~repro.core.grouping.Group`
    ``remove``   ``[Replacement, ...]``                        ``True``
    ===========  ============================================  =========
    """

    def __init__(
        self,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    ) -> None:
        self.config = config
        self.vocabulary = vocabulary
        self.grouper: Optional[IncrementalGrouper] = None

    # -- protocol ----------------------------------------------------------

    def handle(self, op: str, payload: Any) -> Any:
        if op == "round":
            replacements, counts = payload
            self.grouper = IncrementalGrouper(
                replacements, self.vocabulary, self.config, counts
            )
            return True
        if op == "peek":
            assert self.grouper is not None, "peek before round"
            peeked = self.grouper.peek_best()
            if peeked is None:
                return None
            group, skey = peeked
            return group.size, skey
        if op == "pop":
            assert self.grouper is not None, "pop before round"
            peeked = self.grouper.peek_best()
            assert peeked is not None, "pop on an exhausted shard"
            return self.grouper.pop_best()
        if op == "remove":
            if self.grouper is not None:
                self.grouper.remove_replacements(payload)
            return True
        raise ValueError(f"unknown shard op: {op!r}")


def _serve_op(
    server: ShardStandardizer,
    shard: int,
    op: str,
    payload: Any,
    ctx: TraceContext,
) -> Tuple[Any, float, Optional[List[RemoteSpan]]]:
    """Serve one op on a shard and time it.

    When the request carries trace context, the op also comes back as
    one remote span record, ``shard.<op>`` tagged with the shard index
    (``parent`` ``None``: it re-attaches under the parent's requesting
    span).  Both backends call this one function, so inline and
    process shards stay equivalent.
    """
    started = time.perf_counter()
    result = server.handle(op, payload)
    seconds = time.perf_counter() - started
    if ctx is None:
        return result, seconds, None
    span: RemoteSpan = {
        "span": "shard." + op,
        "seconds": seconds,
        "tags": {"shard": shard},
        "parent": None,
    }
    return result, seconds, [span]


def _shard_main(shard, requests, responses, config, vocabulary) -> None:
    """Worker-process entry point: serve one shard until ``None``.

    Every reply is ``(ok, value, seconds, spans)`` — the shard's
    compute time rides back with the result (queue wait excluded), so
    the parent can aggregate per-op / per-shard busy time without a
    second round trip, and ``spans`` carries the worker's remote span
    records when the request shipped trace context (else ``None``).
    """
    server = ShardStandardizer(config, vocabulary)
    while True:
        message = requests.get()
        if message is None:
            return
        op, payload, ctx = message
        started = time.perf_counter()
        try:
            result, seconds, spans = _serve_op(
                server, shard, op, payload, ctx
            )
            responses.put((True, result, seconds, spans))
        except BaseException as exc:  # ship the failure to the parent
            responses.put(
                (
                    False,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                    None,
                )
            )


class _InlineBackend:
    """Same protocol, no processes — ``processes=False`` and
    fallbacks."""

    def __init__(
        self,
        shards: int,
        config: Config,
        vocabulary: TermVocabulary,
        observer: Optional[Observer] = None,
    ) -> None:
        self._servers = [
            ShardStandardizer(config, vocabulary) for _ in range(shards)
        ]
        self._observer = observer

    def request(
        self, shard: int, op: str, payload: Any, ctx: TraceContext = None
    ) -> Any:
        result, seconds, spans = _serve_op(
            self._servers[shard], shard, op, payload, ctx
        )
        if self._observer is not None:
            self._observer(shard, op, seconds, spans)
        return result

    def broadcast(
        self, op: str, payloads: Sequence[Any], ctx: TraceContext = None
    ) -> List[Any]:
        return [
            self.request(shard, op, payload, ctx)
            for shard, payload in enumerate(payloads)
        ]

    def close(self) -> None:
        self._servers = []


class _ProcessBackend:
    """One persistent worker process per shard, queue pair each."""

    def __init__(
        self,
        shards: int,
        config: Config,
        vocabulary: TermVocabulary,
        observer: Optional[Observer] = None,
    ) -> None:
        context = multiprocessing.get_context()
        self._observer = observer
        self._requests = []
        self._responses = []
        self._processes = []
        try:
            for shard in range(shards):
                requests = context.Queue()
                responses = context.Queue()
                process = context.Process(
                    target=_shard_main,
                    args=(shard, requests, responses, config, vocabulary),
                    daemon=True,
                )
                process.start()
                self._requests.append(requests)
                self._responses.append(responses)
                self._processes.append(process)
        except BaseException:
            # Partial spawn (fd/process limit mid-loop): shut down the
            # workers that did start before the caller falls back to
            # the inline backend, or they would block on their queues
            # for the parent's whole lifetime.
            self.close()
            raise

    def _unwrap(
        self,
        shard: int,
        op: str,
        reply: Tuple[bool, Any, float, Optional[List[RemoteSpan]]],
    ) -> Any:
        ok, value, seconds, spans = reply
        if self._observer is not None:
            self._observer(shard, op, seconds, spans)
        if not ok:
            raise RuntimeError(f"shard worker failed: {value}")
        return value

    def _receive(
        self, shard: int
    ) -> Tuple[bool, Any, float, Optional[List[RemoteSpan]]]:
        """The shard's next reply, waited for in bounded slices.

        Liveness is read *before* each wait, so a reply the worker
        queued just before it exited is still drained; only a dead
        worker with nothing queued raises.
        """
        process = self._processes[shard]
        while True:
            alive = process.is_alive()
            try:
                return self._responses[shard].get(alive, REPLY_POLL_SECONDS)
            except queue.Empty:
                if not alive:
                    raise RuntimeError(
                        f"shard worker {shard} died "
                        f"(exit code {process.exitcode})"
                    ) from None

    def request(
        self, shard: int, op: str, payload: Any, ctx: TraceContext = None
    ) -> Any:
        self._requests[shard].put((op, payload, ctx))
        return self._unwrap(shard, op, self._receive(shard))

    def broadcast(
        self, op: str, payloads: Sequence[Any], ctx: TraceContext = None
    ) -> List[Any]:
        # Send everything first so the shards compute concurrently —
        # this is where the wall-clock win comes from — then collect.
        for requests, payload in zip(self._requests, payloads):
            requests.put((op, payload, ctx))
        return [
            self._unwrap(shard, op, self._receive(shard))
            for shard in range(len(self._responses))
        ]

    def close(self) -> None:
        for requests in self._requests:
            try:
                requests.put(None)
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join()
        self._processes = []
        self._requests = []
        self._responses = []


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


class ShardPool:
    """Parent-side handle on N learner shards.

    ``processes=True`` backs the shards with persistent worker
    processes when the shipped config and vocabulary pickle; otherwise
    it degrades to the inline backend, which is merely slower, never
    different.
    """

    def __init__(
        self,
        shards: int,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        processes: bool = True,
        obs=NULL_OBS,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        #: observability facade — when its tracer records rows, every
        #: request ships trace context to the workers and the returned
        #: ``shard.<op>`` spans re-attach under the parent's active
        #: span (:meth:`~repro.obs.trace.Tracer.attach_remote`).
        self.obs = obs
        #: per-op request counts / shard compute seconds, and per-shard
        #: busy seconds — aggregated parent-side from the timings each
        #: reply ships back, so the totals exist at any shard count and
        #: on both backends.  The stream layer mirrors them into the
        #: metrics registry (as *volatile* instruments: wall-clock and
        #: request counts legitimately differ across ``--shards``
        #: values).
        self.op_requests: Dict[str, int] = {}
        self.op_seconds: Dict[str, float] = {}
        self.shard_seconds: List[float] = [0.0] * shards
        use_processes = (
            processes and shards > 1 and _picklable(config, vocabulary)
        )
        backend_cls = _ProcessBackend if use_processes else _InlineBackend
        try:
            self._backend = backend_cls(
                shards, config, vocabulary, observer=self._observe
            )
        except OSError:
            # Process spawn refused (containers without /dev/shm etc.):
            # shards still work, just without the parallelism.
            self._backend = _InlineBackend(
                shards, config, vocabulary, observer=self._observe
            )
        self.uses_processes = isinstance(self._backend, _ProcessBackend)

    def _observe(
        self,
        shard: int,
        op: str,
        seconds: float,
        spans: Optional[List[RemoteSpan]] = None,
    ) -> None:
        """Fold one reply's shard compute time into the aggregates and
        re-attach any worker-recorded spans under the parent span that
        issued the request (replies are unwrapped synchronously, so the
        requesting span is still the active one)."""
        self.op_requests[op] = self.op_requests.get(op, 0) + 1
        self.op_seconds[op] = self.op_seconds.get(op, 0.0) + seconds
        self.shard_seconds[shard] += seconds
        if spans:
            self.obs.tracer.attach_remote(spans)

    def _trace_context(self) -> TraceContext:
        """The context to ship with a request — ``None`` unless span
        rows are being recorded, so untraced runs ship no context."""
        return self.obs.tracer.current_context()

    # -- the grouping feed -------------------------------------------------

    def group_feed(
        self,
        replacements: Sequence[Replacement],
        counts: Optional[Counter] = None,
    ) -> "ShardedGroupFeed":
        """A :class:`ShardedGroupFeed` over one learn round's novel
        candidates — a drop-in
        :class:`~repro.pipeline.standardize.GroupFeed`."""
        return ShardedGroupFeed(self, replacements, counts)

    # -- plumbing ----------------------------------------------------------

    def request(self, shard: int, op: str, payload: Any) -> Any:
        return self._backend.request(
            shard, op, payload, ctx=self._trace_context()
        )

    def broadcast(self, op: str, payloads: Sequence[Any]) -> List[Any]:
        return self._backend.broadcast(
            op, payloads, ctx=self._trace_context()
        )

    def close(self) -> None:
        """Shut down worker processes; the pool is unusable after."""
        self._backend.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ShardedGroupFeed:
    """The merged, shard-parallel grouping feed (GroupFeed protocol).

    Candidates are partitioned by whole structure bucket (see
    :meth:`_partition`): a bucket is the unit that can never be split
    without splitting groups and spending extra oracle questions.

    ``next_group`` broadcasts one ``peek`` (all shards refine their
    local winners concurrently), then pops only the global winner.  The
    winner is chosen by ``(size desc, structure key asc)``; since the
    single-process grouper breaks ties by source order and source order
    is the rank of the structure key in sorted order, the merged stream
    equals the single-process stream group for group.
    """

    def __init__(
        self,
        pool: ShardPool,
        replacements: Sequence[Replacement],
        counts: Optional[Counter] = None,
    ) -> None:
        self.pool = pool
        partitions = self._partition(replacements, pool.shards)
        self._exhausted = [not part for part in partitions]
        pool.broadcast(
            "round", [(part, counts) for part in partitions]
        )

    @staticmethod
    def _partition(
        replacements: Sequence[Replacement], shards: int
    ) -> List[List[Replacement]]:
        """Assign whole structure buckets to shards, balanced by size.

        A bucket is indivisible (splitting one would split groups and
        spend extra questions), but *which* shard owns it is free: any
        deterministic assignment yields the identical merged stream.
        So instead of hashing — which lets one hot bucket's shard
        dominate the round — buckets go largest-first to the currently
        lightest shard (ties: lower shard id), a deterministic greedy
        bin-packing that keeps the parallel peeks even.  Bucket order
        *within* a shard preserves first-appearance order, matching the
        single grouper's source construction.
        """
        buckets = partition_by_structure(dict.fromkeys(replacements))
        loads = [0] * shards
        owner: Dict[StructureKey, int] = {}
        by_size = sorted(
            buckets, key=lambda skey: (-len(buckets[skey]), skey)
        )
        for skey in by_size:
            shard = min(range(shards), key=lambda s: (loads[s], s))
            owner[skey] = shard
            loads[shard] += len(buckets[skey])
        partitions: List[List[Replacement]] = [[] for _ in range(shards)]
        for skey, bucket in buckets.items():
            partitions[owner[skey]].extend(bucket)
        return partitions

    def next_group(self) -> Optional[Group]:
        """The globally next-largest group across all shards."""
        live = [s for s, done in enumerate(self._exhausted) if not done]
        if not live:
            return None
        replies = self.pool.broadcast(
            "peek", [None] * len(self._exhausted)
        )
        winner: Optional[int] = None
        winner_rank: Optional[Tuple[int, StructureKey]] = None
        for shard in live:
            reply = replies[shard]
            if reply is None:
                self._exhausted[shard] = True
                continue
            size, skey = reply
            rank = (-size, skey)
            if winner_rank is None or rank < winner_rank:
                winner, winner_rank = shard, rank
        if winner is None:
            return None
        return self.pool.request(winner, "pop", None)

    def remove_replacements(self, dead) -> None:
        """Propagate §7.1 invalidation to every shard's sources."""
        dead_list = list(dead)
        if not dead_list:
            return
        self.pool.broadcast(
            "remove", [dead_list] * len(self._exhausted)
        )
