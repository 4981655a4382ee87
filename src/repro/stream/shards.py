"""Sharded execution of the streaming learner (``repro stream --shards``).

This module fans the streaming *learner*'s pure per-batch work across
a pool of shard worker processes without giving up two properties
the whole subsystem is built on:

* **determinism** — the same batch sequence must publish byte-identical
  models at any shard count, and
* **oracle frugality** — sharding must not add a single question.

Both hold because every parallelized stage is a pure computation whose
results are merged in a canonical order by the single parent process:

1. **candidate delta derivation** — token-level alignment of a value
   pair (:func:`repro.candidates.store.derive_token_segments`) is a
   pure function of the two strings; pairs fan out across shard
   workers, the parent merges segments into the one
   :class:`~repro.candidates.store.ReplacementStore` in inline order;
2. **similarity matching** — a new record's blocked comparisons are a
   pure function of the candidate values.  Blocking state is
   **shard-resident**: each shard keeps a live replica of the member
   values of every block key it owns (stable block-key hash,
   :class:`~repro.resolution.blocking.BlockIndex`), maintained by
   index/evict deltas that ship each member value to a shard exactly
   once.  Per batch the parent ships only the batch's *new* values and
   the candidate record ids to compare — never the resident member
   values again — which drops the dominant per-batch IPC from
   O(candidate values) to O(new values);
3. **the grouping feed** — the expensive stage.  The incremental
   grouper is a lazy top-k merge over independent per-structure-bucket
   sources, so buckets are partitioned across shards by stable
   structure-key hash; each shard refines only its *local* winner
   (:meth:`~repro.core.incremental.IncrementalGrouper.peek_best`), all
   shards refine concurrently, and the parent pops the global winner —
   ``(size desc, structure key asc)``, exactly the single-process
   emission order.  The oracle, the decision cache, the replacement
   store, and publication stay in the parent; shard workers never see
   a question.

Worker processes are persistent for the consolidator's lifetime (state
ships once, batches ship deltas), mirroring the long-lived shards of a
production learner.  An in-process backend with the same message
protocol backs ``shards=1``, pickling-hostile configurations, and the
determinism tests.
"""

from __future__ import annotations

import multiprocessing
import pickle
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

from ..candidates.store import TokenSegments, derive_token_segments
from ..config import DEFAULT_CONFIG, Config
from ..core.grouping import Group
from ..core.incremental import IncrementalGrouper
from ..core.replacement import Replacement
from ..core.structure import StructureKey, structure_key
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..obs import NULL_OBS
from ..obs.trace import RemoteSpan, TraceContext
from ..resolution.blocking import stable_hash
from ..resolution.matcher import PairDecisionMemo, SimilarityFn

#: Below this many alignment pairs a batch is handled inline: IPC
#: would cost more than the work.  (Match traffic is exempt — it also
#: maintains the shards' resident blocking state, so it always flows.)
MIN_PARALLEL_PAIRS = 64

#: One step of a shard's per-batch resolve script, executed in order:
#: ``("m", task id, new value, [candidate rids])`` — compare the new
#: value against the named resident members, reply with the matches;
#: ``("i", rid, value-or-None)`` — a new member entered a block this
#: shard owns (the value ships on the rid's first step per shard and
#: is ``None`` on repeats — one block reference each, refcounted);
#: ``("e", rid)`` — rotation dropped one of the rid's block references
#: here; the last reference releases the resident value.
ResolveStep = Tuple[Any, ...]

#: Parent-side reply callback: ``observer(shard, op, seconds, spans)``
#: is invoked once per reply with the shard's compute time for that
#: request (shipped back alongside the result; queue wait excluded)
#: and — when the request carried trace context — the worker's
#: recorded span list (:data:`~repro.obs.trace.RemoteSpan`), which the
#: pool re-attaches under the parent's active span.
Observer = Callable[[int, str, float, Optional[List[RemoteSpan]]], None]


class ShardStandardizer:
    """The shard-local half of the streaming learner.

    One instance runs inside each shard (worker process or inline) and
    owns the shard's partition of the grouping feed, the stateless pure
    kernels (pair alignment, similarity comparison), and the shard's
    **resident blocking state**: a live ``rid -> value`` replica of
    every member of every block key the shard owns, kept current by the
    index/evict steps of each batch's resolve script.  Matching reads
    candidate values from this replica, so the parent never re-ships a
    member value after its first arrival.  It speaks a small
    ``(op, payload, ctx) -> reply`` protocol so the process and inline
    backends stay byte-for-byte equivalent (``ctx`` is the parent's
    trace context — ``(trace id, parent span id)`` — or ``None`` when
    nobody is recording; a live context makes the data-plane ops time
    themselves as ``shard.*`` remote-span records that ride back with
    the reply, see :func:`_serve_op`):

    ===========  ============================================  =========
    op           payload                                       reply
    ===========  ============================================  =========
    ``round``    ``(replacements, counts)``                    ``True``
    ``peek``     ``None``                                      ``None`` or ``(size, skey)``
    ``pop``      ``None``                                      :class:`~repro.core.grouping.Group`
    ``remove``   ``[Replacement, ...]``                        ``True``
    ``derive``   ``[(va, vb), ...]``                           ``[TokenSegments, ...]``
    ``resolve``  ``(threshold, [ResolveStep, ...])``           ``[(task id, [matched rid, ...]), ...]``
    ===========  ============================================  =========
    """

    def __init__(
        self,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        similarity: Optional[SimilarityFn] = None,
    ) -> None:
        self.config = config
        self.vocabulary = vocabulary
        self.similarity = similarity
        self.grouper: Optional[IncrementalGrouper] = None
        #: resident replica: rid -> value, for members of owned blocks
        self.values: Dict[str, str] = {}
        #: rid -> live block references on this shard (drop at zero)
        self.value_refs: Dict[str, int] = {}
        #: per-threshold memoized match kernels (early-exit + memo)
        self._deciders: Dict[float, PairDecisionMemo] = {}

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
        if op == "derive":
            return [
                derive_token_segments(va, vb, self.config)
                for va, vb in payload
            ]
        if op == "resolve":
            threshold, steps = payload
            return self._resolve(threshold, steps)[0]
        raise ValueError(f"unknown shard op: {op!r}")

    # -- resident blocked matching -----------------------------------------

    def _resolve(
        self,
        threshold: float,
        steps: Sequence[ResolveStep],
        record: bool = False,
    ) -> Tuple[List[Tuple[int, List[str]]], float, int]:
        """Execute one batch's resolve script against resident state.

        Step order is the parent's sequential interleave — a record's
        match step precedes its index step, which precedes the next
        record's match step — so intra-batch candidates and rotation
        evictions are seen exactly as a single process would see them.

        Returns ``(replies, match seconds, comparisons)``; the timing
        pair is only measured when ``record`` is set (tracing), so the
        untraced hot path pays no extra clock reads.
        """
        decide = self._deciders.get(threshold)
        if decide is None:
            assert self.similarity is not None, "resolve without similarity"
            decide = self._deciders[threshold] = PairDecisionMemo(
                self.similarity, threshold
            )
        values = self.values
        refs = self.value_refs
        replies: List[Tuple[int, List[str]]] = []
        match_seconds = 0.0
        comparisons = 0
        for step in steps:
            kind = step[0]
            if kind == "m":
                _, task_id, value, rids = step
                if record:
                    match_start = time.perf_counter()
                    comparisons += len(rids)
                matched = [
                    rid for rid in rids if decide(value, values[rid])
                ]
                if record:
                    match_seconds += time.perf_counter() - match_start
                replies.append((task_id, matched))
            elif kind == "i":
                _, rid, value = step
                if value is not None:
                    values[rid] = value
                refs[rid] = refs.get(rid, 0) + 1
            elif kind == "e":
                rid = step[1]
                remaining = refs.get(rid, 0) - 1
                if remaining <= 0:
                    refs.pop(rid, None)
                    values.pop(rid, None)
                else:
                    refs[rid] = remaining
            else:
                raise ValueError(f"unknown resolve step: {kind!r}")
        return replies, match_seconds, comparisons


def _serve_op(
    server: ShardStandardizer,
    shard: int,
    op: str,
    payload: Any,
    ctx: TraceContext,
) -> Tuple[Any, float, Optional[List[RemoteSpan]]]:
    """Serve one op on a shard, timing it either way.

    When the request carries trace context and the op is one of the
    data-plane kernels, the shard's real work is recorded as remote
    span records: ``shard.resolve`` (whole script) with a
    ``shard.match`` child (the similarity comparisons alone), and
    ``shard.derive`` (pair alignment).  Records list children before
    parents — the order a local tracer would emit them — with
    ``parent`` as a relative index and ``None`` for the root that
    re-attaches under the parent's requesting span.  Both backends call
    this one function, so inline and process shards stay equivalent.
    """
    started = time.perf_counter()
    if ctx is not None and op == "resolve":
        threshold, steps = payload
        replies, match_seconds, comparisons = server._resolve(
            threshold, steps, record=True
        )
        seconds = time.perf_counter() - started
        if not steps:
            return replies, seconds, None
        spans: List[RemoteSpan] = []
        if comparisons:
            spans.append(
                {
                    "span": "shard.match",
                    "seconds": match_seconds,
                    "tags": {"shard": shard, "comparisons": comparisons},
                    "parent": 1,
                }
            )
        spans.append(
            {
                "span": "shard.resolve",
                "seconds": seconds,
                "tags": {"shard": shard, "steps": len(steps)},
                "parent": None,
            }
        )
        return replies, seconds, spans
    result = server.handle(op, payload)
    seconds = time.perf_counter() - started
    if ctx is not None and op == "derive" and payload:
        spans = [
            {
                "span": "shard.derive",
                "seconds": seconds,
                "tags": {"shard": shard, "pairs": len(payload)},
                "parent": None,
            }
        ]
        return result, seconds, spans
    return result, seconds, None


def _shard_main(
    shard, requests, responses, config, vocabulary, similarity
) -> None:
    """Worker-process entry point: serve one shard until ``None``.

    Every reply is ``(ok, value, seconds, spans)`` — the shard's
    compute time rides back with the result (queue wait excluded), so
    the parent can aggregate per-op / per-shard busy time without a
    second round trip, and ``spans`` carries the worker's remote span
    records when the request shipped trace context (else ``None``).
    """
    server = ShardStandardizer(config, vocabulary, similarity)
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
    """Same protocol, no processes — ``shards=1`` and fallbacks."""

    def __init__(
        self,
        shards: int,
        config: Config,
        vocabulary: TermVocabulary,
        similarity: Optional[SimilarityFn],
        observer: Optional[Observer] = None,
    ) -> None:
        self._servers = [
            ShardStandardizer(config, vocabulary, similarity)
            for _ in range(shards)
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
        similarity: Optional[SimilarityFn],
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
                    args=(
                        shard,
                        requests,
                        responses,
                        config,
                        vocabulary,
                        similarity,
                    ),
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

    def request(
        self, shard: int, op: str, payload: Any, ctx: TraceContext = None
    ) -> Any:
        self._requests[shard].put((op, payload, ctx))
        return self._unwrap(shard, op, self._responses[shard].get())

    def broadcast(
        self, op: str, payloads: Sequence[Any], ctx: TraceContext = None
    ) -> List[Any]:
        # Send everything first so the shards compute concurrently —
        # this is where the wall-clock win comes from — then collect.
        for requests, payload in zip(self._requests, payloads):
            requests.put((op, payload, ctx))
        return [
            self._unwrap(shard, op, responses.get())
            for shard, responses in enumerate(self._responses)
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
    processes when the shipped state pickles (configs built from
    module-level functions always do); otherwise — closures as
    similarity functions, exotic configs — it degrades to the inline
    backend, which is merely slower, never different.
    """

    def __init__(
        self,
        shards: int,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        similarity: Optional[SimilarityFn] = None,
        processes: bool = True,
        obs=NULL_OBS,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.config = config
        #: observability facade — when its tracer records rows, the
        #: data-plane ops ship trace context to the workers and the
        #: returned ``shard.*`` spans re-attach under the parent's
        #: active span (:meth:`~repro.obs.trace.Tracer.attach_remote`).
        self.obs = obs
        #: per-op request counts / shard compute seconds, and per-shard
        #: busy seconds — aggregated parent-side from the timings each
        #: reply ships back, so the totals exist at any shard count and
        #: on both backends.  The stream layer mirrors them into the
        #: metrics registry (as *volatile* instruments: wall-clock and
        #: IPC volume legitimately differ across ``--shards`` values).
        self.op_requests: Dict[str, int] = {}
        self.op_seconds: Dict[str, float] = {}
        self.shard_seconds: List[float] = [0.0] * shards
        use_processes = (
            processes
            and shards > 1
            and _picklable(config, vocabulary, similarity)
        )
        backend_cls = _ProcessBackend if use_processes else _InlineBackend
        try:
            self._backend = backend_cls(
                shards, config, vocabulary, similarity, observer=self._observe
            )
        except OSError:
            # Process spawn refused (containers without /dev/shm etc.):
            # shards still work, just without the parallelism.
            self._backend = _InlineBackend(
                shards, config, vocabulary, similarity, observer=self._observe
            )
        self.uses_processes = isinstance(self._backend, _ProcessBackend)
        #: cumulative shipping counters for the data-plane ops (resolve
        #: + derive): resident values shipped, candidate rid references
        #: shipped, and serialized payload bytes.  The per-batch deltas
        #: back ``repro stream --stats`` and the IPC benchmarks.
        #: ``shipped_bytes`` counts only *actual* IPC — it stays 0 on
        #: the inline backend, where nothing is serialized (and where
        #: pickling purely for accounting would cost real time).
        self.shipped_values = 0
        self.shipped_candidate_ids = 0
        self.shipped_bytes = 0

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
        """The context to ship with a data-plane request — ``None``
        unless span rows are being recorded, so untraced runs ship
        exactly what they shipped before."""
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

    # -- pure kernels ------------------------------------------------------

    def derive_segments(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], TokenSegments]:
        """Token-segment alignments for distinct value pairs, computed
        across the shards; small workloads stay inline."""
        pairs = list(dict.fromkeys(pairs))
        if not pairs:
            return {}
        if not self.uses_processes or len(pairs) < MIN_PARALLEL_PAIRS:
            segments = [
                derive_token_segments(va, vb, self.config)
                for va, vb in pairs
            ]
            return dict(zip(pairs, segments))
        chunks = [pairs[shard :: self.shards] for shard in range(self.shards)]
        for chunk in chunks:
            self.shipped_bytes += len(
                pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
            )
        replies = self._backend.broadcast(
            "derive", chunks, ctx=self._trace_context()
        )
        out: Dict[Tuple[str, str], TokenSegments] = {}
        for chunk, reply in zip(chunks, replies):
            out.update(zip(chunk, reply))
        return out

    def resolve(
        self,
        threshold: float,
        steps_by_shard: Sequence[Sequence[ResolveStep]],
    ) -> Dict[int, List[str]]:
        """Run one batch's resolve scripts on the shards.

        Every step list ships — index/evict steps maintain the shards'
        resident replicas, so they can never be skipped for being small
        — and the matched rids come back merged per task id in
        ascending shard order.  Only match consumers care about the
        order; the caller re-ranks against its own candidate order.
        Counters account what actually crossed the boundary: each
        resident value ships exactly once per owning shard, match steps
        ship candidate *ids* only.
        """
        merged: Dict[int, List[str]] = {}
        if not any(steps_by_shard):
            return merged
        payloads = []
        for steps in steps_by_shard:
            steps = list(steps)
            payloads.append((threshold, steps))
            if not steps:
                continue
            for step in steps:
                kind = step[0]
                if kind == "i":
                    if step[2] is not None:
                        self.shipped_values += 1
                elif kind == "m":
                    self.shipped_candidate_ids += len(step[3])
            if self.uses_processes:
                self.shipped_bytes += len(
                    pickle.dumps(
                        (threshold, steps), pickle.HIGHEST_PROTOCOL
                    )
                )
        replies = self._backend.broadcast(
            "resolve", payloads, ctx=self._trace_context()
        )
        for reply in replies:
            for task_id, matched in reply:
                merged.setdefault(task_id, []).extend(matched)
        return merged

    # -- plumbing ----------------------------------------------------------

    def request(self, shard: int, op: str, payload: Any) -> Any:
        return self._backend.request(shard, op, payload)

    def broadcast(self, op: str, payloads: Sequence[Any]) -> List[Any]:
        return self._backend.broadcast(op, payloads)

    def close(self) -> None:
        """Shut down worker processes; the pool is unusable after."""
        self._backend.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ShardedGroupFeed:
    """The merged, shard-parallel grouping feed (GroupFeed protocol).

    Candidates are partitioned by stable structure-key hash — the
    learner-side analogue of the resolver's block-key partitioning: a
    structure bucket is the unit that can never be split without
    splitting groups (and spending extra oracle questions), exactly as
    a block is the unit that can never be split without losing matches.

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
        order: List[StructureKey] = []
        buckets: Dict[StructureKey, List[Replacement]] = {}
        for replacement in dict.fromkeys(replacements):
            skey = structure_key(replacement)
            if skey not in buckets:
                buckets[skey] = []
                order.append(skey)
            buckets[skey].append(replacement)
        loads = [0] * shards
        owner: Dict[StructureKey, int] = {}
        by_size = sorted(
            order, key=lambda skey: (-len(buckets[skey]), skey)
        )
        for skey in by_size:
            shard = min(range(shards), key=lambda s: (loads[s], s))
            owner[skey] = shard
            loads[shard] += len(buckets[skey])
        partitions: List[List[Replacement]] = [[] for _ in range(shards)]
        for skey in order:
            partitions[owner[skey]].extend(buckets[skey])
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
