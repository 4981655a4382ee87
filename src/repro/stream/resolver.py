"""Incremental entity resolution: blocking index + union-find, in place.

The batch resolver (:mod:`repro.resolution.matcher`) compares all
within-block pairs and rebuilds its clustering from scratch — fine for
one table, quadratic waste for a stream.  :class:`IncrementalResolver`
keeps the blocking index and a :class:`~repro.resolution.unionfind.UnionFind`
alive across batches and only forms pairs that touch *new* records.

The resolver also maintains the cumulative
:class:`~repro.data.table.ClusterTable` the standardization layer works
on, with two hard invariants that keep downstream
:class:`~repro.data.table.CellRef` provenance stable:

* records are only ever **appended** to a cluster (a record's row index
  never changes while it stays in its cluster);
* when a new record bridges two existing clusters, the smaller
  cluster's records are appended to the larger one and the losing slot
  is left *empty* (never deleted), so no other cluster's index shifts.

Every move is reported in the :class:`BatchResolution` so candidate
stores can purge the moved cells' old positions and re-index the new
ones — the only non-append work a merge costs.

Two matching modes mirror the paper's setup:

* **key mode** (``key_attribute``): records cluster by exact key
  equality (ISBN / ISSN / EIN style) — merges never happen;
* **similarity mode** (``attribute`` + threshold): token blocking and a
  similarity function, transitively closed through the union-find.

Similarity mode scales out two ways.  The block index is a
:class:`~repro.resolution.blocking.BlockIndex`: **partitioned** by
stable block-key hash into ``shards`` slices — a block (and so every
pair it can generate) lives wholly in one slice, which is what lets a
batch's comparisons fan out across the shard workers of a
:class:`~repro.stream.shards.ShardPool` — and optionally **bounded**
(``block_retention``), rotating the oldest member out of a full block
so per-arrival cost stops growing with stream length.  Parallel
matching changes *which process* evaluates a comparison, never which
comparisons are evaluated: candidate lists are assembled (and ordered,
and deduplicated) by the parent exactly as the inline path would, so
the resolved clusters are identical at any shard count.

Shard workers keep the blocking state **resident**: each worker holds
a live replica of the member values of the block keys it owns,
maintained by the index/evict deltas that accompany each batch.  The
resolver owns its pool from construction, so every index mutation
reaches the replicas in the batch that made it.  A member's value
crosses the process boundary once per owning shard, when the member
first enters one of that shard's blocks; from then on match traffic
carries candidate *record ids* only.  Per-batch IPC is
therefore O(new values), not O(candidate values) — the difference the
``values_shipped`` / ``bytes_shipped`` counters in
:class:`BatchResolution` make observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..data.table import CellRef, ClusterTable, Record
from ..resolution.blocking import BlockIndex, BlockKeyFn, token_keys
from ..resolution.matcher import (
    PairDecisionMemo,
    SimilarityFn,
    hybrid_similarity,
)
from ..resolution.unionfind import UnionFind

Position = Tuple[int, int]  # (cluster slot, row)


@dataclass
class BatchResolution:
    """What one batch did to the cluster state."""

    #: (rid, cluster, row) of every record appended this batch
    appended: List[Tuple[str, int, int]] = field(default_factory=list)
    #: (rid, old cluster, old row, new cluster, new row) per merge move
    moved: List[Tuple[str, int, int, int, int]] = field(default_factory=list)
    #: number of cluster-merge events caused by bridging records
    merges: int = 0
    #: number of new clusters opened
    new_clusters: int = 0
    #: similarity comparisons actually evaluated (the incremental cost)
    pairs_compared: int = 0
    #: resident values shipped to shard workers this batch (each new
    #: value once per owning shard; 0 without a pool)
    values_shipped: int = 0
    #: serialized bytes shipped to shard workers this batch
    bytes_shipped: int = 0


class IncrementalResolver:
    """Maintains clusters of a growing record collection batch by batch.

    Parameters
    ----------
    columns:
        Attribute names of the cumulative table.
    key_attribute / attribute:
        Exactly one must be given: ``key_attribute`` selects exact-key
        clustering, ``attribute`` selects blocked similarity matching.
    threshold, similarity, block_keys, max_block_size:
        Similarity-mode matching knobs (ignored in key mode).
    pool:
        Similarity mode: a :class:`~repro.stream.shards.ShardPool`
        whose workers evaluate each batch's comparisons against their
        resident value replicas.  The blocking index is partitioned
        ``pool.shards`` ways (1 without a pool).  The owner may set
        :attr:`pool` to ``None`` once the pool is closed; later batches
        then match inline, with identical clusters.
    block_retention:
        With a value, each block keeps only its newest ``retention``
        members (rotation); ``None`` keeps the historical unbounded
        behaviour.
    """

    def __init__(
        self,
        columns: Sequence[str],
        key_attribute: Optional[str] = None,
        attribute: Optional[str] = None,
        threshold: float = 0.8,
        similarity: SimilarityFn = hybrid_similarity,
        block_keys: BlockKeyFn = token_keys,
        max_block_size: int = 50,
        pool=None,
        block_retention: Optional[int] = None,
    ) -> None:
        if (key_attribute is None) == (attribute is None):
            raise ValueError(
                "pass exactly one of key_attribute (exact-key mode) or "
                "attribute (similarity mode)"
            )
        self.table = ClusterTable(columns)
        self.key_attribute = key_attribute
        self.attribute = attribute
        self.threshold = threshold
        self.similarity = similarity
        self.block_keys = block_keys
        self.max_block_size = max_block_size
        self.pool = pool

        self.uf = UnionFind()
        self._position: Dict[str, Position] = {}
        self._rid_at: Dict[Position, str] = {}
        #: similarity mode: hash-partitioned block key -> rids
        self._blocks = BlockIndex(
            pool.shards if pool is not None else 1, block_retention
        )
        #: key mode: key value -> cluster slot
        self._key_slot: Dict[str, int] = {}
        self._values: Dict[str, str] = {}
        #: memoized inline threshold kernel (early-exit similarity)
        self._decide: Optional[PairDecisionMemo] = None
        #: (rid, shard) -> live block references the shard's replica
        #: holds; a shard re-needs the value when its count re-enters 0
        self._shard_refs: Dict[Tuple[str, int], int] = {}

    # -- lookups -----------------------------------------------------------

    def position(self, rid: str) -> Position:
        """Current ``(cluster slot, row)`` of a record."""
        return self._position[rid]

    def rid_at(self, cluster: int, row: int) -> Optional[str]:
        """Record id at a table position, or ``None``."""
        return self._rid_at.get((cluster, row))

    def rid_of_cell(self, cell: CellRef) -> Optional[str]:
        """Record id owning a cell, or ``None``."""
        return self._rid_at.get((cell.cluster, cell.row))

    @property
    def num_records(self) -> int:
        return len(self._position)

    # -- ingestion ---------------------------------------------------------

    def add_batch(self, records: Sequence[Record]) -> BatchResolution:
        """Fold one batch of records into the cluster state.

        Only pairs touching the batch's records are formed; earlier
        records of the same batch count as existing for later ones, so
        intra-batch duplicates resolve too.  With a :attr:`pool`
        (similarity mode only) the batch's comparisons are evaluated by
        the shard workers against their resident value replicas — same
        candidates, same order, same clusters, less wall-clock and
        O(new values) IPC.
        """
        result = BatchResolution()
        matched_by_rid: Dict[str, List[str]] = {}
        if self.pool is not None and self.attribute is not None and records:
            matched_by_rid = self._match_batch(records, result)
        for record in records:
            self._add_record(record, result, matched_by_rid.get(record.rid))
        return result

    def _add_record(
        self,
        record: Record,
        result: BatchResolution,
        matched: Optional[List[str]] = None,
    ) -> None:
        rid = record.rid
        if rid in self._position:
            raise ValueError(f"duplicate record id in stream: {rid!r}")
        self.uf.add(rid)
        if self.key_attribute is not None:
            slot = self._place_by_key(record, result)
        else:
            slot = self._place_by_similarity(record, result, matched)
        row = len(self.table.clusters[slot].records)
        self.table.clusters[slot].records.append(record)
        self._position[rid] = (slot, row)
        self._rid_at[(slot, row)] = rid
        result.appended.append((rid, slot, row))

    # -- key mode ----------------------------------------------------------

    def _place_by_key(self, record: Record, result: BatchResolution) -> int:
        key = record.values.get(self.key_attribute or "", "")
        if not key:
            # Keyless records become singleton clusters, like
            # resolution.matcher.cluster_by_key.
            result.new_clusters += 1
            return self.table.add_cluster(f"__single_{record.rid}", [])
        slot = self._key_slot.get(key)
        if slot is None:
            slot = self.table.add_cluster(key, [])
            self._key_slot[key] = slot
            result.new_clusters += 1
        else:
            anchor = self.rid_at(slot, 0)
            if anchor is not None:
                self.uf.union(record.rid, anchor)
        return slot

    # -- similarity mode ---------------------------------------------------

    def _place_by_similarity(
        self,
        record: Record,
        result: BatchResolution,
        matched: Optional[List[str]] = None,
    ) -> int:
        value = record.values.get(self.attribute or "", "")
        if matched is None:
            matched = self._match_existing(value, result)
        matched = [m for m in matched if m in self._position]
        slots = sorted({self._position[m][0] for m in matched})
        for m in matched:
            self.uf.union(record.rid, m)
        if not slots:
            result.new_clusters += 1
            slot = self.table.add_cluster(record.rid, [])
        elif len(slots) == 1:
            slot = slots[0]
        else:
            slot = self._merge_slots(slots, result)
        self._index_blocks(record.rid, value)
        return slot

    def _candidates(
        self,
        value: str,
        blocks: Optional[Callable[[Hashable], Sequence[str]]] = None,
    ) -> List[Tuple[str, int]]:
        """Deduplicated comparison candidates for a new value.

        Returns ``(rid, owning shard)`` pairs in block-visit order —
        the exact comparison set the inline path evaluates, which is
        why dispatching them to shard workers cannot change the
        result.  ``blocks`` overrides where members are read from:
        batch-parallel matching passes its simulated per-batch block
        state (earlier batch records indexed, rotation applied) so the
        candidate set mirrors the sequential interleave exactly.
        """
        members_of = blocks if blocks is not None else self._blocks.members
        seen: Set[str] = set()
        candidates: List[Tuple[str, int]] = []
        for key in self.block_keys(value):
            members = members_of(key)
            if len(members) > self.max_block_size:
                # Stop-word block: same guard as batch blocking.
                continue
            shard = self._blocks.shard_of(key)
            for other in members:
                if other in seen:
                    continue
                seen.add(other)
                candidates.append((other, shard))
        return candidates

    def _match_existing(
        self, value: str, result: BatchResolution
    ) -> List[str]:
        """Existing rids whose value matches the new one (blocked)."""
        if self._decide is None:
            self._decide = PairDecisionMemo(self.similarity, self.threshold)
        matched: List[str] = []
        for other, _shard in self._candidates(value):
            result.pairs_compared += 1
            if self._decide(value, self._values[other]):
                matched.append(other)
        return matched

    # -- shard-resident replica deltas -------------------------------------

    def _note_index(
        self, rid: str, value: str, key: Hashable
    ) -> Tuple[int, Tuple]:
        """Account one new block reference on ``key``'s shard; the
        returned step carries the value only on the shard's first
        reference (the replica already holds it otherwise)."""
        shard = self._blocks.shard_of(key)
        ref = (rid, shard)
        count = self._shard_refs.get(ref, 0)
        self._shard_refs[ref] = count + 1
        return shard, ("i", rid, value if count == 0 else None)

    def _note_evict(self, rid: str, key: Hashable) -> Tuple[int, Tuple]:
        """Account one dropped block reference on ``key``'s shard."""
        shard = self._blocks.shard_of(key)
        ref = (rid, shard)
        count = self._shard_refs.get(ref, 0) - 1
        if count <= 0:
            self._shard_refs.pop(ref, None)
        else:
            self._shard_refs[ref] = count
        return shard, ("e", rid)

    def _match_batch(
        self, records: Sequence[Record], result: BatchResolution
    ) -> Dict[str, List[str]]:
        """Evaluate one batch's comparisons on the shard workers.

        The parent assembles every record's candidate list against a
        *simulated* block state — pre-batch blocks plus the batch's own
        appends with the same rotation :meth:`_index_blocks` will apply
        — so later records see earlier ones (and rotation evictions)
        exactly as the sequential interleave would.  What ships per
        shard is an ordered *script*: match steps carrying the new
        value and its candidate rids, interleaved with the index/evict
        deltas that keep the shard's resident value replica current.
        Candidate **values** never ship — each shard reads them from
        its replica — so per-batch IPC is O(new values + candidate
        ids) instead of O(candidate values).
        """
        pool = self.pool
        steps: List[List[Tuple]] = [[] for _ in range(pool.shards)]
        simulated: Dict[Hashable, List[str]] = {}
        retention = self._blocks.retention

        def simulated_block(key: Hashable) -> List[str]:
            block = simulated.get(key)
            if block is None:
                block = simulated[key] = list(self._blocks.members(key))
            return block

        candidate_lists: List[Tuple[str, List[Tuple[str, int]]]] = []
        for task_id, record in enumerate(records):
            value = record.values.get(self.attribute or "", "")
            candidates = self._candidates(value, simulated_block)
            candidate_lists.append((record.rid, candidates))
            by_shard: Dict[int, List[str]] = {}
            for other, shard in candidates:
                by_shard.setdefault(shard, []).append(other)
            for shard in sorted(by_shard):
                steps[shard].append(
                    ("m", task_id, value, by_shard[shard])
                )
            for key in self.block_keys(value):
                block = simulated_block(key)
                block.append(record.rid)
                shard, step = self._note_index(record.rid, value, key)
                steps[shard].append(step)
                if retention is not None and len(block) > retention:
                    evicted = block[: len(block) - retention]
                    del block[: len(block) - retention]
                    for old in evicted:
                        shard, step = self._note_evict(old, key)
                        steps[shard].append(step)

        shipped_values = pool.shipped_values
        shipped_bytes = pool.shipped_bytes
        matched_by_task = pool.resolve(self.threshold, steps)
        result.values_shipped += pool.shipped_values - shipped_values
        result.bytes_shipped += pool.shipped_bytes - shipped_bytes

        matched_by_rid: Dict[str, List[str]] = {}
        for task_id, (rid, candidates) in enumerate(candidate_lists):
            result.pairs_compared += len(candidates)
            matched_set: Set[str] = set(matched_by_task.get(task_id, ()))
            matched_by_rid[rid] = [
                other for other, _ in candidates if other in matched_set
            ]
        return matched_by_rid

    def _index_blocks(self, rid: str, value: str) -> None:
        self._values[rid] = value
        for key in self.block_keys(value):
            for old in self._blocks.add(key, rid):
                # Rotated out of its last block: off the comparison
                # frontier, so its value is no longer needed.
                self._values.pop(old, None)

    def _merge_slots(self, slots: List[int], result: BatchResolution) -> int:
        """Merge bridged clusters into the most populous slot.

        Losing slots are emptied (records appended to the survivor) but
        kept in the table so every other cluster's index is untouched.
        """
        survivor = max(slots, key=lambda s: (len(self.table.clusters[s]), -s))
        for slot in slots:
            if slot == survivor:
                continue
            cluster = self.table.clusters[slot]
            for record in cluster.records:
                old = self._position[record.rid]
                new_row = len(self.table.clusters[survivor].records)
                self.table.clusters[survivor].records.append(record)
                self._position[record.rid] = (survivor, new_row)
                self._rid_at.pop(old, None)
                self._rid_at[(survivor, new_row)] = record.rid
                result.moved.append(
                    (record.rid, old[0], old[1], survivor, new_row)
                )
            cluster.records = []
            result.merges += 1
        return survivor

    @property
    def blocks_rotated_out(self) -> int:
        """Total block-membership evictions so far (observability)."""
        return self._blocks.rotated_out
