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

Similarity mode keeps its blocks in a
:class:`~repro.resolution.blocking.BlockIndex`, optionally **bounded**
(``block_retention``): a full block rotates its oldest member out, so
per-arrival cost stops growing with stream length.  Matching always
runs in this process, whatever ``--shards`` says: the shard workers
of :mod:`repro.stream.shards` serve only the learner's grouping feed,
not resolution, whose per-batch comparisons are too cheap to pay for
a process round trip on a small machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

        self.uf = UnionFind()
        self._position: Dict[str, Position] = {}
        self._rid_at: Dict[Position, str] = {}
        #: similarity mode: block key -> rids
        self._blocks = BlockIndex(block_retention)
        #: key mode: key value -> cluster slot
        self._key_slot: Dict[str, int] = {}
        self._values: Dict[str, str] = {}
        #: memoized inline threshold kernel (early-exit similarity)
        self._decide: Optional[PairDecisionMemo] = None

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
        intra-batch duplicates resolve too.
        """
        result = BatchResolution()
        for record in records:
            self._add_record(record, result)
        return result

    def _add_record(self, record: Record, result: BatchResolution) -> None:
        rid = record.rid
        if rid in self._position:
            raise ValueError(f"duplicate record id in stream: {rid!r}")
        self.uf.add(rid)
        if self.key_attribute is not None:
            slot = self._place_by_key(record, result)
        else:
            slot = self._place_by_similarity(record, result)
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
        self, record: Record, result: BatchResolution
    ) -> int:
        value = record.values.get(self.attribute or "", "")
        matched = self._match_existing(value, result)
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

    def _candidates(self, value: str) -> List[str]:
        """Deduplicated comparison candidates for a new value, in
        block-visit order."""
        seen: Set[str] = set()
        candidates: List[str] = []
        for key in self.block_keys(value):
            members = self._blocks.members(key)
            if len(members) > self.max_block_size:
                # Stop-word block: same guard as batch blocking.
                continue
            for other in members:
                if other in seen:
                    continue
                seen.add(other)
                candidates.append(other)
        return candidates

    def _match_existing(
        self, value: str, result: BatchResolution
    ) -> List[str]:
        """Existing rids whose value matches the new one (blocked)."""
        if self._decide is None:
            self._decide = PairDecisionMemo(self.similarity, self.threshold)
        matched: List[str] = []
        for other in self._candidates(value):
            result.pairs_compared += 1
            if self._decide(value, self._values[other]):
                matched.append(other)
        return matched

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
