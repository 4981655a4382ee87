"""The clustered-records data model (Problem Definition, Section 2).

Entity consolidation takes a collection of clusters of duplicate
records.  :class:`ClusterTable` stores them column-wise-mutable so the
standardization pipeline can update values in place;
:class:`CellRef` identifies one attribute value of one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


class CellRef(NamedTuple):
    """One attribute value: (cluster index, row within cluster, column).

    A named tuple: the candidate store keeps cells in sets and pairs,
    so equality and hashing run in C."""

    cluster: int
    row: int
    column: str


@dataclass
class Record:
    """A single source record: an id, a source tag, and its values."""

    rid: str
    values: Dict[str, str]
    source: str = ""


@dataclass
class Cluster:
    """A cluster of records believed to describe one real-world entity."""

    key: str
    records: List[Record] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


class ClusterTable:
    """A collection of clusters sharing a schema."""

    def __init__(self, columns: Sequence[str], clusters: Optional[List[Cluster]] = None):
        self.columns: Tuple[str, ...] = tuple(columns)
        self.clusters: List[Cluster] = clusters if clusters is not None else []

    # -- construction ------------------------------------------------------

    def add_cluster(self, key: str, records: Iterable[Record]) -> int:
        """Append a cluster; returns its index."""
        cluster = Cluster(key, list(records))
        self.clusters.append(cluster)
        return len(self.clusters) - 1

    def copy(self) -> "ClusterTable":
        """Deep copy (values are copied; safe to mutate independently)."""
        clusters = [
            Cluster(
                c.key,
                [Record(r.rid, dict(r.values), r.source) for r in c.records],
            )
            for c in self.clusters
        ]
        return ClusterTable(self.columns, clusters)

    # -- access ------------------------------------------------------------

    def value(self, cell: CellRef) -> str:
        return self.clusters[cell.cluster].records[cell.row].values[cell.column]

    def set_value(self, cell: CellRef, value: str) -> None:
        self.clusters[cell.cluster].records[cell.row].values[cell.column] = value

    def cells(self, column: str) -> Iterator[CellRef]:
        """All cells of one column, cluster-major order."""
        for ci, cluster in enumerate(self.clusters):
            for ri in range(len(cluster.records)):
                yield CellRef(ci, ri, column)

    def cluster_cells(self, cluster: int, column: str) -> List[CellRef]:
        return [
            CellRef(cluster, ri, column)
            for ri in range(len(self.clusters[cluster].records))
        ]

    def _check_column(self, column: str) -> None:
        """Missing *cells* are tolerated, unknown *columns* are not: a
        typo'd column name must raise, not read every cell as ""."""
        if column not in self.columns:
            raise KeyError(
                f"unknown column {column!r} (have: {list(self.columns)})"
            )

    def cluster_values(self, cluster: int, column: str) -> List[str]:
        """One cluster's values; records missing the column read as ""
        (multi-column sources accept records with arbitrary keys)."""
        self._check_column(column)
        return [
            record.values.get(column, "")
            for record in self.clusters[cluster].records
        ]

    def column_values(self, column: str) -> List[str]:
        """All values of one column, cluster-major; missing cells read
        as "" like :meth:`cluster_values`."""
        self._check_column(column)
        return [
            record.values.get(column, "")
            for cluster in self.clusters
            for record in cluster.records
        ]

    # -- shape -------------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_records(self) -> int:
        return sum(len(c.records) for c in self.clusters)

    def __repr__(self) -> str:
        return (
            f"ClusterTable({self.num_records} records in "
            f"{self.num_clusters} clusters, columns={list(self.columns)})"
        )
