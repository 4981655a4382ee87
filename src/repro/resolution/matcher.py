"""A small end-to-end entity resolver: blocking -> pairwise similarity
-> union-find clustering -> :class:`~repro.data.table.ClusterTable`.

This is the substrate that *produces* the input the paper's method
consumes: clusters of duplicate records.  The paper's datasets were
clustered by a key attribute (ISBN / ISSN / EIN); ``cluster_by_key``
reproduces that, while ``Matcher`` offers similarity-based resolution
for records lacking a reliable key.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..data.table import Cluster, ClusterTable, Record
from .blocking import BlockKeyFn, build_blocks, candidate_pairs, token_keys
from .similarity import jaccard, levenshtein_similarity
from .unionfind import UnionFind

SimilarityFn = Callable[[str, str], float]


def hybrid_similarity(
    a: str, b: str, score_cutoff: Optional[float] = None
) -> float:
    """Mean of token Jaccard and Levenshtein similarity — a reasonable
    default for names/titles/addresses.

    With ``score_cutoff`` set, the result is exact whenever it is
    ``>= score_cutoff`` and otherwise guaranteed ``< score_cutoff``:
    the cheap token Jaccard runs first, and the expensive Levenshtein
    kernel is either skipped entirely (the Jaccard half already caps
    the mean below the cutoff, or a length gap does) or run banded with
    exactly the residual similarity it still has to reach.  Threshold
    decisions — the only thing blocked matching consumes — are
    identical to the uncut version.
    """
    la, lb = a.lower(), b.lower()
    if la == lb:
        return 1.0
    j = jaccard(la.split(), lb.split())
    if score_cutoff is None:
        return 0.5 * j + 0.5 * levenshtein_similarity(la, lb)
    # mean >= c needs the Levenshtein half to reach 2c - j.
    needed = 2.0 * score_cutoff - j
    if needed > 1.0:
        return 0.5 * j  # unreachable even at edit distance 0
    if needed <= 0.0:
        return 0.5 * j + 0.5 * levenshtein_similarity(la, lb)
    return 0.5 * j + 0.5 * levenshtein_similarity(la, lb, score_cutoff=needed)


def _accepts_score_cutoff(similarity: SimilarityFn) -> bool:
    try:
        return "score_cutoff" in inspect.signature(similarity).parameters
    except (TypeError, ValueError):  # builtins, C callables
        return False


def thresholded(
    similarity: SimilarityFn, threshold: float
) -> Callable[[str, str], bool]:
    """``(a, b) -> similarity(a, b) >= threshold`` as one callable.

    Similarity functions that advertise a ``score_cutoff`` keyword
    (like :func:`hybrid_similarity`) are called with the threshold so
    their early exits engage; plain two-argument callables are used
    as-is.  Either way the decisions equal ``fn(a, b) >= threshold``.
    """
    if _accepts_score_cutoff(similarity):
        def decide(a: str, b: str) -> bool:
            return similarity(a, b, score_cutoff=threshold) >= threshold
    else:
        def decide(a: str, b: str) -> bool:
            return similarity(a, b) >= threshold
    return decide


class PairDecisionMemo:
    """A bounded memo for repeated ``(value, value)`` match decisions.

    Streams re-present the same value pairs constantly (popular values
    land in many blocks; batches carry duplicates), and a threshold
    decision is a pure function of the two strings.  One shared memo
    per matching scope (a resolver, a batch) collapses those repeats to a
    dict hit.  Capacity-bounded so a long stream cannot grow it without
    limit: on overflow the memo is simply cleared (the kernel is an
    optimization, never state).
    """

    __slots__ = ("decide", "capacity", "_memo")

    def __init__(
        self,
        similarity: SimilarityFn,
        threshold: float,
        capacity: int = 65536,
    ) -> None:
        self.decide = thresholded(similarity, threshold)
        self.capacity = capacity
        self._memo: Dict[Tuple[str, str], bool] = {}

    def __call__(self, a: str, b: str) -> bool:
        key = (a, b)
        memo = self._memo
        flag = memo.get(key)
        if flag is None:
            flag = self.decide(a, b)
            if len(memo) >= self.capacity:
                memo.clear()
            memo[key] = flag
        return flag


@dataclass
class Matcher:
    """Similarity-threshold entity resolution over one attribute."""

    attribute: str
    threshold: float = 0.8
    similarity: SimilarityFn = field(default=hybrid_similarity)
    block_keys: BlockKeyFn = field(default=token_keys)
    max_block_size: int = 50

    def match_pairs(self, records: Sequence[Record]) -> List[Tuple[int, int]]:
        """Record index pairs whose similarity clears the threshold."""
        values = [r.values.get(self.attribute, "") for r in records]
        blocks = build_blocks(values, self.block_keys)
        decide = PairDecisionMemo(self.similarity, self.threshold)
        matched: List[Tuple[int, int]] = []
        for a, b in sorted(candidate_pairs(blocks, self.max_block_size)):
            if decide(values[a], values[b]):
                matched.append((a, b))
        return matched

    def resolve(
        self, records: Sequence[Record], columns: Optional[Sequence[str]] = None
    ) -> ClusterTable:
        """Cluster records by transitive closure of matches."""
        uf = UnionFind(range(len(records)))
        for a, b in self.match_pairs(records):
            uf.union(a, b)
        if columns is None:
            columns = _infer_columns(records)
        table = ClusterTable(columns)
        for members in uf.groups():
            key = records[members[0]].rid
            table.add_cluster(key, [records[i] for i in members])
        return table


def cluster_by_key(
    records: Sequence[Record],
    key_attribute: str,
    columns: Optional[Sequence[str]] = None,
) -> ClusterTable:
    """Cluster records by exact key equality (ISBN / ISSN / EIN style).

    Records with an empty key become singleton clusters.
    """
    if columns is None:
        columns = _infer_columns(records)
    by_key: Dict[str, List[Record]] = {}
    singletons: List[Record] = []
    for record in records:
        key = record.values.get(key_attribute, "")
        if key:
            by_key.setdefault(key, []).append(record)
        else:
            singletons.append(record)
    table = ClusterTable(columns)
    for key in sorted(by_key):
        table.add_cluster(key, by_key[key])
    for record in singletons:
        table.add_cluster(f"__single_{record.rid}", [record])
    return table


def _infer_columns(records: Sequence[Record]) -> List[str]:
    columns: List[str] = []
    for record in records:
        for column in record.values:
            if column not in columns:
                columns.append(column)
    return columns
