"""Labeled pair sampling (Section 8: "we first randomly sampled 1000
non-identical value pairs for each dataset and manually labeled each").

Our "manual labels" come from generator ground truth; pairs are tracked
by cell reference so the same sample can be re-examined after any
number of updates to the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Tuple

from ..data.table import CellRef, ClusterTable

Pair = Tuple[CellRef, CellRef]


@dataclass(frozen=True)
class LabeledPair:
    """A sampled same-cluster pair with its ground-truth label."""

    a: CellRef
    b: CellRef
    is_variant: bool


def all_nonidentical_pairs(table: ClusterTable, column: str) -> List[Pair]:
    """Every same-cluster cell pair whose values currently differ."""
    pairs: List[Pair] = []
    for ci in range(table.num_clusters):
        cells = table.cluster_cells(ci, column)
        for a, b in combinations(cells, 2):
            if table.value(a) != table.value(b):
                pairs.append((a, b))
    return pairs


def sample_labeled_pairs(
    table: ClusterTable,
    column: str,
    labeler: Callable[[CellRef, CellRef], bool],
    sample_size: int = 1000,
    seed: int = 0,
) -> List[LabeledPair]:
    """Sample up to ``sample_size`` labeled non-identical pairs."""
    pairs = all_nonidentical_pairs(table, column)
    rng = random.Random(seed)
    if len(pairs) > sample_size:
        pairs = rng.sample(pairs, sample_size)
    return [LabeledPair(a, b, labeler(a, b)) for a, b in pairs]
