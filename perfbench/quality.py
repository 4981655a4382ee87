"""Output quality against ground truth, and model fingerprints."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Keys whose values differ between byte-identical learning runs
#: (wall-clock stamps), dropped before fingerprinting.
VOLATILE_KEYS = frozenset({"created_at", "learn_seconds"})


def cell_quality(
    before: Mapping[str, str],
    after: Mapping[str, str],
    canonical: Mapping[str, str],
) -> Tuple[float, float]:
    """``(precision, recall)`` over cells keyed by record id.

    Precision is the share of changed cells that end canonical; recall
    is the share of non-canonical input cells that end canonical.
    """
    changed = good = dirty = fixed = 0
    for key, old in before.items():
        new = after[key]
        truth = canonical[key]
        if new != old:
            changed += 1
            good += new == truth
        if old != truth:
            dirty += 1
            fixed += new == truth
    precision = good / changed if changed else 1.0
    recall = fixed / dirty if dirty else 1.0
    return precision, recall


def majority(labels: Iterable[str]) -> Optional[str]:
    """The most common label; ties go to the smallest, so the answer
    does not depend on row order."""
    counts = Counter(labels)
    if not counts:
        return None
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def golden_precision(
    golden: Sequence[Optional[str]], expected: Sequence[Optional[str]]
) -> float:
    """Share of golden values equal to the expected golden value."""
    if not golden:
        return 0.0
    hits = sum(1 for g, e in zip(golden, expected) if g == e)
    return hits / len(golden)


def _strip(payload):
    if isinstance(payload, dict):
        return {
            k: _strip(v) for k, v in payload.items() if k not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [_strip(v) for v in payload]
    return payload


def fingerprint(payload: Dict) -> str:
    """sha256 of an artifact's ``to_dict()`` without wall-clock keys."""
    text = json.dumps(_strip(payload), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def values_by_rid(table, column: str) -> Dict[str, str]:
    return {
        record.rid: record.values[column]
        for cluster in table.clusters
        for record in cluster.records
    }
