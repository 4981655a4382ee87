"""Verdict-log tooling (``repro decisions``): compact, diff, audit.

A durable decision log (:mod:`repro.stream.decisions`) is paid-for
human review history, and long-lived streams accumulate artifacts in
it: orientation-duplicate lines from logs written before lookups were
orientation-aware, archived ``*.pre-fresh-N`` generations, and — since
the scheduler landed — machine-``inferred`` verdicts interleaved with
asked ones.  These helpers read the raw JSON-lines file (tolerating
the same crash-torn tail the cache repairs) and answer the operational
questions: what does this log actually decide (:func:`compact_log`),
how do two logs differ (:func:`diff_logs`), and is this log healthy
(:func:`audit_log`)?

Everything here is read-only and parses lines with the cache's own
:func:`~repro.stream.decisions.parse_verdict`; the authoritative
replay semantics stay in :class:`~repro.stream.decisions.DecisionCache`
(first verdict wins, in either orientation), and these functions
apply exactly that rule so their answers match what a resumed stream
would do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..jsonl import read_rows
from ..pipeline.oracle import REVERSE
from .decisions import DEFAULT_SOURCE, parse_verdict

PathLike = Union[str, Path]


@dataclass(frozen=True)
class LogEntry:
    """One verdict line, as written (orientation preserved)."""

    lhs: str
    rhs: str
    approved: bool
    direction: str
    source: str
    line: int  # 1-based line number in the file

    @property
    def pair(self) -> Tuple[str, str]:
        """Orientation-free identity of the judged value pair."""
        return (min(self.lhs, self.rhs), max(self.lhs, self.rhs))

    @property
    def outcome(self) -> Tuple[str, ...]:
        """The orientation-free effect of the verdict: the resolved
        rewrite for approvals, a plain marker for rejections.  Two
        lines with the same pair and the same outcome are duplicates;
        same pair, different outcome is a conflict."""
        if not self.approved:
            return ("rejected",)
        if self.direction == REVERSE:
            return ("rewrite", self.rhs, self.lhs)
        return ("rewrite", self.lhs, self.rhs)

    def to_json(self) -> str:
        row = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "approved": self.approved,
            "direction": self.direction,
        }
        if self.source != DEFAULT_SOURCE:
            row["source"] = self.source
        return json.dumps(row, ensure_ascii=False)


def read_log(path: PathLike) -> Tuple[List[LogEntry], Optional[str]]:
    """Parse a verdict log into entries plus a tail-damage note.

    The same strict replay and parser :class:`DecisionCache` loads
    with (:func:`repro.jsonl.read_rows`): only the *final* line may be
    malformed (a crash-torn append, reported as ``"torn tail"``) or
    missing its newline (``"unterminated tail"``); corruption anywhere
    else raises ``ValueError`` loudly.
    """
    rows, damage = read_rows(path, parse_verdict, "decision log entry")
    entries = [
        LogEntry(rep.lhs, rep.rhs, dec.approved, dec.direction, source, n)
        for n, (rep, dec, source) in enumerate(rows, start=1)
    ]
    return entries, damage


def compact_log(
    entries: List[LogEntry],
) -> Tuple[List[LogEntry], List[LogEntry]]:
    """Split a log into ``(kept, dropped)`` under replay semantics.

    Keeps the first verdict per value pair **in either orientation** —
    exactly the line set a :class:`DecisionCache` replay would load —
    and drops every later line for an already-decided pair (the
    orientation duplicates legacy logs accumulated, plus any exact
    repeats).  Replaying the compacted log is byte-for-byte equivalent
    to replaying the original.
    """
    kept: List[LogEntry] = []
    dropped: List[LogEntry] = []
    seen: set = set()
    for entry in entries:
        if entry.pair in seen:
            dropped.append(entry)
            continue
        seen.add(entry.pair)
        kept.append(entry)
    return kept, dropped


def _effective(entries: List[LogEntry]) -> Dict[Tuple[str, str], LogEntry]:
    """Pair -> the entry replay would honor (first wins)."""
    effective: Dict[Tuple[str, str], LogEntry] = {}
    for entry in entries:
        effective.setdefault(entry.pair, entry)
    return effective


def diff_logs(
    a_entries: List[LogEntry], b_entries: List[LogEntry]
) -> Dict[str, List]:
    """Compare two logs by their *effective* verdicts.

    Returns ``only_a`` / ``only_b`` (pairs decided in one log only,
    as their effective entries) and ``conflicts`` (pairs both logs
    decide, with different outcomes — ``(a_entry, b_entry)`` tuples).
    Orientation and duplicate lines never count as differences, since
    replay ignores them.
    """
    a_eff = _effective(a_entries)
    b_eff = _effective(b_entries)
    only_a = [a_eff[pair] for pair in sorted(a_eff) if pair not in b_eff]
    only_b = [b_eff[pair] for pair in sorted(b_eff) if pair not in a_eff]
    conflicts = [
        (a_eff[pair], b_eff[pair])
        for pair in sorted(a_eff.keys() & b_eff.keys())
        if a_eff[pair].outcome != b_eff[pair].outcome
    ]
    return {"only_a": only_a, "only_b": only_b, "conflicts": conflicts}


def audit_log(
    entries: List[LogEntry], damage: Optional[str]
) -> Dict[str, object]:
    """Health report over one parsed log.

    * ``entries`` / ``effective`` — raw lines vs pairs replay honors;
    * ``duplicates`` — later lines repeating an already-decided pair
      with the *same* outcome (harmless; compaction drops them);
    * ``conflicts`` — later lines repeating a pair with a *different*
      outcome (first still wins on replay, but the disagreement is
      review history worth human eyes);
    * ``by_source`` / ``approved`` / ``rejected`` — over the effective
      verdicts;
    * ``damage`` — the tail note from :func:`read_log`, if any.
    """
    effective = _effective(entries)
    duplicates: List[LogEntry] = []
    conflicts: List[Tuple[LogEntry, LogEntry]] = []
    for entry in entries:
        first = effective[entry.pair]
        if first.line == entry.line:
            continue
        if entry.outcome == first.outcome:
            duplicates.append(entry)
        else:
            conflicts.append((first, entry))
    by_source: Dict[str, int] = {}
    approved = 0
    for entry in effective.values():
        by_source[entry.source] = by_source.get(entry.source, 0) + 1
        if entry.approved:
            approved += 1
    return {
        "entries": len(entries),
        "effective": len(effective),
        "duplicates": duplicates,
        "conflicts": conflicts,
        "by_source": dict(sorted(by_source.items())),
        "approved": approved,
        "rejected": len(effective) - approved,
        "damage": damage,
    }
