"""The durable oracle-verdict cache (decision-cache durability).

Every oracle verdict is the product of scarce human attention; losing
the cache on restart means a resumed stream re-asks questions it
already paid for, breaking the subsystem's central guarantee that
repeated variation never costs a second question.  :class:`DecisionCache`
keeps the member-replacement -> verdict mapping the
:class:`~repro.stream.standardizer.IncrementalStandardizer` consults,
and — when given a path — appends every *new* verdict to a JSON-lines
file next to the published model, one verdict object per line::

    {"lhs": "5 Main St", "rhs": "5 Main Street",
     "approved": true, "direction": "forward"}

Append-only JSON-lines is deliberate: a crash mid-write loses at most
the final line (:mod:`repro.jsonl` drops or terminates it on load and
refuses corruption anywhere else), concurrent
readers never see a half-rewritten file, and the log doubles as a
human-auditable review history.  On construction the cache replays the
file, so a restarted consolidator answers every already-judged
variation from the cache — zero repeat oracle questions.

The cache is *first-wins* (matching the in-memory ``dict.setdefault``
semantics it replaces): once a member replacement has a verdict, later
verdicts for the same member are ignored, in memory and on disk.

Lookup is **orientation-aware**: a verdict on ``A -> B`` also answers
``B -> A``, with the direction flipped so both resolve to the *same*
rewrite.  The store derives a value pair in whichever orientation its
cells were indexed, so later batches can resurface a judged pair
reversed; without the flip that re-ask costs a second question and —
worse — when neither side is canonical the oracle's direction default
approves both orientations, planting an A⇄B rewrite cycle that the
replay fixed-point in
:meth:`~repro.stream.standardizer.IncrementalStandardizer.reuse_confirmed`
could never escape.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..core.replacement import Replacement
from ..jsonl import read_rows, repair_tail
from ..pipeline.oracle import FORWARD, REVERSE, Decision

PathLike = Union[str, Path]

#: verdicts with no explicit provenance were asked of a human
DEFAULT_SOURCE = "asked"


def parse_verdict(line: str) -> Tuple[Replacement, Decision, str]:
    """One verdict log line -> ``(replacement, decision, source)``."""
    row = json.loads(line)
    replacement = Replacement(str(row["lhs"]), str(row["rhs"]))
    direction = str(row.get("direction", FORWARD))
    if direction not in (FORWARD, REVERSE):
        raise ValueError(f"bad direction {direction!r}")
    decision = Decision(bool(row["approved"]), direction)
    return replacement, decision, str(row.get("source", DEFAULT_SOURCE))


def archive_log(path: Optional[Path]) -> Optional[Path]:
    """Move an existing verdict log aside for a fresh (``resume=False``)
    run; returns the backup path (None if there was nothing to move).

    A fresh run must neither *replay* the old verdicts (it was asked to
    start over) nor *append* to the same file (first-wins replay would
    then favor the stale verdicts over the fresh run's on every later
    resume).  The old log is renamed — never deleted: it is paid-for
    human review history — to the first free ``<name>.pre-fresh-<k>``
    slot.
    """
    if path is None or not path.exists():
        return None
    k = 1
    while True:
        backup = path.with_name(f"{path.name}.pre-fresh-{k}")
        if not backup.exists():
            break
        k += 1
    path.rename(backup)
    return backup


class DecisionCache:
    """Member-replacement verdicts, optionally persisted as JSON-lines.

    Quacks like the plain dict it replaced (``get`` / ``items`` /
    ``__contains__`` / ``__len__``), plus :meth:`record` which both
    caches and durably appends a verdict.
    """

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._decisions: Dict[Replacement, Decision] = {}
        #: verdicts answered from the replayed log since construction
        self.replayed = 0
        if self.path is not None and self.path.exists():
            entries, _ = read_rows(
                self.path, parse_verdict, "decision log entry"
            )
            for replacement, decision, _source in entries:
                # First wins in *either* orientation, exactly like
                # :meth:`record`: a log written before lookups were
                # orientation-aware can hold both A->B and B->A
                # (approved with conflicting resolved directions);
                # loading both would replant the rewrite cycle the
                # mirrored lookup exists to prevent.
                if (
                    replacement in self._decisions
                    or replacement.reversed() in self._decisions
                ):
                    continue
                self._decisions[replacement] = decision
            self.replayed = len(self._decisions)
            # Repair a crash-torn tail *now*, after the strict read
            # (a foreign file raises before anything touches it):
            # tolerating the tail on load but leaving it in place would
            # let the next append glue JSON onto the fragment.
            repair_tail(self.path, parse_verdict)

    # -- dict face ---------------------------------------------------------

    def get(self, replacement: Replacement) -> Optional[Decision]:
        decision = self._decisions.get(replacement)
        if decision is not None:
            return decision
        mirrored = self._decisions.get(replacement.reversed())
        if mirrored is None:
            return None
        # The judged pair, re-derived in the opposite orientation: the
        # same verdict applies, with the direction flipped so the
        # resolved rewrite is identical to the recorded one.
        return Decision(
            mirrored.approved,
            REVERSE if mirrored.direction == FORWARD else FORWARD,
        )

    def items(self):
        return self._decisions.items()

    def __contains__(self, replacement: Replacement) -> bool:
        return (
            replacement in self._decisions
            or replacement.reversed() in self._decisions
        )

    def __len__(self) -> int:
        return len(self._decisions)

    # -- recording ---------------------------------------------------------

    def record(
        self,
        replacement: Replacement,
        decision: Decision,
        source: Optional[str] = None,
    ) -> bool:
        """Cache ``decision`` for ``replacement`` (first verdict wins).

        Returns True when the verdict was new; new verdicts are
        immediately appended (and flushed) to the backing file, so a
        crash directly after the oracle answered still keeps the
        answer.  ``source`` tags machine-settled verdicts in the log
        (e.g. ``"inferred"`` for transitively-proven rewrites from
        :mod:`repro.stream.scheduler`); verdicts without it were asked
        of a human.  Replay ignores the tag — an inferred verdict binds
        exactly like an asked one — but ``repro decisions audit``
        reports the split.
        """
        if (
            replacement in self._decisions
            or replacement.reversed() in self._decisions
        ):
            return False  # first verdict wins, in either orientation
        self._decisions[replacement] = decision
        if self.path is not None:
            row = {
                "lhs": replacement.lhs,
                "rhs": replacement.rhs,
                "approved": decision.approved,
                "direction": decision.direction,
            }
            if source is not None:
                row["source"] = source
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return True
