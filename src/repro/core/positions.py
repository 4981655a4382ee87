"""Position functions of the DSL (Appendix B).

A position function maps an input string ``s`` to a 1-based position in
``1 .. |s|+1`` (or fails).  Two kinds exist:

* ``ConstPos(k)`` — the fixed position ``k`` (``k > 0``, forward) or
  ``|s| + 2 + k`` (``k < 0``, backward).
* ``MatchPos(term, k, direction)`` — the beginning (``B``) or ending
  (``E``) position of the ``k``-th match of ``term`` in ``s``; negative
  ``k`` counts from the back (``k = -1`` is the last match).

The module also defines the static preference order of Appendix E and
the per-position candidate table ``P`` of the transformation-graph
constructor (Appendix C), which :mod:`repro.core.labels` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .terms import MatchContext, RegexTerm, term_from_dict

BEGIN = "B"
END = "E"


@dataclass(frozen=True)
class ConstPos:
    """``ConstPos(k)``: an absolute position, forward or backward."""

    k: int

    def evaluate(self, ctx: MatchContext) -> Optional[int]:
        n = len(ctx)
        if self.k > 0:
            return self.k if self.k <= n + 1 else None
        if self.k < 0:
            pos = n + 2 + self.k
            return pos if pos >= 1 else None
        return None

    def sort_key(self) -> Tuple:
        # ConstPos ranks below MatchPos in the static order; forward
        # positions rank above backward ones.
        return (2, 0 if self.k > 0 else 1, abs(self.k))

    def canonical(self) -> Tuple:
        return ("cp", self.k)

    def to_dict(self) -> Dict:
        return {"kind": "cp", "k": self.k}

    def __repr__(self) -> str:
        return f"ConstPos({self.k})"


@dataclass(frozen=True)
class MatchPos:
    """``MatchPos(term, k, direction)``: a match-relative position."""

    term: object  # RegexTerm | ConstTerm
    k: int
    direction: str  # BEGIN | END

    def evaluate(self, ctx: MatchContext) -> Optional[int]:
        matches = ctx.matches(self.term)
        m = len(matches)
        if self.k > 0:
            idx = self.k - 1
        elif self.k < 0:
            idx = m + self.k
        else:
            return None
        if not 0 <= idx < m:
            return None
        beg, end = matches[idx]
        return beg if self.direction == BEGIN else end

    def sort_key(self) -> Tuple:
        # Regex-based terms outrank constant-string terms ("wider
        # character class is better", Appendix E); small absolute match
        # indices outrank large ones; forward outranks backward.
        term_rank = 0 if isinstance(self.term, RegexTerm) else 1
        return (
            term_rank,
            abs(self.k),
            0 if self.k > 0 else 1,
            0 if self.direction == BEGIN else 1,
            self.term.sort_key(),
        )

    def canonical(self) -> Tuple:
        return ("mp", self.term.sort_key(), self.k, self.direction)

    def to_dict(self) -> Dict:
        return {
            "kind": "mp",
            "term": self.term.to_dict(),
            "k": self.k,
            "direction": self.direction,
        }

    def __repr__(self) -> str:
        return f"MatchPos({self.term!r}, {self.k}, {self.direction})"


PositionFunction = object  # ConstPos | MatchPos


def position_from_dict(payload: Dict) -> PositionFunction:
    """Inverse of ``ConstPos.to_dict`` / ``MatchPos.to_dict``."""
    kind = payload.get("kind")
    if kind == "cp":
        return ConstPos(int(payload["k"]))
    if kind == "mp":
        direction = payload["direction"]
        if direction not in (BEGIN, END):
            raise ValueError(f"bad MatchPos direction: {direction!r}")
        return MatchPos(
            term_from_dict(payload["term"]), int(payload["k"]), direction
        )
    raise ValueError(f"unknown position-function kind: {kind!r}")


def position_candidates(
    ctx: MatchContext,
    max_per_position: int = 0,
    boundaries_only: bool = False,
) -> Dict[int, List[PositionFunction]]:
    """Build ``P``: position -> position functions locating it (App. C).

    For every match ``[x, y)`` of every vocabulary term, the forward and
    backward ``MatchPos`` variants land in ``P[x]`` / ``P[y]``; every
    position additionally gets its forward and backward ``ConstPos``.

    When ``max_per_position`` is positive, each list is truncated to its
    best entries under the static order (Appendix E): this is the
    "skip a position function if a larger one locates the same
    position" rule.

    With ``boundaries_only`` (the Appendix E static order in its
    strictest form) only term-match boundaries and the two string ends
    carry position functions: mid-token positions are unreachable by
    ``SubStr``, which kills the degenerate per-character extraction
    programs — the affix functions (Appendix D) cover legitimate
    mid-token cuts instead.
    """
    from .labels import LabelTable  # labels builds on this module

    labels = LabelTable()
    table = labels.position_ids(ctx, max_per_position, boundaries_only)
    return {
        k: [labels.positions[pid] for pid in pids] for k, pids in table.items()
    }


def _static_key(fn: PositionFunction) -> Tuple:
    """Total static order: MatchPos-regex < MatchPos-const < ConstPos."""
    if isinstance(fn, MatchPos):
        head = 0 if isinstance(fn.term, RegexTerm) else 1
        return (head,) + fn.sort_key()
    return (2,) + fn.sort_key()
