"""The candidate-replacement value object (Section 3, Step 1).

A replacement ``lhs -> rhs`` states that the two strings are matched
and one could be substituted for the other at the places it was
generated from.  Replacements are directed; both directions are always
generated as separate candidates.

A :class:`Replacement` is a tuple ``(lhs, rhs)``: the learner hashes,
compares and sorts candidates tens of thousands of times per run, and
a tuple does all three in C.  It therefore also equals the plain tuple
``(lhs, rhs)`` and hashes like it, so a set or dict should not hold
both kinds of key.
"""

from __future__ import annotations

from collections import namedtuple


class Replacement(namedtuple("Replacement", ("lhs", "rhs"))):
    """A directed candidate replacement ``lhs -> rhs``."""

    __slots__ = ()

    def __new__(cls, lhs: str, rhs: str) -> "Replacement":
        if lhs == rhs:
            raise ValueError("a replacement requires two different strings")
        return super().__new__(cls, lhs, rhs)

    def reversed(self) -> "Replacement":
        """The opposite-direction candidate ``rhs -> lhs``."""
        return Replacement(self.rhs, self.lhs)

    def __repr__(self) -> str:
        return f"{self.lhs!r} -> {self.rhs!r}"
