"""Structure signatures and structure-equivalence refinement (Section 7.2).

Each side of a replacement maps to a sequence of *terms*: maximal runs
of the four regex character classes (digits ``d``, lowercase ``l``,
capitals ``C``, whitespace ``b``) plus one single-character term per
character outside those classes.  Two replacements are structurally
equivalent iff both sides' signatures match; the paper groups
replacements only within structure-equivalence classes, which both
sharpens groups for human review and lets the incremental algorithm
seed upper bounds with structure-group sizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from .replacement import Replacement

#: A structure signature: tuple of term tags.  Regex-based terms use
#: their one-letter names; single-character terms use the character.
Signature = Tuple[str, ...]

#: Signature of a whole replacement: (Struc(lhs), Struc(rhs)).
StructureKey = Tuple[Signature, Signature]


def _char_class(ch: str) -> str:
    if ch.isdigit() and ch.isascii():
        return "d"
    if "a" <= ch <= "z":
        return "l"
    if "A" <= ch <= "Z":
        return "C"
    if ch.isspace():
        return "b"
    return ""  # single-character term


def structure_signature(s: str) -> Signature:
    """``Struc(s)``: collapse class runs, keep other chars one-by-one.

    Examples: ``Struc("9") == ("d",)``; ``Struc("9th") == ("d", "l")``;
    ``Struc("A-1") == ("C", "-", "d")``.
    """
    tags: List[str] = []
    prev_class = None
    for ch in s:
        cls = _char_class(ch)
        if not cls:
            tags.append(ch)
            prev_class = None
        else:
            if cls != prev_class:
                tags.append(cls)
            prev_class = cls
    return tuple(tags)


def structure_key(replacement: Replacement) -> StructureKey:
    """Structure equivalence key of a replacement (Definition 4)."""
    return (
        structure_signature(replacement.lhs),
        structure_signature(replacement.rhs),
    )


def partition_by_structure(
    replacements: Iterable[Replacement],
) -> Dict[StructureKey, List[Replacement]]:
    """Partition candidates into structure groups, preserving input
    order within each group (keeps downstream behaviour deterministic).

    Each distinct string's signature is computed once per call: many
    candidates share a side (every token-level segment of a value, both
    orientations of a pair).
    """
    signatures: Dict[str, Signature] = {}
    groups: Dict[StructureKey, List[Replacement]] = defaultdict(list)
    for replacement in replacements:
        lhs, rhs = replacement
        lhs_sig = signatures.get(lhs)
        if lhs_sig is None:
            lhs_sig = signatures[lhs] = structure_signature(lhs)
        rhs_sig = signatures.get(rhs)
        if rhs_sig is None:
            rhs_sig = signatures[rhs] = structure_signature(rhs)
        groups[(lhs_sig, rhs_sig)].append(replacement)
    return dict(groups)


def structurally_equivalent(a: Replacement, b: Replacement) -> bool:
    """``Struc(a) == Struc(b)`` (Definition 4)."""
    return structure_key(a) == structure_key(b)
