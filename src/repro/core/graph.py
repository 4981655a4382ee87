"""Transformation graphs (Definition 2, Appendix C).

For a replacement ``s -> t`` the graph has nodes ``n1 .. n_{|t|+1}`` —
one per boundary position of ``t`` — and an edge ``(i, j)`` for every
``1 <= i < j <= |t|+1``.  The labels of edge ``(i, j)`` are the string
functions that output ``t[i, j)`` when applied to ``s``:

* ``ConstantStr(t[i, j))`` — always present, so every replacement has
  at least one consistent program (the one-edge constant path);
* ``SubStr(f, g)`` for every occurrence ``s[x, y) == t[i, j)`` and
  position functions ``f`` locating ``x`` and ``g`` locating ``y``;
* ``Prefix``/``Suffix`` labels where ``t[i, j)`` is a proper affix of a
  term match in ``s`` (Appendix D), restricted to the *longest* affix
  per anchor position (static order, Appendix E).

Labels are interned where they are built: each edge is a tuple of ids
of a :class:`~repro.core.labels.LabelTable`, deduplicated and sorted by
the table's precomputed :func:`~repro.core.functions.label_sort_key` so
downstream DFS is deterministic.  A structure source builds all its
graphs, across resets, against one table, so a label object is made
once per source rather than once per edge.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, Config
from .functions import ConstantStr, Prefix, StringFunction, SubStr, Suffix
from .labels import LabelTable
from .terms import DEFAULT_VOCABULARY, MatchContext, TermVocabulary

Edge = Tuple[int, int]


class TransformationGraph:
    """The DAG of all consistent programs for one replacement.

    Edges are stored as label-id tuples of ``table`` (``id_edges``, and
    ``id_out``: per node its ``(end node, ids)`` pairs in edge order);
    ``edges``, ``labels()``, ``all_labels()`` and ``out_edges`` are
    label-object views built on access.
    """

    __slots__ = ("source", "target", "table", "id_edges", "id_out", "gid")

    def __init__(
        self,
        source: str,
        target: str,
        id_edges: Dict[Edge, Tuple[int, ...]],
        table: LabelTable,
    ) -> None:
        self.source = source
        self.target = target
        self.table = table
        self.id_edges = id_edges
        self.gid: int = -1  # assigned when registered in an index
        out: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        for (i, j), lids in sorted(id_edges.items()):
            out.setdefault(i, []).append((j, lids))
        self.id_out = out

    @property
    def num_nodes(self) -> int:
        return len(self.target) + 1

    @property
    def last_node(self) -> int:
        return len(self.target) + 1

    def _labels(self, lids: Tuple[int, ...]) -> Tuple[StringFunction, ...]:
        return tuple(map(self.table.labels.__getitem__, lids))

    @property
    def edges(self) -> Dict[Edge, Tuple[StringFunction, ...]]:
        return {edge: self._labels(lids) for edge, lids in self.id_edges.items()}

    @property
    def out_edges(self) -> Dict[int, List[Tuple[int, Tuple[StringFunction, ...]]]]:
        return {
            i: [(j, self._labels(lids)) for j, lids in row]
            for i, row in self.id_out.items()
        }

    def labels(self, i: int, j: int) -> Tuple[StringFunction, ...]:
        return self._labels(self.id_edges.get((i, j), ()))

    def all_labels(self) -> Iterable[Tuple[Edge, StringFunction]]:
        for edge, labels in self.edges.items():
            for label in labels:
                yield edge, label

    def __repr__(self) -> str:
        return (
            f"TransformationGraph({self.source!r} -> {self.target!r}, "
            f"{len(self.id_edges)} edges)"
        )


def build_graph(
    source: str,
    target: str,
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    config: Config = DEFAULT_CONFIG,
    constant_whitelist: Optional[frozenset] = None,
    table: Optional[LabelTable] = None,
) -> Optional[TransformationGraph]:
    """Construct the transformation graph for ``source -> target``.

    Returns ``None`` when either string exceeds
    ``config.max_string_length`` (such replacements fall back to
    singleton groups) or the target is empty.

    ``constant_whitelist`` (built per structure group by the grouping
    layer when ``config.scored_constants`` is on) lists the recurring
    alphanumeric tokens; ``ConstantStr`` labels whose text contains
    other tokens are dropped except on the whole-target edge, which is
    always labeled so every replacement keeps a consistent program.

    Labels are interned into ``table`` as they are found (a private
    table when none is given); the graph's edges are id tuples of it.
    """
    if not target or not source:
        return None
    if (
        len(source) > config.max_string_length
        or len(target) > config.max_string_length
    ):
        return None

    if table is None:
        table = LabelTable()
    ctx = MatchContext(source, vocabulary)
    positions = table.position_ids(
        ctx, config.max_position_functions, config.boundary_positions_only
    )
    boundaries = (
        _unit_boundaries(target) if config.aligned_constants else None
    )

    label, functions = table.label, table.positions
    m, last = len(source), len(target) + 1
    cap = config.max_occurrences_per_edge
    budget = config.max_substr_labels_per_edge
    whitelist = constant_whitelist
    # Source positions some position function locates: a SubStr label
    # needs one at both ends of its span.
    anchors = {k for k, pids in positions.items() if pids}
    # SubStr ids per source span ``(x, y)``: every target span with the
    # text of ``s[x, y)`` reads the same list.
    spans: Dict[Edge, List[int]] = {}

    def substr_ids(x: int, y: int) -> List[int]:
        lids = spans.get((x, y))
        if lids is None:
            lids = spans[(x, y)] = []
            for f in positions[x]:
                for g in positions[y]:
                    lids.append(label((f, g), SubStr, functions[f], functions[g]))
                    if len(lids) >= budget:
                        return lids
        return lids

    where: Dict[str, List[int]] = {}
    for x, ch in enumerate(source, start=1):
        where.setdefault(ch, []).append(x)
    edges: Dict[Edge, List[int]] = {}
    for i in range(1, last):
        # Constants may start at i (a unit boundary under
        # aligned_constants) until t[i, j) holds a whole token outside
        # the whitelist: every longer span from i holds it too.
        constants = boundaries is None or i in boundaries
        # Ascending 1-based starts x with s[x, x + j - i) == t[i, j).
        starts = where.get(target[i - 1], ())
        for j in range(i + 1, last + 1):
            labels: List[int] = []
            if constants and (boundaries is None or j in boundaries):
                sub = target[i - 1 : j - 1]
                if whitelist is None:
                    labels.append(label(sub, ConstantStr, sub))
                else:
                    tokens = _ALNUM_TOKEN.findall(sub)
                    if whitelist.issuperset(tokens):
                        labels.append(label(sub, ConstantStr, sub))
                    elif not whitelist.issuperset(tokens[:-1]) or _token_ends(
                        target, j - 1
                    ):
                        constants = False
            if starts:
                # The cap counts every occurrence, with or without labels.
                for x in starts[:cap]:
                    y = x + j - i
                    if x in anchors and y in anchors:
                        labels += substr_ids(x, y)
                if j < last:
                    ch, off = target[j - 1], j - i
                    starts = [
                        x for x in starts if x + off <= m and source[x - 1 + off] == ch
                    ]
            elif not constants:
                break
            if labels:
                edges[(i, j)] = labels
    # The whole-target edge always has its constant, so every
    # replacement keeps a consistent program.
    whole = edges.setdefault((1, last), [])
    lid = label(target, ConstantStr, target)
    if lid not in whole:
        whole.append(lid)

    if config.use_affix:
        _add_affix_labels(ctx, target, edges, table)

    # Definition 2 gives every span an edge, but an edge without labels
    # (possible under aligned_constants) can never appear on a
    # transformation path, so only labeled edges are written.
    key = table.keys.__getitem__
    frozen: Dict[Edge, Tuple[int, ...]] = {
        edge: (lids[0],) if len(lids) == 1 else tuple(sorted(set(lids), key=key))
        for edge, lids in edges.items()
    }
    return TransformationGraph(source, target, frozen, table)


#: The alphanumeric tokens of scored-constant admission (Appendix E's
#: freqStruc order): a ``ConstantStr`` is admitted when each of its
#: tokens recurs within the structure group; pure separators always are.
_ALNUM_TOKEN = re.compile(r"[A-Za-z]+|[0-9]+")


def _token_ends(target: str, q: int) -> bool:
    """Whether the cut before 0-based position ``q`` ends every
    alphanumeric token: none holds both ``target[q - 1]`` and
    ``target[q]``."""
    run = _ALNUM_TOKEN.match(target, q - 1)
    return run is None or run.end() == q


def _unit_boundaries(target: str) -> frozenset:
    """1-based boundary positions of the target's term units: maximal
    runs of the four character classes plus one unit per other char
    (the structure decomposition of Section 7.2)."""
    boundaries = {1, len(target) + 1}
    prev_class = None
    for idx, ch in enumerate(target):
        if ch.isdigit() and ch.isascii():
            cls = "d"
        elif "a" <= ch <= "z":
            cls = "l"
        elif "A" <= ch <= "Z":
            cls = "C"
        elif ch.isspace():
            cls = "b"
        else:
            cls = None  # single-character unit: both sides are boundaries
        if cls is None or cls != prev_class:
            boundaries.add(idx + 1)
            if cls is None:
                boundaries.add(idx + 2)
        prev_class = cls
    return frozenset(boundaries)


def _add_affix_labels(
    ctx: MatchContext,
    target: str,
    edges: Dict[Edge, List[int]],
    table: LabelTable,
) -> None:
    """Add ``Prefix``/``Suffix`` labels (Appendix D) with the
    longest-affix-only static order (Appendix E).

    For each term match and each anchor position in ``t`` we emit only
    the label for the longest proper affix: if both ``t[i, j)`` and
    ``t[i, j+1)`` are prefixes of a match, only the longer edge is
    labeled.  Both forward and backward match indices are emitted so the
    label can be shared across strings with different match counts.
    """
    n = len(target)
    label = table.label
    # 1-based positions of each character of t
    where: Dict[str, List[int]] = {}
    for k, ch in enumerate(target, start=1):
        where.setdefault(ch, []).append(k)
    for term in ctx.vocabulary.regex_terms:
        slot = table.slot(term)
        matches = ctx.matches(term)
        m = len(matches)
        for idx, (x, y) in enumerate(matches, start=1):
            text = ctx.s[x - 1 : y - 1]
            if len(text) < 2:
                continue
            back = idx - m - 1
            # Longest proper prefix of `text` starting at each i in t.
            for i in where.get(text[0], ()):
                length = _common_prefix_len(target, i - 1, text)
                length = min(length, len(text) - 1, n + 1 - i)
                if length >= 1:
                    labels = edges.setdefault((i, i + length), [])
                    labels.append(label((Prefix, slot, idx), Prefix, term, idx))
                    labels.append(label((Prefix, slot, back), Prefix, term, back))
            # Longest proper suffix of `text` ending at each j in t.
            for k in where.get(text[-1], ()):
                j = k + 1
                length = _common_suffix_len(target, j - 1, text)
                length = min(length, len(text) - 1, j - 1)
                if length >= 1:
                    labels = edges.setdefault((j - length, j), [])
                    labels.append(label((Suffix, slot, idx), Suffix, term, idx))
                    labels.append(label((Suffix, slot, back), Suffix, term, back))


def _common_prefix_len(target: str, start: int, text: str) -> int:
    """Length of the longest common prefix of ``target[start:]`` and ``text``."""
    length = 0
    limit = min(len(target) - start, len(text))
    while length < limit and target[start + length] == text[length]:
        length += 1
    return length


def _common_suffix_len(target: str, end: int, text: str) -> int:
    """Length of the longest common suffix of ``target[:end]`` and ``text``."""
    length = 0
    limit = min(end, len(text))
    while length < limit and target[end - 1 - length] == text[len(text) - 1 - length]:
        length += 1
    return length
