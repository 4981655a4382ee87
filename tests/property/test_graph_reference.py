"""``build_graph`` against the full span enumerator (hypothesis).

The reference below is graph construction as it was before the build
learned to skip spans: every ``(i, j)`` of the target is visited, its
occurrences in the source come from an index of *every* substring of
the source, every SubStr label is re-derived per edge, every constant
is checked against the whitelist, and the affix scan tries every
position of the target.  The shipped build visits only spans that
still occur in the source (plus the constant-only spans that remain),
stops checking constants from a start once a whole token is refused,
and shares SubStr lists per source span; it must label exactly the
same edges with exactly the same label objects, under every knob that
changes which labels an edge gets.
"""

import re
from typing import Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.core.functions import ConstantStr, Prefix, SubStr, Suffix
from repro.core.graph import (
    _common_prefix_len,
    _common_suffix_len,
    _unit_boundaries,
    build_graph,
)
from repro.core.labels import LabelTable
from repro.core.terms import DEFAULT_VOCABULARY, MatchContext

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

VOCABULARIES = (
    DEFAULT_VOCABULARY,
    DEFAULT_VOCABULARY.with_constant_terms(["ab", "St", ","]),
)


# -- the full enumerator -----------------------------------------------------


def _occurrence_index(source: str, max_len: int) -> Dict[str, Tuple[int, ...]]:
    """Map every substring of ``source`` (up to ``max_len`` chars) to its
    1-based start positions."""
    index: Dict[str, List[int]] = {}
    n = len(source)
    for length in range(1, min(n, max_len) + 1):
        for start in range(n - length + 1):
            index.setdefault(source[start : start + length], []).append(start + 1)
    return {sub: tuple(starts) for sub, starts in index.items()}


def _constant_admitted(sub: str, whitelist: Optional[frozenset]) -> bool:
    """Every alphanumeric token of ``sub`` is whitelisted."""
    if whitelist is None:
        return True
    return all(t in whitelist for t in re.findall(r"[A-Za-z]+|[0-9]+", sub))


def _add_affix_labels(ctx, target, edges, table):
    """Longest proper Prefix/Suffix labels, every anchor of ``target``
    tried; ``edges`` holds every span."""
    n = len(target)
    label = table.label
    for term in ctx.vocabulary.regex_terms:
        slot = table.slot(term)
        matches = ctx.matches(term)
        m = len(matches)
        for idx, (x, y) in enumerate(matches, start=1):
            text = ctx.s[x - 1 : y - 1]
            if len(text) < 2:
                continue
            back = idx - m - 1
            for i in range(1, n + 1):
                if target[i - 1] != text[0]:
                    continue
                length = _common_prefix_len(target, i - 1, text)
                length = min(length, len(text) - 1, n + 1 - i)
                if length >= 1:
                    edge = (i, i + length)
                    edges[edge].append(label((Prefix, slot, idx), Prefix, term, idx))
                    edges[edge].append(label((Prefix, slot, back), Prefix, term, back))
            for j in range(2, n + 2):
                if target[j - 2] != text[-1]:
                    continue
                length = _common_suffix_len(target, j - 1, text)
                length = min(length, len(text) - 1, j - 1)
                if length >= 1:
                    edge = (j - length, j)
                    edges[edge].append(label((Suffix, slot, idx), Suffix, term, idx))
                    edges[edge].append(label((Suffix, slot, back), Suffix, term, back))


def reference_edges(source, target, vocabulary, config, whitelist):
    """Label-object edges of ``source -> target``, every span visited."""
    if not target or not source:
        return None
    if max(len(source), len(target)) > config.max_string_length:
        return None
    table = LabelTable()
    ctx = MatchContext(source, vocabulary)
    positions = table.position_ids(
        ctx, config.max_position_functions, config.boundary_positions_only
    )
    occurrences = _occurrence_index(source, len(target))
    boundaries = _unit_boundaries(target) if config.aligned_constants else None
    label, functions = table.label, table.positions
    edges: Dict[Tuple[int, int], List[int]] = {}
    n = len(target)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            sub = target[i - 1 : j - 1]
            labels: List[int] = []
            if (
                (boundaries is None or (i in boundaries and j in boundaries))
                and _constant_admitted(sub, whitelist)
            ) or (i == 1 and j == n + 1):
                labels.append(label(sub, ConstantStr, sub))
            for x in occurrences.get(sub, ())[: config.max_occurrences_per_edge]:
                y = x + len(sub)
                emitted = 0
                for f in positions.get(x, ()):
                    for g in positions.get(y, ()):
                        labels.append(label((f, g), SubStr, functions[f], functions[g]))
                        emitted += 1
                        if emitted >= config.max_substr_labels_per_edge:
                            break
                    if emitted >= config.max_substr_labels_per_edge:
                        break
            edges[(i, j)] = labels
    if config.use_affix:
        _add_affix_labels(ctx, target, edges, table)
    key = table.keys.__getitem__
    return {
        edge: tuple(table.labels[lid] for lid in sorted(set(lids), key=key))
        for edge, lids in edges.items()
        if lids
    }


# -- inputs ------------------------------------------------------------------

#: Chunks with repeats, case variants, digits, spaces and punctuation.
CHUNKS = ["ab", "Ab", "AB", "b", "a", "St", "12", "1", "2", "0"]
CHUNKS += [" ", " ", ".", ",", "-"]
texts = st.lists(st.sampled_from(CHUNKS), min_size=1, max_size=9).map("".join)


@st.composite
def pairs(draw):
    source = draw(texts)
    how = draw(st.sampled_from(["fresh", "swapcase", "repeat", "cut", "same"]))
    if how == "fresh":
        target = draw(texts)
    elif how == "swapcase":
        target = source.swapcase()
    elif how == "repeat":
        target = source + draw(st.sampled_from(CHUNKS)) + source
    elif how == "cut":
        i = draw(st.integers(0, len(source) - 1))
        target = source[i:] + draw(texts) + source[:i]
    else:
        target = source
    return source, target


@st.composite
def whitelists(draw, target: str) -> Optional[frozenset]:
    if draw(st.booleans()):
        return None
    # Whole tokens of the target, and pieces of them (a case change is a
    # unit boundary, so "S" of "St" is a span of its own).
    tokens = set(re.findall(r"[A-Za-z]+|[0-9]+", target)) | {"a", "1"}
    tokens |= {"S", "t", "A", "b", "B", "2"}
    tokens = sorted(tokens)
    return frozenset(draw(st.lists(st.sampled_from(tokens), unique=True)))


configs = st.builds(
    Config,
    aligned_constants=st.booleans(),
    boundary_positions_only=st.booleans(),
    use_affix=st.booleans(),
    max_occurrences_per_edge=st.integers(1, 3),
    max_substr_labels_per_edge=st.integers(1, 3),
    max_position_functions=st.integers(0, 2),
)


class TestBuildGraphMatchesEnumerator:
    @SETTINGS
    @given(st.data(), pairs(), configs, st.sampled_from(VOCABULARIES))
    def test_same_label_edges(self, data, pair, config, vocabulary):
        source, target = pair
        whitelist = data.draw(whitelists(target))
        graph = build_graph(source, target, vocabulary, config, whitelist)
        expected = reference_edges(source, target, vocabulary, config, whitelist)
        if expected is None:
            assert graph is None
            return
        assert graph.edges == expected
