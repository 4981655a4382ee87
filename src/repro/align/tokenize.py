"""Whitespace tokenization used by token-level candidate generation
(Appendix A splits values by whitespace)."""

from __future__ import annotations

from typing import List, Optional, Tuple


def tokens(value: str) -> List[str]:
    """Whitespace-delimited tokens of a value."""
    return value.split()


def token_spans(value: str) -> List[Tuple[int, int, str]]:
    """Tokens with their 0-based character spans ``(start, end, text)``."""
    spans: List[Tuple[int, int, str]] = []
    i = 0
    n = len(value)
    while i < n:
        while i < n and value[i].isspace():
            i += 1
        if i >= n:
            break
        start = i
        while i < n and not value[i].isspace():
            i += 1
        spans.append((start, i, value[start:i]))
    return spans


def join(tokens_: List[str]) -> str:
    """Inverse of :func:`tokens` up to whitespace normalization."""
    return " ".join(tokens_)


def find_token_run(value_tokens: List[str], run: List[str]) -> int:
    """Start of the first occurrence of ``run`` as consecutive items of
    ``value_tokens``; -1 when it is absent or ``run`` is empty."""
    n = len(run)
    last = len(value_tokens) - n
    if not n or last < 0:
        return -1
    first = run[0]
    start = 0
    while True:
        try:
            start = value_tokens.index(first, start, last + 1)
        except ValueError:
            return -1
        if value_tokens[start : start + n] == run:
            return start
        start += 1


def rewrite_token_run(
    value_tokens: List[str], run: List[str], replacement: List[str]
) -> bool:
    """Replace the first occurrence of ``run`` in ``value_tokens`` by
    ``replacement``, in place; False (and no change) when it is absent."""
    start = find_token_run(value_tokens, run)
    if start < 0:
        return False
    value_tokens[start : start + len(run)] = replacement
    return True


def replace_token_run(value: str, lhs: str, rhs: str) -> Optional[str]:
    """Replace the first run of ``lhs``'s tokens in ``value`` by
    ``rhs``'s, re-joined by single spaces; ``None`` when it is absent.
    Matching whole tokens keeps 'Stone' intact when replacing 'St'."""
    value_tokens = tokens(value)
    if not rewrite_token_run(value_tokens, tokens(lhs), tokens(rhs)):
        return None
    return join(value_tokens)


def contains_token_run(value: str, segment: str) -> bool:
    """Does ``value`` contain ``segment`` as a run of whole tokens?

    Token-boundary aware: ``contains_token_run("9th St", "St")`` is
    true but ``contains_token_run("9th Stone", "St")`` is false.
    """
    return find_token_run(tokens(value), tokens(segment)) >= 0
