"""The first-token-indexed token-rule pass against the sequential loop.

The reference below is how token rules were applied before the index:
every rule in confirmation order, each re-splitting the current value
and rewriting the first whole-token run of its lhs.  The engine splits
a value once and tries only the rules whose first lhs token is present,
re-queueing later rules whose first token a rewrite brings in.  Its
output and its ``token_hits`` / ``misses`` counters must equal the
reference's for any rule list: rhs sides that create a later or an
earlier rule's lhs, empty sides, shared first tokens, and values with
tabs and runs of spaces — through ``transform``, ``apply_values`` and
a reload in the middle of a stream.
"""

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import ApplyEngine, TransformationModel
from repro.serve.model import ConfirmedGroup, ConfirmedMember

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

Rule = Tuple[str, str]

#: A small vocabulary, so first tokens collide and rewrites cascade.
WORDS = ["a", "b", "c", "St", "Street"]


def reference(rules: List[Rule], value: str) -> str:
    """Each rule in order replaces the first run of its lhs tokens."""
    out = value
    for lhs, rhs in rules:
        value_tokens, lhs_tokens = out.split(), lhs.split()
        n = len(lhs_tokens)
        for start in range(len(value_tokens) - n + 1):
            if n and value_tokens[start : start + n] == lhs_tokens:
                value_tokens[start : start + n] = rhs.split()
                out = " ".join(value_tokens)
                break
    return out


def make_model(rules: List[Rule]) -> TransformationModel:
    """One confirmed group per token-level rule, in rule order.  The
    constant programs ignore their input, so the engine compiles none
    and every value reaches the token tier."""
    return TransformationModel(
        name="m",
        column="v",
        groups=[
            ConfirmedGroup(
                Program((ConstantStr(rhs),)),
                FORWARD,
                (ConfirmedMember(lhs, rhs, whole=False, token=True),),
            )
            for lhs, rhs in rules
        ],
    )


separators = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def texts(draw, max_tokens):
    """Whitespace-separated words, possibly empty, with tabs, runs of
    spaces and stray leading or trailing whitespace."""
    words = draw(st.lists(st.sampled_from(WORDS), max_size=max_tokens))
    text = ""
    for k, word in enumerate(words):
        text += (draw(separators) if k else "") + word
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(
        st.sampled_from(["", " ", "  "])
    )


@st.composite
def rule_lists(draw):
    """Rules over the small vocabulary, some re-aimed so an rhs ends in
    the lhs of another rule, earlier or later in the list."""
    rules = draw(
        st.lists(st.tuples(texts(3), texts(3)), min_size=1, max_size=8)
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rules) - 1))
        j = draw(st.integers(0, len(rules) - 1))
        lhs, rhs = rules[i]
        rules[i] = (lhs, f"{rhs} {rules[j][0]}")
    return rules


def expected(rules: List[Rule], values: List[str]):
    """Reference outputs and the (token_hits, misses) they imply.  The
    engine compiles each distinct ``(lhs, rhs)`` pair once."""
    rules = list(dict.fromkeys(rules))
    outs = [reference(rules, value) for value in values]
    hits = sum(out != value for out, value in zip(outs, values))
    return outs, hits, len(values) - hits


values_lists = st.lists(texts(7), max_size=12)


@SETTINGS
@given(rule_lists(), values_lists)
def test_transform_equals_sequential_loop(rules, values):
    engine = ApplyEngine(make_model(rules), intern_size=0)
    outs, hits, misses = expected(rules, values)
    assert [engine.transform(value) for value in values] == outs
    stats = engine.stats()
    assert (stats.token_hits, stats.misses) == (hits, misses)


@SETTINGS
@given(rule_lists(), values_lists)
def test_apply_values_equals_sequential_loop(rules, values):
    engine = ApplyEngine(make_model(rules))
    distinct = list(dict.fromkeys(values))
    outs, hits, misses = expected(rules, distinct)
    by_value = dict(zip(distinct, outs))
    assert engine.apply_values(values) == [by_value[v] for v in values]
    stats = engine.stats()
    assert (stats.token_hits, stats.misses) == (hits, misses)


@SETTINGS
@given(rule_lists(), rule_lists(), values_lists, values_lists)
def test_reload_mid_stream_equals_sequential_loop(
    first, second, before, after
):
    engine = ApplyEngine(make_model(first))
    assert engine.apply_values(before) == expected(first, before)[0]
    engine.reload(make_model(second))
    assert engine.apply_values(after) == expected(second, after)[0]
    # Every interned value is recomputed under the new rules, alone
    # or in a batch.
    for value in before:
        assert engine.transform(value) == expected(second, [value])[0][0]
