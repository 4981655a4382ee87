"""The linear exact-table compile against the quadratic reference.

The reference below is ``ApplyEngine._add_exact`` as it was before the
inverse index: every new whole-value rule scans the whole table and
re-points each key whose value is the rule's lhs, then adds
``lhs -> rhs`` unless ``lhs`` already has a target.  The shipped engine
must build exactly the same table — values *and* key order — for any
rule sequence: chains, cycles, self-rules and repeated left-hand sides,
compiled in one go, across an incremental (append-only) reload that
splits a chain, and after a full reload from an unrelated model.
"""

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import ApplyEngine, TransformationModel
from repro.serve.model import ConfirmedGroup, ConfirmedMember

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

Rule = Tuple[str, str]


def reference_exact(rules: List[Rule]) -> Dict[str, str]:
    """The O(E**2) chain composition the engine used to run."""
    exact: Dict[str, str] = {}
    for lhs, rhs in rules:
        for key, value in exact.items():
            if value == lhs:
                exact[key] = rhs
        exact.setdefault(lhs, rhs)
    return exact


def make_model(groups: List[List[Rule]], column: str = "v") -> TransformationModel:
    """One confirmed group per rule list, members in rule order."""
    return TransformationModel(
        name="m",
        column=column,
        groups=[
            ConfirmedGroup(
                Program((ConstantStr(rules[0][1]),)),
                FORWARD,
                tuple(ConfirmedMember(lhs, rhs) for lhs, rhs in rules),
            )
            for rules in groups
        ],
    )


def flatten(groups: List[List[Rule]]) -> List[Rule]:
    return [rule for rules in groups for rule in rules]


#: A five-letter alphabet makes chains (a->b, b->c), cycles (a->b,
#: b->a), self-rules (a->a) and repeated lhs common.
value = st.sampled_from("abcde")
rule = st.tuples(value, value)
groups_strategy = st.lists(st.lists(rule, min_size=1, max_size=3), max_size=12)


def table(engine: ApplyEngine) -> List[Rule]:
    return list(engine.exact.items())


@SETTINGS
@given(groups_strategy)
def test_cold_compile_equals_reference(groups):
    engine = ApplyEngine(make_model(groups))
    assert table(engine) == list(reference_exact(flatten(groups)).items())


@SETTINGS
@given(groups_strategy, st.data())
def test_incremental_reload_equals_reference(groups, data):
    split = data.draw(st.integers(0, len(groups)), label="split")
    engine = ApplyEngine(make_model(groups[:split]))
    assert engine.reload(make_model(groups)) is True
    assert table(engine) == list(reference_exact(flatten(groups)).items())


@SETTINGS
@given(groups_strategy, groups_strategy)
def test_full_reload_equals_reference(before, groups):
    # A different column forces the full (non-incremental) path, which
    # must drop the old table's inverse index along with the table.
    engine = ApplyEngine(make_model(before, column="other"))
    assert engine.reload(make_model(groups)) is False
    assert table(engine) == list(reference_exact(flatten(groups)).items())


def test_chain_split_across_reload():
    """``a -> b`` published first, ``b -> c`` appended later: the
    incremental reload re-points ``a`` and keeps insertion order."""
    first = [[("a", "b")]]
    full = first + [[("b", "c")], [("c", "a")]]
    engine = ApplyEngine(make_model(first))
    assert table(engine) == [("a", "b")]
    assert engine.reload(make_model(full)) is True
    assert table(engine) == [("a", "a"), ("b", "a"), ("c", "a")]
    assert table(engine) == list(reference_exact(flatten(full)).items())
