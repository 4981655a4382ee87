"""Compiled apply-engine tests on a hand-built model: exact table,
chain composition, program generalization, token rules, the intern
memo shared by single values and batches, and multiprocessing
sharding."""

import pytest

from repro.core.functions import ConstantStr, SubStr
from repro.core.positions import BEGIN, END, MatchPos
from repro.core.program import Program
from repro.core.terms import DIGITS
from repro.pipeline.oracle import FORWARD, REVERSE
from repro.serve import ApplyEngine
from repro.serve.model import (
    ConfirmedGroup,
    ConfirmedMember,
    TransformationModel,
)

#: SubStr(first digit-run begin .. end): "9th" -> "9", "42nd" -> "42".
DIGIT_PROGRAM = Program(
    (SubStr(MatchPos(DIGITS, 1, BEGIN), MatchPos(DIGITS, 1, END)),)
)


def member(lhs, rhs, whole=True, token=False):
    return ConfirmedMember(lhs, rhs, whole, token, cells_changed=1)


@pytest.fixture
def model():
    groups = [
        # Forward group with a real program: generalizes by structure.
        ConfirmedGroup(
            DIGIT_PROGRAM,
            FORWARD,
            (member("9th", "9"), member("3rd", "3")),
            structure=(("d", "l"), ("d",)),
        ),
        # Token-level rule; its all-constant program must NOT be indexed.
        ConfirmedGroup(
            Program((ConstantStr("Street"),)),
            FORWARD,
            (member("St", "Street", whole=False, token=True),),
            structure=(("C", "l"), ("C", "l")),
        ),
        # Chain: A -> B now ...
        ConfirmedGroup(
            Program((ConstantStr("B"),)),
            FORWARD,
            (member("A", "B"),),
            structure=(("C",), ("C",)),
        ),
        # ... and B -> C later: exact table must compose to A -> C.
        ConfirmedGroup(
            Program((ConstantStr("C"),)),
            FORWARD,
            (member("B", "C"),),
            structure=(("C",), ("C",)),
        ),
        # Reverse-approved group: members count, program must not.
        ConfirmedGroup(
            DIGIT_PROGRAM,
            REVERSE,
            (member("7", "7th"),),
            structure=(("d", "l"), ("d",)),
        ),
    ]
    return TransformationModel("test", "col", groups=groups)


@pytest.fixture
def engine(model):
    return ApplyEngine(model)


class TestCompile:
    def test_exact_table_chains(self, engine):
        assert engine.exact["A"] == "C"
        assert engine.exact["B"] == "C"

    def test_all_constant_program_excluded(self, engine):
        assert ("C", "l") not in engine.programs

    def test_reverse_program_excluded(self, engine):
        # Only the forward digit group's program is indexed under d,l.
        assert engine.programs[("d", "l")] == [DIGIT_PROGRAM]

    def test_token_rules_in_order(self, engine):
        assert engine.token_rules == [("St", "Street")]


class TestTransform:
    def test_exact_hit(self, engine):
        assert engine.transform("9th") == "9"
        assert engine.stats().exact_hits == 1

    def test_program_generalizes_to_unseen_value(self, engine):
        assert engine.transform("42nd") == "42"
        assert engine.stats().program_hits == 1

    def test_constant_stamp_does_not_fire(self, engine):
        # Same structure as "St" -> "Street", but the all-constant
        # program was excluded, and "Rd" is no token rule's lhs.
        assert engine.transform("Rd") == "Rd"

    def test_token_rule_is_boundary_aware(self, engine):
        assert engine.transform("5 St") == "5 Street"
        assert engine.transform("5 Stone") == "5 Stone"

    def test_untouched_value_counts_as_miss(self, engine):
        engine.transform("zzz")
        assert engine.stats().misses == 1

    def test_cache_hit_on_second_call(self, engine):
        engine.transform("42nd")
        engine.transform("42nd")
        assert engine.stats().cache_hits == 1
        assert engine.stats().program_hits == 1

    def test_programs_can_be_disabled(self, model):
        engine = ApplyEngine(model, use_programs=False)
        assert engine.transform("42nd") == "42nd"


class TestBatch:
    def test_apply_values_broadcasts_and_dedupes(self, engine):
        values = ["9th", "42nd", "9th", "zzz", "42nd"]
        assert engine.apply_values(values) == ["9", "42", "9", "zzz", "42"]
        assert engine.stats().rows == 5
        assert engine.stats().unique_values == 3

    def test_apply_table(self, engine):
        from repro.data.table import ClusterTable, Record

        table = ClusterTable(["col"])
        table.add_cluster(
            "k",
            [
                Record("r0", {"col": "9th"}),
                Record("r1", {"col": "zzz"}),
            ],
        )
        changed = engine.apply_table(table, "col")
        assert len(changed) == 1
        assert table.cluster_values(0, "col") == ["9", "zzz"]


class TestOneMemo:
    def test_transform_then_batch_computes_once(self, engine):
        assert engine.transform("42nd") == "42"
        assert engine.apply_values(["42nd"]) == ["42"]
        assert engine.stats().program_hits == 1
        assert engine.stats().cache_hits == 1

    def test_batch_then_transform_computes_once(self, engine):
        engine.apply_values(["42nd", "9th"])
        assert engine.transform("42nd") == "42"
        assert engine.stats().program_hits == 1
        assert engine.stats().cache_hits == 1

    def test_transform_respects_intern_size(self, model):
        engine = ApplyEngine(model, intern_size=2)
        for value in ("42nd", "13th", "9th", "zzz", "42nd", "zzz"):
            engine.transform(value)
            assert len(engine._intern) <= 2
            assert len(engine._slot_outputs) == len(engine._intern)
        # "42nd" was admitted first and memoized; "zzz" never fit.
        assert engine.stats().cache_hits == 1
        assert engine.stats().misses == 2

    def test_zero_intern_size_recomputes_every_call(self, model):
        engine = ApplyEngine(model, intern_size=0)
        for _ in range(3):
            assert engine.transform("42nd") == "42"
        assert engine.stats().cache_hits == 0
        assert engine.stats().program_hits == 3
        assert len(engine._intern) == 0

    def test_reload_invalidates_transform_memo(self, model):
        engine = ApplyEngine(model)
        assert engine.transform("9th") == "9"
        engine.reload(model)
        assert engine.transform("9th") == "9"
        assert engine.stats().cache_hits == 0
        assert engine.stats().exact_hits == 2
