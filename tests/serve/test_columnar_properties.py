"""Property suite for the columnar apply core.

The one guarantee everything else rides on: dictionary-encoded
per-distinct-value application is **byte-identical** to transforming
every row one at a time with no memoization — across batch shapes,
intern-table caps (including pathological ones that truncate every
batch), interleaved single-value calls, and hot reloads mid-stream."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import (
    ApplyEngine,
    BundleApplyEngine,
    TransformationModel,
    build_bundle,
)
from repro.serve.model import ConfirmedGroup, ConfirmedMember

SMALL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_model(rules, name="m", column="addr"):
    groups = [
        ConfirmedGroup(
            Program((ConstantStr(rhs),)),
            FORWARD,
            (ConfirmedMember(lhs, rhs, whole=True),),
        )
        for lhs, rhs in rules
    ]
    return TransformationModel(name=name, column=column, groups=groups)


RULES = [
    ("st", "street"),
    ("rd", "road"),
    ("ave", "avenue"),
    ("blvd", "boulevard"),
]
MODEL = make_model(RULES)

#: Batches draw from rule left-hand sides (hit the rules), their
#: outputs (exercise chain detection), and arbitrary text (miss).
values_strategy = st.lists(
    st.one_of(
        st.sampled_from(
            [lhs for lhs, _ in RULES] + [rhs for _, rhs in RULES]
        ),
        st.text(max_size=8),
    ),
    max_size=20,
)
batches_strategy = st.lists(values_strategy, max_size=6)


def oracle(model, values):
    """The ground truth: a fresh unmemoized engine, one row at a time."""
    engine = ApplyEngine(model, cache_size=0, intern_size=0)
    return [engine.transform(v) for v in values]


@SMALL
@given(batches_strategy, st.sampled_from([0, 2, 1000]))
def test_columnar_equals_per_row_across_batches(batches, intern_size):
    engine = ApplyEngine(MODEL, intern_size=intern_size)
    for batch in batches:
        assert engine.apply_values(batch) == oracle(MODEL, batch)
        # The slot memo is exactly intern-aligned after every batch,
        # and truncation keeps the table at the cap.
        assert len(engine._slot_outputs) == len(engine._intern)
        assert len(engine._intern) <= intern_size


@SMALL
@given(
    st.lists(
        st.one_of(
            values_strategy.map(lambda vs: ("batch", vs)),
            st.sampled_from(
                [lhs for lhs, _ in RULES] + ["", "unseen"]
            ).map(lambda v: ("single", v)),
        ),
        max_size=10,
    )
)
def test_interleaved_transform_and_apply_values(ops):
    """Mixing the single-value path (LRU-backed) with the columnar
    path (intern-backed) never changes any output."""
    engine = ApplyEngine(MODEL, intern_size=2)
    for kind, payload in ops:
        if kind == "batch":
            assert engine.apply_values(payload) == oracle(MODEL, payload)
        else:
            assert engine.transform(payload) == oracle(MODEL, [payload])[0]


@SMALL
@given(batches_strategy, batches_strategy, st.integers(1, len(RULES)))
def test_incremental_reload_mid_stream(before, after, split):
    """An append-only publish swapped in mid-stream behaves exactly
    like an engine compiled from the extended model all along."""
    base = make_model(RULES[:split])
    extended = make_model(RULES)
    engine = ApplyEngine(base, intern_size=4)
    for batch in before:
        assert engine.apply_values(batch) == oracle(base, batch)
    assert engine.reload(extended) is True
    for batch in after:
        assert engine.apply_values(batch) == oracle(extended, batch)


@SMALL
@given(batches_strategy, batches_strategy)
def test_full_swap_mid_stream(before, after):
    """A full (non-extension) swap recompiled in place serves the new
    model's outputs byte-identically, intern state intact."""
    swapped = make_model([("intl", "international"), ("dept", "department")])
    engine = ApplyEngine(MODEL, intern_size=4)
    for batch in before:
        engine.apply_values(batch)
    interned = len(engine._intern)
    assert engine.reload(swapped) is False
    assert len(engine._intern) == interned
    assert engine.exact == ApplyEngine(swapped).exact
    for batch in after:
        assert engine.apply_values(batch) == oracle(swapped, batch)


@SMALL
@given(
    st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "addr": st.sampled_from(["st", "rd", "x"]),
                "title": st.sampled_from(["intl", "y"]),
                "other": st.text(max_size=4),
            },
        ),
        max_size=12,
    )
)
def test_bundle_records_match_per_column_oracles(records):
    """Record-level bundle application is exactly the per-column
    oracles applied field-wise; absent/foreign columns pass through."""
    models = {
        "addr": MODEL,
        "title": make_model([("intl", "international")], column="title"),
    }
    bundle = build_bundle(models, "golden")
    engine = BundleApplyEngine(bundle)
    for record in records:
        out = engine.apply_record(record)
        assert set(out) == set(record)
        for column, value in record.items():
            if column in models:
                assert out[column] == oracle(models[column], [value])[0]
            else:
                assert out[column] == value


def test_learned_model_columnar_identity(learned):
    """The real thing: the full learned Address model over its own
    dataset column, columnar vs unmemoized per-row — byte-identical,
    with the broadcast actually engaged on the duplicated rows."""
    table, _, model = learned
    values = list(table.column_values(model.column))
    engine = ApplyEngine(model)
    assert engine.apply_values(values) == oracle(model, values)
    stats = engine.stats()
    assert stats.distinct_values == len(set(values))
    assert stats.broadcast_rows == len(values) - len(set(values))
