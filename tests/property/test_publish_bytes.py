"""A spliced artifact is one encode of its payload (hypothesis).

Models and bundles write their text by splicing each confirmed group's
cached JSON into a head encoded once per publish.  Whatever the stream,
the bytes on disk must read exactly as one ``json.dumps(...,
ensure_ascii=False)`` of the loaded payload: that is what keeps bundles
byte-identical across ``--shards`` and between streamed and one-shot
runs.  Drawn here: one or three columns, a column whose reviewer
rejects everything (``"groups": []``), non-ASCII cell values, and a
registry resumed mid-stream and then published again.

The stream's per-column :class:`~repro.serve.model.ModelBuilder`
converts each logged step once; its cursor must start over when a
resumed column's log is replaced.  The last property drives a builder
through appends, log replacements and builds, and checks every build
against a from-scratch :func:`~repro.serve.model.build_model`.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.functions import ConstantStr
from repro.core.grouping import Group
from repro.core.program import Program
from repro.core.replacement import Replacement
from repro.data.table import Record
from repro.datagen.stream import golden_stream
from repro.pipeline.oracle import (
    FORWARD,
    REVERSE,
    Decision,
    RejectAllOracle,
)
from repro.pipeline.standardize import (
    AppliedReplacement,
    StandardizationLog,
    StepRecord,
)
from repro.serve.bundle import load_artifact
from repro.serve.model import ModelBuilder, build_model
from repro.serve.registry import ModelRegistry
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Latin-1 and beyond, so ``ensure_ascii`` would escape every one.
NON_ASCII = str.maketrans({"e": "é", "a": "ä", "o": "ø", "t": "ţ"})

ONE_COLUMN = ("address",)
THREE_COLUMNS = ("address", "authors", "title")


def one_encode(path):
    """The artifact at ``path`` as one encode of its loaded payload."""
    payload = load_artifact(path).to_dict()
    return json.dumps(payload, ensure_ascii=False) + "\n"


def assert_published_bytes(root):
    versions = sorted(Path(root).glob("*/v*.json"))
    assert versions
    for path in versions:
        assert path.read_text(encoding="utf-8") == one_encode(path), path
    return versions


def translated(stream):
    """``stream`` with every cell and canonical value made non-ASCII."""
    stream.batches = [
        [
            Record(
                r.rid,
                {
                    k: (v if k == stream.key_column else v.translate(NON_ASCII))
                    for k, v in r.values.items()
                },
                r.source,
            )
            for r in batch
        ]
        for batch in stream.batches
    ]
    stream.canonical_by_rid = {
        column: {rid: v.translate(NON_ASCII) for rid, v in by_rid.items()}
        for column, by_rid in stream.canonical_by_rid.items()
    }
    return stream


def consolidator(stream, registry, rejected):
    approve = golden_ground_truth_oracle_factory(stream.canonical_by_rid)

    def factory(consolidator, column):
        if column == rejected:
            return RejectAllOracle()
        return approve(consolidator, column)

    return GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=factory,
        key_attribute=stream.key_column,
        budget_per_batch=3,
        registry=registry,
        bundle_name="golden",
        use_engine=False,
    )


@SETTINGS
@given(
    seed=st.integers(0, 50),
    columns=st.sampled_from([ONE_COLUMN, THREE_COLUMNS]),
    batches=st.integers(2, 4),
    non_ascii=st.booleans(),
    reject_one=st.booleans(),
    resume_at=st.integers(0, 3),
)
def test_every_published_version_is_one_encode(
    seed, columns, batches, non_ascii, reject_one, resume_at
):
    stream = golden_stream(
        batches=batches, n_clusters=10, columns=columns, seed=seed
    )
    if non_ascii:
        stream = translated(stream)
    rejected = columns[-1] if reject_one else None
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        cut = resume_at if 0 < resume_at < batches else batches
        # A first process publishes up to the cut; a second resumes
        # from the registry and publishes the rest.
        for second, part in enumerate((stream.batches[:cut], stream.batches[cut:])):
            if not part:
                continue
            published = registry.versions("golden")
            with consolidator(stream, registry, rejected) as run:
                run.run(part)
                if second and published:
                    assert run.resumed_from == published[-1]
        if not registry.versions("golden"):
            return
        paths = assert_published_bytes(root)
        latest = load_artifact(paths[-1])
        if rejected is not None:
            assert latest.models[rejected].groups == []
        if non_ascii and latest.groups_confirmed:
            assert not paths[-1].read_bytes().isascii()


def test_learn_out_is_one_encode(tmp_path):
    out = tmp_path / "m.json"
    assert (
        main(
            [
                "learn",
                "--dataset",
                "Address",
                "--scale",
                "0.04",
                "--seed",
                "3",
                "--budget",
                "10",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert load_artifact(out).groups_confirmed
    assert out.read_text(encoding="utf-8") == one_encode(out)


def step(index, lhs, rhs, approved, reverse):
    """One logged step over a single replacement (``lhs -> rhs!``)."""
    rhs += "!"
    replacement = Replacement(lhs, rhs)
    return StepRecord(
        index,
        Group(Program((ConstantStr(rhs),)), (replacement,)),
        Decision(approved, REVERSE if reverse else FORWARD),
        1,
        [AppliedReplacement(replacement, True, False, 1)] if approved else [],
    )


TEXT = st.text(alphabet="aé ø1", min_size=1, max_size=4)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), TEXT, TEXT, st.booleans(), st.booleans()),
        st.just(("replace",)),
        st.just(("build",)),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=OPS)
def test_incremental_builds_equal_a_fresh_build(ops):
    builder, log = ModelBuilder(), StandardizationLog()
    for op in ops + [("build",)]:
        if op[0] == "append":
            _, lhs, rhs, approved, reverse = op
            log.steps.append(step(len(log.steps), lhs, rhs, approved, reverse))
        elif op[0] == "replace":
            # What a resume does: the column's log object is swapped
            # for a rehydrated one with a different history.
            log = StandardizationLog(
                [step(0, "ø", "a", True, False)][: len(log.steps) % 2]
            )
        else:
            built = builder.build(log, "c", provenance={"k": "é"})
            fresh = build_model(log, "c", provenance={"k": "é"})
            fresh.created_at = built.created_at
            assert built.to_json() == fresh.to_json()
            assert built.to_json() == json.dumps(
                fresh.to_dict(), ensure_ascii=False
            )
