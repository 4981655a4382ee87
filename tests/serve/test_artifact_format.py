"""The on-disk artifact format: compact one-line JSON, indented still reads.

Models and bundles are written as exactly
``json.dumps(x.to_dict(), ensure_ascii=False) + "\\n"``: one line, non-ASCII
text unescaped.  Loading goes through ``json.load``, so the indented
files older builds wrote (the checked-in ``data/`` artifacts) keep
loading unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import (
    ModelBundle,
    TransformationModel,
    as_bundle,
    build_bundle,
    load_artifact,
)
from repro.serve.model import ConfirmedGroup, ConfirmedMember

DATA = Path(__file__).parent / "data"


def make_model(rules, column="addr"):
    groups = [
        ConfirmedGroup(
            Program((ConstantStr(rhs),)),
            FORWARD,
            (ConfirmedMember(lhs, rhs, whole=True),),
        )
        for lhs, rhs in rules
    ]
    return TransformationModel(name="m", column=column, groups=groups)


def make_bundle():
    return build_bundle(
        {
            "addr": make_model([("str", "straße")], column="addr"),
            "title": make_model([("intl", "international")], "title"),
            "city": make_model([("münchen", "München")], "city"),
        },
        "golden",
        provenance={"batches": 3, "note": "café"},
    )


@pytest.fixture(params=["model", "bundle"])
def artifact(request):
    if request.param == "model":
        return make_model([("st", "street"), ("str", "straße")])
    return make_bundle()


class TestCompactFormat:
    def test_saved_text_is_one_dumps_call(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "a.json")
        text = path.read_text(encoding="utf-8")
        assert text == (
            json.dumps(artifact.to_dict(), ensure_ascii=False) + "\n"
        )

    def test_non_ascii_written_unescaped_and_round_trips(
        self, artifact, tmp_path
    ):
        path = artifact.save(tmp_path / "a.json")
        raw = path.read_bytes()
        assert "straße".encode("utf-8") in raw
        assert b"\\u00df" not in raw
        loaded = type(artifact).load(path)
        assert loaded.to_dict() == artifact.to_dict()

    def test_load_artifact_reads_new_files(self, artifact, tmp_path):
        # A bare model file reads as the one-column bundle it stands for.
        loaded = load_artifact(artifact.save(tmp_path / "a.json"))
        assert type(loaded) is ModelBundle
        assert loaded.to_dict() == as_bundle(artifact).to_dict()


@pytest.mark.parametrize(
    "path",
    [
        DATA / "golden_model.json",
        DATA / "legacy_registry" / "addr" / "v1.json",
        DATA / "legacy_registry" / "addr" / "v2.json",
    ],
    ids=lambda p: p.relative_to(DATA).as_posix(),
)
def test_indented_artifacts_still_load(path):
    text = path.read_text(encoding="utf-8")
    assert "\n  " in text  # written indented by an older build
    [loaded] = load_artifact(path).models.values()
    assert isinstance(loaded, TransformationModel)
    assert loaded.to_dict() == json.loads(text)
