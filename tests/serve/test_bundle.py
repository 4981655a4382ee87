"""Multi-column model bundles: atomic persistence + record-level apply."""

import json

import pytest

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import (
    BundleApplyEngine,
    BundleRegistry,
    ModelBundle,
    TransformationModel,
    build_bundle,
    load_artifact,
)
from repro.serve.bundle import BUNDLE_KIND, BUNDLE_SCHEMA_VERSION
from repro.serve.model import SCHEMA_VERSION, ConfirmedGroup, ConfirmedMember


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


def make_bundle(name="golden"):
    return build_bundle(
        {
            "addr": make_model([("st", "street")], column="addr"),
            "title": make_model(
                [("intl", "international")], column="title"
            ),
        },
        name,
        provenance={"batches": 2},
    )


class TestRoundTrip:
    def test_save_load_round_trips(self, tmp_path):
        bundle = make_bundle()
        path = bundle.save(tmp_path / "b.json")
        loaded = ModelBundle.load(path)
        assert loaded.to_dict() == bundle.to_dict()
        assert loaded.columns == ["addr", "title"]
        assert loaded.provenance == {"batches": 2}

    def test_rejects_foreign_kinds(self, tmp_path):
        model = make_model([("a", "b")])
        path = model.save(tmp_path / "model.json")
        with pytest.raises(ValueError, match="not a model bundle"):
            ModelBundle.load(path)

    def test_rejects_newer_schema(self):
        payload = make_bundle().to_dict()
        payload["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported bundle schema"):
            ModelBundle.from_dict(payload)

    def test_kind_marker_written(self, tmp_path):
        path = make_bundle().save(tmp_path / "b.json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == BUNDLE_KIND

    def test_column_order_preserved(self):
        payload = make_bundle().to_dict()
        rebuilt = ModelBundle.from_dict(payload)
        assert rebuilt.columns == ["addr", "title"]
        # Unlisted models trail the pinned order, never dropped.
        payload["columns"] = ["title"]
        rebuilt = ModelBundle.from_dict(payload)
        assert rebuilt.columns == ["title", "addr"]

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        bundle = make_bundle()
        target = tmp_path / "b.json"
        bundle.save(target)
        bundle.save(target)  # overwrite is fine
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "b.json"
        ]
        assert leftovers == []

    def test_describe_mentions_columns_and_groups(self):
        text = make_bundle().describe()
        assert "2 columns" in text
        assert "addr" in text and "title" in text


class TestBundleRegistry:
    def test_versions_monotone_and_loadable(self, tmp_path):
        registry = BundleRegistry(tmp_path)
        registry.save(make_bundle(), "g")
        registry.save(make_bundle(), "g")
        assert registry.versions("g") == [1, 2]
        loaded = registry.load("g")
        assert isinstance(loaded, ModelBundle)
        assert loaded.columns == ["addr", "title"]

    def test_load_specific_version(self, tmp_path):
        registry = BundleRegistry(tmp_path)
        bundle = make_bundle()
        registry.save(bundle, "g")
        registry.save(bundle, "g")
        assert registry.load("g", 1).to_dict() == (
            registry.load("g", 2).to_dict()
        )

    def test_reads_bare_model_files_as_one_column_bundles(self, tmp_path):
        """A model file an older release wrote into the tree loads as
        the one-column bundle it stands for, model untouched."""
        registry = BundleRegistry(tmp_path)
        (tmp_path / "g").mkdir()
        path = make_model([("a", "b")], name="legacy").save(
            tmp_path / "g" / "v1.json"
        )
        loaded = registry.load("g")
        assert isinstance(loaded, ModelBundle)
        assert loaded.name == "legacy"
        assert loaded.columns == ["addr"]
        assert loaded.models["addr"].to_dict() == json.loads(
            path.read_text(encoding="utf-8")
        )


def _with_schema(payload, version):
    return {**payload, "schema_version": version}


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"kind": "someone.else", "schema_version": 1},
            "not a transformation model",
        ),
        (
            _with_schema(make_bundle().to_dict(), BUNDLE_SCHEMA_VERSION + 1),
            "unsupported bundle schema",
        ),
        (
            _with_schema(
                make_model([("a", "b")]).to_dict(), SCHEMA_VERSION + 1
            ),
            "unsupported model schema",
        ),
    ],
    ids=["foreign-kind", "newer-bundle", "newer-model"],
)
def test_load_artifact_rejects_foreign_and_newer_files(
    payload, message, tmp_path
):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_artifact(path)


class TestBundleApplyEngine:
    def test_apply_record_standardizes_every_column(self):
        engine = BundleApplyEngine(make_bundle())
        out = engine.apply_record(
            {"addr": "st", "title": "intl", "other": "x"}
        )
        assert out == {
            "addr": "street",
            "title": "international",
            "other": "x",
        }

    def test_apply_record_returns_a_copy(self):
        engine = BundleApplyEngine(make_bundle())
        values = {"addr": "st"}
        engine.apply_record(values)
        assert values == {"addr": "st"}

    def test_reload_flips_all_columns_at_once(self):
        engine = BundleApplyEngine(make_bundle())
        grown = build_bundle(
            {
                "addr": make_model(
                    [("st", "street"), ("rd", "road")], column="addr"
                ),
                "title": make_model(
                    [("intl", "international"), ("j", "journal")],
                    column="title",
                ),
            },
            "golden",
        )
        before = {c: engine.engine(c) for c in engine.columns}
        engine.reload(grown)
        # Grown columns reuse their engine objects (incremental
        # recompile), and both columns serve the new rules.
        assert engine.engine("addr") is before["addr"]
        assert engine.engine("title") is before["title"]
        assert engine.apply_record({"addr": "rd", "title": "j"}) == {
            "addr": "road",
            "title": "journal",
        }

    def test_reload_adds_and_drops_columns(self):
        engine = BundleApplyEngine(make_bundle())
        swapped = build_bundle(
            {
                "addr": make_model([("st", "street")], column="addr"),
                "authors": make_model([("j.", "john")], column="authors"),
            },
            "golden",
        )
        engine.reload(swapped)
        assert engine.columns == ["addr", "authors"]
        assert engine.apply_record({"title": "intl"}) == {"title": "intl"}
        assert engine.apply_record({"authors": "j."}) == {"authors": "john"}

    def test_stats_per_column(self):
        engine = BundleApplyEngine(make_bundle())
        engine.apply_record({"addr": "st", "title": "zzz"})
        stats = engine.stats()
        assert set(stats) == {"addr", "title"}
        assert stats["addr"]["exact_hits"] == 1
        assert stats["title"]["misses"] == 1
