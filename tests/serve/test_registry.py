"""Registry tests: versioning, naming, lookup errors, atomic publish."""

import json

import pytest

from repro.serve import ModelRegistry, TransformationModel
from repro.serve.registry import slugify


class TestSlugify:
    def test_lowercases_and_collapses(self):
        assert slugify("Journal Title!") == "journal-title"

    def test_safe_chars_kept(self):
        assert slugify("addr_v2.base") == "addr_v2.base"

    def test_empty_falls_back(self):
        assert slugify("??") == "model"


class TestRegistry:
    def test_versions_increase(self, learned_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.save(learned_model)
        second = registry.save(learned_model)
        assert first.name == "v1.json"
        assert second.name == "v2.json"
        assert registry.versions("address") == [1, 2]

    def test_load_latest_and_pinned(self, learned_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(learned_model)
        registry.save(learned_model)
        assert registry.load("address").to_dict() == (
            learned_model.to_dict()
        )
        assert registry.path("address").name == "v2.json"
        assert registry.path("address", 1).name == "v1.json"

    def test_catalog_lists_everything(self, learned_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(learned_model)
        registry.save(learned_model, name="Other Name")
        assert registry.catalog() == {
            "address": [1],
            "other-name": [1],
        }

    def test_missing_name_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(FileNotFoundError, match="no model named"):
            registry.load("nope")

    def test_missing_version_raises(self, learned_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(learned_model)
        with pytest.raises(FileNotFoundError, match="no version 9"):
            registry.load("address", 9)

    def test_empty_root_is_empty(self, tmp_path):
        assert ModelRegistry(tmp_path / "missing").names() == []


class _CrashMidWrite(RuntimeError):
    pass


class TestAtomicPublish:
    """A crash mid-publish can never leave a truncated version file."""

    @pytest.fixture
    def crashing_dump(self, monkeypatch):
        """json.dump that writes half the payload, then dies — the
        worst-case interruption for a naive direct write."""

        def crash(obj, handle, **kwargs):
            handle.write(json.dumps(obj, **kwargs)[: 40])
            handle.flush()
            raise _CrashMidWrite("disk full / SIGKILL / power loss")

        monkeypatch.setattr("repro.serve.model.json.dump", crash)

    def test_interrupted_first_publish_leaves_nothing(
        self, learned_model, tmp_path, crashing_dump
    ):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(_CrashMidWrite):
            registry.save(learned_model)
        assert registry.versions("address") == []
        assert list((tmp_path / "address").glob("*")) == []  # no temp junk

    def test_interrupted_republish_preserves_previous_version(
        self, learned_model, tmp_path, monkeypatch
    ):
        registry = ModelRegistry(tmp_path)
        registry.save(learned_model)

        def crash(obj, handle, **kwargs):
            handle.write(json.dumps(obj, **kwargs)[: 40])
            raise _CrashMidWrite()

        monkeypatch.setattr("repro.serve.model.json.dump", crash)
        with pytest.raises(_CrashMidWrite):
            registry.save(learned_model)
        monkeypatch.undo()

        # v1 is intact and fully loadable; no v2, no leftovers.
        assert registry.versions("address") == [1]
        loaded = registry.load("address")
        assert loaded.to_dict() == learned_model.to_dict()
        assert sorted(p.name for p in (tmp_path / "address").glob("*")) == [
            "v1.json"
        ]

    def test_retry_after_interruption_succeeds(
        self, learned_model, tmp_path, monkeypatch
    ):
        registry = ModelRegistry(tmp_path)

        def crash(obj, handle, **kwargs):
            raise _CrashMidWrite()

        monkeypatch.setattr("repro.serve.model.json.dump", crash)
        with pytest.raises(_CrashMidWrite):
            registry.save(learned_model)
        monkeypatch.undo()
        registry.save(learned_model)
        assert registry.versions("address") == [1]

    def test_save_writes_through_temp_then_rename(
        self, learned_model, tmp_path
    ):
        """Direct-save sanity: the final artifact is complete JSON."""
        path = TransformationModel.save(learned_model, tmp_path / "m.json")
        assert path.name == "m.json"
        assert (
            TransformationModel.load(path).to_dict()
            == learned_model.to_dict()
        )
        assert list(tmp_path.glob(".m.json.tmp.*")) == []


class TestConcurrentPublish:
    """Publishers racing on one name each get their own version."""

    def test_stale_publisher_takes_the_next_free_version(
        self, learned_model, identity_model, tmp_path, monkeypatch
    ):
        ours = ModelRegistry(tmp_path)
        rival = ModelRegistry(tmp_path)
        ours.save(learned_model)
        # ``ours`` listed the directory before ``rival`` published: its
        # view of the versions is one publish behind.
        stale = ours.versions("address")
        rival.save(identity_model)
        monkeypatch.setattr(ours, "versions", lambda name: stale)
        path = ours.save(learned_model)
        monkeypatch.undo()

        assert path.name == "v3.json"
        assert ours.versions("address") == [1, 2, 3]
        assert ours.load("address", 2).to_dict() == identity_model.to_dict()
        assert ours.load("address", 3).to_dict() == learned_model.to_dict()
        assert sorted(p.name for p in (tmp_path / "address").glob("*")) == [
            "v1.json",
            "v2.json",
            "v3.json",
        ]
