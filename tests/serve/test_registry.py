"""Registry tests: versioning, naming, lookup errors, atomic publish."""

import json
import os
import sys
import threading

import pytest

from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.pipeline.oracle import FORWARD
from repro.serve import (
    BundleRegistry,
    ModelRegistry,
    TransformationModel,
    as_bundle,
    build_bundle,
)
from repro.serve.model import ConfirmedGroup, ConfirmedMember
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
        assert registry.load("address").models["address"].to_dict() == (
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

    def test_bundle_registry_is_the_registry_class(self):
        # One class: wrapping ModelRegistry.save also wraps saves made
        # through the older name.
        assert BundleRegistry is ModelRegistry

    def test_empty_root_is_empty(self, tmp_path):
        assert ModelRegistry(tmp_path / "missing").names() == []


class _CrashMidWrite(RuntimeError):
    pass


def _large_model(groups=1000):
    """A ~200 KB model: big enough that a save spans many thread
    switches."""
    return TransformationModel(
        name="big",
        column="address",
        groups=[
            ConfirmedGroup(
                Program((ConstantStr(f"street {i}"),)),
                FORWARD,
                (ConfirmedMember(f"st {i}", f"street {i}", whole=True),),
            )
            for i in range(groups)
        ],
    )


class TestAtomicPublish:
    """A crash mid-publish can never leave a truncated version file."""

    @pytest.fixture
    def registry(self, tmp_path):
        return ModelRegistry(tmp_path)

    @pytest.fixture
    def artifact(self, learned_model):
        # What `repro learn --registry` publishes.
        return as_bundle(learned_model)

    @pytest.fixture
    def crashing_fsync(self, monkeypatch):
        """fsync that leaves 40 bytes of the temp file, then dies — a
        torn write, the worst-case interruption for a direct write."""

        def crash(fd):
            os.ftruncate(fd, 40)
            raise _CrashMidWrite("disk full / SIGKILL / power loss")

        monkeypatch.setattr("repro.serve.model.os.fsync", crash)

    def test_interrupted_first_publish_leaves_nothing(
        self, registry, artifact, tmp_path, crashing_fsync
    ):
        with pytest.raises(_CrashMidWrite):
            registry.save(artifact)
        assert registry.versions("address") == []
        assert list((tmp_path / "address").glob("*")) == []  # no temp junk

    def test_interrupted_republish_preserves_previous_version(
        self, registry, artifact, tmp_path, monkeypatch
    ):
        registry.save(artifact)

        def crash(fd):
            os.ftruncate(fd, 40)
            raise _CrashMidWrite()

        monkeypatch.setattr("repro.serve.model.os.fsync", crash)
        with pytest.raises(_CrashMidWrite):
            registry.save(artifact)
        monkeypatch.undo()

        # v1 is intact and fully loadable; no v2, no leftovers.
        assert registry.versions("address") == [1]
        loaded = registry.load("address")
        assert loaded.to_dict() == artifact.to_dict()
        assert sorted(p.name for p in (tmp_path / "address").glob("*")) == [
            "v1.json"
        ]

    def test_retry_after_interruption_succeeds(
        self, registry, artifact, monkeypatch
    ):
        def crash(fd):
            raise _CrashMidWrite()

        monkeypatch.setattr("repro.serve.model.os.fsync", crash)
        with pytest.raises(_CrashMidWrite):
            registry.save(artifact)
        monkeypatch.undo()
        registry.save(artifact)
        assert registry.versions("address") == [1]

    def test_save_writes_through_temp_then_rename(
        self, artifact, tmp_path
    ):
        """Direct-save sanity: the final artifact is complete JSON."""
        path = artifact.save(tmp_path / "m.json")
        assert path.name == "m.json"
        assert type(artifact).load(path).to_dict() == artifact.to_dict()
        assert list(tmp_path.glob(".m.json.tmp.*")) == []


class TestAtomicBundlePublish(TestAtomicPublish):
    """The same crash cases with a multi-column bundle."""

    @pytest.fixture
    def artifact(self, learned_model, identity_model):
        return build_bundle(
            {"address": learned_model, "plain": identity_model}, "address"
        )


class TestConcurrentSave:
    """Threads saving one path never tear it or each other's writes."""

    def test_threads_saving_one_path_never_expose_a_torn_file(
        self, tmp_path
    ):
        model = _large_model()
        target = tmp_path / "m.json"
        model.save(target)
        errors, torn, good = [], [], []
        done = threading.Event()

        def save():
            for _ in range(50):
                try:
                    model.save(target)
                except OSError as exc:
                    errors.append(exc)

        def read():
            while not done.is_set():
                try:
                    with open(target, encoding="utf-8") as handle:
                        json.load(handle)
                    good.append(1)
                except ValueError:
                    torn.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read, daemon=True)
            writers = [
                threading.Thread(target=save, daemon=True) for _ in range(4)
            ]
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            reader.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert errors == []
        assert torn == []
        assert good
        assert TransformationModel.load(target).to_dict() == model.to_dict()
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


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
        [v2] = ours.load("address", 2).models.values()
        [v3] = ours.load("address", 3).models.values()
        assert v2.to_dict() == identity_model.to_dict()
        assert v3.to_dict() == learned_model.to_dict()
        assert sorted(p.name for p in (tmp_path / "address").glob("*")) == [
            "v1.json",
            "v2.json",
            "v3.json",
        ]


class TestSaveListing:
    """A publish does not pay for the versions already kept."""

    def test_saves_through_one_instance_list_the_directory_once(
        self, learned_model, tmp_path, monkeypatch
    ):
        ModelRegistry(tmp_path).save(learned_model)  # a version kept before
        registry = ModelRegistry(tmp_path)
        listed = []
        iterdir = type(tmp_path).iterdir

        def counting_iterdir(path):
            listed.append(path)
            return iterdir(path)

        monkeypatch.setattr(type(tmp_path), "iterdir", counting_iterdir)
        paths = [registry.save(learned_model) for _ in range(6)]
        other = registry.save(learned_model, name="other")
        monkeypatch.undo()

        assert [p.name for p in paths] == [f"v{v}.json" for v in range(2, 8)]
        assert other.name == "v1.json"
        # one listing per name this instance saved under, not per save
        assert listed == [tmp_path / "address", tmp_path / "other"]
        assert registry.versions("address") == list(range(1, 8))
