"""Tests for model publication and ApplyEngine hot reload."""

import pytest

from repro.pipeline.oracle import FORWARD
from repro.serve import ApplyEngine, ModelRegistry, TransformationModel
from repro.serve.model import ConfirmedGroup, ConfirmedMember
from repro.core.functions import ConstantStr
from repro.core.program import Program
from repro.stream import ModelPublisher


def make_model(rules, name="m", column="addr"):
    """A model of whole-value groups (constant programs compile to
    exact rules only, which is all these tests exercise)."""
    groups = [
        ConfirmedGroup(
            Program((ConstantStr(rhs),)),
            FORWARD,
            (ConfirmedMember(lhs, rhs, whole=True),),
        )
        for lhs, rhs in rules
    ]
    return TransformationModel(name=name, column=column, groups=groups)


def extend(model, rules):
    """A new model version appending ``rules`` (publish semantics)."""
    extra = make_model(rules, name=model.name, column=model.column)
    return TransformationModel(
        name=model.name,
        column=model.column,
        groups=list(model.groups) + list(extra.groups),
        config=model.config,
        vocabulary=model.vocabulary,
    )


class TestHotReload:
    def test_incremental_reload_extends_without_reconstruction(self):
        v1 = make_model([("Main St", "Main Street")])
        engine = ApplyEngine(v1)
        assert engine.transform("Main St") == "Main Street"
        exact_id = id(engine.exact)
        programs_id = id(engine.programs)
        token_id = id(engine.token_rules)
        rows_before = engine.stats().rows
        exact_hits_before = engine.stats().exact_hits

        v2 = extend(v1, [("9th Ave", "9th Avenue")])
        engine.reload(v2)

        # Unrelated state survives: same compiled containers, same
        # accumulated stats, old rules still present.
        assert id(engine.exact) == exact_id
        assert id(engine.programs) == programs_id
        assert id(engine.token_rules) == token_id
        assert engine.stats().rows == rows_before
        assert engine.stats().exact_hits == exact_hits_before
        assert engine.exact["Main St"] == "Main Street"
        # ... and the new version is live.
        assert engine.model is v2
        assert engine.transform("9th Ave") == "9th Avenue"

    def test_reload_invalidates_stale_cache(self):
        v1 = make_model([("Main St", "Main Street")])
        engine = ApplyEngine(v1)
        assert engine.transform("9th Ave") == "9th Ave"  # memoized miss
        engine.reload(extend(v1, [("9th Ave", "9th Avenue")]))
        assert engine.transform("9th Ave") == "9th Avenue"

    def test_incompatible_model_full_recompiles_in_place(self):
        v1 = make_model([("Main St", "Main Street")])
        engine = ApplyEngine(v1)
        exact_id = id(engine.exact)
        other = make_model([("Elm Rd", "Elm Road")])  # not an extension
        engine.reload(other)
        assert id(engine.exact) == exact_id  # cleared + refilled, not replaced
        assert engine.exact == {"Elm Rd": "Elm Road"}
        assert engine.transform("Main St") == "Main St"

    def test_reload_chain_composes_like_cold_compile(self):
        v1 = make_model([("A St", "B St")])
        engine = ApplyEngine(v1)
        engine.reload(extend(v1, [("B St", "C St")]))
        cold = ApplyEngine(extend(v1, [("B St", "C St")]))
        assert engine.exact == cold.exact


class TestPublisher:
    def test_in_process_publisher_versions_and_reloads(self):
        v1 = make_model([("Main St", "Main Street")])
        publisher = ModelPublisher()
        version, path = publisher.publish(v1)
        assert (version, path) == (1, None)

        engine = ApplyEngine(v1)
        publisher.subscribe(engine)
        v2 = extend(v1, [("9th Ave", "9th Avenue")])
        version, path = publisher.publish(v2)
        assert (version, path) == (2, None)
        assert engine.model is v2
        assert engine.transform("9th Ave") == "9th Avenue"

    def test_registry_publisher_bumps_registry_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        publisher = ModelPublisher(registry, "addr")
        v1 = make_model([("Main St", "Main Street")])
        version, path = publisher.publish(v1)
        assert version == 1 and path == registry.path("addr", 1)
        version, path = publisher.publish(
            extend(v1, [("9th Ave", "9th Avenue")])
        )
        assert version == 2
        assert registry.versions("addr") == [1, 2]
        # The published artifact round-trips and extends v1.
        loaded = registry.load("addr")
        assert loaded.groups_confirmed == 2

    def test_registry_publish_hot_reloads_subscriber_incrementally(
        self, tmp_path
    ):
        """The full lifecycle the stream runs: publish through the
        registry, reload the serving engine from the registry artifact,
        all without reconstructing unrelated engine state."""
        registry = ModelRegistry(tmp_path)
        publisher = ModelPublisher(registry, "addr")
        v1 = make_model([("Main St", "Main Street")])
        publisher.publish(v1)
        engine = ApplyEngine(registry.load("addr").models["addr"])
        exact_id = id(engine.exact)

        publisher.publish(extend(v1, [("9th Ave", "9th Avenue")]))
        reloaded = registry.load("addr").models["addr"]
        engine.reload(reloaded)
        assert id(engine.exact) == exact_id
        assert engine.transform("9th Ave") == "9th Avenue"
        assert engine.model.groups_confirmed == 2

    def test_unsubscribe_stops_reloads(self):
        v1 = make_model([("Main St", "Main Street")])
        publisher = ModelPublisher()
        engine = ApplyEngine(v1)
        publisher.subscribe(engine)
        publisher.unsubscribe(engine)
        publisher.publish(extend(v1, [("9th Ave", "9th Avenue")]))
        assert engine.model is v1


def make_bundle(rules_by_column, name="golden"):
    from repro.serve.bundle import build_bundle

    return build_bundle(
        {
            column: make_model(rules, name=f"{name}-{column}", column=column)
            for column, rules in rules_by_column.items()
        },
        name,
    )


class TestBundlePublisher:
    """One publish flips every column's model together."""

    def test_in_process_publisher_versions_and_reloads(self):
        from repro.serve.bundle import BundleApplyEngine
        from repro.stream import BundlePublisher

        publisher = BundlePublisher()
        v1 = make_bundle({"addr": [("st", "street")], "title": []})
        engine = BundleApplyEngine(v1)
        publisher.subscribe(engine)
        version, path = publisher.publish(v1)
        assert (version, path) == (1, None)
        v2 = make_bundle(
            {"addr": [("st", "street")], "title": [("intl", "international")]}
        )
        version, path = publisher.publish(v2)
        assert (version, path) == (2, None)
        # The subscriber serves both columns' new rules at once.
        assert engine.apply_record({"addr": "st", "title": "intl"}) == {
            "addr": "street",
            "title": "international",
        }

    def test_registry_publisher_bumps_registry_versions(self, tmp_path):
        from repro.serve.bundle import BundleRegistry
        from repro.stream import BundlePublisher

        registry = BundleRegistry(tmp_path)
        publisher = BundlePublisher(registry, "golden")
        bundle = make_bundle({"addr": [("st", "street")]})
        version, path = publisher.publish(bundle)
        assert version == 1 and path is not None and path.exists()
        version, path = publisher.publish(bundle)
        assert version == 2
        assert registry.versions("golden") == [1, 2]
        assert publisher.last_path == path

    def test_durability_ordering_registry_before_reload(self, tmp_path):
        """The registry write happens before any subscriber reload: a
        crash between the two leaves durable state *ahead* of served
        state, never behind."""
        from repro.serve.bundle import BundleRegistry
        from repro.stream import BundlePublisher

        registry = BundleRegistry(tmp_path)
        publisher = BundlePublisher(registry, "golden")

        class Exploding:
            def reload(self, bundle):
                raise RuntimeError("subscriber died")

        publisher.subscribe(Exploding())
        with pytest.raises(RuntimeError, match="subscriber died"):
            publisher.publish(make_bundle({"addr": [("st", "street")]}))
        assert registry.versions("golden") == [1]

    def test_unsubscribe_stops_reloads(self):
        from repro.serve.bundle import BundleApplyEngine
        from repro.stream import BundlePublisher

        publisher = BundlePublisher()
        v1 = make_bundle({"addr": [("st", "street")]})
        engine = BundleApplyEngine(v1)
        publisher.subscribe(engine)
        publisher.unsubscribe(engine)
        publisher.publish(make_bundle({"addr": [("rd", "road")]}))
        assert engine.bundle is v1


class TestPublishWork:
    """A publish converts and encodes only the groups it adds.

    Counted, not timed: over a 40-batch stream that publishes most
    batches, each confirmed group is built from its log step once and
    its ``to_dict()`` is encoded once, however many later versions
    carry it.
    """

    def test_each_group_is_converted_and_encoded_once(
        self, tmp_path, monkeypatch
    ):
        from repro.datagen.stream import golden_stream
        from repro.stream import (
            GoldenStreamConsolidator,
            golden_ground_truth_oracle_factory,
        )

        stream = golden_stream(batches=40, n_clusters=40, seed=1)
        built, encoded = [], []
        init, to_dict = ConfirmedGroup.__init__, ConfirmedGroup.to_dict

        def counting_init(group, *args, **kwargs):
            built.append(1)
            init(group, *args, **kwargs)

        def counting_to_dict(group):
            encoded.append(1)
            return to_dict(group)

        monkeypatch.setattr(ConfirmedGroup, "__init__", counting_init)
        monkeypatch.setattr(ConfirmedGroup, "to_dict", counting_to_dict)
        registry = ModelRegistry(tmp_path)
        with GoldenStreamConsolidator(
            columns=stream.columns,
            oracle_factory=golden_ground_truth_oracle_factory(
                stream.canonical_by_rid
            ),
            key_attribute=stream.key_column,
            budget_per_batch=2,
            registry=registry,
            bundle_name="golden",
        ) as consolidator:
            consolidator.run(stream.batches)
        monkeypatch.undo()

        versions = registry.versions("golden")
        groups = registry.load("golden").groups_confirmed
        assert len(versions) >= 20
        assert groups >= 40
        assert len(built) == groups
        assert len(encoded) == groups
