"""Decision-cache durability: restarts never re-spend the oracle.

The central guarantee: verdicts persist as JSON-lines next to the
bundle, so a *restarted* consolidator — fresh process, empty cluster /
candidate state — re-streaming data whose variation was fully judged
asks **zero** repeat questions, and its republished bundles extend the
prior version sequence.  A registry written before one-column streams
published bundles (bare models and an unnamed ``decisions.jsonl``)
resumes the same way.
"""

import json
import os

import pytest

from repro.core.replacement import Replacement
from repro.datagen.address import address_dataset
from repro.datagen.base import GeneratorSpec
from repro.datagen.stream import dataset_stream
from repro.pipeline.oracle import FORWARD, REVERSE, Decision
from repro.serve.bundle import BundleRegistry
from repro.serve.registry import ModelRegistry
from repro.stream import (
    DecisionCache,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

SEED = 7
#: Variant-only clusters: verdicts are content-determined, so a replay
#: of the same records must be answerable entirely from the cache.
SPEC = GeneratorSpec(
    n_clusters=25,
    mean_cluster_size=5.0,
    conflict_rate=0.0,
    variant_rate=0.8,
    seed=SEED,
)
UNBOUNDED = 100_000


class TestDecisionCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        cache = DecisionCache(path)
        assert cache.record(Replacement("St", "Street"), Decision(True))
        assert cache.record(
            Replacement("Ave", "Av"), Decision(False, REVERSE)
        )
        reloaded = DecisionCache(path)
        assert reloaded.replayed == 2
        assert reloaded.get(Replacement("St", "Street")) == Decision(
            True, FORWARD
        )
        assert reloaded.get(Replacement("Ave", "Av")) == Decision(
            False, REVERSE
        )

    def test_first_verdict_wins(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        cache = DecisionCache(path)
        assert cache.record(Replacement("a", "b"), Decision(True))
        assert not cache.record(Replacement("a", "b"), Decision(False))
        assert cache.get(Replacement("a", "b")).approved
        assert len(path.read_text().splitlines()) == 1

    def test_in_memory_without_path(self):
        cache = DecisionCache()
        cache.record(Replacement("a", "b"), Decision(True))
        assert len(cache) == 1
        assert Replacement("a", "b") in cache

    def test_torn_final_line_is_skipped_and_repaired(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        DecisionCache(path).record(Replacement("a", "b"), Decision(True))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lhs": "c", "rhs": "d", "appro')  # crashed here
        reloaded = DecisionCache(path)
        assert len(reloaded) == 1
        # The torn tail must be repaired at load, or the next append
        # glues JSON onto the fragment: that verdict would be lost and
        # the log would refuse to load once another line followed.
        reloaded.record(Replacement("e", "f"), Decision(True))
        again = DecisionCache(path)
        assert len(again) == 2
        assert again.get(Replacement("e", "f")) == Decision(True, FORWARD)

    def test_missing_final_newline_is_repaired(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        DecisionCache(path).record(Replacement("a", "b"), Decision(True))
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 1)  # crash ate the newline
        reloaded = DecisionCache(path)
        assert len(reloaded) == 1  # the verdict itself is intact
        reloaded.record(Replacement("e", "f"), Decision(True))
        assert len(DecisionCache(path)) == 2

    def test_corruption_elsewhere_is_loud(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        path.write_text(
            "not json at all\n"
            + json.dumps(
                {"lhs": "a", "rhs": "b", "approved": True}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="corrupt decision log"):
            DecisionCache(path)

    def test_terminate_repair_writes_the_missing_newline(self, tmp_path):
        """The ``("terminate", 0)`` repair path: an intact final
        verdict whose newline the crash ate is kept, and the load
        itself appends the newline — so the *very next* append starts
        on a fresh line instead of gluing JSON onto the verdict."""
        path = tmp_path / "decisions.jsonl"
        DecisionCache(path).record(Replacement("a", "b"), Decision(True))
        DecisionCache(path).record(Replacement("c", "d"), Decision(False))
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 1)
        assert not path.read_bytes().endswith(b"\n")
        reloaded = DecisionCache(path)
        # Both verdicts survive; the file is terminated again by the
        # load alone (no append needed to heal it).
        assert len(reloaded) == 2
        assert path.read_bytes().endswith(b"\n")
        # A subsequent append lands on its own line and the log stays
        # fully parseable.
        reloaded.record(Replacement("e", "f"), Decision(True))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line) for line in lines)
        assert len(DecisionCache(path)) == 3

    def test_source_field_round_trips(self, tmp_path):
        """Machine-settled verdicts are tagged in the log (``source``)
        but replay exactly like asked ones."""
        path = tmp_path / "decisions.jsonl"
        cache = DecisionCache(path)
        cache.record(Replacement("a", "b"), Decision(True))
        cache.record(
            Replacement("a", "c"), Decision(True), source="inferred"
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert "source" not in rows[0]
        assert rows[1]["source"] == "inferred"
        reloaded = DecisionCache(path)
        assert reloaded.replayed == 2
        assert reloaded.get(Replacement("a", "c")) == Decision(
            True, FORWARD
        )


class TestArchiveLog:
    """``archive_log``: a fresh run moves the stale verdict log aside
    to the first free ``.pre-fresh-<k>`` slot — never overwriting the
    paid-for review history of *earlier* fresh runs."""

    def test_backup_slot_collision_picks_the_next_free_slot(
        self, tmp_path
    ):
        from repro.stream.decisions import archive_log

        path = tmp_path / "decisions.jsonl"
        first = '{"lhs": "a", "rhs": "b", "approved": true}\n'
        second = '{"lhs": "c", "rhs": "d", "approved": true}\n'
        (tmp_path / "decisions.jsonl.pre-fresh-1").write_text(first)
        path.write_text(second)
        backup = archive_log(path)
        # Slot 1 is taken by an earlier fresh run: the new backup must
        # land in slot 2 with slot 1 untouched.
        assert backup == tmp_path / "decisions.jsonl.pre-fresh-2"
        assert backup.read_text() == second
        assert (
            tmp_path / "decisions.jsonl.pre-fresh-1"
        ).read_text() == first
        assert not path.exists()

    def test_append_after_archival_starts_a_clean_log(self, tmp_path):
        from repro.stream.decisions import archive_log

        path = tmp_path / "decisions.jsonl"
        DecisionCache(path).record(Replacement("a", "b"), Decision(True))
        archive_log(path)
        fresh = DecisionCache(path)
        assert fresh.replayed == 0  # nothing stale replayed
        fresh.record(Replacement("c", "d"), Decision(True))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["lhs"] == "c"

    def test_archive_of_missing_log_is_a_no_op(self, tmp_path):
        from repro.stream.decisions import archive_log

        assert archive_log(tmp_path / "nope.jsonl") is None
        assert archive_log(None) is None


@pytest.fixture(scope="module")
def stream():
    return dataset_stream(
        address_dataset(spec=SPEC, seed=SEED), batches=3, seed=SEED
    )


def make_consolidator(stream, registry, **kwargs):
    return GoldenStreamConsolidator(
        columns=[stream.column],
        oracle_factory=golden_ground_truth_oracle_factory(
            {stream.column: stream.canonical_by_rid}, seed=0
        ),
        fusion=None,
        key_attribute=stream.key_column,
        budget_per_batch=UNBOUNDED,
        registry=registry,
        bundle_name="addr",
        **kwargs,
    )


class TestRestartResume:
    """Engine off both runs: the restart is a byte-for-byte replay of
    the judged variation, so the cache must answer *everything*."""

    @pytest.fixture(scope="class")
    def first_run(self, stream, tmp_path_factory):
        root = tmp_path_factory.mktemp("registry")
        registry = BundleRegistry(root)
        with make_consolidator(
            stream, registry, use_engine=False
        ) as consolidator:
            consolidator.run(stream.batches)
            questions = consolidator.questions_asked
            version = consolidator.bundle_version
            final = {
                r.rid: r.values[stream.column]
                for c in consolidator.table.clusters
                for r in c.records
            }
        assert questions > 0 and version > 0
        return registry, questions, version, final

    def test_decision_log_written_next_to_model(self, first_run):
        registry, _, _, _ = first_run
        log = registry.root / "addr" / "decisions-address.jsonl"
        assert log.exists()
        assert len(log.read_text().splitlines()) > 0

    def test_restart_asks_zero_repeat_questions(self, stream, first_run):
        registry, _, first_version, first_final = first_run
        with make_consolidator(
            stream, registry, use_engine=False
        ) as restarted:
            restarted.run(stream.batches)
            assert restarted.resumed_from == first_version
            standardizer = restarted.standardizers[stream.column]
            assert standardizer.decisions.replayed > 0
            # The guarantee: every question of the first run is
            # answered from the durable cache — zero repeats.
            assert restarted.questions_asked == 0
            final = {
                r.rid: r.values[stream.column]
                for c in restarted.table.clusters
                for r in c.records
            }
        assert final == first_final

    def test_engine_restart_never_repeats_a_judged_member(
        self, stream, first_run
    ):
        """With the serve fast path on, a restarted stream may meet
        *new* variation (arrivals standardized before resolution pair
        differently), but may never re-ask a judged member."""
        registry, _, _, _ = first_run
        log_path = registry.root / "addr" / "decisions-address.jsonl"
        judged = {member for member, _ in DecisionCache(log_path).items()}
        with make_consolidator(
            stream, registry, use_engine=True
        ) as restarted:
            restarted.run(stream.batches)
            steps = restarted.standardizers[stream.column].log.steps
            asked = [
                member
                for step in steps[len(steps) - restarted.questions_asked:]
                for member in step.group.replacements
            ]
        assert not judged.intersection(asked)

    def test_resumed_publish_extends_model_sequence(
        self, stream, first_run
    ):
        registry, _, first_version, _ = first_run
        with make_consolidator(stream, registry) as restarted:
            restarted.process_batch(stream.batches[0])
            # Zero new confirmations -> nothing published; the engine
            # still serves the resumed bundle.
            assert restarted.engine is not None
            assert (
                restarted.engine.bundle.groups_confirmed
                == registry.load("addr").groups_confirmed
            )
            rebuilt = restarted.build_column_model(stream.column)
            prior = registry.load("addr", first_version).models[
                stream.column
            ]
            assert [g.to_dict() for g in rebuilt.groups[: len(prior.groups)]] == [
                g.to_dict() for g in prior.groups
            ]

    def test_fresh_flag_ignores_registry_state(self, stream, first_run):
        registry, first_questions, _, _ = first_run
        with make_consolidator(
            stream,
            registry,
            resume=False,
            persist_decisions=False,
            use_engine=False,
        ) as fresh:
            fresh.run(stream.batches)
            assert fresh.resumed_from is None
            assert fresh.questions_asked == first_questions

    def test_fresh_run_archives_the_stale_decision_log(
        self, stream, tmp_path
    ):
        """Regression: ``resume=False`` once replayed (and appended to)
        the existing verdict log, so a "fresh" run silently reused
        stale verdicts and asked ~zero questions.  Starting over must
        neither replay the old log nor mix new verdicts into it — the
        old file moves aside as paid-for review history."""
        registry = BundleRegistry(tmp_path / "registry")
        log = registry.root / "addr" / "decisions-address.jsonl"
        with make_consolidator(
            stream, registry, use_engine=False
        ) as first:
            first.process_batch(stream.batches[0])
            first_questions = first.questions_asked
        assert first_questions > 0 and log.exists()
        stale = log.read_text()
        with make_consolidator(
            stream, registry, resume=False, use_engine=False
        ) as fresh:
            fresh.process_batch(stream.batches[0])
            assert fresh.standardizers[stream.column].decisions.replayed == 0
            assert fresh.questions_asked == first_questions
        backup = log.parent / "decisions-address.jsonl.pre-fresh-1"
        assert backup.read_text() == stale
        # The new log holds only the fresh run's own verdicts (here a
        # deterministic re-judgment of the same data, so the same
        # count) — not stale lines with new ones appended after.
        assert log.exists()
        assert len(log.read_text().splitlines()) == len(
            stale.splitlines()
        )

    def test_resume_without_verdicts_starts_over_not_doubled(
        self, stream, tmp_path
    ):
        """Regression: resuming without a decision log rehydrated the
        prior model's group sequence, then re-judged everything and
        appended — publishing a model with every group twice."""
        registry = BundleRegistry(tmp_path / "registry")
        with make_consolidator(
            stream,
            registry,
            use_engine=False,
            persist_decisions=False,
        ) as first:
            first.run(stream.batches)
            first_groups = first.build_column_model(
                stream.column
            ).groups_confirmed
        assert first_groups > 0
        with make_consolidator(
            stream,
            registry,
            use_engine=False,
            persist_decisions=False,
        ) as second:
            second.run(stream.batches)
            # No verdicts to replay: the run starts over (no warm
            # start), re-judges deterministically, and publishes the
            # same-sized model — never a doubled group sequence.
            assert second.resumed_from is None
            assert second.build_column_model(
                stream.column
            ).groups_confirmed == first_groups

    def test_sharded_restart_also_zero_questions(self, stream, first_run):
        registry, _, _, _ = first_run
        with make_consolidator(
            stream,
            registry,
            shards=3,
            shard_processes=False,
            use_engine=False,
        ) as restarted:
            restarted.run(stream.batches)
            assert restarted.questions_asked == 0


def legacy_registry(stream, root):
    """A registry as single-column streams wrote it before they
    published bundles: bare models under :class:`ModelRegistry` (v1
    after batch 0, v2 after batch 1) and the verdicts of both batches
    in an unnamed ``decisions.jsonl``."""
    directory = root / "addr"
    registry = ModelRegistry(root)
    with make_consolidator(
        stream, None, decision_log_dir=directory, use_engine=False
    ) as legacy:
        for batch in stream.batches[:2]:
            legacy.process_batch(batch)
            registry.save(legacy.build_column_model(stream.column), "addr")
    os.replace(
        directory / "decisions-address.jsonl", directory / "decisions.jsonl"
    )
    return registry


class TestLegacyMigration:
    """Upgrading a single-column registry: a bare model resumes as a
    one-column bundle, and the unnamed verdict log is adopted."""

    def test_resume_adopts_log_and_publishes_next_bundle(
        self, stream, tmp_path
    ):
        registry = legacy_registry(stream, tmp_path / "registry")
        directory = registry.root / "addr"
        legacy_log = (directory / "decisions.jsonl").read_text()
        judged = {
            member
            for member, _ in DecisionCache(
                directory / "decisions.jsonl"
            ).items()
        }
        legacy_groups = [
            g.to_dict()
            for g in registry.load("addr").models[stream.column].groups
        ]
        with make_consolidator(
            stream, BundleRegistry(registry.root), use_engine=False
        ) as resumed:
            reports = resumed.run(stream.batches)
            steps = resumed.standardizers[stream.column].log.steps
            asked = [
                member
                for step in steps[len(steps) - resumed.questions_asked:]
                for member in step.group.replacements
            ]
        assert resumed.resumed_from == 2
        # The log moved to its per-column name, nothing lost.
        assert not (directory / "decisions.jsonl").exists()
        adopted = (directory / "decisions-address.jsonl").read_text()
        assert adopted.startswith(legacy_log)
        # Zero repeat questions: the judged batches replay for free, and
        # the third batch's questions are all new variation.
        assert [r.questions_asked for r in reports[:2]] == [0, 0]
        assert resumed.questions_asked > 0
        assert not judged.intersection(asked)
        # The next version is a one-column bundle extending the model.
        assert resumed.bundle_version == 3
        bundle = BundleRegistry(registry.root).load("addr", 3)
        assert bundle.columns == [stream.column]
        groups = bundle.models[stream.column].groups
        assert [
            g.to_dict() for g in groups[: len(legacy_groups)]
        ] == legacy_groups

    def test_fresh_archives_the_adopted_log(self, stream, tmp_path):
        registry = legacy_registry(stream, tmp_path / "registry")
        directory = registry.root / "addr"
        legacy_log = (directory / "decisions.jsonl").read_text()
        with make_consolidator(
            stream,
            BundleRegistry(registry.root),
            resume=False,
            use_engine=False,
        ) as fresh:
            fresh.process_batch(stream.batches[0])
            assert fresh.resumed_from is None
            assert fresh.standardizers[stream.column].decisions.replayed == 0
            assert fresh.questions_asked > 0
        assert not (directory / "decisions.jsonl").exists()
        backup = directory / "decisions-address.jsonl.pre-fresh-1"
        assert backup.read_text() == legacy_log

    def test_only_a_one_column_stream_adopts(self, tmp_path):
        """The legacy rows name no column, so a multi-column stream
        cannot tell whose they are and leaves the file alone."""
        legacy = tmp_path / "decisions.jsonl"
        legacy.write_text("")
        with GoldenStreamConsolidator(
            columns=["address", "title"],
            oracle_factory=lambda consolidator, column: None,
            key_attribute="k",
            decision_log_dir=tmp_path,
        ) as golden:
            golden.process_batch([])
        assert legacy.exists()
        assert not (tmp_path / "decisions-address.jsonl").exists()


class TestOrientation:
    """A verdict answers the judged pair in *either* orientation.

    The store derives a value pair in whichever orientation its cells
    were indexed, so later batches can resurface a judged pair
    reversed.  Without orientation-aware lookup that re-ask costs a
    second question, and — because the oracle's direction defaults to
    FORWARD when neither side is canonical — approves *both*
    orientations, planting an A⇄B rewrite cycle that the replay fixed
    point in ``reuse_confirmed`` could never escape (the bug this
    class pins).
    """

    def test_reversed_lookup_flips_the_direction(self):
        cache = DecisionCache()
        cache.record(Replacement("a", "b"), Decision(True, FORWARD))
        mirrored = cache.get(Replacement("b", "a"))
        assert mirrored == Decision(True, REVERSE)
        # Both orientations resolve to the SAME rewrite: apply a -> b.
        resolved = (
            Replacement("b", "a").reversed()
            if mirrored.direction == REVERSE
            else Replacement("b", "a")
        )
        assert resolved == Replacement("a", "b")

    def test_reversed_lookup_of_a_reverse_verdict(self):
        cache = DecisionCache()
        cache.record(Replacement("a", "b"), Decision(True, REVERSE))
        assert cache.get(Replacement("b", "a")) == Decision(True, FORWARD)

    def test_rejections_mirror_too(self):
        cache = DecisionCache()
        cache.record(Replacement("a", "b"), Decision(False, FORWARD))
        mirrored = cache.get(Replacement("b", "a"))
        assert mirrored is not None and not mirrored.approved
        assert Replacement("b", "a") in cache

    def test_record_is_first_wins_across_orientations(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        cache = DecisionCache(path)
        assert cache.record(Replacement("a", "b"), Decision(True, FORWARD))
        # The mirrored verdict is already known: not recorded, not
        # appended to the durable log.
        assert not cache.record(
            Replacement("b", "a"), Decision(True, FORWARD)
        )
        assert len(path.read_text().splitlines()) == 1
        assert len(cache) == 1

    def test_replayed_log_stays_orientation_aware(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        DecisionCache(path).record(
            Replacement("a", "b"), Decision(True, FORWARD)
        )
        reloaded = DecisionCache(path)
        assert reloaded.get(Replacement("b", "a")) == Decision(
            True, REVERSE
        )

    def test_conflicting_orientations_cannot_ping_pong_replay(self):
        """Defense in depth: even a pathological verdict history with
        both orientations approved (hand-edited log) must degrade to a
        bounded replay walk, not an infinite loop."""
        from repro.config import DEFAULT_CONFIG
        from repro.data.table import ClusterTable, Record
        from repro.stream.standardizer import IncrementalStandardizer

        table = ClusterTable(["v"])
        table.add_cluster(
            "c0",
            [
                Record("r0", {"v": "aa bb"}),
                Record("r1", {"v": "aa cc"}),
                Record("r2", {"v": "aa bb"}),
            ],
        )
        standardizer = IncrementalStandardizer(
            table, "v", DEFAULT_CONFIG
        )
        from repro.data.table import CellRef

        standardizer.ingest(
            [CellRef(0, 0, "v"), CellRef(0, 1, "v"), CellRef(0, 2, "v")]
        )
        # Forge the pathological history the cache normally prevents:
        # both orientations approved FORWARD.
        standardizer.decisions._decisions[
            Replacement("aa bb", "aa cc")
        ] = Decision(True, FORWARD)
        standardizer.decisions._decisions[
            Replacement("aa cc", "aa bb")
        ] = Decision(True, FORWARD)
        reused, changed = standardizer.reuse_confirmed()
        # Terminated (the assertion is that we got here) with a
        # deterministic, bounded amount of rewriting.
        assert changed >= 0

    def test_legacy_log_with_both_orientations_loads_first_only(
        self, tmp_path
    ):
        """A log written before lookups were orientation-aware can hold
        both A->B and B->A (both approved FORWARD).  Replay must keep
        only the first — loading both would replant the rewrite cycle
        the mirrored lookup exists to prevent."""
        path = tmp_path / "decisions.jsonl"
        path.write_text(
            json.dumps(
                {
                    "lhs": "a",
                    "rhs": "b",
                    "approved": True,
                    "direction": FORWARD,
                }
            )
            + "\n"
            + json.dumps(
                {
                    "lhs": "b",
                    "rhs": "a",
                    "approved": True,
                    "direction": FORWARD,
                }
            )
            + "\n"
        )
        cache = DecisionCache(path)
        assert len(cache) == 1
        assert cache.get(Replacement("a", "b")) == Decision(True, FORWARD)
        # The mirrored key answers with the SAME resolved rewrite.
        assert cache.get(Replacement("b", "a")) == Decision(True, REVERSE)
