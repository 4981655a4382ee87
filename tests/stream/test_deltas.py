"""The golden delta log: producer durability, consumer tailing, and
the end-to-end contract that cumulative deltas reconstruct the golden
table exactly.
"""

import json

from repro.datagen.stream import golden_stream
from repro.stream import (
    GoldenDeltaLog,
    GoldenDeltaReader,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)
from repro.stream.decisions import archive_log

SPEC = dict(
    n_clusters=14,
    mean_cluster_size=5.0,
    conflict_rate=0.0,
    variant_rate=0.6,
    seed=8,
)


class TestDeltaLog:
    def test_appends_are_sequenced_and_empty_deltas_skipped(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        with GoldenDeltaLog(path) as log:
            row = log.append({"k1": {"a": "x"}}, [], batch=0)
            assert row["seq"] == 1
            assert log.append({}, []) is None  # nothing changed
            row = log.append({}, ["k1"], batch=1, bundle_version=3)
            assert row["seq"] == 2 and row["bundle_version"] == 3
        lines = path.read_text().splitlines()
        assert [json.loads(l)["seq"] for l in lines] == [1, 2]

    def test_reopen_resumes_the_sequence(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        with GoldenDeltaLog(path) as log:
            log.append({"k": {"a": "1"}}, [])
        with GoldenDeltaLog(path) as log:
            assert log.append({"k": {"a": "2"}}, [])["seq"] == 2

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        with GoldenDeltaLog(path) as log:
            log.append({"k": {"a": "1"}}, [])
        with open(path, "ab") as handle:
            handle.write(b'{"type": "golden_delta", "seq": 2, "cha')
        with GoldenDeltaLog(path) as log:
            # The fragment is gone; numbering resumes after row 1.
            assert log.append({"k": {"a": "2"}}, [])["seq"] == 2
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["seq"] for r in rows] == [1, 2]

    def test_intact_tail_missing_newline_is_terminated(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        with GoldenDeltaLog(path) as log:
            log.append({"k": {"a": "1"}}, [])
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 1)  # eat the newline
        with GoldenDeltaLog(path) as log:
            log.append({"k": {"a": "2"}}, [])
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["seq"] for r in rows] == [1, 2]


class TestDeltaReader:
    def test_missing_file_polls_empty(self, tmp_path):
        reader = GoldenDeltaReader(tmp_path / "absent.jsonl")
        assert reader.poll() == []
        assert not reader.reset

    def test_polls_return_only_new_complete_rows(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        reader = GoldenDeltaReader(path)
        with GoldenDeltaLog(path) as log:
            log.append({"k1": {"a": "1"}}, [])
            assert [r["seq"] for r in reader.poll()] == [1]
            assert reader.poll() == []
            log.append({"k2": {"a": "2"}}, [])
            log.append({"k3": {"a": "3"}}, [])
            assert [r["seq"] for r in reader.poll()] == [2, 3]

    def test_partial_tail_is_deferred_until_complete(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        reader = GoldenDeltaReader(path)
        row = json.dumps({"type": "golden_delta", "seq": 1, "changed": {}})
        with open(path, "w") as handle:
            handle.write(row[:10])  # writer caught mid-append
            handle.flush()
        assert reader.poll() == []
        with open(path, "a") as handle:
            handle.write(row[10:] + "\n")
        assert [r["seq"] for r in reader.poll()] == [1]

    def test_shrunken_file_resets_the_reader(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        reader = GoldenDeltaReader(path)
        with GoldenDeltaLog(path) as log:
            log.append({"k1": {"a": "1"}}, [])
            log.append({"k2": {"a": "2"}}, [])
        assert len(reader.poll()) == 2
        path.unlink()  # archived by a --fresh restart...
        assert reader.poll() == []
        assert reader.reset
        with GoldenDeltaLog(path) as log:  # ...and recreated
            log.append({"k9": {"a": "9"}}, [])
        rows = reader.poll()
        assert [r["seq"] for r in rows] == [1]

    def test_replaced_file_resets_even_past_the_old_offset(self, tmp_path):
        """``--fresh`` archives the log and the new run may write past
        the old byte offset before the next poll: the size alone looks
        like growth, so only the file's identity reveals the restart."""
        path = tmp_path / "deltas.jsonl"
        reader = GoldenDeltaReader(path)
        with GoldenDeltaLog(path) as log:
            log.append({"k1": {"a": "1"}}, [])
            log.append({"k2": {"a": "2"}}, [])
        assert len(reader.poll()) == 2
        old_size = path.stat().st_size
        assert archive_log(path) is not None
        with GoldenDeltaLog(path) as log:
            log.append({f"k{i}": {"a": "x" * 40} for i in range(8)}, [])
            log.append({"k9": {"a": "9"}}, [])
        first_line = path.read_bytes().split(b"\n")[0]
        assert len(first_line) > old_size
        rows = reader.poll()
        assert reader.reset
        assert [r["seq"] for r in rows] == [1, 2]


def test_cumulative_deltas_reconstruct_the_golden_table(tmp_path):
    """The end-to-end producer contract: folding every published delta
    over an empty table yields exactly the consolidator's final golden
    records — nothing missing, nothing stale, removals honored."""
    stream = golden_stream(batches=4, **SPEC)
    log_path = tmp_path / "golden-deltas.jsonl"
    consolidator = GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=0
        ),
        budget_per_batch=100_000,
        key_attribute=stream.key_column,
        use_engine=False,
        persist_decisions=False,
        golden_log=log_path,
    )
    with consolidator:
        reports = consolidator.run(stream.batches)

    assert any(report.golden_changed for report in reports)

    table = {}
    last_seq = 0
    for row in GoldenDeltaReader(log_path).poll():
        assert row["seq"] > last_seq
        last_seq = row["seq"]
        for key in row["removed"]:
            table.pop(key, None)
        for key, values in row["changed"].items():
            table[key] = dict(values)

    assert table == consolidator.golden_by_key()
