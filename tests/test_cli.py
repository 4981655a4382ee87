"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "Address"
        assert args.scale == 0.15

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "Nope"])

    def test_seed_defaults_to_unset(self):
        args = build_parser().parse_args(["stats"])
        assert args.seed is None

    def test_learn_defaults(self):
        args = build_parser().parse_args(["learn"])
        assert args.budget == 100
        assert args.out is None and args.registry is None

    def test_apply_accepts_model_sources(self):
        args = build_parser().parse_args(["apply", "--model", "m.json"])
        assert args.model == "m.json"
        args = build_parser().parse_args(
            ["apply", "--registry", "r", "--name", "n", "--model-version", "2"]
        )
        assert (args.registry, args.name, args.model_version) == ("r", "n", 2)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.json"])
        assert args.cache_size == 65536
        assert not args.no_programs


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--dataset", "JournalTitle", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "distinct value pairs" in out

    def test_groups_runs(self, capsys):
        assert (
            main(
                [
                    "groups",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Group 1" in out

    def test_standardize_runs(self, capsys):
        assert (
            main(
                [
                    "standardize",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--budget",
                    "5",
                    "--sample-size",
                    "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "final" in out and "precision=" in out

    def test_consolidate_runs(self, capsys):
        assert (
            main(
                [
                    "consolidate",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--budget",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "before standardization" in out

    def test_seed_flag(self, capsys):
        assert (
            main(
                [
                    "stats",
                    "--dataset",
                    "Address",
                    "--scale",
                    "0.03",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )


class TestStreamParser:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.batches == 5
        assert args.budget == 50
        assert args.registry is None
        assert not args.no_engine
        assert args.drift_threshold is None

    def test_stream_flags(self):
        args = build_parser().parse_args(
            [
                "stream",
                "--batches",
                "3",
                "--budget",
                "20",
                "--registry",
                "reg",
                "--name",
                "addr",
                "--no-engine",
                "--drift-threshold",
                "0.4",
            ]
        )
        assert (args.batches, args.budget) == (3, 20)
        assert (args.registry, args.name) == ("reg", "addr")
        assert args.no_engine and args.drift_threshold == 0.4

    def test_apply_stats_flag(self):
        args = build_parser().parse_args(
            ["apply", "--model", "m.json", "--stats"]
        )
        assert args.stats

    def test_metrics_flags(self):
        args = build_parser().parse_args(
            ["stream", "--metrics", "m.jsonl", "--trace"]
        )
        assert args.metrics == "m.jsonl"
        assert args.trace
        args = build_parser().parse_args(["stream"])
        assert args.metrics is None and not args.trace

    def test_stats_metrics_flags(self):
        args = build_parser().parse_args(
            ["stats", "--metrics", "m.jsonl", "--check"]
        )
        assert args.metrics == "m.jsonl"
        assert args.check

    def test_question_order_flag(self):
        args = build_parser().parse_args(["stream"])
        assert args.question_order == "discovery"
        args = build_parser().parse_args(
            ["stream", "--question-order", "yield"]
        )
        assert args.question_order == "yield"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--question-order", "random"]
            )


class TestStreamCommand:
    def test_stream_runs_and_publishes(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert (
            main(
                [
                    "stream",
                    "--dataset",
                    "Address",
                    "--scale",
                    "0.04",
                    "--seed",
                    "4",
                    "--batches",
                    "3",
                    "--budget",
                    "30",
                    "--registry",
                    str(registry),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch 0" in out and "batch 2" in out
        assert "saved by reuse" in out
        # Versions were actually published.
        assert sorted((registry / "address").glob("v*.json"))

    def test_stream_no_engine_runs(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--seed",
                    "2",
                    "--batches",
                    "2",
                    "--budget",
                    "10",
                    "--no-engine",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream done" in out

    def test_apply_stats_prints_counters(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        csv_path = tmp_path / "in.csv"
        assert (
            main(
                [
                    "learn",
                    "--dataset",
                    "Address",
                    "--scale",
                    "0.04",
                    "--seed",
                    "9",
                    "--budget",
                    "15",
                    "--out",
                    str(model_path),
                ]
            )
            == 0
        )
        csv_path.write_text(
            "address\n5 Main St, 10001 NY\n", encoding="utf-8"
        )
        assert (
            main(
                [
                    "apply",
                    "--model",
                    str(model_path),
                    "--input",
                    str(csv_path),
                    "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stats: {" in out and '"exact_hits"' in out


class TestMetricsWorkflow:
    """``stream --metrics`` recording and ``stats --metrics`` replay."""

    def stream_args(self, metrics_path):
        return [
            "stream",
            "--dataset",
            "Address",
            "--scale",
            "0.04",
            "--seed",
            "4",
            "--batches",
            "3",
            "--budget",
            "30",
            "--metrics",
            str(metrics_path),
        ]

    def test_stream_records_and_stats_summarizes(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "run.jsonl"
        assert main(self.stream_args(metrics) + ["--trace"]) == 0
        assert "metrics recorded" in capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in metrics.read_text(encoding="utf-8").splitlines()
        ]
        kinds = [row["type"] for row in rows]
        assert kinds[0] == "meta"
        assert kinds[-1] == "snapshot"
        assert kinds.count("batch") == 3
        assert "span" in kinds
        # Validate + summarize through the CLI.
        assert main(["stats", "--metrics", str(metrics), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "per-stage runtime (Fig. 9 view):" in out
        assert "oracle questions per column:" in out

    def test_golden_stream_records_metrics(self, capsys, tmp_path):
        metrics = tmp_path / "golden.jsonl"
        assert (
            main(
                [
                    "stream",
                    "--columns",
                    "address,title",
                    "--scale",
                    "0.05",
                    "--seed",
                    "6",
                    "--batches",
                    "2",
                    "--budget",
                    "30",
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "address" in out and "title" in out

    def test_trace_requires_metrics(self):
        with pytest.raises(SystemExit, match="--trace requires"):
            main(["stream", "--trace", "--seed", "1"])
        with pytest.raises(SystemExit, match="--trace requires"):
            main(
                [
                    "stream",
                    "--columns",
                    "address",
                    "--trace",
                    "--seed",
                    "1",
                ]
            )

    def test_stats_check_requires_metrics(self):
        with pytest.raises(SystemExit, match="--check requires"):
            main(["stats", "--check"])

    def test_stats_missing_metrics_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no such metrics file"):
            main(["stats", "--metrics", str(tmp_path / "nope.jsonl")])

    def test_stats_check_fails_on_schema_violation(self, capsys, tmp_path):
        metrics = tmp_path / "bad.jsonl"
        metrics.write_text(
            '{"type": "meta", "command": "stream"}\n{"type": "bogus"}\n',
            encoding="utf-8",
        )
        assert main(["stats", "--metrics", str(metrics), "--check"]) == 1
        err = capsys.readouterr().err
        assert "schema violation" in err


class TestGoldenStreamCommand:
    """``repro stream --columns``: the multi-column golden-record mode."""

    def test_golden_flags_parse(self):
        args = build_parser().parse_args(
            [
                "stream",
                "--columns",
                "address,title",
                "--golden-out",
                "g.jsonl",
                "--fusion",
                "truthfinder",
            ]
        )
        assert args.columns == "address,title"
        assert args.golden_out == "g.jsonl"
        assert args.fusion == "truthfinder"

    def test_golden_stream_runs_and_writes_records(
        self, capsys, tmp_path
    ):
        import json

        registry = tmp_path / "registry"
        out = tmp_path / "golden.jsonl"
        assert (
            main(
                [
                    "stream",
                    "--columns",
                    "address,title",
                    "--scale",
                    "0.05",
                    "--seed",
                    "6",
                    "--batches",
                    "3",
                    "--budget",
                    "30",
                    "--registry",
                    str(registry),
                    "--golden-out",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "2 columns: address, title" in printed
        assert "golden records" in printed
        # One atomic bundle version per confirming batch.
        assert sorted((registry / "address-title").glob("v*.json"))
        # Per-column decision logs next to the bundle.
        assert (registry / "address-title" / "decisions-address.jsonl").exists()
        assert (registry / "address-title" / "decisions-title.jsonl").exists()
        rows = [
            json.loads(line)
            for line in out.read_text().splitlines()
        ]
        assert rows
        for row in rows:
            assert {"cluster", "key", "address", "title"} <= set(row)

    def test_golden_stream_rejects_unknown_columns(self):
        with pytest.raises(SystemExit, match="unknown golden columns"):
            main(
                [
                    "stream",
                    "--columns",
                    "address,bogus",
                    "--seed",
                    "1",
                ]
            )

    def test_golden_stream_monitors_drift_per_column(self, capsys, tmp_path):
        from repro.obs.summary import iter_rows

        metrics = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "stream",
                    "--columns",
                    "address,title",
                    "--scale",
                    "0.1",
                    "--seed",
                    "6",
                    "--batches",
                    "3",
                    "--budget",
                    "5",
                    "--drift-threshold",
                    "0.0",
                    "--drift-window",
                    "2",
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        assert "DRIFT" in capsys.readouterr().out
        rows = list(iter_rows(metrics))
        events = [r for r in rows if r.get("event") == "drift"]
        assert events
        assert {event["column"] for event in events} <= {"address", "title"}
        snapshot = [r for r in rows if r["type"] == "snapshot"][-1]
        for column in ("address", "title"):
            assert f"drift.miss_rate{{column={column}}}" in snapshot["metrics"]

    def test_empty_columns_list_rejected(self):
        with pytest.raises(SystemExit, match="at least one column"):
            main(["stream", "--columns", ",", "--seed", "1"])

    def test_golden_only_flags_rejected_without_columns(self):
        with pytest.raises(SystemExit, match="--golden-out requires"):
            main(
                [
                    "stream",
                    "--golden-out",
                    "g.jsonl",
                    "--seed",
                    "1",
                ]
            )
        with pytest.raises(SystemExit, match="--fusion requires"):
            main(["stream", "--fusion", "accu", "--seed", "1"])


class TestObservabilityCommands:
    """The PR-7 surfaces: --trace-tree, --profile, top, and bench."""

    def traced_run(self, tmp_path):
        metrics = tmp_path / "run.jsonl"
        args = [
            "stream", "--dataset", "Address", "--scale", "0.04",
            "--seed", "4", "--batches", "2", "--budget", "30",
            "--metrics", str(metrics), "--trace",
        ]
        assert main(args) == 0
        return metrics

    def test_stats_trace_tree_renders(self, capsys, tmp_path):
        metrics = self.traced_run(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics),
                     "--trace-tree"]) == 0
        out = capsys.readouterr().out
        assert "trace tree" in out
        assert "stream.batch" in out
        assert "stream.resolve" in out

    def test_stats_trace_tree_requires_metrics(self):
        with pytest.raises(SystemExit, match="--trace-tree requires"):
            main(["stats", "--trace-tree"])

    def test_stream_profile_writes_collapsed_stacks(self, capsys,
                                                    tmp_path):
        import json

        profile = tmp_path / "profile.jsonl"
        args = [
            "stream", "--dataset", "Address", "--scale", "0.04",
            "--seed", "4", "--batches", "2", "--budget", "30",
            "--profile", str(profile),
        ]
        assert main(args) == 0
        assert "profile written" in capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in profile.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[0]["type"] == "meta"
        assert rows[0]["command"] == "profile"
        assert all(row["type"] == "profile" for row in rows[1:])

    def test_top_once_renders_dashboard(self, capsys, tmp_path):
        metrics = self.traced_run(tmp_path)
        capsys.readouterr()
        assert main(["top", "--metrics", str(metrics), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — stream" in out
        assert "batches=2" in out

    def test_top_once_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no such metrics file"):
            main(["top", "--metrics", str(tmp_path / "nope.jsonl"),
                  "--once"])

    def bench_history(self, tmp_path, extra=None):
        import json

        results = tmp_path / "results"
        results.mkdir()
        rows = [
            {"bench": "kernels", "test": "test_match",
             "outcome": "passed", "seconds": 1.0 + 0.02 * run}
            for run in range(3)
        ]
        rows += extra or []
        with open(results / "BENCH_kernels.json", "w",
                  encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return results

    def test_bench_baseline_then_check_passes(self, capsys, tmp_path):
        results = self.bench_history(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "baseline", "--results-dir", str(results),
                     "--write", str(baseline)]) == 0
        assert "baseline written" in capsys.readouterr().out
        assert main(["bench", "check", "--results-dir", str(results),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_bench_check_fails_on_injected_regression(self, capsys,
                                                      tmp_path):
        results = self.bench_history(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "baseline", "--results-dir", str(results),
                     "--write", str(baseline)]) == 0
        capsys.readouterr()
        slow = {"bench": "kernels", "test": "test_match",
                "outcome": "passed", "seconds": 2.1}
        import json

        with open(results / "BENCH_kernels.json", "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(slow) + "\n")
        assert main(["bench", "check", "--results-dir", str(results),
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_bench_check_missing_baseline_errors(self, tmp_path):
        results = self.bench_history(tmp_path)
        with pytest.raises(SystemExit, match="no baseline file"):
            main(["bench", "check", "--results-dir", str(results),
                  "--baseline", str(tmp_path / "nope.json")])

    def test_bench_baseline_empty_results_fails(self, capsys, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        assert main(["bench", "baseline", "--results-dir",
                     str(empty)]) == 1
        assert "no usable series" in capsys.readouterr().out


class TestDecisionsCommand:
    """``repro decisions``: offline verdict-log maintenance."""

    @staticmethod
    def write_log(path, rows):
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return path

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decisions"])

    def test_missing_log_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no such log"):
            main(["decisions", "audit", str(tmp_path / "nope.jsonl")])

    def test_audit_healthy_log(self, capsys, tmp_path):
        log = self.write_log(
            tmp_path / "decisions.jsonl",
            [
                {"lhs": "a", "rhs": "b", "approved": True},
                {
                    "lhs": "a",
                    "rhs": "c",
                    "approved": True,
                    "source": "inferred",
                },
                {"lhs": "x", "rhs": "y", "approved": False},
            ],
        )
        assert main(["decisions", "audit", str(log)]) == 0
        out = capsys.readouterr().out
        assert "effective: 3" in out
        assert "2 approved" in out and "1 rejected" in out
        assert "inferred x1" in out

    def test_audit_json_and_conflict_exit_code(self, capsys, tmp_path):
        log = self.write_log(
            tmp_path / "decisions.jsonl",
            [
                {"lhs": "a", "rhs": "b", "approved": True},
                {"lhs": "a", "rhs": "b", "approved": False},
            ],
        )
        assert main(["decisions", "audit", "--json", str(log)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["conflicts"] == 1
        assert report["effective"] == 1

    def test_compact_dry_run_leaves_log_alone(self, capsys, tmp_path):
        log = self.write_log(
            tmp_path / "decisions.jsonl",
            [
                {"lhs": "a", "rhs": "b", "approved": True},
                {"lhs": "b", "rhs": "a", "approved": True},
            ],
        )
        before = log.read_text()
        assert main(["decisions", "compact", str(log)]) == 0
        out = capsys.readouterr().out
        assert "1 droppable" in out
        assert log.read_text() == before

    def test_compact_write_rewrites_with_backup(self, capsys, tmp_path):
        log = self.write_log(
            tmp_path / "decisions.jsonl",
            [
                {"lhs": "a", "rhs": "b", "approved": True},
                {"lhs": "b", "rhs": "a", "approved": True},
                {"lhs": "x", "rhs": "y", "approved": False},
            ],
        )
        assert main(["decisions", "compact", "--write", str(log)]) == 0
        out = capsys.readouterr().out
        assert "rewrote" in out
        backup = tmp_path / "decisions.jsonl.pre-compact"
        assert backup.exists()
        assert len(backup.read_text().splitlines()) == 3
        kept = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(kept) == 2
        # The compacted log is itself a healthy decision log.
        capsys.readouterr()
        assert main(["decisions", "audit", str(log)]) == 0

    def test_diff_exit_codes(self, capsys, tmp_path):
        rows = [{"lhs": "a", "rhs": "b", "approved": True}]
        log_a = self.write_log(tmp_path / "a.jsonl", rows)
        log_b = self.write_log(tmp_path / "b.jsonl", rows)
        assert main(["decisions", "diff", str(log_a), str(log_b)]) == 0
        capsys.readouterr()
        self.write_log(
            tmp_path / "b.jsonl",
            rows + [{"lhs": "x", "rhs": "y", "approved": False}],
        )
        assert main(["decisions", "diff", str(log_a), str(log_b)]) == 1
        out = capsys.readouterr().out
        assert "1 only in b" in out

    def test_diff_flags_conflicting_verdicts(self, capsys, tmp_path):
        log_a = self.write_log(
            tmp_path / "a.jsonl",
            [{"lhs": "a", "rhs": "b", "approved": True}],
        )
        # Same pair judged in the mirrored orientation with the
        # opposite verdict: a conflict, not two separate entries.
        log_b = self.write_log(
            tmp_path / "b.jsonl",
            [{"lhs": "b", "rhs": "a", "approved": False}],
        )
        assert main(["decisions", "diff", str(log_a), str(log_b)]) == 1
        assert "1 conflicting" in capsys.readouterr().out
