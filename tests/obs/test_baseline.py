"""Tests for the BENCH regression gate (``repro bench check``)."""

import json
from pathlib import Path

import pytest

from repro.obs.baseline import (
    DEFAULT_TOLERANCE,
    build_baseline,
    check,
    load_baseline,
    load_history,
    save_baseline,
)

REPO_RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
REPO_BASELINE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
)


def write_bench(results_dir, bench, rows):
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{bench}.json"
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def stable_history(results_dir, runs=3):
    """A bench with one test series and one headline series, quiet."""
    for run in range(runs):
        write_bench(
            results_dir,
            "kernels",
            [
                {
                    "bench": "kernels",
                    "test": "test_match",
                    "outcome": "passed",
                    "seconds": 1.0 + 0.05 * run,
                },
                {
                    "bench": "kernels",
                    "speedup": 4.0 - 0.1 * run,
                    "seconds_total": 2.0,
                    "git": "abc",
                    "rows": 1000,
                    "directions": {
                        "speedup": "higher",
                        "seconds_total": "lower",
                    },
                },
            ],
        )


def budget_row(cells_correct, questions=84, records=528):
    """An ``oracle_budget``-style row: quality, cost, and a constant."""
    return {
        "bench": "budget",
        "cells_correct_yield": cells_correct,
        "oracle_questions": questions,
        "records": records,
        "inferred_verdicts": 2,
        "directions": {
            "cells_correct_yield": "higher",
            "oracle_questions": "lower",
            "records": "info",
        },
    }


class TestDeclaredDirections:
    def test_only_declared_fields_become_series(self, tmp_path):
        write_bench(tmp_path, "budget", [budget_row(1284)])
        history = load_history(tmp_path)
        assert set(history) == {
            "budget:cells_correct_yield",
            "budget:oracle_questions",
        }
        baseline = build_baseline(tmp_path)
        directions = {
            key: entry["direction"]
            for key, entry in baseline["metrics"].items()
        }
        assert directions == {
            "budget:cells_correct_yield": "higher",
            "budget:oracle_questions": "lower",
        }

    def test_rise_in_cells_correct_passes(self, tmp_path):
        write_bench(tmp_path, "budget", [budget_row(1284)])
        baseline = build_baseline(tmp_path)
        write_bench(tmp_path, "budget", [budget_row(9000, records=99999)])
        results, _, _ = check(tmp_path, baseline)
        assert results and all(result.ok for result in results)

    def test_drop_in_cells_correct_fails(self, tmp_path):
        write_bench(tmp_path, "budget", [budget_row(1284)])
        baseline = build_baseline(tmp_path)
        write_bench(tmp_path, "budget", [budget_row(600)])
        results, _, _ = check(tmp_path, baseline)
        bad = [result.series for result in results if not result.ok]
        assert bad == ["budget:cells_correct_yield"]

    def test_undeclared_fields_are_never_gated(self, tmp_path):
        # A name never says which way a number improves: an undeclared
        # ``precision`` must not gate as lower-is-better (or at all).
        undeclared = {"bench": "quality", "precision": 0.9, "records": 528}
        write_bench(tmp_path, "quality", [undeclared])
        assert load_history(tmp_path) == {}
        baseline = build_baseline(tmp_path)
        assert baseline["metrics"] == {}
        write_bench(tmp_path, "quality", [dict(undeclared, precision=0.1)])
        assert check(tmp_path, baseline) == ([], [], {})

    def test_declaring_info_retires_a_series(self, tmp_path):
        older = {
            "bench": "budget",
            "records": 528,
            "directions": {"records": "lower"},
        }
        write_bench(tmp_path, "budget", [older, budget_row(1284)])
        assert "budget:records" not in load_history(tmp_path)
        assert "budget:records" not in build_baseline(tmp_path)["metrics"]

    def test_committed_baseline_gates_no_quality_downward(self):
        baseline = load_baseline(REPO_BASELINE)
        metrics = baseline["metrics"]
        for key in (
            "oracle_budget:cells_correct_yield",
            "oracle_budget:cells_correct_discovery",
            "oracle_budget:inferred_verdicts",
        ):
            assert metrics[key]["direction"] == "higher"
        for constant in ("rules", "records", "clients", "distinct", "columns"):
            assert not [k for k in metrics if k.endswith(f":{constant}")]


class TestHistory:
    def test_series_keys_and_order(self, tmp_path):
        stable_history(tmp_path, runs=2)
        history = load_history(tmp_path)
        assert history["kernels::test_match"] == [1.0, 1.05]
        assert history["kernels:speedup"] == [4.0, 3.9]
        # Provenance fields never become series.
        assert "kernels:rows" not in history
        assert "kernels:git" not in history

    def test_failed_runs_contribute_no_timing(self, tmp_path):
        write_bench(
            tmp_path,
            "kernels",
            [
                {
                    "bench": "kernels",
                    "test": "test_match",
                    "outcome": "failed",
                    "seconds": 99.0,
                }
            ],
        )
        assert load_history(tmp_path) == {}

    def test_headline_row_naming_its_test_contributes_fields(self, tmp_path):
        write_bench(
            tmp_path,
            "stream",
            [
                {
                    "bench": "stream",
                    "test": "incremental_vs_relearn",
                    "speedup": 3.5,
                    "records": 600,
                    "directions": {"speedup": "higher", "records": "info"},
                }
            ],
        )
        assert load_history(tmp_path) == {"stream:speedup": [3.5]}

    def test_auto_row_contributes_only_passed_seconds(self, tmp_path):
        write_bench(
            tmp_path,
            "stream",
            [
                {
                    "bench": "stream",
                    "test": "test_resume",
                    "outcome": "passed",
                    "seconds": 2.0,
                    "cpus": 2,
                },
                {
                    "bench": "stream",
                    "test": "test_resume",
                    "outcome": "failed",
                    "seconds": 9.0,
                },
            ],
        )
        assert load_history(tmp_path) == {"stream::test_resume": [2.0]}

    def test_torn_lines_skipped(self, tmp_path):
        stable_history(tmp_path, runs=1)
        path = tmp_path / "BENCH_kernels.json"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"bench": "kernels", "torn')
        history = load_history(tmp_path)
        assert history["kernels::test_match"] == [1.0]


class TestBuildBaseline:
    def test_median_and_direction(self, tmp_path):
        stable_history(tmp_path, runs=3)
        baseline = build_baseline(tmp_path)
        entry = baseline["metrics"]["kernels::test_match"]
        assert entry["baseline"] == 1.05  # median of 1.0, 1.05, 1.1
        assert entry["direction"] == "lower"
        assert entry["points"] == 3
        assert baseline["metrics"]["kernels:speedup"]["direction"] == (
            "higher"
        )

    def test_unstable_series_skipped(self, tmp_path):
        stable_history(tmp_path, runs=1)
        for jitter in (0.001, 0.1):
            write_bench(
                tmp_path,
                "noisy",
                [
                    {
                        "bench": "noisy",
                        "jitter_seconds": jitter,
                        "directions": {"jitter_seconds": "lower"},
                    }
                ],
            )
        baseline = build_baseline(tmp_path, max_spread=4.0)
        assert "noisy:jitter_seconds" not in baseline["metrics"]
        assert "unstable history" in baseline["skipped"][
            "noisy:jitter_seconds"
        ]

    def test_non_positive_series_skipped(self, tmp_path):
        write_bench(
            tmp_path,
            "odd",
            [
                {
                    "bench": "odd",
                    "delta_seconds": 0.0,
                    "directions": {"delta_seconds": "lower"},
                }
            ],
        )
        baseline = build_baseline(tmp_path)
        assert baseline["metrics"] == {}
        assert "non-positive" in baseline["skipped"]["odd:delta_seconds"]

    def test_save_and_load_round_trip(self, tmp_path):
        stable_history(tmp_path, runs=2)
        baseline = build_baseline(tmp_path)
        path = tmp_path / "baseline.json"
        save_baseline(baseline, path)
        assert load_baseline(path) == baseline

    def test_load_rejects_non_baseline(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a baseline"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a baseline"):
            load_baseline(path)


class TestCheck:
    def test_stable_history_passes(self, tmp_path):
        stable_history(tmp_path, runs=3)
        baseline = build_baseline(tmp_path)
        results, missing, _ = check(tmp_path, baseline)
        assert results and all(result.ok for result in results)
        assert missing == []

    def test_injected_2x_slower_row_fails(self, tmp_path):
        stable_history(tmp_path, runs=3)
        baseline = build_baseline(tmp_path)
        write_bench(
            tmp_path,
            "kernels",
            [
                {
                    "bench": "kernels",
                    "test": "test_match",
                    "outcome": "passed",
                    "seconds": 2.2,  # ~2x the 1.05 baseline
                }
            ],
        )
        results, _, _ = check(tmp_path, baseline)
        bad = [r for r in results if not r.ok]
        assert [r.series for r in bad] == ["kernels::test_match"]
        assert "REGRESSION" in bad[0].describe()

    def test_higher_is_better_gates_downward(self, tmp_path):
        stable_history(tmp_path, runs=3)
        baseline = build_baseline(tmp_path)
        write_bench(
            tmp_path,
            "kernels",
            [
                {
                    "bench": "kernels",
                    "speedup": 1.5,
                    "seconds_total": 2.0,
                    "directions": {
                        "speedup": "higher",
                        "seconds_total": "lower",
                    },
                }
            ],
        )
        results, _, _ = check(tmp_path, baseline)
        by_series = {result.series: result for result in results}
        assert not by_series["kernels:speedup"].ok  # 1.5 < 3.9 / 1.5
        assert by_series["kernels:seconds_total"].ok

    def test_missing_series_reported_not_failed(self, tmp_path):
        stable_history(tmp_path, runs=2)
        baseline = build_baseline(tmp_path)
        baseline["metrics"]["other::test_gone"] = {
            "baseline": 1.0,
            "direction": "lower",
            "points": 2,
        }
        results, missing, _ = check(tmp_path, baseline)
        assert missing == ["other::test_gone"]
        assert all(result.ok for result in results)

    def test_tolerance_must_be_multiplicative(self, tmp_path):
        stable_history(tmp_path, runs=1)
        baseline = build_baseline(tmp_path)
        with pytest.raises(ValueError, match="tolerance"):
            check(tmp_path, baseline, tolerance=1.0)


def timing_row(seconds, scale, timestamp):
    """An auto timing row as ``benchmarks/conftest.py`` stamps it."""
    return {
        "bench": "kernels",
        "test": "test_match",
        "outcome": "passed",
        "seconds": seconds,
        "scale": scale,
        "timestamp": timestamp,
    }


class TestScale:
    """A bench run at another ``REPRO_BENCH_SCALE`` does other work, so
    the gate compares only rows at the scale its baseline was built at."""

    def scaled_baseline(self, tmp_path):
        write_bench(
            tmp_path,
            "kernels",
            [timing_row(4.0, 1.0, 10.0)]  # an older run at another scale
            + [timing_row(1.0 + 0.05 * k, 0.5, 20.0 + k) for k in range(3)],
        )
        return build_baseline(tmp_path)

    def test_baseline_is_built_at_the_newest_rows_scale(self, tmp_path):
        baseline = self.scaled_baseline(tmp_path)
        assert baseline["scale"] == 0.5
        entry = baseline["metrics"]["kernels::test_match"]
        assert (entry["baseline"], entry["points"]) == (1.05, 3)
        row = dict(timing_row(1.0, 1.0, 5.0), bench="other", test="t")
        write_bench(tmp_path, "other", [row])
        skipped = build_baseline(tmp_path)["skipped"]
        assert skipped["other::t"] == "1 row(s) at scale 1, baseline is at 0.5"

    def test_a_row_at_another_scale_cannot_fail_the_gate(self, tmp_path):
        baseline = self.scaled_baseline(tmp_path)
        write_bench(tmp_path, "kernels", [timing_row(9.0, 1.0, 30.0)])
        results, missing, skipped = check(tmp_path, baseline)
        assert [(r.series, r.latest, r.ok) for r in results] == [
            ("kernels::test_match", 1.1, True)
        ]
        assert (missing, skipped) == ([], {})

    def test_a_row_at_another_scale_cannot_pass_the_gate(self, tmp_path):
        baseline = self.scaled_baseline(tmp_path)
        write_bench(
            tmp_path,
            "kernels",
            [timing_row(2.2, 0.5, 30.0), timing_row(1.0, 1.0, 31.0)],
        )
        results, _, _ = check(tmp_path, baseline)
        assert [(r.series, r.latest, r.ok) for r in results] == [
            ("kernels::test_match", 2.2, False)
        ]

    def test_rows_only_at_other_scales_are_skipped(self, tmp_path):
        baseline = self.scaled_baseline(tmp_path)
        other = tmp_path / "other"
        write_bench(other, "kernels", [timing_row(9.0, 1.0, 30.0)])
        assert check(other, baseline) == (
            [],
            [],
            {"kernels::test_match": "1 row(s) at scale 1, baseline is at 0.5"},
        )

    def test_a_baseline_without_a_scale_gates_every_row(self, tmp_path):
        baseline = self.scaled_baseline(tmp_path)
        del baseline["scale"]
        write_bench(tmp_path, "kernels", [timing_row(9.0, 1.0, 30.0)])
        results, _, skipped = check(tmp_path, baseline)
        assert not results[0].ok
        assert skipped == {}

    def test_committed_baseline_is_at_the_ci_scale(self):
        assert load_baseline(REPO_BASELINE)["scale"] == 0.5


class TestCommittedBaseline:
    """The repo's own committed baseline stays green against the
    committed history — the exact gate CI's perf-smoke job runs."""

    def test_repo_history_passes_committed_baseline(self):
        if not REPO_BASELINE.exists():
            pytest.skip("no committed baseline")
        baseline = load_baseline(REPO_BASELINE)
        results, _missing, _skipped = check(
            REPO_RESULTS, baseline, tolerance=DEFAULT_TOLERANCE
        )
        failing = [r.describe() for r in results if not r.ok]
        assert not failing, "\n".join(failing)
