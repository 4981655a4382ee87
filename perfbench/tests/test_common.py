import pytest

from common import Outcome, alike_per_order, mean_profile, wait_metrics

ORDERS = 2


def test_mean_profile_averages_each_step():
    assert mean_profile([[1.0, 9.0, 3.0], [3.0, 1.0, 3.0]]) == [2.0, 5.0, 3.0]
    assert mean_profile([[4.0, 5.0]]) == [4.0, 5.0]


def test_mean_profile_refuses_repetitions_of_different_work():
    with pytest.raises(ValueError):
        mean_profile([[1.0, 2.0], [1.0]])


def test_repetitions_are_grouped_by_order_and_checked():
    # Repetition r ran order r % ORDERS; its "model" is (order, extra).
    results = [(r % ORDERS, 0) for r in range(2 * ORDERS)]
    results.append((0, 1))  # order 0 again, but another model
    outcome = Outcome(metrics={})
    groups = alike_per_order(
        outcome,
        results,
        ORDERS,
        signature=lambda r: r,
        size=lambda r: 10,
        problems=lambda r: [],
    )
    assert [len(group) for group in groups] == [2] * ORDERS
    assert all(r[0] == k for k, group in enumerate(groups) for r in group)
    assert (outcome.attempted, outcome.failed) == (10 * len(results), 10)
    assert len(outcome.problems) == 1


def test_a_repetition_with_problems_fails_once():
    outcome = Outcome(metrics={})
    alike_per_order(
        outcome,
        list(range(ORDERS)),
        ORDERS,
        signature=lambda r: 0,
        size=lambda r: 5,
        problems=lambda r: ["a", "b"] if r == 1 else [],
    )
    assert (outcome.attempted, outcome.failed) == (5 * ORDERS, 5)
    assert outcome.problems == ["a", "b"]


def test_wait_metrics_report_milliseconds_with_the_tail_rule():
    waits = [i / 1000.0 for i in range(1, 101)]
    metrics = wait_metrics(waits)
    assert metrics["wait_p50_ms"] == pytest.approx(50.5)
    # The mean of the ten waits beyond p90 (91..100 ms).
    assert metrics["wait_tail_ms"] == pytest.approx(95.5)
    assert metrics["wait_tail_pctl_ms"] == pytest.approx(90.0)
    assert (metrics["wait_tail_pct"], metrics["wait_samples"]) == (90.0, 100)
