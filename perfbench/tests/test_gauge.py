import pytest

import gauge
from gauge import NOMINAL_S, Gauge, timed


def test_the_first_sample_always_reads_the_gauge():
    g = Gauge(share=0.05)
    g.sample(0.0)
    assert g.chunks == 1
    assert g.slowdown > 0


def test_chunks_follow_the_share_of_the_time_measured():
    g = Gauge(share=0.5)
    g.sample(0.0)
    # Owes half a chunk per step: three chunks over six steps, each run
    # as it becomes due.
    for _ in range(6):
        g.sample(NOMINAL_S)
    assert g.chunks == 1 + 3


def test_scale_divides_by_the_mean_slowdown(monkeypatch):
    clock = iter([0.0, 2 * NOMINAL_S, 10.0, 10.0 + 8 * NOMINAL_S])
    monkeypatch.setattr(gauge.time, "perf_counter", lambda: next(clock))
    g = Gauge(share=1.0)
    g.sample(0.0)  # one chunk read at 2x nominal
    g.sample(3 * NOMINAL_S)  # three chunks at 8 nominal in all
    assert g.chunks == 4
    assert g.slowdown == pytest.approx(2.5)
    assert g.scale(5.0) == pytest.approx(2.0)


def test_timed_reads_the_speed_around_the_action(monkeypatch):
    # Chunks of 2x and 4x nominal around an action of one second: it
    # ran at 3x, so it takes a third of a second at reference speed.
    clock = iter([0.0, 2 * NOMINAL_S, 5.0, 6.0, 7.0, 7.0 + 4 * NOMINAL_S])
    monkeypatch.setattr(gauge.time, "perf_counter", lambda: next(clock))
    assert timed(lambda: None) == pytest.approx(1.0 / 3.0)


def test_an_unread_gauge_has_no_slowdown():
    with pytest.raises(ValueError):
        Gauge().slowdown
