"""The metric catalogue in ``BENCHMARK.json`` is well formed."""

from metrics import END_TO_END, HIGHER, INFO, INFO_FIELDS, LOWER, PER_LAYER


def test_every_direction_is_declared_and_gated_ones_are_bounded():
    for metric in END_TO_END:
        assert metric.better in (HIGHER, LOWER)
        assert 0 < metric.bound <= 0.25
    for metric in PER_LAYER:
        assert metric.better in (HIGHER, LOWER)
    assert all(m.better == INFO for m in INFO_FIELDS)
    names = [m.name for m in END_TO_END + PER_LAYER + INFO_FIELDS]
    assert len(names) == len(set(names))


def test_setup_has_the_largest_bound():
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.unit == "s" and setup.better == LOWER
    assert setup.bound == max(m.bound for m in END_TO_END)
