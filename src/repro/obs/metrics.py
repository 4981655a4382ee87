"""Counters, gauges, and quantile histograms (``repro.obs``).

The paper's headline claims are operational — runtime per stage
(Fig. 9) and human questions spent (Section V) — so the reproduction
needs a real metrics substrate, not counters scattered across report
dataclasses.  :class:`MetricsRegistry` is that substrate: a flat
namespace of named instruments (optionally labelled, Prometheus-style)
that every layer of the hot path writes through.

Design constraints, in order:

* **near-free when disabled** — the default everywhere is
  :data:`NULL_REGISTRY`, whose instruments are shared no-op singletons;
  an uninstrumented run pays one attribute load and one no-op call per
  hook, nothing else (asserted by ``benchmarks/bench_obs_overhead.py``);
* **deterministic where the system is** — instruments are registered as
  deterministic (counts that must be identical at any ``--shards``
  value: questions, merges, candidate pairs) or volatile (wall-clock
  timings, shard request counts).  :meth:`MetricsRegistry.snapshot` with
  ``deterministic_only=True`` is the byte-comparable view the
  shard-equivalence tests diff;
* **mergeable quantiles** — histograms bucket observations on a
  geometric grid (:data:`HISTOGRAM_GROWTH` per bucket), so p50/p95/p99
  estimation is a deterministic function of the bucket counts and two
  histograms merge by adding buckets — no reservoir sampling, no
  order dependence.

Stdlib only, and importable by every layer (this package imports
nothing from the rest of ``repro``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Geometric bucket growth factor.  2**0.25 keeps the relative
#: quantile-estimation error under ~9% (half a bucket) while a span of
#: nanoseconds..hours still fits in ~150 live bucket indexes.
HISTOGRAM_GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(HISTOGRAM_GROWTH)

#: Observations at or below this are folded into one underflow bucket
#: (perf_counter deltas can legitimately be 0.0).
HISTOGRAM_FLOOR = 1e-9


def _bucket_index(value: float) -> int:
    """The geometric bucket a positive observation falls into.

    Bucket ``i`` covers ``(GROWTH**(i-1), GROWTH**i]``; values at or
    below :data:`HISTOGRAM_FLOOR` share the underflow bucket.
    """
    if value <= HISTOGRAM_FLOOR:
        return -(10 ** 9)  # underflow sentinel, sorts before everything
    return math.ceil(math.log(value) / _LOG_GROWTH - 1e-12)


#: Label values containing any of these must be quoted in a metric key
#: or the key would no longer parse unambiguously.
_KEY_STRUCTURAL = set(',={}"\\')


def _key_value(value: str) -> str:
    """A label value as it appears in a metric key: verbatim when it is
    structurally inert, double-quoted with ``\\"``/``\\\\`` escapes
    otherwise — :func:`repro.obs.summary.parse_metric_key` inverts
    both forms, so values with commas, equals signs, braces, or quotes
    round-trip instead of corrupting the key."""
    value = str(value)
    if not _KEY_STRUCTURAL.intersection(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """The stable string key of one instrument: ``name{k=v,...}`` with
    label keys sorted — the key format of snapshots, the Prometheus
    writer, and the documented schema (docs/observability.md).  Label
    values with structural characters are quoted (:func:`_key_value`)."""
    if not labels:
        return name
    inner = ",".join(
        f"{key}={_key_value(labels[key])}" for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (floats allowed: accumulated
    seconds ship through counters too)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def as_value(self) -> Number:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def as_value(self) -> Number:
        return self.value


class Histogram:
    """Geometric-bucket distribution with deterministic quantiles.

    ``observe`` is O(1): one log, one dict increment.  Quantiles are
    estimated from the bucket counts — the p-th quantile is the
    geometric midpoint of the bucket holding the p-th observation,
    clamped to the exact observed ``[min, max]``; with the default
    growth the estimate is within ~9% of the true value.  Because the
    state is just (count, sum, min, max, bucket counts), two histograms
    merge by addition and identical observation *multisets* produce
    identical state regardless of order.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) of the observations."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                if index <= -(10 ** 9):
                    estimate = 0.0
                else:
                    # geometric midpoint of (GROWTH**(i-1), GROWTH**i]
                    estimate = HISTOGRAM_GROWTH ** (index - 0.5)
                low = self.min if self.min is not None else estimate
                high = self.max if self.max is not None else estimate
                return min(max(estimate, low), high)
        return self.max or 0.0  # pragma: no cover — count guarantees hit

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_value(self) -> Dict[str, Number]:
        """The snapshot form: summary stats + estimated quantiles."""
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": round(self.min, 9) if self.min is not None else None,
            "max": round(self.max, 9) if self.max is not None else None,
            "mean": round(self.mean, 9),
            "p50": round(self.p50, 9),
            "p95": round(self.p95, 9),
            "p99": round(self.p99, 9),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat, ordered namespace of named instruments.

    Instruments are created on first use and then shared: hot paths
    should bind the instrument once (``c = registry.counter(...)``)
    and call ``c.inc()`` in the loop.  ``deterministic=False`` marks an
    instrument as run-dependent (timings, shard requests); such instruments
    are excluded from ``snapshot(deterministic_only=True)``, the view
    that must be byte-identical at any ``--shards`` value.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._volatile: set = set()

    # -- instrument access -------------------------------------------------

    def _get(
        self,
        cls,
        name: str,
        deterministic: bool,
        labels: Dict[str, str],
    ):
        key = metric_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(name, dict(labels))
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {key!r} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        if not deterministic:
            self._volatile.add(key)
        return instrument

    def counter(
        self, name: str, deterministic: bool = True, **labels: str
    ) -> Counter:
        return self._get(Counter, name, deterministic, labels)

    def gauge(
        self, name: str, deterministic: bool = True, **labels: str
    ) -> Gauge:
        return self._get(Gauge, name, deterministic, labels)

    def histogram(
        self, name: str, deterministic: bool = True, **labels: str
    ) -> Histogram:
        return self._get(Histogram, name, deterministic, labels)

    # -- views -------------------------------------------------------------

    def instruments(self) -> Iterable[Instrument]:
        """Every live instrument, in stable key order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def snapshot(
        self, deterministic_only: bool = False
    ) -> Dict[str, object]:
        """All instrument values as one flat ``key -> value`` dict.

        Keys are :func:`metric_key` strings in sorted order; counter /
        gauge values are numbers, histogram values are their summary
        dicts.  ``deterministic_only=True`` drops every instrument
        registered as volatile — the resulting dict (and its sorted
        JSON serialization) must be identical at any shard count, which
        ``tests/stream/test_obs_stream.py`` asserts.
        """
        out: Dict[str, object] = {}
        for key in sorted(self._instruments):
            if deterministic_only and key in self._volatile:
                continue
            out[key] = self._instruments[key].as_value()
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Shared no-op instrument: accepts every write, stores nothing."""

    __slots__ = ()

    name = ""
    labels: Dict[str, str] = {}
    value = 0
    count = 0
    total = 0.0

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def as_value(self) -> Number:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every instrument is the shared no-op.

    This is the default wired through the hot path, so instrumentation
    costs one truthiness check or no-op method call when nobody is
    observing.
    """

    enabled = False

    def counter(self, name: str, deterministic: bool = True, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, deterministic: bool = True, **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, deterministic: bool = True, **labels):
        return _NULL_INSTRUMENT

    def instruments(self) -> Tuple:
        return ()

    def snapshot(self, deterministic_only: bool = False) -> Dict:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
