"""What every workload shares: the run context, its outcome, and the
few measurements taken the same way everywhere."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from gauge import Gauge, timed
from metrics import median, tail, tail_mean

#: set-up is timed this many times before every repetition;
#: ``setup_s`` is the median of them all
SETUP_SAMPLES = 3


@dataclass
class RunContext:
    seed: int
    seconds: float
    trace: bool
    #: scratch directory inside the checkout, removed after the run
    work: Path
    #: where the traced run writes its spans (kept after the run)
    trace_dir: Path
    #: the program's source tree (``src/`` of the checkout)
    src: Path


@dataclass
class Outcome:
    metrics: Dict[str, float]
    info: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failed correctness checks, one line each
    problems: List[str] = field(default_factory=list)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_profile(per_rep: Sequence[Sequence[float]]) -> List[float]:
    """Step by step, the mean of the repetitions' timings.

    The repetitions of one input order do identical work, so the i-th
    timing of each times the same step.  The mean, like the gauge's
    slowdown it is divided by (see :mod:`gauge`), weighs each stretch
    of the run by its length.
    """
    lengths = {len(steps) for steps in per_rep}
    if len(lengths) != 1:
        raise ValueError(f"repetitions differ in step count: {sorted(lengths)}")
    return [sum(step) / len(step) for step in zip(*per_rep)]


def alike_per_order(
    outcome: Outcome,
    results: Sequence[object],
    orders: int,
    signature: Callable[[object], object],
    size: Callable[[object], int],
    problems: Callable[[object], List[str]],
) -> List[List[object]]:
    """Check every repetition and return, per input order, those that
    did the same work as the order's first (repetition ``r`` ran order
    ``r % orders``).

    A deterministic program publishes the same model every time it
    reads the same input, so a repetition whose ``signature`` differs
    fails the run, as does one with ``problems``.  ``size`` is the work
    a repetition attempted (questions, records).
    """
    groups = []
    for k in range(orders):
        runs = results[k::orders]
        alike = []
        for result in runs:
            found = list(problems(result))
            if signature(result) == signature(runs[0]):
                alike.append(result)
            else:
                found.append(f"order {k}: a repetition published another model")
            outcome.attempted += size(result)
            if found:
                outcome.failed += size(result)
                outcome.problems.extend(found)
        groups.append(alike)
    return groups


def wait_metrics(waits: Sequence[float]) -> Dict[str, float]:
    """The median and the tail of a profile of waits (seconds in,
    milliseconds out): the tail is the mean of the waits beyond the
    tail percentile, whose level and value are reported beside it with
    the sample count."""
    level, value, samples = tail(waits)
    return {
        "wait_p50_ms": median(waits) * 1000.0,
        "wait_tail_ms": tail_mean(waits) * 1000.0,
        "wait_tail_pct": level,
        "wait_tail_pctl_ms": value * 1000.0,
        "wait_samples": samples,
    }


def repeat_for(
    seconds: float,
    once: Callable[[int], object],
    setup: Callable[[], object],
    orders: int,
) -> Tuple[List[object], float]:
    """Call ``once(rep)`` for rep 0, 1, ... until ``seconds`` have
    passed and each of the ``orders`` input orders ran at least twice,
    and return the results with the median time of ``setup`` at the
    reference speed.

    Set-up is timed :data:`SETUP_SAMPLES` times before each
    repetition, so its median spans the run, each sample at the speed
    the gauge read around it (:func:`gauge.timed`): a stream set-up
    takes about a millisecond, and one sample in a hundred took five
    to fourteen, so a mean would follow those.  The garbage of one repetition is collected before the
    next starts.
    """
    setups: List[float] = []
    results: List[object] = []
    start = time.perf_counter()
    while len(results) < 2 * orders or time.perf_counter() - start < seconds:
        setups.extend(timed(setup) for _ in range(SETUP_SAMPLES))
        gc.collect()
        results.append(once(len(results)))
    return results, median(setups)


class Stopwatch:
    """Wraps an oracle: keeps the curator's wait before each question
    and the time spent answering, so machine time excludes the human.
    A ``gauge`` is sampled while the curator answers."""

    def __init__(self, oracle, start: float, gauge: Optional[Gauge] = None) -> None:
        self.oracle = oracle
        self.gauge = gauge
        self.waits: List[float] = []
        self.seconds = 0.0
        self._last = start

    def review(self, group):
        asked = time.perf_counter()
        self.waits.append(asked - self._last)
        decision = self.oracle.review(group)
        if self.gauge is not None:
            self.gauge.sample(self.waits[-1])
        self._last = time.perf_counter()
        self.seconds += self._last - asked
        return decision
