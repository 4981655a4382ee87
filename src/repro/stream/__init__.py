"""Incremental consolidation over record streams (``repro stream``).

The paper learns from a static clustered table and ``repro.serve``
makes the result persistent — this package closes the loop for data
that *keeps arriving*.  Each record batch is folded into long-lived
consolidation state instead of triggering a full re-cluster and
re-learn:

* :mod:`repro.stream.resolver` — an incremental blocking index plus
  union-find cluster maintenance; only pairs touching new records are
  ever compared, and the cumulative :class:`~repro.data.table.ClusterTable`
  grows in place with stable cell references;
* :mod:`repro.stream.standardizer` — delta candidate generation into a
  persistent :class:`~repro.candidates.store.ReplacementStore`, a
  decision cache that re-applies prior oracle verdicts for free, and
  budgeted learning over only the genuinely novel variation;
* :mod:`repro.stream.publisher` — confirmed knowledge republished as
  new bundle versions through
  :class:`~repro.serve.registry.ModelRegistry` with in-place
  :meth:`~repro.serve.bundle.BundleApplyEngine.reload`;
* :mod:`repro.stream.monitor` — unmatched-rate drift detection, one
  monitor per column, that triggers a deeper relearn of its column
  when the serve model stops explaining the traffic;
* :mod:`repro.stream.golden` — the orchestrator gluing the above into
  one ``process_batch`` call: Algorithm 1 folded over the stream, with
  per-column standardizers over one shared resolver, incremental
  (touched-clusters-only) truth discovery, and atomic per-column model
  bundles (a single-column stream is the same lifecycle with one
  column and no fusion);
* :mod:`repro.stream.batches` — batch sources (in-memory iterators and
  JSON-lines files);
* :mod:`repro.stream.shards` — the sharded learner: blocking index,
  candidate alignment, and the grouping feed partitioned across
  persistent worker processes, merged deterministically (byte-identical
  models, zero extra oracle questions); blocking state is
  shard-resident, so per-batch IPC ships only new values;
* :mod:`repro.stream.decisions` — the durable JSON-lines decision
  cache: a restarted stream keeps the zero-question guarantee for
  already-judged variation;
* :mod:`repro.stream.scheduler` — yield-ranked oracle scheduling
  (``--question-order yield``): questions ranked by expected
  cells-fixed-per-question, one global budget split across columns by
  marginal yield, and transitively-proven verdicts settled without a
  question;
* :mod:`repro.stream.decision_tools` — ``repro decisions``: compact,
  diff, and audit verdict logs offline.
"""

from .batches import (
    batches_from_records,
    iter_jsonl_batches,
    read_jsonl_records,
    write_jsonl_records,
)
from .decision_tools import (
    LogEntry,
    audit_log,
    compact_log,
    diff_logs,
    read_log,
)
from .decisions import DecisionCache
from .deltas import GoldenDeltaLog, GoldenDeltaReader
from .golden import (
    BatchReport,
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)
from .monitor import DriftMonitor, DriftReport
from .publisher import BundlePublisher, ModelPublisher
from .resolver import BatchResolution, IncrementalResolver
from .scheduler import (
    QUESTION_ORDERS,
    YieldRankedFeed,
    allocate_budget,
    group_yield,
    member_yield,
    transitive_direction,
)
from .shards import ShardPool, ShardedGroupFeed, ShardStandardizer
from .standardizer import IncrementalStandardizer

__all__ = [
    "BatchReport",
    "BatchResolution",
    "BundlePublisher",
    "DecisionCache",
    "DriftMonitor",
    "DriftReport",
    "GoldenDeltaLog",
    "GoldenDeltaReader",
    "GoldenStreamConsolidator",
    "IncrementalResolver",
    "IncrementalStandardizer",
    "LogEntry",
    "ModelPublisher",
    "QUESTION_ORDERS",
    "ShardPool",
    "ShardStandardizer",
    "ShardedGroupFeed",
    "YieldRankedFeed",
    "allocate_budget",
    "audit_log",
    "batches_from_records",
    "compact_log",
    "diff_logs",
    "golden_ground_truth_oracle_factory",
    "group_yield",
    "iter_jsonl_batches",
    "member_yield",
    "read_log",
    "transitive_direction",
    "write_jsonl_records",
]
