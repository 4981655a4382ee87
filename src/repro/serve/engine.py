"""The compiled batch-apply engine: O(N) standardization of new data.

Learning pays graphs, pivot searches, and human review; applying must
not.  :class:`ApplyEngine` compiles a persisted
:class:`~repro.serve.model.TransformationModel` into three lookup
structures, so standardizing a table of N rows costs N hash probes plus
the occasional program evaluation:

1. **exact-match hash table** — every confirmed whole-value replacement,
   chain-composed in confirmation order (``A -> B`` then ``B -> C``
   compiles to ``A -> C``), first confirmation wins on conflicts;
2. **per-structure-signature program index** — forward-confirmed
   transformation programs keyed by the structure signature
   (Section 7.2) of their input side.  A *new* value that no exact rule
   covers is matched by signature and rewritten by the first confirmed
   program that evaluates deterministically on it — the learned
   programs generalize beyond the values they were mined from
   (``"9th" -> "9"`` learned, ``"42nd" -> "42"`` applied).  Programs
   whose output ignores the input (all-``ConstantStr``) are excluded:
   they would stamp one group's target onto every same-shaped value;
3. **token-level rules** — confirmed token-segment replacements
   (Appendix A provenance), applied once each, in confirmation order,
   token-boundary aware (``"St"`` never fires inside ``"Stone"``).

Application is **columnar**: a batch is dictionary-encoded through a
shared :class:`~repro.serve.intern.InternTable` (unique values +
row -> slot codes), the lookup tiers above run once per *distinct*
value, outputs land in a slot-aligned memo that persists across
batches, and results broadcast back through the code vector as two
C-level ``map`` passes — per-row cost on skewed production traffic is
two hash probes, not a transformation.  The single-value path keeps an
LRU cell cache; large batches can shard uncomputed distinct values
across worker processes.

Compilation is linear in the model: an inverse index (value -> the
exact keys currently pointing at it) lets each whole-value rule
re-point its chain predecessors without scanning the table, so a full
compile costs O(rules + rewrites) and every reload simply compiles
from the model.

Exactness note: value-level application generalizes beyond the cluster
provenance the learner respected — by design.  When bit-exact
reproduction of a learning run is required, use
:class:`repro.serve.replay.ModelReplayer` instead.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..candidates.store import _replace_token_segment
from ..core.functions import ConstantStr
from ..core.program import Program
from ..core.structure import Signature, structure_signature
from ..data.table import CellRef, ClusterTable
from ..obs import NULL_OBS
from ..pipeline.oracle import FORWARD
from .intern import InternTable
from .model import TransformationModel

#: Unique-value count below which sharding never pays for itself.
MIN_SHARD_VALUES = 4096

#: Default intern-table capacity (distinct values memoized across
#: batches); 4x the LRU default — slots are two pointers each.
DEFAULT_INTERN_SIZE = 262144


class LRUCache:
    """A small least-recently-used string cache (move-to-end on hit)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def get(self, key: str) -> Optional[str]:
        """Cached value for ``key`` (refreshing its recency), or None."""
        found = self._entries.get(key)
        if found is not None:
            self._entries.move_to_end(key)
        return found

    def put(self, key: str, value: str) -> None:
        """Insert ``key -> value``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class ApplyStats:
    """Counters over everything an engine instance has applied."""

    rows: int = 0
    unique_values: int = 0
    exact_hits: int = 0
    program_hits: int = 0
    token_hits: int = 0
    misses: int = 0
    cache_hits: int = 0
    sharded_values: int = 0
    #: distinct values ever interned (monotone even across truncation)
    distinct_values: int = 0
    #: rows settled by broadcasting a distinct value's output
    broadcast_rows: int = 0
    #: rows whose value was already in the intern table on arrival
    intern_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-safe dict (``repro apply --stats``)."""
        return {
            "rows": self.rows,
            "unique_values": self.unique_values,
            "exact_hits": self.exact_hits,
            "program_hits": self.program_hits,
            "token_hits": self.token_hits,
            "misses": self.misses,
            "cache_hits": self.cache_hits,
            "sharded_values": self.sharded_values,
            "distinct_values": self.distinct_values,
            "broadcast_rows": self.broadcast_rows,
            "intern_hits": self.intern_hits,
        }


def _is_input_sensitive(program: Program) -> bool:
    """False for all-constant programs: their output ignores the input,
    so letting them generalize by structure would be destructive."""
    return any(not isinstance(f, ConstantStr) for f in program.functions)


class ApplyEngine:
    """A transformation model compiled for high-throughput application."""

    def __init__(
        self,
        model: TransformationModel,
        use_programs: bool = True,
        cache_size: int = 65536,
        obs=NULL_OBS,
        obs_labels: Optional[Dict[str, str]] = None,
        intern_size: int = DEFAULT_INTERN_SIZE,
    ) -> None:
        self.model = model
        self.use_programs = use_programs
        self.vocabulary = model.vocabulary
        self._stats = ApplyStats()
        self._cache = LRUCache(cache_size)
        self._max_program_len = model.config.max_string_length
        # Columnar state: the intern table maps distinct strings to
        # dense slot codes; _slot_outputs is the slot-aligned output
        # memo (None = not yet computed under the current model).
        self.intern_size = max(0, int(intern_size))
        self._intern = InternTable()
        self._slot_outputs: List[Optional[str]] = []
        # Observability rides on the plain-int ApplyStats: the per-value
        # hot path never touches a registry instrument; sync_obs mirrors
        # the accumulated deltas at batch boundaries only.
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_labels = dict(obs_labels or {})
        self._obs_synced: Dict[str, int] = {}

        self.exact: Dict[str, str] = {}
        # Inverse of ``exact``: value -> the keys currently mapped to it.
        self._exact_keys: Dict[str, List[str]] = {}
        self.token_rules: List[Tuple[str, str]] = []
        self.programs: Dict[Signature, List[Program]] = {}
        self._seen_token: set = set()
        self._seen_programs: Dict[Signature, set] = {}
        self._compile_groups(model.groups)

    # -- observability -----------------------------------------------------

    def stats(self) -> ApplyStats:
        """Counters over everything this engine has applied: cache
        hits, and exact / program / token-rule path counts vs misses."""
        return self._stats

    def sync_obs(self, seconds: Optional[float] = None) -> None:
        """Mirror the ApplyStats deltas since the last sync into the
        attached registry as ``apply.*`` counters (tier mapping: exact,
        program, token, passthrough=misses, LRU=cache_hits), plus an
        ``apply.batch_seconds`` latency observation when ``seconds`` is
        given.  A no-op without an enabled obs context."""
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        current = self._stats.as_dict()
        for name, value in current.items():
            delta = value - self._obs_synced.get(name, 0)
            if delta:
                metrics.counter(
                    f"apply.{name}", **self._obs_labels
                ).inc(delta)
        self._obs_synced = current
        if seconds is not None:
            metrics.histogram(
                "apply.batch_seconds",
                deterministic=False,
                **self._obs_labels,
            ).observe(seconds)

    # -- compilation -------------------------------------------------------

    def _compile_groups(self, groups) -> None:
        """Fold confirmed groups into the compiled lookup structures.

        Called with the full group list at construction and with just
        the *new* suffix on an incremental :meth:`reload` — the dedup
        state (`_seen_token` / `_seen_programs`) persists across calls
        so both paths compile identically.
        """
        seen_token = self._seen_token
        seen_programs = self._seen_programs
        for group in groups:
            for member in group.members:
                if member.whole:
                    self._add_exact(member.lhs, member.rhs)
                if member.token and (member.lhs, member.rhs) not in seen_token:
                    seen_token.add((member.lhs, member.rhs))
                    self.token_rules.append((member.lhs, member.rhs))
            if group.direction != FORWARD:
                # The program maps learned-lhs -> learned-rhs; a reverse
                # confirmation applied the opposite direction, which the
                # program cannot express.  Exact/token rules still cover
                # the confirmed members.
                continue
            if not _is_input_sensitive(group.program):
                continue
            signature = (
                group.structure[0]
                if group.structure is not None
                else (
                    structure_signature(group.members[0].lhs)
                    if group.members
                    else None
                )
            )
            if signature is None:
                continue
            bucket = self.programs.setdefault(signature, [])
            keys = seen_programs.setdefault(signature, set())
            key = group.program.canonical()
            if key not in keys:
                keys.add(key)
                bucket.append(group.program)

    def _add_exact(self, lhs: str, rhs: str) -> None:
        """Chain-compose one whole-value rule into the exact table: the
        keys that pointed at ``lhs`` now point at ``rhs`` (found through
        the inverse index, not a table scan), and ``lhs -> rhs`` is
        added unless ``lhs`` already has a target."""
        exact = self.exact
        inverse = self._exact_keys
        moved = inverse.pop(lhs, None)
        if moved:
            for key in moved:
                exact[key] = rhs
            inverse.setdefault(rhs, []).extend(moved)
        if lhs not in exact:
            exact[lhs] = rhs
            inverse.setdefault(rhs, []).append(lhs)

    # -- hot reload --------------------------------------------------------

    def reload(self, model: TransformationModel) -> bool:
        """Swap in a newly published model without rebuilding the engine.

        Published models are append-only (a new version extends the
        confirmed-group sequence); when ``model`` extends the current
        one under the same column / config / vocabulary, only the *new*
        groups are compiled into the existing lookup structures — the
        compiled tables, accumulated stats, and engine identity survive,
        so a live stream can pick up fresh confirmations mid-flight with
        no process restart and no recompilation of unrelated state.

        A model that does not extend the current one triggers a full
        recompile (still in place, linear in the model's rules).
        The memoization state is reset either way: cached outputs may
        be stale under the new rules (interned values keep their slots;
        only the slot-aligned outputs are dropped).
        Returns True when the fast incremental path was taken.
        """
        n = len(self.model.groups)
        incremental = (
            model.column == self.model.column
            and len(model.groups) >= n
            and model.groups[:n] == self.model.groups
            and model.config == self.model.config
            and model.vocabulary.to_dict() == self.model.vocabulary.to_dict()
        )
        if not incremental:
            self.exact.clear()
            self._exact_keys.clear()
            self.token_rules.clear()
            self.programs.clear()
            self._seen_token.clear()
            self._seen_programs.clear()
        self.model = model
        self.vocabulary = model.vocabulary
        self._max_program_len = model.config.max_string_length
        self._compile_groups(model.groups[n if incremental else 0:])
        self._cache = LRUCache(self._cache.capacity)
        self._slot_outputs = [None] * len(self._intern)
        return incremental

    # -- single-value path -------------------------------------------------

    def transform(self, value: str) -> str:
        """Standardize one value (memoized)."""
        cached = self._cache.get(value)
        if cached is not None:
            self._stats.cache_hits += 1
            return cached
        out = self._compute(value)
        self._cache.put(value, out)
        return out

    def _compute(self, value: str) -> str:
        hit = self.exact.get(value)
        if hit is not None:
            self._stats.exact_hits += 1
            return hit
        if self.use_programs and len(value) <= self._max_program_len:
            for program in self.programs.get(structure_signature(value), ()):
                out = program.evaluate_unique(value, self.vocabulary)
                if out is not None and out != value:
                    self._stats.program_hits += 1
                    return out
        out = value
        for lhs, rhs in self.token_rules:
            updated = _replace_token_segment(out, lhs, rhs)
            if updated is not None and updated != out:
                out = updated
        if out != value:
            self._stats.token_hits += 1
        else:
            self._stats.misses += 1
        return out

    # -- batch path --------------------------------------------------------

    def apply_values(
        self,
        values: Sequence[str],
        workers: Optional[int] = None,
        min_shard: int = MIN_SHARD_VALUES,
    ) -> List[str]:
        """Standardize a column of values (the columnar hot path).

        The column is dictionary-encoded: distinct values are interned
        to dense slot codes, transformation runs once per *uncomputed*
        distinct value into a slot-aligned memo that persists across
        batches, and the result broadcasts back through the code vector
        as two C-level ``map`` passes.  With ``workers > 1`` and enough
        uncomputed distinct values, computation shards across a process
        pool; per-rule hit counters are then tracked inside the workers
        and not merged back.
        """
        started = time.perf_counter() if self.obs.enabled else 0.0
        stats = self._stats
        intern = self._intern
        code_of = intern.code_of
        outputs = self._slot_outputs
        n_rows = len(values)
        # Distinct detection is one C-level pass, first-occurrence
        # ordered so slot assignment and shard chunking stay
        # deterministic for a given batch sequence.
        distinct = dict.fromkeys(values)
        stats.rows += n_rows
        stats.unique_values += len(distinct)
        stats.broadcast_rows += n_rows - len(distinct)
        add = intern.add
        append_slot = outputs.append
        pending: List[str] = []
        new_slots = 0
        for value in distinct:
            code = code_of.get(value)
            if code is None:
                add(value)
                append_slot(None)
                new_slots += 1
                pending.append(value)
            elif outputs[code] is None:
                pending.append(value)
        stats.distinct_values += new_slots
        stats.intern_hits += n_rows - new_slots
        stats.cache_hits += len(distinct) - len(pending)
        if workers and workers > 1 and len(pending) >= max(min_shard, 2):
            for value, out in self._apply_sharded(pending, workers).items():
                outputs[code_of[value]] = out
            stats.sharded_values += len(pending)
        else:
            compute = self._compute
            for value in pending:
                outputs[code_of[value]] = compute(value)
        # Broadcast: rows -> codes -> outputs, both loops in C.
        result = list(
            map(outputs.__getitem__, map(code_of.__getitem__, values))
        )
        if len(intern) > self.intern_size:
            # Bound memory: this batch's codes are already consumed, so
            # dropping the newest slots only costs future recomputation.
            del outputs[self.intern_size:]
            intern.truncate(self.intern_size)
        if self.obs.enabled:
            self.sync_obs(time.perf_counter() - started)
        return result

    def _apply_sharded(
        self, unique: List[str], workers: int
    ) -> Dict[str, str]:
        chunks = [unique[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        # Serialized lazily: only the sharded path ships the model.
        payload = self.model.to_dict()
        with multiprocessing.Pool(
            len(chunks),
            initializer=_shard_init,
            initargs=(payload, self.use_programs),
        ) as pool:
            results = pool.map(_shard_apply, chunks)
        mapping: Dict[str, str] = {}
        for chunk, outs in zip(chunks, results):
            mapping.update(zip(chunk, outs))
        return mapping

    def apply_table(
        self,
        table: ClusterTable,
        column: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[CellRef]:
        """Standardize one column of a clustered table in place.

        Returns the cells whose value changed.
        """
        column = column or self.model.column
        cells = list(table.cells(column))
        before = [table.value(cell) for cell in cells]
        after = self.apply_values(before, workers=workers)
        changed: List[CellRef] = []
        for cell, old, new in zip(cells, before, after):
            if new != old:
                table.set_value(cell, new)
                changed.append(cell)
        return changed


# -- multiprocessing shard workers ----------------------------------------
#
# The pool initializer rebuilds the engine once per worker process from
# the model's JSON payload (always picklable); chunks of unique values
# then stream through the rebuilt engine.

_WORKER_ENGINE: Optional[ApplyEngine] = None


def _shard_init(payload: Dict, use_programs: bool) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = ApplyEngine(
        TransformationModel.from_dict(payload), use_programs=use_programs
    )


def _shard_apply(values: List[str]) -> List[str]:
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    return [_WORKER_ENGINE.transform(value) for value in values]
