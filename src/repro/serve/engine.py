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
   Rules are compiled to token lists and indexed by their first lhs
   token, so a value is split once and only the rules whose first
   token it holds are tried: a min-heap pops them in rule order, and a
   rewrite by rule ``i`` queues the rules ``j > i`` whose first token
   its rhs brings in — exactly the cascades of the sequential loop,
   at a cost that does not grow with the rule count.

Application is **columnar**: a batch is dictionary-encoded through a
shared :class:`~repro.serve.intern.InternTable` (unique values +
row -> slot codes), the lookup tiers above run once per *distinct*
value, outputs land in a slot-aligned memo that persists across
batches, and results broadcast back through the code vector as two
C-level ``map`` passes — per-row cost on skewed production traffic is
two hash probes, not a transformation.  The single-value path reads and
fills the same memo.

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

import time
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..align.tokenize import rewrite_token_run
from ..core.functions import ConstantStr
from ..core.program import Program
from ..core.structure import Signature, structure_signature
from ..data.table import CellRef, ClusterTable
from ..obs import NULL_OBS
from ..pipeline.oracle import FORWARD
from .intern import InternTable
from .model import TransformationModel

#: Default intern-table capacity (distinct values memoized across
#: batches); slots are two pointers each.
DEFAULT_INTERN_SIZE = 262144


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
    #: distinct values ever interned (monotone even across truncation)
    distinct_values: int = 0
    #: rows settled by broadcasting a distinct value's output
    broadcast_rows: int = 0
    #: rows whose value was already in the intern table on arrival
    intern_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-safe dict (``repro apply --stats``)."""
        return dict(vars(self))


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
        obs=NULL_OBS,
        obs_labels: Optional[Dict[str, str]] = None,
        intern_size: int = DEFAULT_INTERN_SIZE,
    ) -> None:
        self.model = model
        self.use_programs = use_programs
        self.vocabulary = model.vocabulary
        self._stats = ApplyStats()
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
        # token_rules as (lhs tokens, rhs tokens), and each rule's first
        # lhs token -> its rule indices, ascending.
        self._token_runs: List[Tuple[List[str], List[str]]] = []
        self._token_index: Dict[str, List[int]] = {}
        self.programs: Dict[Signature, List[Program]] = {}
        self._compile_groups(model.groups)

    # -- observability -----------------------------------------------------

    def stats(self) -> ApplyStats:
        """Counters over everything this engine has applied: memo
        hits, and exact / program / token-rule path counts vs misses."""
        return self._stats

    def sync_obs(self, seconds: Optional[float] = None) -> None:
        """Mirror the ApplyStats deltas since the last sync into the
        attached registry as ``apply.*`` counters (tier mapping: exact,
        program, token, passthrough=misses, memo=cache_hits), plus an
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
        """Fold confirmed groups into the (empty) compiled lookup
        structures."""
        seen_token: set = set()
        seen_programs: Dict[Signature, set] = {}
        for group in groups:
            for member in group.members:
                if member.whole:
                    self._add_exact(member.lhs, member.rhs)
                if member.token and (member.lhs, member.rhs) not in seen_token:
                    seen_token.add((member.lhs, member.rhs))
                    self._add_token_rule(member.lhs, member.rhs)
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

    def _add_token_rule(self, lhs: str, rhs: str) -> None:
        lhs_tokens, rhs_tokens = lhs.split(), rhs.split()
        if lhs_tokens:
            self._token_index.setdefault(lhs_tokens[0], []).append(
                len(self.token_rules)
            )
        self.token_rules.append((lhs, rhs))
        self._token_runs.append((lhs_tokens, rhs_tokens))

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

    def reload(self, model: TransformationModel) -> None:
        """Swap in a newly published model without rebuilding the engine.

        The compiled tables are cleared and refilled from ``model`` in
        place (linear in its rules), so accumulated stats and engine
        identity survive and a live stream picks up fresh confirmations
        mid-flight with no process restart.  Cached outputs may be
        stale under the new rules, so the memo is reset: interned
        values keep their slots, only the slot-aligned outputs drop.
        """
        self.exact.clear()
        self._exact_keys.clear()
        self.token_rules.clear()
        self._token_runs.clear()
        self._token_index.clear()
        self.programs.clear()
        self.model = model
        self.vocabulary = model.vocabulary
        self._max_program_len = model.config.max_string_length
        self._compile_groups(model.groups)
        self._slot_outputs = [None] * len(self._intern)

    # -- single-value path -------------------------------------------------

    def transform(self, value: str) -> str:
        """Standardize one value through the intern memo
        :meth:`apply_values` fills: a memoized value is a lookup, a new
        one is computed and interned while the table is below its cap.
        It counts one row of one distinct value, like a one-value
        :meth:`apply_values`."""
        stats = self._stats
        stats.rows += 1
        stats.unique_values += 1
        code = self._intern.code_of.get(value)
        if code is not None:
            out = self._slot_outputs[code]
            if out is not None:
                stats.cache_hits += 1
                return out
        out = self._compute(value)
        if code is not None:
            self._slot_outputs[code] = out
        elif len(self._intern) < self.intern_size:
            self._intern.add(value)
            self._slot_outputs.append(out)
            stats.distinct_values += 1
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
        out = self._apply_token_rules(value)
        if out != value:
            self._stats.token_hits += 1
        else:
            self._stats.misses += 1
        return out

    def _apply_token_rules(self, value: str) -> str:
        """Every token rule, in order, over one split of ``value``: a
        rule can fire only once its first lhs token is present, in the
        value or in the rhs of an earlier rewrite."""
        index = self._token_index
        value_tokens = value.split()
        heap = []
        for token in value_tokens:
            rules = index.get(token)
            if rules is not None:
                heap.extend(rules)
        if not heap:
            return value
        heapify(heap)
        runs = self._token_runs
        matched = False
        last = -1
        while heap:
            i = heappop(heap)
            if i == last:
                continue
            last = i
            lhs_tokens, rhs_tokens = runs[i]
            if not rewrite_token_run(value_tokens, lhs_tokens, rhs_tokens):
                continue
            matched = True
            for token in rhs_tokens:
                rules = index.get(token)
                if rules is not None:
                    for j in rules[bisect_right(rules, i):]:
                        heappush(heap, j)
        # Like the sequential loop: untouched unless a rule matched,
        # whitespace-normalized once one did.
        return " ".join(value_tokens) if matched else value

    # -- batch path --------------------------------------------------------

    def apply_values(self, values: Sequence[str]) -> List[str]:
        """Standardize a column of values (the columnar hot path).

        The column is dictionary-encoded: distinct values are interned
        to dense slot codes, transformation runs once per *uncomputed*
        distinct value into a slot-aligned memo that persists across
        batches, and the result broadcasts back through the code vector
        as two C-level ``map`` passes.
        """
        started = time.perf_counter() if self.obs.enabled else 0.0
        stats = self._stats
        intern = self._intern
        code_of = intern.code_of
        outputs = self._slot_outputs
        n_rows = len(values)
        # Distinct detection is one C-level pass, first-occurrence
        # ordered so slot assignment stays deterministic for a given
        # batch sequence.
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

    def apply_table(
        self,
        table: ClusterTable,
        column: Optional[str] = None,
    ) -> List[CellRef]:
        """Standardize one column of a clustered table in place.

        Returns the cells whose value changed.
        """
        column = column or self.model.column
        cells = list(table.cells(column))
        before = [table.value(cell) for cell in cells]
        after = self.apply_values(before)
        changed: List[CellRef] = []
        for cell, old, new in zip(cells, before, after):
            if new != old:
                table.set_value(cell, new)
                changed.append(cell)
        return changed

