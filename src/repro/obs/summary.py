"""Reading, validating, and summarizing recorded metrics files.

``repro stream --metrics out.jsonl`` writes one JSON object per line;
this module is the consumer side: :func:`iter_rows` replays a file
with the decision-log crash discipline (a torn *final* line is
skipped; corruption anywhere else raises), :func:`validate_rows`
checks rows against the documented schema (docs/observability.md —
the CI perf-smoke job runs this via ``repro stats --metrics --check``),
and :class:`RunFold` — the one reader of what a row means, shared
with ``repro top`` — feeds :func:`summarize` / :func:`format_summary`,
the Fig. 9-style per-stage runtime breakdown plus oracle questions
per column and apply-tier hit ratios.

Row types (the stable schema)::

    {"type": "meta",     "command": str, ...}          # run header
    {"type": "batch",    "batch": int, ...}            # BatchReport.stats()
    {"type": "span",     "span": str, "seconds": float, "depth": int,
                         "parent": str|null, "seq": int,
                         "trace": str, "id": int,
                         "parent_id": int|null, ...}
    {"type": "event",    "event": str, ...}            # e.g. drift
    {"type": "snapshot", "deterministic": bool,
                         "metrics": {key: value}}      # registry dump

Span rows carry the distributed-trace identity (``trace`` = run trace
id, ``id`` = per-trace span id, ``parent_id`` = the enclosing span's
id — also for spans recorded inside shard *workers* and re-attached
by the parent), so :func:`build_span_forest` reassembles the exact
cross-process span tree and :func:`format_trace_tree` renders it with
per-node count / total / self time (``repro stats --trace-tree``).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Tuple, Union

from ..jsonl import read_rows
from .metrics import Histogram

PathLike = Union[str, Path]

Row = Dict[str, object]

ROW_TYPES = ("meta", "batch", "span", "event", "snapshot")

#: required fields (beyond ``type``) per row type, with accepted types.
_REQUIRED = {
    "meta": {"command": str},
    "batch": {"batch": int, "records": int, "seconds": (int, float)},
    "span": {
        "span": str,
        "seconds": (int, float),
        "depth": int,
        "seq": int,
    },
    "event": {"event": str},
    "snapshot": {"deterministic": bool, "metrics": dict},
}

def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a snapshot key back into ``(name, labels)``.

    The exact inverse of :func:`repro.obs.metrics.metric_key`: plain
    label values parse as-is, and values that contained structural
    characters (commas, equals signs, braces, quotes, backslashes)
    arrive double-quoted with ``\\"``/``\\\\`` escapes and are
    unescaped here — so any label value round-trips byte-for-byte.
    """
    brace = key.find("{")
    if brace < 0 or not key.endswith("}"):
        return key, {}
    name = key[:brace]
    body = key[brace + 1 : -1]
    labels: Dict[str, str] = {}
    index = 0
    while index < len(body):
        eq = body.find("=", index)
        if eq < 0:  # not our encoding; treat the remainder as opaque
            break
        label = body[index:eq]
        index = eq + 1
        if index < len(body) and body[index] == '"':
            chars: List[str] = []
            index += 1
            while index < len(body):
                char = body[index]
                if char == "\\" and index + 1 < len(body):
                    chars.append(body[index + 1])
                    index += 2
                    continue
                if char == '"':
                    index += 1
                    break
                chars.append(char)
                index += 1
            labels[label] = "".join(chars)
        else:
            comma = body.find(",", index)
            end = comma if comma >= 0 else len(body)
            labels[label] = body[index:end]
            index = end
        if index < len(body) and body[index] == ",":
            index += 1
    return name, labels


def iter_rows(path: PathLike) -> Iterator[Row]:
    """Replay a metrics file, tolerating a crash-torn final line.

    The strict replay of :func:`repro.jsonl.read_rows`: the
    append-per-row + flush write discipline of
    :class:`~repro.obs.sinks.JsonlSink` guarantees every line but the
    last was complete when written, so a malformed *unterminated* final
    line is a recognized crash signature and silently skipped; a
    malformed line anywhere else means the file is not ours and raises
    ``ValueError`` rather than half-loading.
    """
    yield from read_rows(path, what="metrics row")[0]


def validate_rows(rows) -> List[str]:
    """Schema-check rows; returns a list of violation messages (empty
    when the file conforms to docs/observability.md)."""
    problems: List[str] = []
    for number, row in enumerate(rows, start=1):
        kind = row.get("type")
        if kind not in ROW_TYPES:
            problems.append(
                f"row {number}: unknown type {kind!r} "
                f"(expected one of {ROW_TYPES})"
            )
            continue
        for field, types in _REQUIRED[kind].items():
            if field not in row:
                problems.append(
                    f"row {number} ({kind}): missing field {field!r}"
                )
            elif not isinstance(row[field], types) or isinstance(
                row[field], bool
            ) != (types is bool):
                problems.append(
                    f"row {number} ({kind}): field {field!r} has "
                    f"type {type(row[field]).__name__}"
                )
        if kind == "span":
            # Trace-identity fields are optional (older recordings
            # lack them) but must be well-typed when present.
            for field, types in (
                ("trace", str),
                ("id", int),
                ("parent_id", int),
            ):
                value = row.get(field)
                if value is not None and (
                    not isinstance(value, types) or isinstance(value, bool)
                ):
                    problems.append(
                        f"row {number} (span): field {field!r} has "
                        f"type {type(value).__name__}"
                    )
    return problems


# -- the merged span forest (distributed trace view) -----------------------

#: tags that identify a span line in aggregated views (everything else
#: — comparison counts, pair counts, batch numbers — is per-call data).
_IDENTITY_TAGS = ("column", "shard")


def build_span_forest(rows) -> List[Dict[str, object]]:
    """Reassemble span rows into the run's span forest.

    Returns a list of root nodes, each ``{"name", "seconds", "tags",
    "seq", "children": [...]}`` with children in emission (seq) order.
    Rows carrying trace identity (``trace``/``id``/``parent_id``) are
    linked exactly — including worker-recorded ``shard.*`` spans the
    parent re-attached, which is what makes the forest *merged* across
    processes.  Rows from older recordings (no ids) fall back to the
    exit-order + depth reconstruction: spans are emitted children
    first, so a span at depth ``d`` adopts every pending span at depth
    ``d + 1``.
    """
    nodes: List[Dict[str, object]] = []
    by_id: Dict[Tuple[object, object], Dict[str, object]] = {}
    records: List[Row] = []
    for row in rows:
        if row.get("type") != "span":
            continue
        records.append(row)
        node: Dict[str, object] = {
            "name": str(row.get("span")),
            "seconds": float(row.get("seconds", 0.0)),
            "tags": dict(row.get("tags") or {}),
            "seq": int(row.get("seq", len(records))),
            "children": [],
        }
        nodes.append(node)
        if row.get("id") is not None:
            by_id[(row.get("trace"), row["id"])] = node

    roots: List[Dict[str, object]] = []
    pending_by_depth: Dict[int, List[Dict[str, object]]] = {}
    for row, node in zip(records, nodes):
        if row.get("id") is not None:
            parent = by_id.get((row.get("trace"), row.get("parent_id")))
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
            continue
        depth = int(row.get("depth", 0))
        node["children"].extend(pending_by_depth.pop(depth + 1, []))
        if depth == 0:
            roots.append(node)
        else:
            pending_by_depth.setdefault(depth, []).append(node)
    # Torn recordings can leave children whose parent never exited.
    for depth in sorted(pending_by_depth):
        roots.extend(pending_by_depth[depth])
    for node in nodes:
        node["children"].sort(key=lambda child: child["seq"])
    roots.sort(key=lambda root: root["seq"])
    return roots


def _span_label(node: Dict[str, object]) -> str:
    tags = node.get("tags") or {}
    extra = [
        f"{tag}={tags[tag]}" for tag in _IDENTITY_TAGS if tag in tags
    ]
    name = str(node["name"])
    return name + (f"[{', '.join(extra)}]" if extra else "")


def format_trace_tree(rows) -> str:
    """Render the merged span forest with per-node self/total time.

    Nodes are aggregated by their path of labels (span name plus
    identity tags — the per-column golden stages and the per-shard
    worker spans stay separate lines), so a three-batch run renders as
    one tree with ``n=3`` per stage.  ``self`` is the node's total
    minus its children's totals: the time spent in that stage itself,
    the column Fig. 9 cares about.
    """
    forest = build_span_forest(rows)
    if not forest:
        return "no span rows (record the run with --trace)"

    def fold(
        node: Dict[str, object], bucket: Dict[str, Dict[str, object]]
    ) -> None:
        label = _span_label(node)
        agg = bucket.get(label)
        if agg is None:
            agg = bucket[label] = {
                "count": 0,
                "total": 0.0,
                "child_seconds": 0.0,
                "children": {},
            }
        agg["count"] += 1
        agg["total"] += float(node["seconds"])
        for child in node["children"]:
            agg["child_seconds"] += float(child["seconds"])
            fold(child, agg["children"])

    top: Dict[str, Dict[str, object]] = {}
    for root in forest:
        fold(root, top)

    lines = ["trace tree (n / total / self):"]

    def render(bucket: Dict[str, Dict[str, object]], prefix: str) -> None:
        items = sorted(
            bucket.items(), key=lambda item: (-item[1]["total"], item[0])
        )
        for index, (label, agg) in enumerate(items):
            last = index == len(items) - 1
            branch = "`- " if last else "|- "
            self_seconds = max(
                0.0, float(agg["total"]) - float(agg["child_seconds"])
            )
            lines.append(
                f"{prefix}{branch}{label}  n={agg['count']} "
                f"total={float(agg['total']):.3f}s "
                f"self={self_seconds:.3f}s"
            )
            render(
                agg["children"], prefix + ("   " if last else "|  ")
            )

    render(top, "")
    return "\n".join(lines)


def forest_shape(rows, include_shards: bool = False):
    """The timing-free shape of the span forest, for determinism tests.

    Each node reduces to ``(name, identity tags, sorted child
    shapes)``; the result is the sorted list of root shapes.  Two runs
    that did the same work in the same nesting — whatever the clock
    said — compare equal.  ``shard.*`` subtrees are excluded by
    default: like the registry's volatile instruments, execution
    topology (which shard did what, whether a pool exists at all)
    legitimately differs across ``--shards`` values while the logical
    stage structure must not.  Pass ``include_shards=True`` to keep
    them (with their shard index as identity).
    """

    def shape(node: Dict[str, object]):
        name = str(node["name"])
        if not include_shards and name.startswith("shard."):
            return None
        tags = node.get("tags") or {}
        identity = tuple(
            (tag, str(tags[tag]))
            for tag in _IDENTITY_TAGS
            if tag in tags
        )
        children = tuple(
            sorted(
                child_shape
                for child_shape in (
                    shape(child) for child in node["children"]
                )
                if child_shape is not None
            )
        )
        return (name, identity, children)

    return sorted(
        root_shape
        for root_shape in (
            shape(root) for root in build_span_forest(rows)
        )
        if root_shape is not None
    )


class RunFold:
    """The one fold of a recorded run: the only code that interprets a
    metrics row, shared by :func:`summarize` (``repro stats``) and
    :class:`~repro.obs.top.TopModel` (``repro top``).

    A snapshot is cumulative within one process only, and each process
    appending to the file starts with a ``meta`` row, so the fold keeps
    the last snapshot of every run; ``meta`` is the first run's header.
    """

    def __init__(self, window: int = 20) -> None:
        self.meta: Optional[Row] = None
        self.rows_seen = 0
        self.batches = 0
        self.records = 0
        self.wall_seconds = 0.0  # summed batch seconds
        self.questions = 0
        self.questions_by_column: Dict[str, int] = {}
        self.stage_hist: Dict[str, Histogram] = {}
        #: ``(records, questions, seconds)`` of the recent batches.
        self.recent: Deque[Tuple[int, int, float]] = deque(maxlen=window)
        self.drift_events: List[Row] = []
        self.spans: Dict[str, Dict[str, float]] = {}
        self.snapshots: List[Dict[str, object]] = [{}]

    def consume(self, row: Row) -> None:
        self.rows_seen += 1
        kind = row.get("type")
        if kind == "meta":
            if self.meta is None:
                self.meta = row
            self.snapshots.append({})
        elif kind == "batch":
            records = int(row.get("records", 0))
            seconds = float(row.get("seconds", 0.0))
            questions = int(row.get("questions_asked", 0))
            self.batches += 1
            self.records += records
            self.wall_seconds += seconds
            self.questions += questions
            self.recent.append((records, questions, seconds))
            for stage, value in (row.get("stage_seconds") or {}).items():
                hist = self.stage_hist.get(stage)
                if hist is None:
                    hist = self.stage_hist[stage] = Histogram(stage, {})
                hist.observe(value)
            asked_by_column = row.get("questions_by_column") or {}
            for column, asked in asked_by_column.items():
                by_column = self.questions_by_column
                by_column[column] = by_column.get(column, 0) + int(asked)
        elif kind == "span":
            name = str(row.get("span"))
            entry = self.spans.setdefault(name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += float(row.get("seconds", 0.0))
        elif kind == "event" and row.get("event") == "drift":
            self.drift_events.append(row)
        elif kind == "snapshot":
            self.snapshots[-1] = row.get("metrics") or {}

    def consume_all(self, rows) -> None:
        for row in rows:
            self.consume(row)

    def stage_totals(self) -> Dict[str, float]:
        """Per-stage total seconds (the Fig. 9 view)."""
        return {stage: hist.total for stage, hist in self.stage_hist.items()}

    def snapshot_sum(
        self, prefix: str, label: Optional[str] = None
    ) -> Dict[str, float]:
        """Numeric snapshot values named ``prefix...``, summed over each
        run's last snapshot and keyed by the rest of the name — or, with
        ``label``, by that label's value."""
        totals: Dict[str, float] = {}
        for snapshot in self.snapshots:
            for key, value in snapshot.items():
                name, labels = parse_metric_key(key)
                group = labels.get(label) if label else name[len(prefix):]
                if (
                    name.startswith(prefix)
                    and group is not None
                    and isinstance(value, (int, float))
                ):
                    totals[group] = totals.get(group, 0) + value
        return totals


def summarize(rows) -> Dict[str, object]:
    """Fold a recorded run into the headline operational numbers.

    Returns a dict with:

    * ``batches`` / ``records`` / ``total_seconds`` — run totals;
    * ``stages`` — per-stage total seconds (the Fig. 9 view), from the
      per-batch ``stage_seconds`` maps;
    * ``questions_by_column`` — oracle spend per column, summed over
      the batch rows (the source of ``questions_asked`` too);
    * ``apply`` — tier hit counts and ratios from the ``apply.*``
      counters, summed over each run's last snapshot;
    * ``drift_events`` — recorded drift/relearn events;
    * ``spans`` — per-span-name (count, total seconds) when tracing
      was on.
    """
    fold = RunFold()
    fold.consume_all(rows)
    apply_counters = {
        field: int(total)
        for field, total in fold.snapshot_sum("apply.").items()
    }
    rows_applied = apply_counters.get("rows", 0)
    tiers = ("exact_hits", "program_hits", "token_hits", "misses")
    apply_summary: Dict[str, object] = dict(apply_counters)
    if rows_applied:
        apply_summary["hit_ratios"] = {
            tier: round(apply_counters.get(tier, 0) / rows_applied, 6)
            for tier in tiers
        }

    return {
        "meta": fold.meta,
        "batches": fold.batches,
        "records": fold.records,
        "total_seconds": round(fold.wall_seconds, 6),
        "questions_asked": fold.questions,
        "stages": {
            stage: round(seconds, 6)
            for stage, seconds in sorted(fold.stage_totals().items())
        },
        "questions_by_column": dict(sorted(fold.questions_by_column.items())),
        "apply": apply_summary,
        "drift_events": fold.drift_events,
        "spans": {
            name: {
                "count": int(entry["count"]),
                "seconds": round(entry["seconds"], 6),
            }
            for name, entry in sorted(fold.spans.items())
        },
    }


def run_label(meta: Row) -> str:
    """``command (dataset)`` of a run's ``meta`` row."""
    dataset = meta.get("dataset")
    return str(meta.get("command", "?")) + (f" ({dataset})" if dataset else "")


def drift_label(event: Row) -> str:
    """``batch=N [column=C ]miss_rate=R`` of a drift ``event`` row."""
    return (
        f"batch={event.get('batch', '?')} "
        + (f"column={event['column']} " if "column" in event else "")
        + f"miss_rate={event.get('miss_rate', '?')}"
    )


def format_summary(summary: Dict[str, object]) -> str:
    """Render :func:`summarize` output for the terminal (`repro stats
    --metrics`)."""
    lines: List[str] = []
    if summary.get("meta"):
        lines.append("run: " + run_label(summary["meta"]))
    lines.append(
        f"batches={summary['batches']} records={summary['records']} "
        f"questions={summary['questions_asked']} "
        f"total={summary['total_seconds']:.3f}s"
    )

    stages = summary.get("stages") or {}
    if stages:
        lines.append("")
        lines.append("per-stage runtime (Fig. 9 view):")
        # Shares of the summed batch seconds, not of the stage sum:
        # ``oracle`` is review time measured inside ``learn``/``drift``.
        total = summary["total_seconds"] or 1.0
        width = max(len(s) for s in stages)
        for stage, seconds in sorted(
            stages.items(), key=lambda item: -item[1]
        ):
            share = 100.0 * seconds / total
            bar = "#" * max(1, int(round(share / 2.5)))
            lines.append(
                f"  {stage:<{width}}  {seconds:>9.3f}s "
                f"{share:>5.1f}%  {bar}"
            )

    questions = summary.get("questions_by_column") or {}
    if questions:
        lines.append("")
        lines.append("oracle questions per column:")
        for column, asked in questions.items():
            lines.append(f"  {column}: {asked}")

    apply_summary = summary.get("apply") or {}
    ratios = apply_summary.get("hit_ratios") if apply_summary else None
    if ratios:
        lines.append("")
        lines.append(
            f"apply tiers over {apply_summary.get('rows', 0)} rows:"
        )
        for tier, ratio in ratios.items():
            count = apply_summary.get(tier, 0)
            lines.append(f"  {tier}: {count} ({100.0 * ratio:.1f}%)")
        cache_hits = apply_summary.get("cache_hits")
        if cache_hits:
            lines.append(f"  memo cache_hits: {cache_hits}")
        distinct = apply_summary.get("distinct_values")
        if distinct:
            rows = apply_summary.get("rows", 0) or 1
            broadcast = apply_summary.get("broadcast_rows", 0)
            lines.append(
                f"  columnar: {distinct} distinct values interned, "
                f"{broadcast} rows broadcast "
                f"({100.0 * broadcast / rows:.1f}%)"
            )

    drift_events = summary.get("drift_events") or []
    if drift_events:
        lines.append("")
        lines.append(f"drift events: {len(drift_events)}")
        for event in drift_events:
            lines.append(
                f"  {drift_label(event)} rows={event.get('rows', '?')}"
            )

    spans = summary.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("spans:")
        for name, entry in spans.items():
            lines.append(
                f"  {name}: n={entry['count']} "
                f"total={entry['seconds']:.3f}s"
            )
    return "\n".join(lines)
