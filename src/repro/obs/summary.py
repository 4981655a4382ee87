"""Reading, validating, and summarizing recorded metrics files.

``repro stream --metrics out.jsonl`` writes one JSON object per line;
this module is the consumer side: :func:`iter_rows` replays a file
with the decision-log crash discipline (a torn *final* line is
skipped; corruption anywhere else raises), :func:`validate_rows`
checks rows against the documented schema (docs/observability.md —
the CI perf-smoke job runs this via ``repro stats --metrics --check``),
and :func:`summarize` / :func:`format_summary` fold a recorded run
into the Fig. 9-style per-stage runtime breakdown plus oracle
questions per column and apply-tier hit ratios.

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

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..jsonl import read_rows

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
    batches = 0
    records = 0
    total_seconds = 0.0
    questions_total = 0
    stages: Dict[str, float] = {}
    questions_by_column: Dict[str, int] = {}
    spans: Dict[str, Dict[str, float]] = {}
    drift_events: List[Row] = []
    # A snapshot is cumulative within one process only, and each
    # process appending to the file starts with a ``meta`` row: keep
    # the last snapshot of every run.
    snapshots: List[Dict[str, object]] = [{}]
    meta: Optional[Row] = None

    for row in rows:
        kind = row.get("type")
        if kind == "meta":
            meta = meta or row
            snapshots.append({})
        elif kind == "batch":
            batches += 1
            records += int(row.get("records", 0))
            total_seconds += float(row.get("seconds", 0.0))
            questions_total += int(row.get("questions_asked", 0))
            for stage, seconds in (row.get("stage_seconds") or {}).items():
                stages[stage] = stages.get(stage, 0.0) + float(seconds)
            for column, asked in (
                row.get("questions_by_column") or {}
            ).items():
                questions_by_column[column] = (
                    questions_by_column.get(column, 0) + int(asked)
                )
        elif kind == "span":
            name = str(row.get("span"))
            entry = spans.setdefault(name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += float(row.get("seconds", 0.0))
        elif kind == "event" and row.get("event") == "drift":
            drift_events.append(row)
        elif kind == "snapshot":
            snapshots[-1] = row.get("metrics") or {}

    apply_counters: Dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            name, _labels = parse_metric_key(key)
            if name.startswith("apply.") and isinstance(value, (int, float)):
                field = name[len("apply."):]
                apply_counters[field] = (
                    apply_counters.get(field, 0) + int(value)
                )

    rows_applied = apply_counters.get("rows", 0)
    tiers = ("exact_hits", "program_hits", "token_hits", "misses")
    apply_summary: Dict[str, object] = dict(apply_counters)
    if rows_applied:
        apply_summary["hit_ratios"] = {
            tier: round(apply_counters.get(tier, 0) / rows_applied, 6)
            for tier in tiers
        }

    return {
        "meta": meta,
        "batches": batches,
        "records": records,
        "total_seconds": round(total_seconds, 6),
        "questions_asked": questions_total,
        "stages": {
            stage: round(seconds, 6)
            for stage, seconds in sorted(stages.items())
        },
        "questions_by_column": dict(sorted(questions_by_column.items())),
        "apply": apply_summary,
        "drift_events": drift_events,
        "spans": {
            name: {
                "count": int(entry["count"]),
                "seconds": round(entry["seconds"], 6),
            }
            for name, entry in sorted(spans.items())
        },
    }


def format_summary(summary: Dict[str, object]) -> str:
    """Render :func:`summarize` output for the terminal (`repro stats
    --metrics`)."""
    lines: List[str] = []
    meta = summary.get("meta") or {}
    if meta:
        lines.append(
            "run: " + str(meta.get("command", "?"))
            + (f" ({meta.get('dataset')})" if meta.get("dataset") else "")
        )
    lines.append(
        f"batches={summary['batches']} records={summary['records']} "
        f"questions={summary['questions_asked']} "
        f"total={summary['total_seconds']:.3f}s"
    )

    stages = summary.get("stages") or {}
    if stages:
        lines.append("")
        lines.append("per-stage runtime (Fig. 9 view):")
        total = sum(stages.values()) or 1.0
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
                f"  batch={event.get('batch', '?')} "
                + (f"column={event['column']} " if "column" in event else "")
                + f"miss_rate={event.get('miss_rate', '?')} "
                f"rows={event.get('rows', '?')}"
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
