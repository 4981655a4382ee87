"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats`` — print the Table 6 row for a synthetic dataset;
* ``groups`` — print the top replacement groups the unsupervised
  method finds on a dataset column (the Table 4 experience);
* ``standardize`` — run the full human-in-the-loop standardization
  with the ground-truth oracle and report precision / recall / MCC;
* ``consolidate`` — Algorithm 1 end to end: standardize, fuse, report
  golden-record precision before/after;
* ``learn`` — run standardization and persist what it learned as a
  transformation model (JSON file or versioned registry);
* ``apply`` — load a model and standardize a fresh table or CSV with
  the compiled engine / exact replayer — no re-learning, no human;
* ``serve`` — a long-running JSON-lines worker answering transform
  requests on stdin (one JSON request per line);
* ``stream`` — incremental consolidation over a record stream: batches
  are folded into persistent cluster / candidate / decision state, new
  confirmations publish fresh model versions with hot engine reload,
  and repeated variation never costs a second oracle question.  With
  ``--columns a,b,c`` the stream turns multi-column: one shared
  resolver, one incremental standardizer per column, golden records
  fused per batch (``--fusion``), one atomic model bundle published
  per confirming batch, and ``--golden-out`` dumping the final golden
  records as JSON lines.  ``--question-order yield`` spends the oracle
  budget by expected cells-fixed-per-question instead of discovery
  order (see docs/oracle-scheduling.md);
* ``decisions`` — offline maintenance of the durable verdict logs:
  ``compact`` drops lines replay ignores, ``diff`` compares two logs
  by effective verdicts, ``audit`` reports health (duplicates,
  conflicts, asked vs inferred, tail damage).

Synthetic-data commands operate on the built-in datasets (``--dataset``
one of ``Address``, ``AuthorList``, ``JournalTitle``); ``--scale``
controls their size.  ``--seed`` defaults to *unset*: the run then
picks a random seed and **prints it**, so any logged run can be
reproduced by passing the printed value back.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .config import Config
from .resolution.blocking import (
    BLOCKING_MODES,
    derive_lsh_params,
    make_block_keys,
)
from .data.io import (
    read_csv_clusters,
    read_csv_records,
    write_csv_clusters,
    write_csv_records,
)
from .data.stats import dataset_stats
from .datagen import DATASETS
from .evaluation.experiment import run_consolidation, run_method_series
from .pipeline.oracle import GroundTruthOracle
from .pipeline.standardize import Standardizer
from .serve import (
    ApplyEngine,
    ModelRegistry,
    ModelReplayer,
    TransformationModel,
    build_model,
    serve_forever,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unsupervised string transformation learning "
        "(Deng et al., ICDE 2019) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dataset",
            choices=sorted(DATASETS),
            default="Address",
            help="synthetic dataset to operate on",
        )
        p.add_argument("--scale", type=float, default=0.15)
        p.add_argument("--seed", type=int, default=None)

    stats = sub.add_parser(
        "stats",
        help="Table 6 row for a dataset, or summarize a recorded "
        "metrics file (--metrics)",
    )
    add_common(stats)
    stats.add_argument(
        "--metrics",
        help="summarize this JSON-lines metrics file (written by "
        "`repro stream --metrics`) instead of a dataset: per-stage "
        "runtime breakdown, oracle questions per column, apply-tier "
        "hit ratios",
    )
    stats.add_argument(
        "--check",
        action="store_true",
        help="with --metrics: validate every row against the "
        "documented schema and exit non-zero on violations (the CI "
        "perf-smoke gate)",
    )
    stats.add_argument(
        "--trace-tree",
        action="store_true",
        help="with --metrics: render the merged span forest (parent "
        "stages with their re-attached per-shard worker spans) as a "
        "tree with per-node count / total / self time; needs a "
        "recording made with --trace",
    )

    groups = sub.add_parser("groups", help="show the top groups found")
    add_common(groups)
    groups.add_argument("--top", type=int, default=10)
    groups.add_argument("--members", type=int, default=4)

    standardize = sub.add_parser(
        "standardize", help="run standardization and report metrics"
    )
    add_common(standardize)
    standardize.add_argument("--budget", type=int, default=100)
    standardize.add_argument("--sample-size", type=int, default=500)
    standardize.add_argument("--error-rate", type=float, default=0.0)

    consolidate = sub.add_parser(
        "consolidate", help="golden-record precision before/after"
    )
    add_common(consolidate)
    consolidate.add_argument("--budget", type=int, default=100)
    consolidate.add_argument(
        "--fusion",
        choices=("majority", "truthfinder", "accu"),
        default="majority",
    )

    def add_model_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", help="path of a saved model file")
        p.add_argument("--registry", help="model-registry root directory")
        p.add_argument("--name", help="model name inside the registry")
        p.add_argument(
            "--model-version",
            type=int,
            default=None,
            help="registry version to load (default: latest)",
        )

    learn = sub.add_parser(
        "learn", help="standardize and persist the learned model"
    )
    add_common(learn)
    learn.add_argument("--budget", type=int, default=100)
    learn.add_argument("--error-rate", type=float, default=0.0)
    learn.add_argument(
        "--out",
        help="model file to write (default: <dataset>.model.json; "
        "ignored with --registry)",
    )
    learn.add_argument("--registry", help="save into this registry instead")
    learn.add_argument("--name", help="model name (default: dataset name)")

    apply_p = sub.add_parser(
        "apply", help="standardize fresh data with a saved model"
    )
    add_common(apply_p)
    add_model_source(apply_p)
    apply_p.add_argument(
        "--input",
        help="CSV file to standardize instead of a synthetic dataset",
    )
    apply_p.add_argument(
        "--column", help="column to standardize (default: model's column)"
    )
    apply_p.add_argument(
        "--key",
        help="cluster the CSV by this key column and replay with "
        "cluster provenance (exact Section 7.1 semantics); without it "
        "the compiled value engine is used",
    )
    apply_p.add_argument("--out", help="write the standardized data here")
    apply_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard large batches across this many processes",
    )
    apply_p.add_argument(
        "--no-programs",
        action="store_true",
        help="disable program generalization to unseen values",
    )
    apply_p.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's path counters as JSON "
        "(cache hits, exact / program / token hits, misses)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="JSON-lines transform worker: stdin/stdout by default, "
        "or a concurrent asyncio TCP service with --listen",
    )
    add_model_source(serve_p)
    serve_p.add_argument("--cache-size", type=int, default=65536)
    serve_p.add_argument("--no-programs", action="store_true")
    serve_p.add_argument(
        "--listen",
        help="serve JSON-over-TCP on HOST:PORT instead of stdin/stdout "
        "(port 0 picks an ephemeral port, announced on stderr)",
    )
    serve_p.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        help="seconds between registry polls for newly published "
        "versions, hot-swapped without dropping in-flight requests",
    )
    serve_p.add_argument(
        "--golden-log",
        help="golden delta log to tail for lookup/subscribe ops "
        "(default when --registry serves a bundle: the stream's "
        "golden-deltas.jsonl next to it)",
    )
    serve_p.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="close connections idle longer than this many seconds "
        "(0 disables)",
    )
    serve_p.add_argument(
        "--max-request-bytes",
        type=int,
        default=1 << 20,
        help="reject request lines larger than this",
    )
    serve_p.add_argument(
        "--metrics",
        help="record serve.* metrics/spans to this JSON-lines file",
    )
    serve_p.add_argument(
        "--snapshot-interval",
        type=float,
        default=None,
        help="with --metrics: append a metrics snapshot row every "
        "this many seconds (default: only on shutdown)",
    )

    stream_p = sub.add_parser(
        "stream",
        help="incremental consolidation over record batches "
        "(no full relearn per batch)",
    )
    add_common(stream_p)
    stream_p.add_argument(
        "--batches", type=int, default=5, help="number of arrival batches"
    )
    stream_p.add_argument(
        "--columns",
        help="comma-separated column list (e.g. address,authors,title) "
        "switching to multi-column golden-record mode: one shared "
        "resolver, one incremental standardizer per column, golden "
        "records fused per batch, and one atomic model bundle "
        "published per confirming batch (--dataset is ignored; the "
        "multi-column golden_stream generator supplies the data)",
    )
    stream_p.add_argument(
        "--golden-out",
        help="write the final golden records as JSON lines here "
        "(multi-column mode only)",
    )
    stream_p.add_argument(
        "--fusion",
        choices=("majority", "truthfinder", "accu"),
        default=None,
        help="truth-discovery method for golden records (multi-column "
        "mode; default majority, which fuses incrementally per "
        "touched cluster — the global methods re-fuse every live "
        "cluster per batch)",
    )
    stream_p.add_argument(
        "--budget",
        type=int,
        default=50,
        help="oracle questions allowed per batch (novel groups only)",
    )
    stream_p.add_argument(
        "--question-order",
        choices=("discovery", "yield"),
        default="discovery",
        help="how the oracle budget is spent: 'discovery' (default) "
        "asks in feed order; 'yield' ranks questions by expected "
        "cells-fixed-per-question, pools one budget across --columns "
        "by marginal yield, and settles transitively-proven verdicts "
        "without asking (logged with source 'inferred'); both orders "
        "are byte-identical at any --shards value",
    )
    stream_p.add_argument("--error-rate", type=float, default=0.0)
    stream_p.add_argument(
        "--registry",
        help="publish model versions into this registry directory",
    )
    stream_p.add_argument("--name", help="model name (default: dataset)")
    stream_p.add_argument(
        "--no-engine",
        action="store_true",
        help="disable the serve fast path (provenance-exact mode)",
    )
    stream_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the streaming learner across this many worker "
        "processes (matching, candidate alignment, grouping feed); "
        "published models and question counts are identical at any "
        "shard count",
    )
    stream_p.add_argument(
        "--blocking",
        choices=("key",) + BLOCKING_MODES,
        default="key",
        help="how arrivals are resolved into clusters: 'key' clusters "
        "by the synthetic entity key (default); 'token', 'lsh', and "
        "'token+lsh' switch to blocked similarity matching on the "
        "consolidated column — 'lsh' blocks by banded MinHash "
        "signatures over character shingles, which keeps blocks "
        "near-duplicate-sized on high-cardinality vocabularies",
    )
    stream_p.add_argument(
        "--lsh-bands",
        type=int,
        default=None,
        help="LSH band count (more bands = higher recall, more keys); "
        "default: derived from --similarity-threshold via the S-curve",
    )
    stream_p.add_argument(
        "--lsh-rows",
        type=int,
        default=None,
        help="signature rows per LSH band (more rows = stricter "
        "collisions); default: derived from --similarity-threshold "
        "via the S-curve",
    )
    stream_p.add_argument(
        "--lsh-shingle",
        type=int,
        default=3,
        help="character shingle width the MinHash signature is "
        "computed over",
    )
    stream_p.add_argument(
        "--similarity-threshold",
        type=float,
        default=0.8,
        help="similarity-mode match threshold (ignored with "
        "--blocking key)",
    )
    stream_p.add_argument(
        "--block-retention",
        type=int,
        default=None,
        help="similarity mode: keep only the newest N members per "
        "block (rotation), bounding per-arrival matching cost "
        "(default: unbounded)",
    )
    stream_p.add_argument(
        "--stats",
        action="store_true",
        help="print one machine-readable JSON line of counters per "
        "batch (candidate pairs, values/bytes shipped to shards, "
        "questions, reuse)",
    )
    stream_p.add_argument(
        "--metrics",
        help="record the run's observability stream (batch rows, "
        "events, a final metrics snapshot) to this JSON-lines file; "
        "summarize it later with `repro stats --metrics FILE`",
    )
    stream_p.add_argument(
        "--trace",
        action="store_true",
        help="also record one span row per timed stage — including "
        "shard-worker spans re-attached under their batch parent — "
        "(requires --metrics; render with `repro stats --trace-tree`)",
    )
    stream_p.add_argument(
        "--profile",
        metavar="OUT",
        help="sample the main thread's stack (~200 Hz) for the whole "
        "run and write span-attributed collapsed-stack rows to this "
        "JSON-lines file (flamegraph-ready)",
    )
    stream_p.add_argument(
        "--decision-log",
        help="JSON-lines file for durable oracle verdicts (default: "
        "<registry>/<name>/decisions.jsonl when --registry is given); "
        "with --columns it names the *directory* holding the "
        "per-column decisions-<column>.jsonl logs",
    )
    stream_p.add_argument(
        "--no-decision-log",
        action="store_true",
        help="keep oracle verdicts in memory only (a restarted stream "
        "will re-ask)",
    )
    stream_p.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing registry state instead of resuming from "
        "the latest published model; an existing decision log is "
        "archived (*.pre-fresh-N), not replayed",
    )
    stream_p.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        help="unmatched-rate above which a deeper relearn triggers "
        "(with --columns, one monitor per column relearns only its "
        "own column; default: drift monitoring off)",
    )
    stream_p.add_argument(
        "--drift-window",
        type=int,
        default=5,
        help="batches in the drift monitor's sliding window",
    )

    decisions_p = sub.add_parser(
        "decisions",
        help="inspect and maintain durable oracle-verdict logs "
        "(decisions.jsonl): compact duplicates, diff two logs, audit "
        "health",
    )
    decisions_sub = decisions_p.add_subparsers(
        dest="decisions_command", required=True
    )
    dec_compact = decisions_sub.add_parser(
        "compact",
        help="drop lines replay ignores (orientation duplicates and "
        "exact repeats; first verdict per pair wins) — replaying the "
        "compacted log is byte-for-byte equivalent",
    )
    dec_compact.add_argument("log", help="the decisions.jsonl file")
    dec_compact.add_argument(
        "--write",
        action="store_true",
        help="rewrite the log in place (the original is kept as "
        "<log>.pre-compact); default is a dry run printing what would "
        "be dropped",
    )
    dec_diff = decisions_sub.add_parser(
        "diff",
        help="compare two logs by their effective verdicts (first per "
        "pair, either orientation); exits 1 when they differ",
    )
    dec_diff.add_argument("log_a", help="first decisions.jsonl")
    dec_diff.add_argument("log_b", help="second decisions.jsonl")
    dec_audit = decisions_sub.add_parser(
        "audit",
        help="health report: effective verdicts, duplicate and "
        "conflicting lines, asked vs inferred split, tail damage; "
        "exits 1 on conflicts or damage",
    )
    dec_audit.add_argument("log", help="the decisions.jsonl file")
    dec_audit.add_argument(
        "--json",
        action="store_true",
        help="emit the report as one JSON object instead of text",
    )

    top_p = sub.add_parser(
        "top",
        help="live terminal monitor: tail a --metrics JSON-lines file "
        "and render per-stage p50/p95/p99, shard busy fractions, "
        "drift events, and the questions-asked rate, refreshing "
        "in place",
    )
    top_p.add_argument(
        "--metrics",
        required=True,
        help="the JSON-lines file a concurrent `repro stream "
        "--metrics` run is appending to",
    )
    top_p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between refreshes",
    )
    top_p.add_argument(
        "--once",
        action="store_true",
        help="render one plain frame (no ANSI repaint) and exit — the "
        "scriptable form",
    )
    top_p.add_argument(
        "--refreshes",
        type=int,
        default=None,
        help="exit after this many repaints (default: run until `q` "
        "or Ctrl-C)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="perf-trajectory gates over the machine-readable BENCH "
        "history in benchmarks/results/",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="compare the latest row of every baselined series "
        "against the committed baseline; exit non-zero on regression "
        "(the CI perf gate)",
    )
    bench_check.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding the BENCH_*.json history",
    )
    bench_check.add_argument(
        "--baseline",
        default="benchmarks/baseline.json",
        help="committed baseline file (write one with `repro bench "
        "baseline --write`)",
    )
    bench_check.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="multiplicative tolerance: a lower-is-better series "
        "fails above baseline*T, a higher-is-better one below "
        "baseline/T",
    )
    bench_base = bench_sub.add_parser(
        "baseline",
        help="compute the per-series medians (and direction) from the "
        "recorded history; --write commits them as the reference",
    )
    bench_base.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding the BENCH_*.json history",
    )
    bench_base.add_argument(
        "--max-spread",
        type=float,
        default=4.0,
        help="exclude series whose history already varies by more "
        "than this factor (too noisy to gate)",
    )
    bench_base.add_argument(
        "--write",
        nargs="?",
        const="benchmarks/baseline.json",
        default=None,
        metavar="PATH",
        help="write the baseline file (default path "
        "benchmarks/baseline.json when given without a value)",
    )
    return parser


def _resolve_seed(args) -> int:
    """The run's seed; unseeded runs pick one and *print* it so the
    exact run can be reproduced from its logs."""
    if args.seed is None:
        args.seed = random.SystemRandom().randrange(2**31)
        print(
            f"seed: {args.seed} (picked at random; rerun with "
            f"--seed {args.seed} to reproduce)"
        )
    return args.seed


def _make_dataset(args):
    maker = DATASETS[args.dataset]
    return maker(scale=args.scale, seed=_resolve_seed(args))


def _cmd_stats_metrics(args) -> int:
    """``repro stats --metrics FILE``: summarize (and optionally
    schema-check or trace-tree-render) a recorded observability
    stream."""
    from .obs.summary import (
        format_summary,
        format_trace_tree,
        iter_rows,
        summarize,
        validate_rows,
    )

    try:
        rows = list(iter_rows(args.metrics))
    except FileNotFoundError:
        raise SystemExit(f"error: no such metrics file: {args.metrics}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.check:
        problems = validate_rows(rows)
        if problems:
            for problem in problems:
                print(f"schema violation: {problem}", file=sys.stderr)
            print(
                f"{args.metrics}: {len(problems)} schema violation(s) "
                f"in {len(rows)} rows",
                file=sys.stderr,
            )
            return 1
        print(f"{args.metrics}: {len(rows)} rows, schema OK")
    if args.trace_tree:
        print(format_trace_tree(rows))
        return 0
    print(format_summary(summarize(rows)))
    return 0


def cmd_stats(args) -> int:
    if args.metrics:
        return _cmd_stats_metrics(args)
    if args.check:
        raise SystemExit("error: --check requires --metrics FILE")
    if args.trace_tree:
        raise SystemExit("error: --trace-tree requires --metrics FILE")
    dataset = _make_dataset(args)
    stats = dataset_stats(dataset.table, dataset.column, dataset.labeler())
    print(f"dataset: {dataset.name} ({dataset.table})")
    print(
        f"cluster size avg/min/max: {stats.avg_cluster_size:.1f}"
        f"/{stats.min_cluster_size}/{stats.max_cluster_size}"
    )
    print(f"distinct value pairs: {stats.distinct_value_pairs}")
    print(
        f"variant pairs: {stats.variant_pair_pct:.1%}   "
        f"conflict pairs: {stats.conflict_pair_pct:.1%}"
    )
    return 0


def cmd_groups(args) -> int:
    dataset = _make_dataset(args)
    standardizer = Standardizer(dataset.fresh_table(), dataset.column)
    feed = standardizer.default_feed()
    for rank in range(1, args.top + 1):
        group = feed.next_group()
        if group is None:
            break
        print(f"Group {rank} - {group.size} replacements")
        print(f"  program: {group.program.describe()}")
        for member in group.replacements[: args.members]:
            print(f"    {member}")
        if group.size > args.members:
            print(f"    ... and {group.size - args.members} more")
        print()
    return 0


def cmd_standardize(args) -> int:
    dataset = _make_dataset(args)
    series = run_method_series(
        dataset,
        "group",
        budget=args.budget,
        sample_size=args.sample_size,
        oracle_error_rate=args.error_rate,
    )
    for point in series.points:
        if point.confirmed % max(1, args.budget // 5) == 0:
            print(
                f"{point.confirmed:4d} groups  precision={point.precision:.3f}  "
                f"recall={point.recall:.3f}  mcc={point.mcc:.3f}"
            )
    final = series.final()
    print(
        f"final ({final.confirmed} groups): precision={final.precision:.3f} "
        f"recall={final.recall:.3f} mcc={final.mcc:.3f}"
    )
    return 0


def cmd_consolidate(args) -> int:
    dataset = _make_dataset(args)
    before, after = run_consolidation(
        dataset, budget=args.budget, fusion=args.fusion
    )
    print(f"{args.fusion} golden-record precision (entity-level):")
    print(f"  before standardization: {before.precision:.3f}")
    print(f"  after  standardization: {after.precision:.3f}")
    return 0


def _load_model(args) -> TransformationModel:
    """The model named by the CLI's ``--model FILE`` or ``--registry
    DIR --name NAME [--model-version N]`` flags."""
    try:
        if args.model:
            return TransformationModel.load(args.model)
        if args.registry and args.name:
            return ModelRegistry(args.registry).load(
                args.name, args.model_version
            )
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except (ValueError, KeyError, re.error) as exc:
        raise SystemExit(f"error: cannot load model: {exc}")
    raise SystemExit(
        "error: pass --model FILE, or --registry DIR with --name NAME"
    )


def cmd_learn(args) -> int:
    dataset = _make_dataset(args)
    table = dataset.fresh_table()
    standardizer = Standardizer(table, dataset.column)
    oracle = GroundTruthOracle(
        dataset.canonical,
        standardizer.store,
        error_rate=args.error_rate,
        seed=args.seed,
    )
    start = time.perf_counter()
    log = standardizer.run(oracle, args.budget)
    elapsed = time.perf_counter() - start
    model = build_model(
        log,
        dataset.column,
        name=args.name or args.dataset,
        config=standardizer.config,
        vocabulary=standardizer.vocabulary,
        provenance={
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "budget": args.budget,
            "oracle": "ground_truth",
            "oracle_error_rate": args.error_rate,
            "learn_seconds": elapsed,
        },
    )
    if args.registry:
        path = ModelRegistry(args.registry).save(model, args.name)
    else:
        path = model.save(args.out or f"{args.dataset.lower()}.model.json")
    print(
        f"learned {log.groups_approved}/{log.groups_confirmed} groups "
        f"({log.cells_changed} cells changed) in {elapsed:.2f}s"
    )
    print(f"model written: {path}")
    return 0


def cmd_apply(args) -> int:
    model = _load_model(args)
    column = args.column or model.column
    start = time.perf_counter()
    if args.input and not args.key:
        # Flat CSV: the compiled O(N) value engine.
        records = read_csv_records(args.input)
        engine = ApplyEngine(model, use_programs=not args.no_programs)
        values = [r.values.get(column, "") for r in records]
        outputs = engine.apply_values(values, workers=args.workers)
        changed = 0
        for record, out in zip(records, outputs):
            if record.values.get(column, "") != out:
                record.values[column] = out
                changed += 1
        elapsed = time.perf_counter() - start
        rows = len(records)
        if args.out:
            write_csv_records(records, args.out)
            print(f"standardized CSV written: {args.out}")
        hits = engine.stats()
        if hits.sharded_values:
            # Per-rule counters live in the worker processes and are
            # not merged back; don't print misleading zeros.
            print(
                f"engine: {hits.sharded_values} unique values sharded "
                f"across {args.workers} workers"
            )
        else:
            print(
                f"engine: exact={hits.exact_hits} "
                f"program={hits.program_hits} "
                f"token={hits.token_hits} untouched={hits.misses}"
            )
        if args.stats:
            payload = hits.as_dict()
            if hits.sharded_values:
                # Per-path counters live in the worker processes and
                # are not merged back; null them rather than emitting
                # false zeros for a run that had hits.
                for key in (
                    "exact_hits",
                    "program_hits",
                    "token_hits",
                    "misses",
                    "cache_hits",
                ):
                    payload[key] = None
            print("stats: " + json.dumps(payload, sort_keys=True))
    else:
        # Clustered input: provenance-aware replay (exact semantics).
        if args.stats:
            print(
                "note: --stats reports value-engine counters; clustered "
                "input replays with provenance semantics instead",
                file=sys.stderr,
            )
        if args.workers or args.no_programs:
            print(
                "note: --workers/--no-programs only affect the value "
                "engine; clustered input replays with exact provenance "
                "semantics (single process, no programs)",
                file=sys.stderr,
            )
        if args.input:
            table = read_csv_clusters(args.input, args.key)
        else:
            table = _make_dataset(args).fresh_table()
        report = ModelReplayer(model).apply(table, column)
        elapsed = time.perf_counter() - start
        rows = table.num_records
        changed = len(dict.fromkeys(report.changed_cells))
        if args.out:
            write_csv_clusters(table, args.out)
            print(f"standardized clusters written: {args.out}")
    rate = rows / elapsed if elapsed > 0 else float("inf")
    print(
        f"applied {model.groups_confirmed}-group model to {rows} rows in "
        f"{elapsed:.3f}s ({rate:,.0f} rows/s); {changed} cells changed"
    )
    return 0


def _cmd_serve_network(args) -> int:
    """``repro serve --listen``: the concurrent asyncio TCP service."""
    from .obs import NULL_OBS, JsonlSink, Obs
    from .serve.bundle import BundleApplyEngine, load_artifact
    from .serve.registry import slugify
    from .serve.server import (
        GoldenTable,
        ModelSource,
        ServeServer,
        parse_listen,
        run_server,
    )

    try:
        host, port = parse_listen(args.listen)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    obs = None
    if args.metrics:
        obs = Obs(sink=JsonlSink(args.metrics))
        obs.emit(
            {
                "type": "meta",
                "command": "serve",
                "listen": args.listen,
            }
        )

    golden_path = args.golden_log
    engine_args = dict(
        use_programs=not args.no_programs,
        cache_size=args.cache_size,
        obs=obs or NULL_OBS,
    )
    try:
        if args.registry and args.name:
            registry = ModelRegistry(args.registry)
            if args.model_version is not None:
                # A pinned version is served statically, never swapped.
                source = ModelSource(
                    model=load_artifact(
                        registry.path(args.name, args.model_version)
                    ),
                    model_version=args.model_version,
                    **engine_args,
                )
            else:
                source = ModelSource(
                    registry=registry, name=args.name, **engine_args
                )
            bundle = isinstance(source.current()[1], BundleApplyEngine)
            if golden_path is None and bundle:
                golden_path = (
                    registry.root / slugify(args.name) / "golden-deltas.jsonl"
                )
        elif args.model:
            source = ModelSource(
                model=load_artifact(args.model), **engine_args
            )
        else:
            raise SystemExit(
                "error: pass --model FILE, or --registry DIR with --name NAME"
            )
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except (ValueError, KeyError, re.error) as exc:
        raise SystemExit(f"error: cannot load model: {exc}")

    server = ServeServer(
        source,
        golden=GoldenTable(golden_path) if golden_path else None,
        obs=obs,
        poll_interval=args.poll_interval,
        idle_timeout=args.idle_timeout or None,
        max_request_bytes=args.max_request_bytes,
        snapshot_interval=args.snapshot_interval,
    )

    def banner(bound_host: str, bound_port: int) -> None:
        # Parseable by supervisors/tests launching with port 0; stderr
        # so stdout stays free (the protocol lives on the socket).
        print(f"listening on {bound_host}:{bound_port}", file=sys.stderr)
        sys.stderr.flush()

    try:
        code = run_server(server, host, port, banner=banner)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if obs is not None:
            obs.close()
    return code


def cmd_serve(args) -> int:
    if args.listen:
        return _cmd_serve_network(args)
    model = _load_model(args)
    engine = ApplyEngine(
        model,
        use_programs=not args.no_programs,
        cache_size=args.cache_size,
    )
    # The banner goes to stderr: stdout carries only protocol lines.
    print(
        f"serving {model.describe()}; one JSON request per line "
        "(op: apply/ping/stats/shutdown)",
        file=sys.stderr,
    )
    served = serve_forever(engine)
    print(f"served {served} requests", file=sys.stderr)
    return 0


def _make_obs(args):
    """The stream run's observability context (:data:`NULL_OBS` unless
    ``--metrics`` asks for a recording).

    ``--profile`` without ``--metrics`` still gets a real (in-memory)
    context: the profiler attributes samples to the active span, which
    needs a live tracer stack even when no rows are recorded.
    """
    from .obs import NULL_OBS, JsonlSink, MemorySink, Obs

    if args.trace and not args.metrics:
        raise SystemExit("error: --trace requires --metrics FILE")
    if not args.metrics:
        if getattr(args, "profile", None):
            return Obs(sink=MemorySink())
        return NULL_OBS
    return Obs(sink=JsonlSink(args.metrics), trace=args.trace)


def _make_profiler(args, obs):
    """A started :class:`~repro.obs.profiler.SamplingProfiler` when
    ``--profile OUT`` was given, else ``None``."""
    if not getattr(args, "profile", None):
        return None
    from .obs.profiler import SamplingProfiler

    profiler = SamplingProfiler(
        tracer=obs.tracer if obs.enabled else None
    )
    profiler.start()
    return profiler


def _finish_profiler(profiler, args) -> None:
    if profiler is None:
        return
    profiler.stop()
    profiler.write(args.profile)
    print(
        f"profile written: {args.profile} "
        f"({profiler.samples} samples; collapsed stacks, "
        "flamegraph-ready)"
    )


def _resolve_lsh_params(args) -> Tuple[int, int]:
    """The effective LSH ``(bands, rows)`` for a similarity-mode run.

    Explicit ``--lsh-bands`` / ``--lsh-rows`` win; any flag left unset
    is derived from ``--similarity-threshold`` via the S-curve
    (:func:`~repro.resolution.blocking.derive_lsh_params`), so the
    collision cliff lands at the match threshold instead of wherever
    a fixed default happens to put it.  Prints the derived shape (to
    stderr) when LSH blocking is actually in play, so runs are
    reproducible from their logs.
    """
    bands, rows = args.lsh_bands, args.lsh_rows
    if bands is None or rows is None:
        try:
            derived_bands, derived_rows = derive_lsh_params(
                args.similarity_threshold
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if bands is None:
            bands = derived_bands
        if rows is None:
            rows = derived_rows
        if "lsh" in args.blocking:
            print(
                f"lsh: bands={bands} rows={rows} (derived from "
                f"--similarity-threshold {args.similarity_threshold}; "
                "pass --lsh-bands/--lsh-rows to override)",
                file=sys.stderr,
            )
    return bands, rows


def cmd_stream(args) -> int:
    """``repro stream``: one ``--dataset`` column, or golden records
    over ``--columns a,b,c``; both run the same batch lifecycle."""
    from .datagen.stream import dataset_stream, golden_stream
    from .fusion import accu, majority, truthfinder
    from .serve.bundle import BundleRegistry
    from .stream import (
        DriftMonitor,
        GoldenStreamConsolidator,
        StreamConsolidator,
        golden_ground_truth_oracle_factory,
        ground_truth_oracle_factory,
    )

    if args.columns:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        try:
            stream = golden_stream(
                batches=args.batches,
                n_clusters=max(8, round(200 * args.scale)),
                columns=columns,
                seed=_resolve_seed(args),
            )
        except ValueError as exc:  # unknown or missing column names
            raise SystemExit(f"error: {exc}")
        source = {"columns": columns}
        label = f"{len(columns)} columns: {', '.join(columns)}"
    else:
        # The golden-only flags must not silently no-op in
        # single-column mode.
        for flag, value in (
            ("--golden-out", args.golden_out),
            ("--fusion", args.fusion),
        ):
            if value is not None:
                raise SystemExit(
                    f"error: {flag} requires --columns (multi-column "
                    "golden-record mode)"
                )
        dataset = _make_dataset(args)
        stream = dataset_stream(
            dataset, batches=args.batches, seed=args.seed
        )
        columns = [stream.column]
        source = {"dataset": args.dataset, "column": stream.column}
        label = dataset.name
    obs = _make_obs(args)
    meta = {
        "type": "meta",
        "command": "stream",
        **source,
        "scale": args.scale,
        "seed": args.seed,
        "batches": args.batches,
        "shards": args.shards,
        "budget": args.budget,
        "question_order": args.question_order,
        "blocking": args.blocking,
    }
    if args.columns:
        meta["fusion"] = args.fusion or "majority"
    obs.emit(meta)

    kwargs = dict(
        budget_per_batch=args.budget,
        use_engine=not args.no_engine,
        shards=args.shards,
        block_retention=args.block_retention,
        persist_decisions=not args.no_decision_log,
        resume=not args.fresh,
        obs=obs,
        question_order=args.question_order,
    )
    if args.blocking == "key":
        kwargs["key_attribute"] = stream.key_column
    else:
        # Similarity mode: resolve arrivals by blocked matching on the
        # (first) consolidated column instead of the synthetic key.
        kwargs["attribute"] = columns[0]
        kwargs["similarity_threshold"] = args.similarity_threshold
        bands, rows = _resolve_lsh_params(args)
        kwargs["block_keys"] = make_block_keys(
            args.blocking,
            bands=bands,
            rows=rows,
            shingle=args.lsh_shingle,
        )
    monitors = {}
    if args.drift_threshold is not None:
        monitors = {
            column: DriftMonitor(
                window=args.drift_window,
                miss_rate_threshold=args.drift_threshold,
            )
            for column in columns
        }
    if args.columns:
        artifact = "bundle"
        consolidator = GoldenStreamConsolidator(
            columns=columns,
            oracle_factory=golden_ground_truth_oracle_factory(
                stream.canonical_by_rid,
                seed=args.seed,
                error_rate=args.error_rate,
            ),
            fusion={
                "majority": majority.fuse,
                "truthfinder": truthfinder.fuse,
                "accu": accu.fuse,
            }[args.fusion or "majority"],
            registry=(
                BundleRegistry(args.registry) if args.registry else None
            ),
            bundle_name=args.name or "-".join(columns),
            monitors=monitors,
            decision_log_dir=args.decision_log,
            **kwargs,
        )
    else:
        artifact = "model"
        consolidator = StreamConsolidator(
            column=stream.column,
            oracle_factory=ground_truth_oracle_factory(
                stream.canonical_by_rid,
                seed=args.seed,
                error_rate=args.error_rate,
            ),
            registry=ModelRegistry(args.registry) if args.registry else None,
            model_name=args.name or args.dataset.lower(),
            monitor=monitors.get(stream.column),
            decision_log=args.decision_log,
            **kwargs,
        )
    print(
        f"streaming {stream.num_records} records in "
        f"{len(stream.batches)} batches ({label})"
        + (f", {args.shards} learner shards" if args.shards > 1 else "")
        + (
            f", {args.blocking} blocking"
            if args.blocking != "key"
            else ""
        )
    )
    start = time.perf_counter()
    profiler = _make_profiler(args, obs)
    try:
        with consolidator:
            for batch in stream.batches:
                report = consolidator.process_batch(batch)
                print(f"{report.describe()}  [{report.seconds:.3f}s]")
                if args.stats:
                    print(
                        "stats: "
                        + json.dumps(report.stats(), sort_keys=True)
                    )
            if consolidator.resumed_from is not None:
                replayed = sum(
                    standardizer.decisions.replayed
                    for standardizer in consolidator.standardizers.values()
                )
                print(
                    f"resumed from {artifact} "
                    f"v{consolidator.resumed_from} "
                    f"(+{replayed} replayed verdicts)"
                )
            golden = consolidator.golden_records() if args.columns else []
    finally:
        # A crashed stream still flushes its final snapshot and closes
        # the sink — partial recordings beat silently truncated ones.
        _finish_profiler(profiler, args)
        obs.flush_snapshot()
        obs.close()
    elapsed = time.perf_counter() - start
    print(
        f"stream done in {elapsed:.2f}s: "
        + (f"{len(golden)} golden records, " if args.columns else "")
        + f"{consolidator.questions_asked} oracle questions asked, "
        f"{consolidator.questions_saved} saved by reuse, "
        + (
            f"{consolidator.clusters_refused} cluster re-fusions, "
            if args.columns
            else ""
        )
        + f"{artifact} at v{consolidator.bundle_version}"
    )
    if args.metrics:
        print(
            f"metrics recorded: {args.metrics} "
            f"(summarize with `repro stats --metrics {args.metrics}`)"
        )
    if args.golden_out:
        with open(args.golden_out, "w", encoding="utf-8") as handle:
            for record in golden:
                handle.write(
                    json.dumps(
                        {
                            "cluster": record.cluster,
                            "key": record.key,
                            **record.values,
                        },
                        ensure_ascii=False,
                        sort_keys=True,
                    )
                    + "\n"
                )
        print(f"golden records written: {args.golden_out}")
    if args.registry:
        print(f"{artifact} versions published under: {args.registry}")
        for column in columns:
            path = consolidator.decision_log_path(column)
            if path is not None:
                print(f"decision log: {path}")
    return 0


def cmd_top(args) -> int:
    from pathlib import Path

    from .obs.top import run_top

    if args.once and not Path(args.metrics).exists():
        raise SystemExit(f"error: no such metrics file: {args.metrics}")
    return run_top(
        args.metrics,
        interval=args.interval,
        once=args.once,
        max_refreshes=args.refreshes,
    )


def cmd_bench(args) -> int:
    from .obs import baseline as bench_baseline

    if args.bench_command == "baseline":
        base = bench_baseline.build_baseline(
            args.results_dir, max_spread=args.max_spread
        )
        metrics = base["metrics"]
        for series, entry in sorted(metrics.items()):
            print(
                f"{series}: baseline={entry['baseline']:.6g} "
                f"({entry['direction']} is better, "
                f"{entry['points']} points)"
            )
        for series, reason in sorted(base["skipped"].items()):
            print(f"skipped {series}: {reason}")
        if not metrics:
            print(f"no usable series under {args.results_dir}")
            return 1
        if args.write:
            bench_baseline.save_baseline(base, args.write)
            print(
                f"baseline written: {args.write} "
                f"({len(metrics)} series)"
            )
        return 0

    try:
        base = bench_baseline.load_baseline(args.baseline)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no baseline file: {args.baseline} "
            "(commit one with `repro bench baseline --write`)"
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    results, missing = bench_baseline.check(
        args.results_dir, base, tolerance=args.tolerance
    )
    for result in results:
        print(result.describe())
    for series in missing:
        print(f"no data    {series}: no row in {args.results_dir}")
    regressions = [result for result in results if not result.ok]
    print(
        f"bench check: {len(results)} series checked, "
        f"{len(regressions)} regression(s), {len(missing)} without "
        f"data (tolerance {args.tolerance:g}x)"
    )
    return 1 if regressions else 0


def cmd_decisions(args) -> int:
    """``repro decisions compact|diff|audit``: offline maintenance of
    durable verdict logs (see docs/oracle-scheduling.md)."""
    from .stream.decision_tools import (
        audit_log,
        compact_log,
        diff_logs,
        read_log,
    )

    def load(path):
        try:
            return read_log(path)
        except FileNotFoundError:
            raise SystemExit(f"error: no such log: {path}")
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    if args.decisions_command == "compact":
        entries, damage = load(args.log)
        kept, dropped = compact_log(entries)
        for entry in dropped:
            print(f"drop line {entry.line}: {entry.to_json()}")
        print(
            f"{args.log}: {len(entries)} lines, {len(kept)} effective, "
            f"{len(dropped)} droppable"
            + (f" ({damage})" if damage else "")
        )
        if args.write and (dropped or damage):
            path = Path(args.log)
            backup = path.with_name(path.name + ".pre-compact")
            path.replace(backup)
            with open(path, "w", encoding="utf-8") as handle:
                for entry in kept:
                    handle.write(entry.to_json() + "\n")
            print(f"rewrote {path} (original kept as {backup})")
        elif args.write:
            print("nothing to drop; log left untouched")
        return 0

    if args.decisions_command == "diff":
        a_entries, _ = load(args.log_a)
        b_entries, _ = load(args.log_b)
        diff = diff_logs(a_entries, b_entries)
        for entry in diff["only_a"]:
            print(f"only {args.log_a}: {entry.to_json()}")
        for entry in diff["only_b"]:
            print(f"only {args.log_b}: {entry.to_json()}")
        for a_entry, b_entry in diff["conflicts"]:
            print(
                f"conflict on {a_entry.pair}: "
                f"a={a_entry.to_json()} b={b_entry.to_json()}"
            )
        differs = any(diff.values())
        print(
            f"{len(diff['only_a'])} only in a, "
            f"{len(diff['only_b'])} only in b, "
            f"{len(diff['conflicts'])} conflicting"
        )
        return 1 if differs else 0

    # audit
    entries, damage = load(args.log)
    report = audit_log(entries, damage)
    if args.json:
        print(
            json.dumps(
                {
                    **report,
                    "duplicates": len(report["duplicates"]),
                    "conflicts": len(report["conflicts"]),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"{args.log}:")
        print(f"  lines:     {report['entries']}")
        print(f"  effective: {report['effective']}")
        print(
            f"  verdicts:  {report['approved']} approved, "
            f"{report['rejected']} rejected"
        )
        for source, count in report["by_source"].items():
            print(f"  source:    {source} x{count}")
        for entry in report["duplicates"]:
            print(f"  duplicate line {entry.line}: {entry.to_json()}")
        for first, later in report["conflicts"]:
            print(
                f"  conflict: line {later.line} {later.to_json()} "
                f"vs line {first.line} {first.to_json()} (first wins)"
            )
        if report["damage"]:
            print(f"  damage:    {report['damage']}")
    unhealthy = bool(report["conflicts"]) or report["damage"] is not None
    return 1 if unhealthy else 0


COMMANDS = {
    "stats": cmd_stats,
    "groups": cmd_groups,
    "standardize": cmd_standardize,
    "consolidate": cmd_consolidate,
    "learn": cmd_learn,
    "apply": cmd_apply,
    "serve": cmd_serve,
    "stream": cmd_stream,
    "decisions": cmd_decisions,
    "top": cmd_top,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
