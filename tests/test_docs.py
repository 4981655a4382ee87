"""The documentation cannot rot: links resolve, commands exist.

Two contracts over README.md and ``docs/*.md`` (both also run as the
CI ``docs`` job):

* every relative markdown link points at a file that exists (and, with
  a ``#fragment``, at a heading that exists in the target);
* every ``repro <subcommand>`` mentioned in code spans or fenced code
  blocks is a real CLI subcommand (``python -m repro <cmd> --help``
  exits 0).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md"] + list((REPO / "docs").glob("*.md"))
)

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CLI_MENTION_RE = re.compile(
    # `repro <cmd>` / `python -m repro <cmd>`, but not `from repro
    # import ...` or `import repro` in library snippets.
    r"(?:^|[\s;($])(?<!from )(?<!import )(?:python -m )?"
    r"repro\s+([a-z][a-z0-9_-]*)"
)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    slug = heading.strip().lower().replace("`", "")
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def iter_links(markdown: str):
    for match in LINK_RE.finditer(markdown):
        target = match.group(2)
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
            continue
        yield target


def test_doc_suite_exists():
    """The documented entry points of the suite itself."""
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "paper-mapping.md").is_file()
    assert len(DOC_FILES) >= 3  # README + the two docs pages


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(d.relative_to(REPO)) for d in DOC_FILES]
)
def test_relative_links_resolve(doc):
    markdown = doc.read_text(encoding="utf-8")
    for target in iter_links(markdown):
        path_part, _, fragment = target.partition("#")
        resolved = (
            (doc.parent / path_part).resolve() if path_part else doc
        )
        assert resolved.exists(), (
            f"{doc.relative_to(REPO)}: broken link {target!r} "
            f"({resolved} does not exist)"
        )
        if fragment and resolved.suffix == ".md":
            headings = HEADING_RE.findall(
                resolved.read_text(encoding="utf-8")
            )
            slugs = {github_slug(h) for h in headings}
            assert fragment in slugs, (
                f"{doc.relative_to(REPO)}: link {target!r} names a "
                f"missing anchor (have: {sorted(slugs)})"
            )


def mentioned_subcommands():
    """Every ``repro <cmd>`` inside code spans / fenced blocks."""
    commands = set()
    for doc in DOC_FILES:
        markdown = doc.read_text(encoding="utf-8")
        snippets = FENCE_RE.findall(markdown)
        snippets += INLINE_CODE_RE.findall(FENCE_RE.sub("", markdown))
        for snippet in snippets:
            for match in CLI_MENTION_RE.finditer(snippet):
                commands.add(match.group(1))
    return sorted(commands)


def test_cli_mentions_are_real_subcommands():
    commands = mentioned_subcommands()
    # Guard against the extraction regex rotting into a no-op.
    assert {"stream", "apply", "learn"} <= set(commands), commands
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, "--help"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
            timeout=60,
        )
        assert proc.returncode == 0, (
            f"docs mention `repro {command}` but "
            f"`python -m repro {command} --help` failed:\n{proc.stderr}"
        )


def test_docs_mention_the_sharded_stream():
    """The quickstart teaches the current flagship flags."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "--shards" in readme
    assert "docs/architecture.md" in readme
    assert "docs/paper-mapping.md" in readme


#: Flags the docs teach for the LSH / shard-resident and multi-column
#: golden-record releases; each must appear in the documentation AND
#: be a real `repro stream` flag.
STREAM_FLAGS = (
    "--blocking",
    "--lsh-bands",
    "--lsh-rows",
    "--lsh-shingle",
    "--similarity-threshold",
    "--block-retention",
    "--stats",
    "--shards",
    "--columns",
    "--golden-out",
    "--fusion",
    "--metrics",
    "--trace",
    "--profile",
    "--question-order",
)


def test_documented_stream_flags_exist():
    """`repro stream --help` must offer every flag the docs teach, and
    the flagship ones must actually be taught somewhere."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "stream", "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for flag in STREAM_FLAGS:
        assert flag in proc.stdout, (
            f"documented flag {flag} missing from `repro stream --help`"
        )
    docs_text = "\n".join(
        doc.read_text(encoding="utf-8") for doc in DOC_FILES
    )
    for flag in (
        "--blocking",
        "--stats",
        "--block-retention",
        "--columns",
        "--golden-out",
    ):
        assert flag in docs_text, f"{flag} is undocumented"


def test_docs_cover_the_lsh_blocking_mode():
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "--blocking lsh" in arch
    assert "MinHash" in arch
    mapping = (REPO / "docs" / "paper-mapping.md").read_text(
        encoding="utf-8"
    )
    assert "lsh_keys" in mapping
    assert "Shard-resident" in mapping


def test_docs_cover_observability():
    """The observability release is taught where users will look."""
    obs_doc = REPO / "docs" / "observability.md"
    assert obs_doc.is_file()
    obs_text = obs_doc.read_text(encoding="utf-8")
    assert "--metrics" in obs_text and "--trace" in obs_text
    assert "repro stats --metrics" in obs_text
    # The documented row types match the validator's schema.
    from repro.obs.summary import ROW_TYPES

    for row_type in ROW_TYPES:
        assert f'"type": "{row_type}"' in obs_text, (
            f"row type {row_type!r} undocumented in observability.md"
        )
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/observability.md" in readme
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "observability.md" in arch


def test_docs_cover_the_multi_column_golden_stream():
    """The multi-column release is taught where users will look."""
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "--columns" in arch
    assert "GoldenStreamConsolidator" in arch
    assert "ModelBundle" in arch
    mapping = (REPO / "docs" / "paper-mapping.md").read_text(
        encoding="utf-8"
    )
    assert "golden_stream" in mapping
    assert "test_golden_stream" in mapping
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "--columns" in readme and "--golden-out" in readme


def test_docs_cover_the_network_serving_tier():
    """The serving release is taught where users will look, and the
    documented flags are real `repro serve` flags."""
    serving = REPO / "docs" / "serving.md"
    assert serving.is_file()
    text = serving.read_text(encoding="utf-8")
    for needle in (
        "--listen",
        "--poll-interval",
        "--golden-log",
        '"op": "subscribe"',
        '"push": "golden"',
        "exactly one reply",
        "serve.reload_errors",
        "FaultInjector",
    ):
        assert needle in text, f"{needle} undocumented in serving.md"
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for flag in (
        "--listen",
        "--poll-interval",
        "--golden-log",
        "--idle-timeout",
        "--max-request-bytes",
        "--metrics",
    ):
        assert flag in proc.stdout, (
            f"documented flag {flag} missing from `repro serve --help`"
        )
    # Freshness has one mechanism (the registry poller), the
    # artifact's kind picks model vs bundle, and the engine keeps one
    # memo: these flags are gone.
    for removed in ("--follow", "--ttl", "--bundle", "--cache-size"):
        assert removed not in proc.stdout
        for doc in DOC_FILES:
            assert removed not in doc.read_text(encoding="utf-8"), (
                f"{doc.name} still mentions the removed {removed}"
            )
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/serving.md" in readme and "--listen" in readme
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "serving.md" in arch and "ModelSource" in arch


def test_observability_catalog_covers_the_batch_counts():
    """Every registry counter the batch-count declaration emits has a
    catalog row, and the documented batch row shows every row key."""
    from repro.stream import BatchReport
    from repro.stream.golden import ORACLE_COUNTS

    obs_text = (REPO / "docs" / "observability.md").read_text(
        encoding="utf-8"
    )
    report = BatchReport(index=0, records=0)
    for name in {**report.counts(), **report.fusion_counts()}:
        space = "oracle" if name in ORACLE_COUNTS else "stream"
        assert f"| `{space}.{name}` |" in obs_text, (
            f"{space}.{name} missing from the observability catalog"
        )
    for key in report.stats():
        assert f'"{key}":' in obs_text, (
            f"batch row key {key!r} missing from the documented row"
        )


def test_docs_cover_the_oracle_scheduling_release():
    """Yield-ranked scheduling and the decisions tooling are taught
    where users will look, and the taught invocations are real."""
    sched = REPO / "docs" / "oracle-scheduling.md"
    assert sched.is_file()
    text = sched.read_text(encoding="utf-8")
    for needle in (
        "--question-order yield",
        "member_yield",
        '"source": "inferred"',
        "repro decisions audit",
        "repro decisions compact",
        "repro decisions diff",
        "oracle.questions_saved",
        "oracle.inferred_verdicts",
        "byte-identical",
    ):
        assert needle in text, f"{needle} undocumented in oracle-scheduling.md"
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/oracle-scheduling.md" in readme
    assert "--question-order" in readme
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "--question-order yield" in arch
    assert "oracle-scheduling.md" in arch
    # The taught `repro decisions` subcommands parse.
    from repro.cli import build_parser

    parser = build_parser()
    for sub in ("compact", "diff", "audit"):
        args_by_sub = {
            "compact": ["decisions", "compact", "log.jsonl"],
            "diff": ["decisions", "diff", "a.jsonl", "b.jsonl"],
            "audit": ["decisions", "audit", "--json", "log.jsonl"],
        }
        assert parser.parse_args(args_by_sub[sub]).decisions_command == sub


def test_docs_cover_the_tracing_release():
    """Trace propagation, profiler, top, and bench gates are taught."""
    obs_text = (REPO / "docs" / "observability.md").read_text(
        encoding="utf-8"
    )
    for needle in (
        "--trace-tree",
        "--profile",
        "repro top",
        "repro bench check",
        "shard.resolve",
        "shard.match",
        "shard.derive",
        "parent_id",
    ):
        assert needle in obs_text, f"{needle} undocumented"
    arch = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "--trace-tree" in arch
    assert "repro bench check" in arch
