"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the evaluation
section (Section 8) and prints the measured rows next to the paper's
numbers.  Dataset sizes honour ``REPRO_BENCH_SCALE`` (default 1.0 =
laptop-friendly slices; raise it to stress the system).

Results are also **machine-readable**: every ``bench_<name>.py`` run
appends one JSON line per test (timing, outcome) to
``benchmarks/results/BENCH_<name>.json``, and benchmarks with headline
numbers (speedups, byte counts, throughputs) append richer rows via
:func:`record_result`.  The files are JSON-lines, append-only, and
uploaded as CI artifacts, so the perf trajectory of the repository is
a dataset instead of folklore.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.datagen import address_dataset, authorlist_dataset, journaltitle_dataset
from repro.obs.baseline import DIRECTIONS

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Where the per-benchmark JSON-lines result files accumulate.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Provenance fields newer rows carry; :func:`load_results` backfills
#: them as ``None`` on rows recorded before the field existed, so
#: trajectory consumers never KeyError across schema generations.
PROVENANCE_FIELDS = ("git", "python", "cpus", "scale")

_GIT_SHA: Optional[str] = None
_GIT_SHA_RESOLVED = False


def _git_sha() -> Optional[str]:
    """The repo's short HEAD SHA, or ``None`` outside a usable git
    checkout (results stay recordable from tarballs and CI caches)."""
    global _GIT_SHA, _GIT_SHA_RESOLVED
    if _GIT_SHA_RESOLVED:
        return _GIT_SHA
    _GIT_SHA_RESOLVED = True
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
        if proc.returncode == 0:
            _GIT_SHA = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        _GIT_SHA = None
    return _GIT_SHA


def record_result(
    bench: str, directions: Optional[Dict[str, str]] = None, **fields
) -> dict:
    """Append one result row to ``results/BENCH_<bench>.json``.

    Every row carries the timestamp, bench scale, interpreter, git
    SHA, and CPU count, so rows from different machines/runs/commits
    stay comparable; ``fields`` adds the benchmark's own numbers
    (timings, sizes, speedups).  Rows are JSON-lines — one object per
    line, append-only.

    ``directions`` declares, per field, ``"higher"`` or ``"lower"``
    (which way the number improves) or ``"info"`` (workload constants:
    recorded, never gated).  ``repro bench`` gates only the fields a
    row declares ``higher``/``lower``.
    """
    if directions is not None:
        unknown = sorted(set(directions) - set(fields))
        if unknown:
            raise ValueError(f"{bench}: directions for unrecorded {unknown}")
        invalid = sorted(n for n, way in directions.items() if way not in DIRECTIONS)
        if invalid:
            raise ValueError(f"{bench}: {invalid} not one of {DIRECTIONS}")
        fields["directions"] = directions
    row = {
        "bench": bench,
        "timestamp": round(time.time(), 3),
        "scale": SCALE,
        "python": platform.python_version(),
        "git": _git_sha(),
        "cpus": os.cpu_count(),
        **fields,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{bench}.json"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_results(bench: str) -> List[dict]:
    """Read ``results/BENCH_<bench>.json`` back as a list of rows.

    Backfill-tolerant in both directions: rows recorded before a
    provenance field existed get it as ``None`` (so consumers can rely
    on the current schema), and corrupt lines — a torn tail from a
    killed run, a merge artifact — are skipped instead of sinking the
    whole trajectory.
    """
    path = RESULTS_DIR / f"BENCH_{bench}.json"
    if not path.exists():
        return []
    rows: List[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not isinstance(row, dict):
            continue
        for field in PROVENANCE_FIELDS:
            row.setdefault(field, None)
        rows.append(row)
    return rows


def pytest_runtest_logreport(report):
    """Auto-append a timing row for every benchmark test call, so even
    benchmarks without headline numbers feed the trajectory."""
    if report.when != "call":
        return
    module = Path(str(report.fspath)).stem
    if not module.startswith("bench_"):
        return
    record_result(
        module[len("bench_") :],
        test=report.nodeid.split("::", 1)[-1],
        seconds=round(report.duration, 4),
        outcome=report.outcome,
    )

def synthetic_exact_model(
    num_rules: int, name: str = "synthetic-exact", salt: str = ""
):
    """A model of ``num_rules`` whole-value exact rules, for benchmarks
    that need compile cost proportional to rule count without paying a
    full learning run.

    Programs are constants, so the engine's program index stays empty
    and compiling it builds exactly the exact table the reload benches
    time.
    """
    from repro.core.functions import ConstantStr
    from repro.core.program import Program
    from repro.pipeline.oracle import FORWARD
    from repro.serve.model import (
        ConfirmedGroup,
        ConfirmedMember,
        TransformationModel,
    )

    groups = []
    for i in range(num_rules):
        rhs = f"Clean{salt} Value {i:05d}"
        groups.append(
            ConfirmedGroup(
                program=Program((ConstantStr(rhs),)),
                direction=FORWARD,
                members=(
                    ConfirmedMember(
                        lhs=f"dirty{salt} value {i:05d}", rhs=rhs
                    ),
                ),
            )
        )
    return TransformationModel(name=name, column="value", groups=groups)


#: Per-dataset generator scale at SCALE=1.0 (chosen so the full bench
#: suite completes in minutes on a laptop while preserving the paper's
#: relative shapes).
BASE_SCALES = {
    "AuthorList": 0.5,
    "Address": 0.35,
    "JournalTitle": 0.5,
}

#: Human-verification budgets.  The paper uses 200 / 100 / 100 against
#: its full-size datasets; these are scaled down with the data so the
#: budget remains the binding constraint (budget << #candidates),
#: which is the regime all of Section 8.1's comparisons live in.
BUDGETS = {
    "AuthorList": 80,
    "Address": 100,
    "JournalTitle": 60,
}

#: Checkpoints printed for the figure series.
CHECKPOINTS = {
    "AuthorList": (0, 10, 20, 40, 60, 80),
    "Address": (0, 20, 40, 60, 80, 100),
    "JournalTitle": (0, 10, 20, 30, 45, 60),
}


@pytest.fixture(scope="session")
def authorlist():
    return authorlist_dataset(scale=BASE_SCALES["AuthorList"] * SCALE)


@pytest.fixture(scope="session")
def address():
    return address_dataset(scale=BASE_SCALES["Address"] * SCALE)


@pytest.fixture(scope="session")
def journaltitle():
    return journaltitle_dataset(scale=BASE_SCALES["JournalTitle"] * SCALE)


@pytest.fixture(scope="session")
def all_datasets(authorlist, address, journaltitle):
    return (authorlist, address, journaltitle)


#: Collected report blocks, flushed into pytest's terminal summary so
#: the regenerated tables/figures survive output capturing.
REPORTS = []


def report(text: str = "") -> None:
    print(text)
    REPORTS.append(str(text))


def print_banner(title: str) -> None:
    report()
    report("=" * 72)
    report(title)
    report("=" * 72)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper reproduction report")
    for line in REPORTS:
        for sub in str(line).splitlines() or [""]:
            terminalreporter.write_line(sub)
