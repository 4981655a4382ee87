"""Smoke test: every script in ``examples/`` must run.

Each example is executed in a subprocess at a small scale so the
documented entry points cannot silently rot.  A new example must either
run with no arguments or be registered here with its smoke arguments.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

#: Per-script smoke arguments (small scales / throwaway workdirs).
SMOKE_ARGS = {
    "quickstart.py": [],
    "author_groups_demo.py": ["0.05"],
    "address_pipeline.py": ["0.04"],
    "resolution_to_golden.py": [],
    "csv_workflow.py": [],  # workdir appended at run time
    "learn_apply_serve.py": ["0.05"],
    "streaming_consolidation.py": ["0.05"],
}

#: Minimum expected stdout fragment, proving the script did real work.
EXPECTED_OUTPUT = {
    "quickstart.py": "group of",
    "author_groups_demo.py": "Group 1",
    "address_pipeline.py": "final:",
    "resolution_to_golden.py": "golden records:",
    "csv_workflow.py": "standardized:",
    "learn_apply_serve.py": "serve protocol:",
    "streaming_consolidation.py": "saved by reusing",
}


def all_example_scripts():
    return sorted(p.name for p in EXAMPLES.glob("*.py"))


def test_every_example_is_registered():
    """A new example must be added to the smoke table above."""
    assert set(all_example_scripts()) == set(SMOKE_ARGS)


@pytest.mark.parametrize("script", sorted(SMOKE_ARGS))
def test_example_runs(script, tmp_path):
    args = list(SMOKE_ARGS[script])
    if script == "csv_workflow.py":
        args.append(str(tmp_path))
    # A private temp dir: an example must clean up what it puts there.
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    env = dict(os.environ, TMPDIR=str(temp_root))
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
        cwd=tmp_path,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert EXPECTED_OUTPUT[script] in result.stdout
    assert list(temp_root.iterdir()) == []
