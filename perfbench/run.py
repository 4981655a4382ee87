"""The repository benchmark: one command, seed-driven workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot_address --seed 1 \\
        --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public calls in spans and reports
the per-layer metrics.  The last line of standard output is the result
object; the line before it carries the ``info`` fields (workload
constants, sample counts, the published model's sha256).  A failed
correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from metrics import END_TO_END, INFO_FIELDS, PER_LAYER, WORKLOADS, result_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_on_sigterm(signum, frame) -> None:
    # Unwind through the ``finally`` blocks, which remove the run's
    # scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Imported after the path is set: they import the program.
    from common import RunContext
    import workload_oneshot
    import workload_stream

    runner = {
        "oneshot_address": workload_oneshot.run,
        "golden_stream": workload_stream.run,
    }[args.workload]
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    ctx = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        trace_dir=state / "traces",
        src=SRC,
    )
    try:
        outcome = runner(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0
    declared = PER_LAYER if args.trace else END_TO_END
    info = {"workload": args.workload, "seed": args.seed, **outcome.info}
    undeclared = set(info) - {m.name for m in INFO_FIELDS}
    if undeclared:
        raise KeyError(f"undeclared info fields {sorted(undeclared)}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            result_line(
                correct,
                outcome.attempted,
                outcome.failed,
                outcome.metrics,
                declared,
            )
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
