"""Check that the benchmark is steady across seeds.

Runs one workload once per seed, one run after another, and prints
each end-to-end metric's median and spread (the distance between the
first and third quartile as a share of the median) next to its bound::

    python3 perfbench/steady.py --workload golden_stream \\
        --seeds 1 2 3 4 5

A metric fails when its spread reaches its bound, the share by which
it may worsen before a change counts as a regression (``setup_s`` is
exempt from the spread rule, as in the acceptance check).  A spread
above a third of its bound passes but is marked: it leaves little room
to tell a regression from noise.  Repeating one seed
(``--seeds 1 1 1 1 1``) separates the machine's noise from the seeds'
effect.  Exits 1 when any run fails or any metric fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import BENCHMARK, END_TO_END, median, spread

RUN = Path(__file__).resolve().with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    values = {metric.name: [] for metric in END_TO_END}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable, str(RUN),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            cwd=RUN.parent.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        for name, reading in result["metrics"].items():
            values[name].append(reading["value"])
        print(
            f"seed {seed}: slowdown={info['gauge_slowdown']:.3f} "
            + " ".join(
                f"{name}={reading['value']:.4g}"
                for name, reading in result["metrics"].items()
            ),
            flush=True,
        )
    if len(args.seeds) < 2 or not ok:
        return 1
    for metric in END_TO_END:
        series = values[metric.name]
        share = spread(series)
        gated = metric.name != "setup_s"
        note = ""
        if gated and share >= metric.bound:
            ok = False
            note = "  <-- FAIL: at or over its bound"
        elif gated and share >= metric.bound / 3:
            note = "  <-- over a third of its bound"
        print(
            f"{metric.name:18s} median={median(series):<12.5g} "
            f"spread={share:7.2%} bound={metric.bound:.2f}{note}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
