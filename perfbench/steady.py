"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload mixed80_mape --runs 10

Runs ``run.py`` once per seed (1..runs), one process at a time, and
prints per metric the median and the interquartile range as a share of
the median, next to a third of the metric's bound from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    values: dict = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
            check=True, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect: {out.stdout.splitlines()[-2]}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median={med:.5g} spread={(q3 - q1) / med:.3f} (bound/3={bounds[name] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
