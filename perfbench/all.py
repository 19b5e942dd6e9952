#!/usr/bin/env python3
"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/all.py --seed 1 --seconds 25 --trace 0

Each workload runs in its own process through run.py, one after another.
Exits non-zero if any run fails or reports a failed output check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<48} {metric['value']:>14.4f} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
