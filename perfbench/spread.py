"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload clamr-dense --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed with ``run_seconds`` from
``BENCHMARK.json`` and prints, per metric, the median and the distance
between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound: the target for a steady benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    values: dict = {}
    status = 0
    for seed in _seeds(args.seeds):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        line = json.loads(lines[-1])
        print(f"seed {seed}: correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}", flush=True)
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':28s} {'median':>12s} {'iqr/median':>11s} {'bound/3':>8s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        target = f"{bound / 3:8.3f}" if bound else f"{'-':>8s}"
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:28s} {median:12.6g} {spread:11.4f} {target}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
