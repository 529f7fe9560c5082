"""Steadiness command: do two sets of runs of the same code agree?

Run from the repository root::

    python3 perfbench/steady.py      # 2 sets x 10 seeds x 3 workloads
    python3 perfbench/steady.py --runs 5 --workloads serve-mixed

Each run is one ``run.py`` process with its own ``--seed`` (no seed
repeats across runs or sets).  For every workload and end-to-end metric
it prints each set's median, its spread — the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median — and the metric's bound from ``BENCHMARK.json``.
A metric passes when both spreads are within the bound and the two
medians differ by no more than the bound, as a share of the first.
The share of failed operations must be identical in the two sets.
Exit status 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import spec

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = list(spec.END_TO_END)
    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets: List[List[Dict[str, Any]]] = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                run = one_run(workload, seed, args.seconds)
                runs.append(run)
                print(f"  {workload} seed {seed}: " + "  ".join(
                    f"{name}={run['metrics'][name]['value']:.4g}"
                    for name in names
                ), flush=True)
                seed += 1
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs per set")
        shares = []
        for runs in sets:
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            correct = all(run["correct"] for run in runs)
            shares.append((failed, attempted, correct))
            ok = ok and correct
        print("  failed/attempted per set: " + ", ".join(
            f"{failed}/{attempted} (correct={correct})"
            for failed, attempted, correct in shares))
        if len({failed / attempted for failed, attempted, _ in shares}) > 1:
            ok = False
        print(f"  {'metric':<16} {'median 1':>12} {'median 2':>12} "
              f"{'spread 1':>9} {'spread 2':>9} {'moved':>7} {'bound':>6}"
              "  verdict")
        for metric in names:
            series = [[run["metrics"][metric]["value"] for run in runs]
                      for runs in sets]
            first, second = (statistics.median(values) for values in series)
            spreads = [spread(values) for values in series]
            moved = abs(second - first) / first
            bound = spec.END_TO_END[metric]["bound"]
            passed = all(s <= bound for s in spreads) and moved <= bound
            ok = ok and passed
            print(f"  {metric:<16} {first:>12.5g} {second:>12.5g} "
                  f"{spreads[0]:>9.3f} {spreads[1]:>9.3f} {moved:>7.3f} "
                  f"{bound:>6.2f}  {'ok' if passed else 'FAIL'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
