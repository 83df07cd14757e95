"""Steadiness command: repeat runs and judge their spread against the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload service_log --runs 10
    python3 perfbench/steady.py --workload sim_recovery --runs 5 --sets 2

Each run is a fresh process of ``run.py`` with its own seed.  For every
metric the command prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread -- the
interquartile distance as a share of the median -- against the metric's
bound in ``BENCHMARK.json``.  With ``--sets 2`` it makes two independent
sets of runs of the same code and also reports how far the second set's
median moved against the first, in the worse direction, and whether the
share of failed operations is the same in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in args.workload:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                result = run_once(workload, seed, args.seconds)
                results.append(result)
                print(
                    f"{workload} set {s + 1} seed {seed}: attempted {result['attempted']} "
                    f"failed {result['failed']} correct {result['correct']}",
                    flush=True,
                )
            sets.append(results)

        print(f"\n{workload}: {args.runs} runs per set, {args.seconds} s each")
        print(f"  {'metric':30s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        medians: dict[str, list[float]] = {}
        for name, meta in metrics.items():
            bound = meta["bound"]
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, spread = summarize(values)
                medians.setdefault(name, []).append(median)
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    all_ok = False
                print(
                    f"  {name:30s} {s + 1:3d} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                    f"{spread:8.2%} {bound:6.2f} {verdict}"
                )
        for s, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"  set {s + 1}: attempted {attempted}, failed {failed}, all correct {correct}")
            all_ok = all_ok and correct
        if args.sets == 2:
            print("  second set against the first (worse direction):")
            for name, meta in metrics.items():
                first, second = medians[name]
                worse = worse_share(first, second, meta["better"])
                ok = worse <= meta["bound"]
                all_ok = all_ok and ok
                print(f"    {name:30s} {worse:+8.2%} {'ok' if ok else 'WORSE THAN BOUND'}")
            shares = [
                sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
                for results in sets
            ]
            same = shares[0] == shares[1]
            print(
                f"    failed share {shares[0]:.6f} / {shares[1]:.6f}: "
                + ("equal" if same else "DIFFERENT")
            )
            all_ok = all_ok and same
    print("\nsteady" if all_ok else "\nNOT STEADY")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
