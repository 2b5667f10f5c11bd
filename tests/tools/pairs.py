"""Interleaved parent/change pairs of single bench runs, summarised.

For each workload, runs ``bench/run.py --workload W --seed S --seconds N
--trace 0`` from a parent tree and from a change tree, one pair at a
time: each pair gets a fresh seed (``--seed``, ``--seed`` + 1, ...), and
which side runs first alternates from pair to pair.  For each
end-to-end metric ``BENCHMARK.json`` (the parent's) declares it prints
the parent's median and quartiles, the change's median, their ratio and
how many pairs the change won (ties count for neither side), and marks
a gain as claimable when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range.  The last column flags a metric whose change median is worse
than the parent's by more than the metric's ``bound`` (a share of the
parent's median), the other way a change is refused.  A run that fails,
or reports a wrong output or a failed op, is printed as it happens.

Usage (stdlib only; not a pytest module)::

    python tests/tools/pairs.py PARENT_TREE CHANGE_TREE \\
        [--workload flood ...] [--pairs 10] [--seed 1000] [--seconds 8] [--out PATH]

``--workload`` takes one or more names and may be repeated; every name
given runs, in order (``flood`` when none is).

``--out`` writes every run's metrics as JSON.  Each tree needs only its
``bench/``, ``src/`` and ``BENCHMARK.json``; neither is written to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced single run from ``tree``: its final JSON line."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"pairs: {tree} {workload} seed {seed} exited {done.returncode}: "
              f"{done.stderr.strip()[-400:]}", file=sys.stderr)
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if not result.get("correct") or result.get("failed"):
        print(f"pairs: {tree} {workload} seed {seed}: correct={result.get('correct')} "
              f"failed={result.get('failed')} of {result.get('attempted')}", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, middle, high


def summarise(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> None:
    count = len(runs)
    print(f"\n{workload}: {count} pairs")
    print(f"  {'metric':<20} {'parent median (q1-q3)':>36} {'change':>10} "
          f"{'ratio':>7} {'wins':>6}  claimable  over bound")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(parent["metrics"][name]["value"], change["metrics"][name]["value"])
                 for parent, change in runs
                 if name in parent.get("metrics", {}) and name in change.get("metrics", {})]
        if not pairs:
            continue
        parent_values = [parent for parent, _change in pairs]
        change_values = [change for _parent, change in pairs]
        low, parent_median, high = quartiles(parent_values)
        change_median = statistics.median(change_values)
        wins = sum((change < parent) if lower else (change > parent) for parent, change in pairs)
        better = change_median < parent_median if lower else change_median > parent_median
        claimable = (better and wins >= 0.9 * len(pairs)
                     and abs(change_median - parent_median) > high - low)
        ratio = change_median / parent_median if parent_median else float("nan")
        spread = f"{parent_median:.4g} ({low:.4g}-{high:.4g})"
        print(f"  {name:<20} {spread:>36} {change_median:>10.4g} {ratio:>7.3f} "
              f"{wins:>3}/{len(pairs):<2}  {'yes' if claimable else 'no':<9}  "
              f"{over_bound(metric, parent_median, change_median)}")


def over_bound(metric: dict, parent_median: float, change_median: float) -> str:
    """``"YES"`` when the change median is worse than the parent's by more
    than ``metric["bound"]`` of the parent's median, ``"no"`` when it is
    not, ``"-"`` for a metric with no bound."""
    bound = metric.get("bound")
    if bound is None:
        return "-"
    worse = (change_median - parent_median if metric["better"] == "lower"
             else parent_median - change_median)
    return "YES" if worse > bound * abs(parent_median) else "no"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", action="extend")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    args.workload = args.workload or ["flood"]
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    record: dict[str, list] = {}
    for workload in args.workload:
        runs = []
        for number in range(args.pairs):
            seed = args.seed + number
            sides = [(parent, "parent"), (change, "change")]
            if number % 2:
                sides.reverse()
            results = {label: run_once(tree, workload, seed, args.seconds)
                       for tree, label in sides}
            runs.append((results["parent"], results["change"]))
            print(f"pairs: {workload} pair {number + 1}/{args.pairs} (seed {seed}, "
                  f"{sides[0][1]} first) done", file=sys.stderr)
        record[workload] = [{"seed": args.seed + number, "parent": parent_run,
                             "change": change_run}
                            for number, (parent_run, change_run) in enumerate(runs)]
        summarise(workload, spec["end_to_end"], runs)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
