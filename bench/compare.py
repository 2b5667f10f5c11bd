"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or
the second set); both are records written by ``bench/run.py --out``.
One row per workload and end-to-end metric, with both medians, both
quartile pairs and the metric's bound from ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the run-to-run spread is wider than the bound and the
                two sets of runs interleave, so the row proves nothing
``changed``     a simulated metric or a ``counters_digest`` differs
                without being worse (a protocol change; a simulator-only
                change must not produce this row)
``missing``     the workload is in one record and not in the other

Simulated metrics and digests repeat exactly for one seed, so they are
compared for equality, not against a bound.  Exit code 1 on any
``worse`` or ``missing`` row or when B failed a larger share of its
operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from bench.run import EXACT_METRICS, load_spec  # noqa: E402


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    first, _median, third = statistics.quantiles(samples, n=4)
    return first, third


def judge(metric: dict, a_samples: list[float], b_samples: list[float]) -> tuple[str, float]:
    """Verdict and B's relative change in the *worse* direction."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a_median, b_median = statistics.median(a_samples), statistics.median(b_samples)
    worse_by = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    if metric["name"] in EXACT_METRICS:
        if set(a_samples) == set(b_samples):
            return "ok", 0.0
        return ("worse" if worse_by > 0 else "changed"), worse_by
    a_low, a_high = quartiles(a_samples)
    b_low, b_high = quartiles(b_samples)
    spread = max(a_high - a_low, b_high - b_low) / abs(a_median)
    a_signed = [sign * value for value in a_samples]
    b_signed = [sign * value for value in b_samples]
    separated = max(b_signed) < min(a_signed) or min(b_signed) > max(a_signed)
    if spread > metric["bound"] and not separated:
        return "unresolved", worse_by
    return ("worse" if worse_by > metric["bound"] else "ok"), worse_by


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether B failed a larger share."""
    rows = []
    more_failures = False
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        rows.append({"workload": name, "metric": "(whole workload)", "verdict": "missing"})
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        a_workload, b_workload = a["workloads"][name], b["workloads"][name]
        same_digest = a_workload["counters_digest"] == b_workload["counters_digest"]
        rows.append({"workload": name, "metric": "counters_digest",
                     "verdict": "ok" if same_digest else "changed"})
        a_share = a_workload["failed"] / a_workload["attempted"]
        b_share = b_workload["failed"] / b_workload["attempted"]
        more_failures = more_failures or b_share > a_share
        for metric in spec["end_to_end"]:
            a_samples = a_workload["end_to_end"][metric["name"]]["samples"]
            b_samples = b_workload["end_to_end"][metric["name"]]["samples"]
            verdict, worse_by = judge(metric, a_samples, b_samples)
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a_median": statistics.median(a_samples), "a_quartiles": quartiles(a_samples),
                "b_median": statistics.median(b_samples), "b_quartiles": quartiles(b_samples),
                "bound": metric["bound"], "worse_by": worse_by, "verdict": verdict})
    return rows, more_failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows, more_failures = compare(a, b, load_spec())
    for row in rows:
        if "bound" not in row:
            print(f"{row['workload']:<10} {row['metric']:<20} {row['verdict']}")
            continue
        a_low, a_high = row["a_quartiles"]
        b_low, b_high = row["b_quartiles"]
        print(f"{row['workload']:<10} {row['metric']:<20} "
              f"A {row['a_median']:>12.4f} [{a_low:.4f}, {a_high:.4f}]  "
              f"B {row['b_median']:>12.4f} [{b_low:.4f}, {b_high:.4f}] "
              f"{row['unit']:<9} worse by {row['worse_by']:+7.2%} (bound {row['bound']:.0%})  "
              f"{row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print("  ".join(f"{verdict}: {verdicts.count(verdict)}"
                    for verdict in ("ok", "changed", "unresolved", "worse", "missing")))
    if more_failures:
        print("B failed a larger share of its operations than A")
    return 1 if more_failures or "worse" in verdicts or "missing" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
