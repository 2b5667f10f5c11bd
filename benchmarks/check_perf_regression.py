"""Fail CI when hot-path throughput regresses against the committed record.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json CURRENT.json \
        [--tolerance 0.20]

Compares every ``queries_per_s`` (and ``messages_per_s``) sample of the
current ``BENCH_perf.json`` against the committed baseline and exits
non-zero if any workload is more than ``tolerance`` slower.  Faster is
always fine — the committed file is refreshed by re-running
``pytest benchmarks`` and copying ``.benchmarks/BENCH_perf.json`` over
it, which is how intentional trajectory changes land.

When both records carry ``calibration_events_per_s`` (a synthetic
kernel-shaped loop measured in the same run), throughput is normalized
by the calibration ratio first, so a slower or faster machine — a
shared CI runner versus the laptop that committed the baseline — does
not read as a code regression or mask one.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys


def samples(record: dict):
    """Yield (label, metrics) pairs comparable across runs."""
    for protocol, workloads in sorted(record.get("protocols", {}).items()):
        for workload, sample in sorted(workloads.items()):
            yield f"{protocol}/{workload}", sample
    headline = record.get("e3_concurrent_200")
    if headline:
        yield "e3_concurrent_200", headline
    # Live-membership flood throughput (E9's headline sample): the
    # maintenance-traffic hot path is guarded alongside the plain one.
    flood_live = record.get("membership", {}).get("flood_live")
    if flood_live:
        yield "membership/flood_live", flood_live
    # P2 scale grid: msgs/s per (protocol, population, shard count) cell.
    # CI caps the population (P2_MAX_POPULATION), so cells present in
    # the committed record may be absent from a CI run — samples missing
    # from the current record warn instead of failing (see main()).
    for label, sample in sorted(record.get("scale", {}).get("grid", {}).items()):
        yield f"scale/{label}", sample
    # P3 parallel grid: one connected topology, serial vs. worker-
    # process cells.  Guarding both modes catches a barrier-protocol
    # change that quietly doubles the handshake cost as well as a serial
    # hot-path regression smuggled in through the instrumentation hooks.
    for label, sample in sorted(record.get("parallel", {}).get("grid", {}).items()):
        yield f"parallel/{label}", sample
    # E12 fault grid: the faulty cells pay for drops, retries and the
    # chunked-download pacing, so their throughput is guarded per
    # (protocol, loss rate, hardened/legacy stack) cell — a reliable-
    # delivery change that quietly doubles the retry traffic shows up
    # here even while the recall assertions still pass.
    for protocol, sweep in sorted(record.get("faults", {}).get("protocols", {}).items()):
        for cell in sweep.get("cells", []):
            stack = "hardened" if cell.get("hardened") else "legacy"
            label = f"faults/{protocol}/loss{round(cell.get('loss_rate', 0) * 100)}_{stack}"
            yield label, cell
        for stack, cell in sorted(sweep.get("outage", {}).items()):
            yield f"faults/{protocol}/outage_{stack}", cell
    # E11 informed-routing grid: blind baselines and filter cells are
    # guarded per (filter geometry, churn) label — the filter rebuild
    # and probe machinery sits on the flood hot path, so a change that
    # quietly slows either the pruned or the blind spelling shows here.
    for label, sample in sorted(record.get("routing", {}).get("grid", {}).items()):
        yield f"routing/{label}", sample


def write_step_summary(rows, hardware: float, tolerance: float, failures) -> None:
    """Append a before/after markdown table to ``$GITHUB_STEP_SUMMARY``
    (when running under GitHub Actions) so perf deltas are readable from
    the run page without downloading the artifact."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [
        "## Hot-path throughput: baseline vs. this run",
        "",
        f"Hardware normalization factor: `{hardware:.2f}x` · "
        f"allowed regression: `{tolerance:.0%}`",
        "",
        "| workload | metric | baseline | current | ratio | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for label, metric, base_value, now_value, ratio, status in rows:
        icon = {"ok": "✅", "regressed": "❌", "missing": "⚠️"}.get(status, "")
        if base_value is None:
            lines.append(f"| `{label}` | {metric} | — | — | — | {icon} {status} |")
            continue
        lines.append(
            f"| `{label}` | {metric} | {base_value:,.1f} | {now_value:,.1f} "
            f"| {ratio:.2f}x | {icon} {status} |")
    lines.append("")
    verdict = (f"**{len(failures)} regression(s) beyond tolerance.**"
               if failures else "**No regression beyond tolerance.**")
    lines.append(verdict)
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_rss_summary(current: dict) -> None:
    """Append the P2 peak-RSS table (population × shards) to the CI
    step summary.  Memory is informational, not gated: RSS on a shared
    runner is too noisy for a hard threshold, but the trend belongs
    next to the throughput table."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    grid = current.get("scale", {}).get("grid", {})
    if not summary_path or not grid:
        return
    lines = [
        "## Scale grid: peak RSS by population × shard count",
        "",
        "| cell | messages/s | peak RSS (MB) | wall (s) |",
        "|---|---:|---:|---:|",
    ]
    for label, sample in sorted(grid.items()):
        rss_mb = sample.get("peak_rss_mb")
        lines.append(
            f"| `{label}` | {sample.get('messages_per_s', 0):,.0f} "
            f"| {rss_mb:,.1f} | {sample.get('wall_s', 0):.2f} |"
            if rss_mb is not None else f"| `{label}` | — | — | — |")
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional queries/sec regression (default 0.20)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    current = json.loads(args.current.read_text(encoding="utf-8"))
    current_samples = dict(samples(current))

    # Hardware normalization: scale the current numbers as if they had
    # been measured on the baseline machine.
    base_calibration = baseline.get("calibration_events_per_s")
    now_calibration = current.get("calibration_events_per_s")
    if base_calibration and now_calibration:
        hardware = now_calibration / base_calibration
        print(f"calibration: baseline={base_calibration:.0f} ev/s, "
              f"current={now_calibration:.0f} ev/s -> normalizing by {hardware:.2f}x")
    else:
        hardware = 1.0
        print("calibration missing from one record; comparing raw throughput")

    failures = []
    rows = []
    missing = []
    for label, base in samples(baseline):
        now = current_samples.get(label)
        if now is None:
            # Not a failure: a capped CI grid (P2_MAX_POPULATION) or a
            # benchmark family that first lands in this very PR can
            # legitimately be absent from one side.  Warn so a sample
            # silently vanishing is still visible in the log and the
            # step summary.
            missing.append(label)
            rows.append((label, "-", None, None, None, "missing"))
            print(f"WARN {label:27s} missing from current record (skipped)")
            continue
        for metric in ("queries_per_s", "messages_per_s"):
            base_value = base.get(metric)
            now_value = now.get(metric)
            if not base_value or not now_value:
                continue
            ratio = now_value / hardware / base_value
            regressed = ratio < 1.0 - args.tolerance
            marker = "REG" if regressed else "OK "
            print(f"{marker} {label:28s} {metric:16s} "
                  f"baseline={base_value:>12.1f} current={now_value:>12.1f} "
                  f"({ratio:.2f}x)")
            rows.append((label, metric, base_value, now_value, ratio,
                         "regressed" if regressed else "ok"))
            if regressed:
                failures.append(
                    f"{label} {metric} regressed to {ratio:.2f}x of baseline "
                    f"({base_value:.1f} -> {now_value:.1f})")

    write_step_summary(rows, hardware, args.tolerance, failures)
    write_rss_summary(current)

    if missing:
        print(f"\n{len(missing)} baseline sample(s) missing from the current "
              "record (warned, not failed): " + ", ".join(missing))
    if failures:
        print("\nPerformance regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nNo hot-path regression beyond tolerance.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
