"""The benchmark's one command.

Single run (what the benchmark driver calls)::

    python3 bench/run.py --workload flood --seed 11 --seconds 8 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1`` — and exits 0, or 1 when an output of the program was
wrong.

Full record (what a person, ``compare.py`` and later PRs use)::

    python3 bench/run.py [--seed 11] [--workload NAME] [--reps 5] [--out PATH]

runs every workload (or the named one) ``--reps`` times untraced and
once traced, each in a fresh child process of the single-run form above,
one after another, checks that the simulated metrics and the
``counters_digest`` agree across all of them, and prints the record as
JSON on standard output with a table on standard error.  Nothing is
written inside the tree unless ``--out`` names a path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SOURCE_DIR = REPO_ROOT / "src"


def _import_harness():
    """Put the program and this package on the path and import them.

    In a directory that holds only the benchmark there is no program to
    measure: say so and exit non-zero before printing any result.
    """
    if not (SOURCE_DIR / "repro").is_dir():
        sys.exit(f"bench/run.py: no program to measure ({SOURCE_DIR / 'repro'} is missing)")
    for entry in (str(SOURCE_DIR), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from bench import measure
    return measure


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Single run
# ----------------------------------------------------------------------
def children() -> list[int]:
    """The pids of this process's children, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8")
        except OSError:
            continue  # ended while we were looking
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:  # fields: state, ppid
            found.append(int(entry))
    return sorted(found)


def stop_children() -> int:
    """Kill and reap every child this process still has; returns how many.

    The harness stops what it starts where it starts it (the parallel
    variant cell's workers and resource tracker); this is the net under
    every path out of a run, exceptions included, so that no run can
    leave a process behind for the next one to meet.
    """
    pids = children()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return len(pids)


def single_run(args: argparse.Namespace) -> int:
    try:
        return _single_run(args)
    finally:
        stopped = stop_children()
        if stopped:
            print(f"bench/run.py: stopped {stopped} process(es) the run left behind",
                  file=sys.stderr)


def _single_run(args: argparse.Namespace) -> int:
    measure = _import_harness()
    if args.trace:
        outcome = measure.measure_traced(args.workload, args.seed)
    else:
        outcome = measure.measure_end_to_end(args.workload, args.seed, args.seconds)
    for problem in outcome["problems"]:
        print(f"bench/run.py: WRONG OUTPUT: {problem}", file=sys.stderr)
    if args.detail:
        print(json.dumps({"detail": outcome["detail"]}))
    correct = not outcome["problems"]
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": outcome["metrics"]}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Full record
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One single run in a fresh process; returns ``(result, detail)``."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if traced else "0", "--detail"]
    finished = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stderr.write(finished.stderr)
    lines = finished.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench/run.py: {' '.join(command)} printed no result "
                         f"(exit code {finished.returncode})")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if finished.returncode != 0 or not result["correct"]:
        raise SystemExit(f"bench/run.py: {workload} failed its correctness gate")
    return result, detail


def git_output(*arguments: str) -> str:
    try:
        return subprocess.run(["git", *arguments], cwd=REPO_ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def provenance(seed: int, reps: int, seconds: float) -> dict:
    """Where and how the record was taken — recorded, never gated on."""
    return {
        "git_sha": git_output("rev-parse", "HEAD") or None,
        "git_dirty": bool(git_output("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed, "reps": reps, "seconds": seconds,
    }


def record_workload(name: str, spec: dict, seed: int, reps: int, seconds: float) -> dict:
    """``reps`` untraced children and one traced child of one workload."""
    runs = [_child(name, seed, seconds, traced=False) for _ in range(reps)]
    layers, layer_detail = _child(name, seed, seconds, traced=True)
    digests = {detail["counters_digest"] for _result, detail in runs}
    digests.add(layer_detail["counters_digest"])
    if len(digests) != 1:
        raise SystemExit(f"bench/run.py: {name}: counters_digest differs between "
                         f"runs of one seed: {sorted(digests)}")
    end_to_end = {}
    for metric in spec["end_to_end"]:
        samples = [result["metrics"][metric["name"]]["value"] for result, _detail in runs]
        if metric["name"] in EXACT_METRICS and len(set(samples)) != 1:
            raise SystemExit(f"bench/run.py: {name}: simulated metric "
                             f"{metric['name']} differs between runs: {samples}")
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(samples),
            "samples": samples}
    return {
        "counters_digest": digests.pop(),
        "attempted": sum(result["attempted"] for result, _detail in runs),
        "failed": sum(result["failed"] for result, _detail in runs),
        "end_to_end": end_to_end,
        "per_layer": layers["metrics"],
        "runs": [detail for _result, detail in runs],
        "trace": layer_detail,
    }


#: end-to-end metrics read off the simulated clock or the counters: for
#: one seed they must repeat exactly, on any host
EXACT_METRICS = ("sim_latency_ms_p50", "sim_latency_ms_p95", "msgs_per_op",
                 "bytes_per_op", "recall")


def print_table(record: dict) -> None:
    for name, workload in record["workloads"].items():
        print(f"\n== {name}  digest {workload['counters_digest'][:16]}  "
              f"failed {workload['failed']}/{workload['attempted']}", file=sys.stderr)
        for metric, entry in workload["end_to_end"].items():
            samples = entry["samples"]
            spread = (max(samples) - min(samples)) / entry["median"] if entry["median"] else 0.0
            print(f"  {metric:<22}{entry['median']:>16.4f} {entry['unit']:<9}"
                  f"range {spread:6.1%} of median, n={len(samples)}", file=sys.stderr)
        for metric, entry in workload["per_layer"].items():
            print(f"    {metric:<42}{entry['value']:>16.4f} {entry['unit']}", file=sys.stderr)


def full_record(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = {"provenance": provenance(args.seed, args.reps, seconds), "workloads": {}}
    for name in names:
        record["workloads"][name] = record_workload(name, spec, args.seed, args.reps, seconds)
    calibrations = [workload["per_layer"]["host.calibration_events_per_s"]["value"]
                    for workload in record["workloads"].values()]
    record["provenance"]["host.calibration_events_per_s"] = statistics.median(calibrations)
    print_table(record)
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--detail", action="store_true",
                        help="single run: also print a detail line before the result")
    args = parser.parse_args(argv)
    if args.trace is None:
        return full_record(args)
    if not args.workload or args.seconds is None:
        parser.error("a single run needs --workload, --seed, --seconds and --trace")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
