"""Tier-1 smoke test of the benchmark harness, at toy size.

Runs every workload once untraced and once traced (~40 peers, 16 ops)
and checks the harness against ``BENCHMARK.json``: every declared
metric is emitted, finite and unit-tagged, one seed gives one digest,
and the tree is left as it was found.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from bench import measure
from bench.run import children, git_output, load_spec
from bench.workloads import WORKLOADS

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def git_status() -> str:
    """Empty too where there is no git checkout (the driver's copy)."""
    return git_output("status", "--porcelain")


@pytest.fixture(scope="module")
def spec() -> dict:
    return load_spec()


@pytest.fixture(scope="module")
def runs(spec: dict) -> dict:
    """Both kinds of toy run of every workload, plus the tree's state
    before and after them."""
    before = git_status()
    outcomes = {workload["name"]: (
        measure.measure_end_to_end(workload["name"], SEED, 0.0, toy=True),
        measure.measure_layers(workload["name"], SEED, toy=True))
        for workload in spec["workloads"]}
    return {"outcomes": outcomes, "before": before, "after": git_status()}


def check_metrics(declared: list[dict], emitted: dict) -> None:
    assert set(emitted) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = emitted[metric["name"]]
        assert math.isfinite(entry["value"]), metric["name"]
        assert entry["unit"] == metric["unit"], metric["name"]


def test_spec_is_within_the_contract(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer")
             for entry in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    assert any(metric["name"] == "setup_s" for metric in spec["end_to_end"])
    assert all(len(workload["why"]) <= 200 for workload in spec["workloads"])
    assert [workload["name"] for workload in spec["workloads"]] \
        == list(WORKLOADS)


def test_every_end_to_end_metric_is_emitted(spec: dict, runs: dict) -> None:
    for end_to_end, _layers in runs["outcomes"].values():
        check_metrics(spec["end_to_end"], end_to_end["metrics"])
        assert end_to_end["attempted"] >= 1
        assert end_to_end["failed"] == 0
        assert end_to_end["problems"] == []


def test_every_per_layer_metric_is_emitted(spec: dict, runs: dict) -> None:
    before = children()
    shared, problems = measure.variant_cells(SEED, toy=True)
    assert problems == []
    # the parallel cell's workers and resource tracker are stopped and reaped
    assert children() == before
    shared["host.calibration_events_per_s"] = {
        "value": measure.calibration_events_per_s(20_000), "unit": "1/s"}
    for _end_to_end, layers in runs["outcomes"].values():
        check_metrics(spec["per_layer"], {**layers["metrics"], **shared})
        assert layers["problems"] == []


def test_one_seed_gives_one_digest(runs: dict) -> None:
    for end_to_end, layers in runs["outcomes"].values():
        assert end_to_end["detail"]["counters_digest"] \
            == layers["detail"]["counters_digest"]


def test_result_line_is_json(runs: dict) -> None:
    for end_to_end, layers in runs["outcomes"].values():
        json.dumps(end_to_end)
        json.dumps(layers)


def test_tree_is_left_as_found(runs: dict) -> None:
    assert runs["after"] == runs["before"]
