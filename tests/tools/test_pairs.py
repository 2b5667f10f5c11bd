"""The pair runner's command line and its bound column (no bench run)."""

import pytest

import pairs


@pytest.mark.parametrize("flags, workloads", [
    ([], ["flood"]),
    (["--workload", "directory"], ["directory"]),
    (["--workload", "flood", "directory"], ["flood", "directory"]),
    (["--workload", "flood", "--workload", "directory", "--workload", "dynamic"],
     ["flood", "directory", "dynamic"]),
])
def test_every_workload_flag_runs(flags, workloads):
    assert pairs.parse_args(["parent", "change", *flags]).workload == workloads


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}


@pytest.mark.parametrize("metric, parent, change, flag", [
    (OPS, 100.0, 76.0, "no"),     # 24 % fewer ops/s: inside the bound
    (OPS, 100.0, 74.0, "YES"),
    (OPS, 100.0, 300.0, "no"),    # better is never over
    (RSS, 100.0, 104.0, "no"),
    (RSS, 100.0, 106.0, "YES"),
    ({"name": "recall", "better": "higher"}, 1.0, 0.0, "-"),
])
def test_a_median_worse_than_its_bound_is_flagged(metric, parent, change, flag):
    assert pairs.over_bound(metric, parent, change) == flag
