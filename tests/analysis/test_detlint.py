"""Fixture-driven contract tests for every detlint rule.

Each rule has a minimal red fixture (must flag, with pinned counts) and
a green fixture (must stay silent), plus the historical pre-PR6
``superpeer.py`` — the cross-process nondeterminism bug the linter was
built to catch — asserted red.  The fixtures live under
``tests/analysis/fixtures`` and are excluded from ruff: they are
deliberately-bad linter inputs.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

#: red fixture -> exact rule counts it must produce (pinned, not >=,
#: so a rule that silently widens or narrows fails here first)
RED_EXPECTATIONS = {
    "network/det001_red.py": {"DET001": 5},
    "det002_red.py": {"DET002": 1},
    "det003_red.py": {"DET003": 2},
    "det004_red.py": {"DET004": 5},
    "network/kern001_red.py": {"KERN001": 1},
    "network/kern002_red.py": {"KERN002": 3},
}

GREEN_FIXTURES = [
    "network/det001_green.py",
    "det002_green.py",
    "det003_green.py",
    "det004_green.py",
    "network/kern001_green.py",
    "network/kern002_green.py",
]


def findings_for(relative: str):
    return analyze_paths([str(FIXTURES / relative)])


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture", sorted(RED_EXPECTATIONS))
    def test_red_fixture_flags(self, fixture):
        findings = findings_for(fixture)
        assert dict(Counter(f.rule for f in findings)) == RED_EXPECTATIONS[fixture]

    @pytest.mark.parametrize("fixture", GREEN_FIXTURES)
    def test_green_fixture_is_clean(self, fixture):
        assert findings_for(fixture) == []

    def test_every_rule_has_a_red_fixture(self):
        """The catalogue and the fixture suite must not drift apart."""
        covered = set()
        for expected in RED_EXPECTATIONS.values():
            covered.update(expected)
        covered.update({"DETLINT"})  # exercised by suppressed_no_reason.py
        assert covered == set(RULES)

    def test_findings_carry_rule_metadata(self):
        for finding in findings_for("network/det001_red.py"):
            assert finding.rule in RULES
            assert finding.snippet  # the stripped source line
            assert finding.line > 0


class TestHistoricalSuperpeerFixture:
    """The pre-PR6 ``superpeer.py`` must stay red forever.

    Its unsorted orphan-leaf re-attachment produced different peer
    assignments in different *processes* (PYTHONHASHSEED salts the
    ``set[str]`` order) — the class of bug repeat-twice in-process
    determinism tests structurally cannot see.
    """

    FIXTURE = "network/superpeer_pre_pr6.py"

    def test_flags_det001(self):
        findings = findings_for(self.FIXTURE)
        det001 = [f for f in findings if f.rule == "DET001"]
        assert det001, "the historical bug must be flagged"

    def test_flags_the_orphan_reattachment_line(self):
        # Locate by snippet, not line number: the fixture carries an
        # explanatory header that shifts the original line numbers.
        findings = findings_for(self.FIXTURE)
        assert any(
            "orphans = list(" in f.snippet for f in findings if f.rule == "DET001"
        )


class TestSuppressions:
    def test_reasoned_suppressions_silence_findings(self):
        assert findings_for("network/suppressed.py") == []

    def test_reasonless_suppression_is_itself_a_finding(self):
        findings = findings_for("network/suppressed_no_reason.py")
        rules = Counter(f.rule for f in findings)
        # The reasonless comment does not suppress (DET001 survives) and
        # is flagged as malformed (DETLINT).
        assert rules["DET001"] == 1
        assert rules["DETLINT"] == 1

    def test_suppression_only_covers_its_own_rule(self):
        source = (
            "import random\n"
            "def f():\n"
            "    s = {1, 2}\n"
            "    # detlint: ignore[DET003] -- wrong rule for the next line\n"
            "    return [v for v in s]\n"
        )
        findings = analyze_source(source, "network/mod.py")
        assert [f.rule for f in findings] == ["DET001"]


class TestScoping:
    RED_BODY = "def f():\n    s = {1, 2}\n    return [v for v in s]\n"

    def test_det001_keys_off_protocol_path_segments(self):
        assert analyze_source(self.RED_BODY, "network/mod.py") != []
        assert analyze_source(self.RED_BODY, "engine/mod.py") != []
        assert analyze_source(self.RED_BODY, "xmlkit/mod.py") == []

    def test_det004_flags_a_workloads_wall_clock_read(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert analyze_source(source, "src/repro/workloads/mod.py") != []

    def test_kern002_exempts_engine_parallel_only(self):
        source = "import multiprocessing\n"
        assert analyze_source(source, "src/repro/engine/parallel.py") == []
        assert [f.rule for f in analyze_source(source, "src/repro/workloads/mod.py")] \
            == ["KERN002"]


class TestOrderInsensitiveReducers:
    """Genexps feeding commutative reducers are exempt from DET001."""

    @pytest.mark.parametrize("reducer", ["sum", "min", "max", "any", "all",
                                         "len", "set", "frozenset", "sorted"])
    def test_reducer_over_set_is_clean(self, reducer):
        source = f"def f():\n    s = {{1, 2}}\n    return {reducer}(v for v in s)\n"
        assert analyze_source(source, "network/mod.py") == []

    def test_list_materialization_is_flagged(self):
        source = "def f():\n    s = {1, 2}\n    return list(s)\n"
        assert [f.rule for f in analyze_source(source, "network/mod.py")] == ["DET001"]

    def test_sorted_iteration_is_clean(self):
        source = "def f():\n    s = {1, 2}\n    return [v for v in sorted(s)]\n"
        assert analyze_source(source, "network/mod.py") == []


class TestCrossFileRegistry:
    """Set-typed attributes declared in one module are tracked when
    iterated from another — the whole point of the two-pass design."""

    def test_attribute_declared_elsewhere_is_flagged(self, tmp_path):
        package = tmp_path / "network"
        package.mkdir()
        (package / "state.py").write_text(
            "class PeerState:\n    leaves: set[str]\n", encoding="utf-8"
        )
        (package / "proto.py").write_text(
            "def handle(state):\n    return [leaf for leaf in state.leaves]\n",
            encoding="utf-8",
        )
        findings = analyze_paths([str(package)])
        assert [(Path(f.path).name, f.rule) for f in findings] == [("proto.py", "DET001")]

    def test_without_declaration_no_finding(self, tmp_path):
        package = tmp_path / "network"
        package.mkdir()
        (package / "proto.py").write_text(
            "def handle(state):\n    return [leaf for leaf in state.leaves]\n",
            encoding="utf-8",
        )
        assert analyze_paths([str(package)]) == []


class TestCurrentTreeIsClean:
    def test_src_passes_the_gate(self, monkeypatch):
        """The acceptance criterion: the gate is green on the real tree,
        with inline suppressions as the only way to accept a finding.
        Run from the repo root with relative paths, exactly as CI
        invokes the gate."""
        from repro.analysis.__main__ import main

        repo_root = Path(__file__).resolve().parents[2]
        assert (repo_root / "pyproject.toml").is_file()
        monkeypatch.chdir(repo_root)
        assert main(["src"]) == 0
