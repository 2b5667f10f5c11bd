"""CLI contract: exit codes and output formats."""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.detlint import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"
RED = str(FIXTURES / "network" / "det001_red.py")
GREEN = str(FIXTURES / "network" / "det001_green.py")


class TestExitCodes:
    def test_clean_tree_exits_zero(self):
        assert main([GREEN]) == 0

    def test_findings_exit_one(self):
        assert main([RED]) == 1

    def test_only_an_inline_suppression_accepts_a_finding(self, tmp_path, monkeypatch):
        """No file beside the sources can excuse a finding: a baseline
        listing the site, in the old format and configured the old way,
        changes nothing."""
        monkeypatch.chdir(tmp_path)
        entries = "".join(f"{finding.path}\t{finding.rule}\t{finding.snippet}\taccepted\n"
                          for finding in analyze_paths([RED]))
        (tmp_path / "detlint-baseline.txt").write_text(entries, encoding="utf-8")
        (tmp_path / "pyproject.toml").write_text(
            '[tool.detlint]\nbaseline = "detlint-baseline.txt"\n', encoding="utf-8")
        assert main([RED]) == 1

    @pytest.mark.parametrize("flag", (["--baseline", "detlint-baseline.txt"],
                                      ["--no-baseline"], ["--write-baseline"],
                                      ["--scope-all"]), ids=lambda flag: flag[0])
    def test_retired_flags_are_usage_errors(self, flag, capsys):
        """A caller still passing a baseline or scope flag fails loudly
        instead of running a gate it thinks is configured differently."""
        with pytest.raises(SystemExit) as exit_info:
            main([RED, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_paths_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert "no paths given" in capsys.readouterr().err

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "KERN001"):
            assert rule_id in out


class TestOutputFormats:
    def test_text_format_is_path_line_col_rule(self, capsys):
        main([RED])
        out = capsys.readouterr().out
        assert "det001_red.py:" in out
        assert " DET001 " in out

    def test_github_format_emits_error_annotations(self, capsys):
        """CI consumes ``::error file=...,line=...`` workflow commands."""
        main([RED, "--format", "github"])
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("::error file=")
        assert ",line=" in first and ",col=" in first
        assert "title=DET001" in first
