"""Tests for the one-shot report generator."""

import pytest

from repro.experiments.report import (
    TextTable,
    generate_report,
    improvement_pct,
    report_sections,
    write_report,
)
from repro.experiments.runconfig import RunSettings

TINY = RunSettings(warmup=150.0, duration=600.0, replications=1, base_seed=3)


class TestSections:
    def test_every_paper_table_has_a_section(self):
        titles = " ".join(title for _, title in report_sections())
        for table in ("Table 5", "Table 6", "Table 8", "Table 9", "Table 10",
                      "Table 11", "Table 12"):
            assert table in titles

    def test_sections_mirror_the_registry(self):
        from repro.experiments.registry import all_experiments

        assert report_sections() == tuple(
            (e.name, e.title) for e in all_experiments()
        )


class TestImprovementPct:
    def test_positive_improvement(self):
        assert improvement_pct(50.0, 100.0) == 50.0

    def test_regression_is_negative(self):
        assert improvement_pct(150.0, 100.0) == -50.0

    def test_zero_baseline_guard(self):
        assert improvement_pct(5.0, 0.0) == 0.0


class TestTextTable:
    def test_text_and_markdown_share_cells(self):
        table = TextTable(["policy", "W"], title="T")
        table.add_row("LOCAL", 12.3456)
        text = table.render()
        md = table.render_markdown()
        assert "12.35" in text
        assert "12.35" in md
        assert md.splitlines()[2] == "| policy | W |"

    def test_row_width_mismatch(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestGenerate:
    def test_analytic_only_report(self):
        text = generate_report(TINY, sections=["Table 5", "Table 6"])
        assert text.startswith("# Reproduction report")
        assert "## Table 5" in text
        assert "## Table 6" in text
        assert "Table 8" not in text
        assert "generated in" in text

    def test_filter_is_case_insensitive(self):
        text = generate_report(TINY, sections=["table 5"])
        assert "## Table 5" in text

    def test_settings_recorded(self):
        text = generate_report(TINY, sections=["Table 5"])
        assert "base seed 3" in text

    def test_no_matching_sections(self):
        with pytest.raises(ValueError):
            generate_report(TINY, sections=["Table 99"])

    def test_simulated_section_runs(self):
        text = generate_report(TINY, sections=["Message-length"])
        assert "msg_length" in text


class TestWrite:
    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(path, TINY, sections=["Table 5"])
        content = path.read_text(encoding="utf-8")
        assert "# Reproduction report" in content
        assert "WIF" in content
