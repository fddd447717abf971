"""Smoke tests for the experiment harness (fast experiments only; the
slow ones run through ``pytest benchmarks/``)."""

import pytest

from repro.analysis.experiments import (
    run_e3,
    run_e7,
    run_e8,
    run_e9,
    run_e12,
    run_e14,
)
from repro.analysis.report import _CLAIMS, generate_report
from repro.analysis.experiments import EXPERIMENTS


class TestFastExperiments:
    def test_e3_rows_monotone_in_c(self):
        (table,) = run_e3(quick=True)
        rows = sorted(table.rows, key=lambda r: r["c(eps)"])
        for a, b in zip(rows, rows[1:]):
            if b["c(eps)"] > a["c(eps)"]:
                assert b["max_bits"] > a["max_bits"]

    def test_e7_projects_the_full_table_per_family(self):
        (table,) = run_e7(quick=True)
        assert {row["family"] for row in table.rows} == {"grid", "path"}
        for row in table.rows:
            per_label = row["build ms/label"] + row["encode ms/label"]
            assert row["table_s"] == pytest.approx(
                row["global_s"] + row["n"] * per_label / 1000
            )
        assert "largest n whose table fits in 60 s: grid " in table.notes

    def test_e8_has_size_columns(self):
        (table,) = run_e8(quick=True)
        for row in table.rows:
            if row["routed"] > 0:
                assert row["max_header_bits"] > 0
                assert row["max_table_entries"] > 0
            assert row["undeliverable"] == 0

    def test_e9_counting_consistency(self):
        counting, upper = run_e9(quick=True)
        assert all(row["ok"] for row in upper.rows)
        for row in counting.rows:
            # lb per label = log2|F| / n
            assert row["lb_bits/label"] == pytest.approx(
                row["log2|F|"] / row["n"]
            )

    def test_e12_tree_baseline_exact(self):
        tree_table, ff_table = run_e12(quick=True)
        tree_row = next(
            row for row in tree_table.rows if "tree" in row["scheme"]
        )
        answered, total = tree_row["exact_answers"].split("/")
        assert answered == total
        assert all(row["ok"] for row in ff_table.rows)

    def test_e14_clean(self):
        (table,) = run_e14(quick=True)
        assert all(row["violations"] == 0 for row in table.rows)


class TestReportGeneration:
    def test_claims_cover_every_experiment(self):
        assert set(_CLAIMS) == set(EXPERIMENTS)

    def test_generate_report_single_experiment(self):
        text = generate_report(full=False, experiments=["E9"])
        assert "## E9" in text
        assert "Claim (paper)" in text
        assert "```text" in text

    def test_report_main_writes_file(self, tmp_path, capsys):
        from repro.analysis.report import main as report_main

        output = tmp_path / "report.md"
        assert report_main(["--exp", "E9", "-o", str(output)]) == 0
        assert output.exists()
        assert "## E9" in output.read_text()
