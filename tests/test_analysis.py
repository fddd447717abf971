"""Tests for the analysis harness (tables, stretch evaluation, reports)."""

import math

import pytest

from repro.analysis import Table, evaluate_stretch, label_size_summary
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.baselines import ExactRecomputeOracle
from repro.graphs.generators import cycle_graph, grid_graph
from repro.labeling import ForbiddenSetLabeling
from repro.workloads import Query, random_queries


class TestTable:
    def test_render_alignment(self):
        table = Table(title="T", columns=["a", "bb"])
        table.add_row(a=1, bb="x")
        table.add_row(a=22, bb="yyy")
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(set(len(line) for line in lines[2:6])) == 1  # aligned

    def test_missing_column_rejected(self):
        table = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)

    def test_float_and_inf_formatting(self):
        table = Table(title="T", columns=["x"])
        table.add_row(x=1.23456)
        table.add_row(x=math.inf)
        rendered = table.render()
        assert "1.235" in rendered and "inf" in rendered

    def test_notes_rendered(self):
        table = Table(title="T", columns=["x"], notes="hello")
        table.add_row(x=1)
        assert "note: hello" in table.render()


class TestEvaluateStretch:
    def test_clean_on_correct_scheme(self):
        g = grid_graph(6, 6)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        queries = random_queries(g, 15, max_vertex_faults=3, seed=1)
        report = evaluate_stretch(g, scheme, queries)
        assert report.clean
        assert report.num_queries == 15
        assert 1.0 <= report.mean_stretch <= report.max_stretch

    def test_detects_undershooting_scheme(self):
        g = cycle_graph(16)

        class Cheater:
            def query(self, s, t, vertex_faults=(), edge_faults=()):
                return 1  # always claims distance 1

            def stretch_bound(self):
                return 2.0

        queries = [Query(s=0, t=8)]
        report = evaluate_stretch(g, Cheater(), queries)
        assert report.violations == 1 and not report.clean

    def test_detects_connectivity_mismatch(self):
        g = cycle_graph(16)

        class AlwaysConnected:
            def query(self, s, t, vertex_faults=(), edge_faults=()):
                return 5

            def stretch_bound(self):
                return math.inf

        queries = [Query(s=0, t=8, vertex_faults=(4, 12))]  # disconnects C_16
        report = evaluate_stretch(g, AlwaysConnected(), queries)
        assert report.connectivity_mismatches == 1

    def test_exact_baseline_is_clean(self):
        g = grid_graph(5, 5)
        queries = random_queries(g, 10, max_vertex_faults=2, seed=2)
        report = evaluate_stretch(
            g, ExactRecomputeOracle(g), queries, stretch_bound=1.0
        )
        assert report.clean and report.max_stretch == 1.0


class TestLabelStats:
    def test_summary_fields(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        summary = label_size_summary(scheme, g, sample=5, seed=0)
        assert summary.num_labels == 5
        assert summary.max_bits >= summary.mean_bits > 0

    def test_full_sample(self):
        g = cycle_graph(12)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        summary = label_size_summary(scheme, g, sample=None)
        assert summary.num_labels == 12


class TestExperimentRegistry:
    def test_all_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 15)}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        tables = run_experiment("e9", quick=True)
        assert len(tables) == 2
