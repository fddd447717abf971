"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_graph_spec


class TestGraphSpec:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("path:10", 10),
            ("cycle:12", 12),
            ("grid:3x4", 12),
            ("grid:2x2x2", 8),
            ("torus:3x4", 12),
            ("tree:20", 20),
            ("tree:20:5", 20),
            ("road:4x4", 16),
            ("cylinder:10x4", 40),
            ("king:3x2", 9),
            ("halfking:3x2", 9),
            ("hypercube:3", 8),
            ("sierpinski:2", 15),
            ("geometric:30:0.4", 30),
        ],
    )
    def test_valid_specs(self, spec, n):
        assert parse_graph_spec(spec).num_vertices == n

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("klein:4")

    def test_malformed_params(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("grid:axb")


class TestCommands:
    def test_build_info_query_roundtrip(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        assert main(["build", "cycle:16", "-e", "1.0", "-o", db_path]) == 0
        assert main(["info", db_path]) == 0
        out = capsys.readouterr().out
        assert "labels:    16" in out

        assert main(["query", db_path, "-s", "0", "-t", "8"]) == 0
        out = capsys.readouterr().out
        assert "d(0, 8 | F) = 8" in out

        assert main(
            ["query", db_path, "-s", "0", "-t", "4", "--fail-vertex", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "= 12" in out  # the long way around C_16

    def test_query_unreachable(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "path:8", "-o", db_path])
        capsys.readouterr()
        assert main(["query", db_path, "-s", "0", "-t", "7",
                     "--fail-vertex", "4"]) == 0
        assert "unreachable" in capsys.readouterr().out

    def test_query_edge_fault_syntax(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "path:6", "-o", db_path])
        capsys.readouterr()
        assert main(["query", db_path, "-s", "0", "-t", "5",
                     "--fail-edge", "2-3"]) == 0
        assert "unreachable" in capsys.readouterr().out

    def test_bad_edge_syntax(self, tmp_path):
        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "path:6", "-o", db_path])
        with pytest.raises(SystemExit):
            main(["query", db_path, "-s", "0", "-t", "5", "--fail-edge", "2:3"])

    def test_verify_command(self, capsys):
        assert main(["verify", "grid:4x4", "-e", "2.0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_unit_mode(self, capsys):
        assert main(["verify", "cycle:16", "--low-level", "unit"]) == 0

    def test_experiment_command(self, capsys):
        assert main(["experiment", "E9"]) == 0
        assert "Theorem 3.1" in capsys.readouterr().out

    def test_unknown_experiment_is_an_error_before_any_table_runs(
        self, capsys
    ):
        assert main(["experiment", "E9", "E99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown experiment 'E99'; choose from E1 … E14\n"
        )

    def test_experiment_without_names_runs_all_in_id_order(
        self, monkeypatch, capsys
    ):
        import repro.analysis.experiments as experiments
        from repro.analysis.tables import Table

        def fake(name):
            def run(quick=True):
                table = Table(title=f"{name} quick={quick}", columns=["x"])
                table.add_row(x=1)
                return [table]
            return run

        monkeypatch.setattr(
            experiments, "EXPERIMENTS", {n: fake(n) for n in ("E2", "E10", "E1")}
        )
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        titles = [line for line in out.splitlines() if "quick=" in line]
        assert titles == ["E1 quick=True", "E10 quick=True", "E2 quick=True"]

    def test_build_unit_mode(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        assert main(
            ["build", "grid:5x5", "--low-level", "unit", "-o", db_path]
        ) == 0

    def test_build_legacy_format_roundtrip(self, tmp_path, capsys):
        db_path = str(tmp_path / "legacy.fsdl")
        assert main(
            ["build", "cycle:12", "-o", db_path, "--format-version", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["info", db_path]) == 0
        assert "format:    v1" in capsys.readouterr().out


class TestChaosCommands:
    def test_fsck_healthy_database(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "cycle:12", "-o", db_path])
        capsys.readouterr()
        assert main(["fsck", db_path]) == 0
        assert "integrity: OK" in capsys.readouterr().out

    def test_fsck_flags_corruption(self, tmp_path, capsys):
        db_path = tmp_path / "labels.fsdl"
        main(["build", "cycle:12", "-o", str(db_path)])
        blob = bytearray(db_path.read_bytes())
        blob[-1] ^= 0xFF  # inside the last label's payload
        db_path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["fsck", str(db_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt label" in out

    def test_chaos_command_on_spec(self, capsys):
        assert main(
            ["chaos", "cycle:16", "--schedules", "1", "--events", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 invariant violation(s)" in out

    def test_chaos_matches_committed_golden(self, capsys):
        # pins every ChaosReport count, checks_performed included;
        # regenerate (only after a deliberate behaviour change) with
        #   PYTHONPATH=src python -m repro chaos --schedules 3 \
        #     --events 40 --seed 0 > tests/golden/chaos_seed0.txt
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "chaos_seed0.txt"
        argv = ["chaos", "--schedules", "3", "--events", "40", "--seed", "0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_chaos_on_spec_matches_committed_golden(self, capsys):
        # pins `repro chaos GRAPH` with lossy flooding; regenerate (only
        # after a deliberate behaviour change) with
        #   PYTHONPATH=src python -m repro chaos grid:6x6 --schedules 2 \
        #     --events 60 --drop 0.2 --seed 3 \
        #     > tests/golden/chaos_grid6x6_drop.txt
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "chaos_grid6x6_drop.txt"
        argv = ["chaos", "grid:6x6", "--schedules", "2", "--events", "60",
                "--drop", "0.2", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_rollout_judges_both_generations(self, capsys):
        assert main(["rollout", "grid:4x4", "--remove", "5-6"]) == 0
        out = capsys.readouterr().out
        assert "generation 0: d(5, 6) = 1 decoded from the store — OK" in out
        assert "generation 1: d(5, 6) = 3 decoded from the store — OK" in out

    def test_rollout_exits_1_on_a_wrong_answer(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.service import QueryService

        honest = QueryService.query

        def doubled(self, s, t, *args, **kwargs):
            outcome = honest(self, s, t, *args, **kwargs)
            return replace(outcome, distance=2 * outcome.distance)

        # stretch 2 breaks the bound 1.75 on both sides of the commit
        monkeypatch.setattr(QueryService, "query", doubled)
        assert main(["rollout", "grid:4x4", "--remove", "5-6"]) == 1
        out = capsys.readouterr().out
        assert "generation 0: d(5, 6) = 2 decoded" in out
        assert "generation 1: d(5, 6) = 6 decoded" in out
        assert out.count("silently wrong") == 2

    def test_serve_chaos_command_on_spec(self, capsys):
        assert main(
            ["serve-chaos", "grid:4x4", "--schedules", "1", "--events", "20",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 invariant violation(s)" in out
        assert "breaker trips" in out

    def test_serve_chaos_no_hedging(self, capsys):
        assert main(
            ["serve-chaos", "cycle:16", "--schedules", "1", "--events", "15",
             "--shards", "3", "--replication", "1", "--no-hedging"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 hedges" in out


class TestObsCommands:
    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics", "--schedules", "2", "--events", "20"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_chaos_events_total{" in out
        assert "repro_query_latency_ms_bucket{" in out

    def test_metrics_json_is_deterministic(self, capsys):
        import json

        argv = ["metrics", "--schedules", "2", "--events", "20",
                "--format", "json"]
        assert main(argv) == 0
        one = capsys.readouterr().out
        assert main(argv) == 0
        two = capsys.readouterr().out
        assert one == two
        payload = json.loads(one)
        names = {series["name"] for series in payload["metrics"]}
        assert "repro_queries_total" in names

    def test_trace_text_shows_span_tree(self, tmp_path, capsys):
        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "grid:4x4", "-o", db_path])
        capsys.readouterr()
        assert main(
            ["trace", db_path, "-s", "0", "-t", "15", "--fail-vertex", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "decode" in out
        assert "decode.dijkstra" in out
        assert "nodes_settled=" in out

    def test_trace_json_round_trips(self, tmp_path, capsys):
        import json

        db_path = str(tmp_path / "labels.fsdl")
        main(["build", "cycle:12", "-o", db_path])
        capsys.readouterr()
        assert main(
            ["trace", db_path, "-s", "0", "-t", "6", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [span["name"] for span in payload["spans"]]
        assert "decode" in names
        assert "decode.dijkstra" in names


class TestTrafficCommand:
    def test_traffic_prom_output_and_summary(self, capsys):
        argv = ["traffic", "--seed", "1", "--duration-ms", "120"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "repro_scenario_p99_total_ms" in out
        assert "repro_gateway_requests_total{" in out
        assert "# scenario traffic seed=1: OK" in out

    def test_traffic_json_is_deterministic(self, capsys):
        import json

        argv = ["traffic", "--seed", "2", "--duration-ms", "120",
                "--format", "json"]
        assert main(argv) == 0
        one = capsys.readouterr().out
        assert main(argv) == 0
        two = capsys.readouterr().out
        assert one == two
        payload = json.loads(one)
        assert payload["ok"] is True
        assert payload["submitted"] > 0

    def test_traffic_is_a_thin_alias_of_scenario_run(self, tmp_path, capsys):
        # the generated trace, written to a file, replays to the very
        # report `repro traffic` prints for the same arguments
        from repro.scenario import serialize_trace, traffic_trace

        path = tmp_path / "traffic.scenario"
        path.write_text(
            serialize_trace(traffic_trace(seed=2, duration_ms=120.0)),
            encoding="utf-8",
        )
        assert main(["scenario", "run", str(path), "--format", "json"]) == 0
        replayed = capsys.readouterr().out
        assert main(["traffic", "--seed", "2", "--duration-ms", "120",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == replayed

    def test_traffic_json_matches_committed_golden(self, capsys):
        # regenerate (only after a deliberate behaviour change) with
        #   PYTHONPATH=src python -m repro traffic --seed 0 \
        #     --duration-ms 150 --format json \
        #     > tests/golden/traffic_seed0_150ms.json
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "traffic_seed0_150ms.json"
        argv = ["traffic", "--seed", "0", "--duration-ms", "150",
                "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_full_second_matches_committed_golden(self, capsys):
        # the whole battery: the 400-700 ms 1.6x rush, the 450-700 ms
        # burst and the shard outage; regenerate (only after a
        # deliberate behaviour change) with
        #   PYTHONPATH=src python -m repro traffic --seed 0 \
        #     --duration-ms 1000 --format json \
        #     > tests/golden/traffic_seed0_1000ms.json
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "traffic_seed0_1000ms.json"
        argv = ["traffic", "--seed", "0", "--duration-ms", "1000",
                "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("multiplier", ["0", "-1"])
    def test_bad_multiplier_is_rejected(self, multiplier, capsys):
        assert main(["traffic", "--multiplier", multiplier]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"traffic multiplier must be positive, got {multiplier}" in err


class TestScenarioCommands:
    def test_list_names_every_library_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "regional-ball-outage" in out
        assert "adversarial-found" in out

    def test_validate_library_is_clean(self, capsys):
        assert main(["scenario", "validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("OK ") >= 6

    def test_validate_corrupted_file_fails(self, tmp_path, capsys):
        from repro.scenario import scenario_paths

        good = scenario_paths()[0].read_text(encoding="utf-8")
        bad_path = tmp_path / "bad.scenario"
        bad_path.write_text(good.replace("crc ", "crc 0"), encoding="utf-8")
        assert main(["scenario", "validate", str(bad_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_run_text_report(self, capsys):
        from repro.scenario import scenario_paths

        path = next(
            p for p in scenario_paths() if p.stem == "rolling-maintenance"
        )
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "detour" in out

    def test_run_json_is_deterministic(self, capsys):
        import json

        from repro.scenario import scenario_paths

        path = next(
            p for p in scenario_paths() if p.stem == "rolling-maintenance"
        )
        argv = ["scenario", "run", str(path), "--format", "json"]
        assert main(argv) == 0
        one = capsys.readouterr().out
        assert main(argv) == 0
        two = capsys.readouterr().out
        assert one == two
        payload = json.loads(one)
        assert payload["ok"] is True

    def test_search_emits_a_replayable_trace(self, tmp_path, capsys):
        emitted = str(tmp_path / "found.scenario")
        argv = ["scenario", "search", "grid:6x6", "--budget", "2",
                "--seed", "5", "--emit", emitted]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "detour" in out
        assert main(["scenario", "validate", emitted]) == 0
        assert main(["scenario", "run", emitted]) == 0
