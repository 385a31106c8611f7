"""Unit tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestDemo:
    def test_demo_prints_all_classes(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        for cls in ("monadic-serial", "polyadic-serial", "monadic-nonserial", "polyadic-nonserial"):
            assert cls in out
        assert "True" in out and "False" not in out

    def test_demo_seed_changes_instances(self, capsys):
        main(["demo", "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["demo", "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1 != out2  # random workloads differ
        main(["demo", "--seed", "1"])
        assert capsys.readouterr().out == out1  # but are reproducible


class TestFig6:
    def test_fig6_small_n(self, capsys):
        assert main(["fig6", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "argmin of K*T^2" in out
        assert "N/log2(N) = 32" in out

    def test_fig6_default(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "K = 399" in out  # the measured argmin for N=4096


class TestSpacetime:
    def test_spacetime_renders(self, capsys):
        assert main(["spacetime", "--stages", "3", "--values", "2"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P2" in out
        assert "F0" in out
        assert "8 iterations" in out  # (N+1)*m = 4*2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBench:
    def test_bench_times_both_backends(self, capsys):
        assert main(["bench", "--n", "6", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "backend=rtl" in out
        assert "backend=fast" in out
        assert "speedup fast vs rtl" in out

    def test_bench_writes_record(self, tmp_path, capsys):
        import json

        f = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "--n", "6", "--m", "4", "--json", str(f)]) == 0
        record = json.loads(f.read_text())
        assert record["design"] == "fig3-pipelined"
        assert record["N"] == 6 and record["m"] == 4
        assert record["iterations"] > 0

    def test_demo_backend_flag(self, capsys):
        assert main(["demo", "--backend", "fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("True") == 4

    def test_bench_all_designs_writes_uniform_records(self, tmp_path, capsys):
        import json

        assert main(
            ["bench", "--design", "all", "--n", "4", "--m", "3",
             "--backend", "fast", "--out-dir", str(tmp_path)]
        ) == 0
        summary_path = tmp_path / "BENCH_all.json"
        records = sorted(
            f for f in tmp_path.glob("BENCH_*.json") if f != summary_path
        )
        assert len(records) == 5
        names = {json.loads(f.read_text())["design"] for f in records}
        assert names == {
            "fig3-pipelined", "fig4-broadcast", "fig5-feedback",
            "mesh-matmul", "parenthesizer-systolic",
        }
        keys = {"bench", "design", "backend", "N", "m", "wall_seconds",
                "iterations", "pu"}
        for f in records:
            record = json.loads(f.read_text())
            assert set(record) == keys
            assert record["backend"] == "fast"
        # `--design all` also consolidates every record into one summary.
        summary = json.loads(summary_path.read_text())
        assert summary["bench"] == "cli_smoke_suite"
        assert len(summary["records"]) == 5
        assert set(summary["designs"]) == names
        assert summary["total_wall_seconds"] == pytest.approx(
            sum(r["wall_seconds"] for r in summary["records"])
        )

    def test_bench_all_with_json_writes_consolidated_record(self, tmp_path, capsys):
        import json

        out = tmp_path / "suite.json"
        assert main(
            ["bench", "--design", "all", "--n", "4", "--m", "3",
             "--backend", "fast", "--json", str(out)]
        ) == 0
        suite = json.loads(out.read_text())
        assert suite["bench"] == "cli_smoke_suite"
        assert [r["design"] for r in suite["records"]] == suite["designs"]
        assert len(suite["records"]) == 5

    def test_bench_single_design_json_keeps_flat_record(self, tmp_path, capsys):
        import json

        out = tmp_path / "one.json"
        assert main(
            ["bench", "--design", "feedback", "--n", "4", "--m", "3",
             "--backend", "fast", "--json", str(out)]
        ) == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "cli_smoke"
        assert "records" not in record


class TestBatch:
    def test_batch_mixed_kinds_with_json_record(self, tmp_path, capsys):
        import json

        out = tmp_path / "batch.json"
        assert main(
            ["batch", "--kind", "mixed", "--batch", "12", "--n", "4",
             "--m", "3", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "solve_batch()" in text and "cache second pass" in text
        record = json.loads(out.read_text())
        assert record["bench"] == "batch_cli"
        assert record["batch"] == 12
        assert record["second_pass_cache_hits"] == 12
        assert record["speedup"] > 0


class TestSpacetimeJson:
    def test_spacetime_json_timeline(self, capsys):
        import json

        assert main(["spacetime", "--stages", "3", "--values", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "telemetry_timeline"
        assert record["design"] == "fig5-feedback"
        assert record["num_pes"] == 2
        assert record["pu"]["iterations"] == 8  # (N+1)*m = 4*2


class TestTrace:
    @pytest.mark.parametrize(
        "design", ["pipelined", "broadcast", "feedback", "mesh", "paren"]
    )
    def test_trace_chrome_every_design(self, design, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(
            ["trace", "--design", design, "--export", "chrome",
             "--n", "4", "--m", "3", "--out", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "(rtl):" in text and "PU " in text
        summary = validate_chrome_trace(json.loads(out.read_text()))
        assert summary["events"] > 0

    def test_trace_ascii_heatmap_and_phase_table(self, capsys):
        assert main(
            ["trace", "--design", "pipelined", "--export", "ascii",
             "--n", "4", "--m", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "space-time occupancy:" in out
        assert "phase  label" in out

    def test_trace_json_record_loads(self, tmp_path, capsys):
        from repro.io import load_run_record

        out = tmp_path / "run.json"
        assert main(
            ["trace", "--design", "feedback", "--export", "json",
             "--n", "4", "--m", "3", "--out", str(out)]
        ) == 0
        rec = load_run_record(out)
        assert rec.report.design == "fig5-feedback"
        assert rec.events
        assert rec.metrics is not None
        assert rec.timings is not None

    def test_trace_metrics_formats(self, tmp_path, capsys):
        import json

        snap = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert main(
            ["trace", "--design", "feedback", "--n", "4", "--m", "3",
             "--out", str(trace), "--metrics", str(snap)]
        ) == 0
        assert json.loads(snap.read_text())["kind"] == "metrics_snapshot"
        assert main(
            ["trace", "--design", "feedback", "--n", "4", "--m", "3",
             "--out", str(trace), "--metrics", str(prom)]
        ) == 0
        assert "# TYPE repro_trace_events_total counter" in prom.read_text()


class TestCompare:
    def test_compare_identical_and_changed(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(
            ["trace", "--design", "feedback", "--export", "json",
             "--n", "4", "--m", "3", "--out", str(a)]
        ) == 0
        assert main(
            ["trace", "--design", "feedback", "--export", "json",
             "--n", "5", "--m", "3", "--out", str(b)]
        ) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:3] == ["metric", "a.json", "b.json"]
        assert "iterations" in out
        assert main(["compare", str(a), str(a), "--only-changed"]) == 0
        out = capsys.readouterr().out
        # Identical runs: report scalars vanish; only wall-clock timings
        # (never reproducible) may remain.
        for line in out.splitlines()[2:]:
            assert line.startswith(("timing:", "(no metrics)"))


class TestInject:
    def _flip_plan(self, tmp_path):
        import json

        path = tmp_path / "flip.json"
        path.write_text(json.dumps({
            "kind": "fault_plan", "design": "pipelined",
            "specs": [{"mode": "transient_flip", "pe": 1, "reg": "ACC",
                       "tick": 1, "delta": -1000.0}],
        }))
        return path

    def test_campaign_table_and_health_line(self, capsys):
        assert main(["inject", "--design", "pipelined", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "design" in out and "silent" in out  # the rate table header
        assert "pipelined" in out
        assert "every output-corrupting fault was detected or recovered" in out

    def test_campaign_json_suite(self, tmp_path, capsys):
        import json

        f = tmp_path / "suite.json"
        assert main(
            ["inject", "--design", "mesh", "--trials", "5", "--json", str(f)]
        ) == 0
        payload = json.loads(f.read_text())
        assert payload["kind"] == "fault_campaign_suite"
        assert payload["campaigns"][0]["design"] == "mesh"
        assert payload["campaigns"][0]["undetected_effective"] == 0
        assert payload["metrics"]["kind"] == "metrics_snapshot"

    def test_plan_file_retry_recovers(self, tmp_path, capsys):
        plan = self._flip_plan(tmp_path)
        assert main(["inject", "--fault-plan", str(plan), "--policy", "retry"]) == 0
        out = capsys.readouterr().out
        assert "outcome recovered" in out

    def test_plan_file_spare_reports_degraded_pu(self, tmp_path, capsys):
        import json

        plan = tmp_path / "dead.json"
        plan.write_text(json.dumps({
            "kind": "fault_plan", "design": "pipelined",
            "specs": [{"mode": "dead_pe", "pe": 1, "tick": 2}],
        }))
        record = tmp_path / "run.json"
        assert main(
            ["inject", "--fault-plan", str(plan), "--policy", "spare",
             "--json", str(record)]
        ) == 0
        out = capsys.readouterr().out
        assert "outcome degraded" in out
        assert "spare-PE remap of PE 1" in out
        payload = json.loads(record.read_text())
        assert payload["kind"] == "fault_run_record"
        assert payload["run"]["outcome"] == "degraded"

    def test_plan_design_mismatch_is_a_cli_error(self, tmp_path, capsys):
        plan = self._flip_plan(tmp_path)
        assert main(
            ["inject", "--fault-plan", str(plan), "--design", "mesh"]
        ) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_plan_file_exits_2(self, tmp_path, capsys):
        assert main(["inject", "--fault-plan", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_corrupted_plan_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["inject", "--fault-plan", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_design_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "--design", "hypercube"])
        assert excinfo.value.code == 2


class TestTraceFaultPlan:
    def test_trace_under_plan_reports_injections(self, tmp_path, capsys):
        import json

        from repro.io import load_run_record

        plan = tmp_path / "flip.json"
        plan.write_text(json.dumps({
            "kind": "fault_plan", "design": "pipelined",
            "specs": [{"mode": "transient_flip", "pe": 1, "reg": "ACC",
                       "tick": 1, "delta": -1000.0}],
        }))
        out_file = tmp_path / "run.json"
        assert main(
            ["trace", "--design", "pipelined", "--n", "4", "--m", "3",
             "--fault-plan", str(plan), "--export", "json", "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 spec(s), 1 injection(s) performed" in out
        rec = load_run_record(out_file)
        assert rec.faults is not None
        assert rec.faults["kind"] == "fault_trace"
        assert len(rec.faults["injections"]) == 1
        assert any(ev.kind == "fault" for ev in rec.events)

    def test_trace_plan_design_mismatch_exits_2(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "kind": "fault_plan", "design": "mesh",
            "specs": [{"mode": "dead_pe", "pe": 0}],
        }))
        assert main(
            ["trace", "--design", "pipelined", "--fault-plan", str(plan)]
        ) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_crash_under_injection_exits_1(self, tmp_path, capsys):
        import json

        plan = tmp_path / "dead.json"
        plan.write_text(json.dumps({
            "kind": "fault_plan", "design": "feedback",
            "specs": [{"mode": "dead_pe", "pe": 1, "tick": 2}],
        }))
        assert main(
            ["trace", "--design", "feedback", "--n", "4", "--m", "3",
             "--fault-plan", str(plan)]
        ) == 1
        out = capsys.readouterr().out
        assert "run crashed under fault injection" in out


class TestCliErrors:
    def test_compare_missing_file_exits_2(self, tmp_path, capsys):
        assert main(
            ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_compare_corrupted_record_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("{broken")
        assert main(["compare", str(a), str(a)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--backend", "quantum"])
        assert excinfo.value.code == 2

    def test_unknown_trace_design_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--design", "hypercube"])
        assert excinfo.value.code == 2
