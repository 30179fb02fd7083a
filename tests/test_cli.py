"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "200.sixtrack" in output
        assert output.count("recurrence-bound") == 10


class TestEvaluate:
    def test_evaluate_one(self, capsys):
        assert main(["evaluate", "sixtrack", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "ED^2 vs optimum homogeneous" in output
        assert "slow/fast ratio" in output

    def test_two_buses(self, capsys):
        assert main(["evaluate", "swim", "--buses", "2", "--scale", "0.02"]) == 0
        assert "2 bus(es)" in capsys.readouterr().out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["evaluate", "quake", "--scale", "0.02"])

    def test_json_output(self, capsys):
        assert main(
            ["evaluate", "swim", "--scale", "0.02", "--output", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "171.swim"
        assert set(data) >= {
            "profile",
            "units",
            "baseline_selection",
            "heterogeneous_selection",
            "heterogeneous_measured",
        }
        # canonical dict form: round-trips through the serializer
        from repro.pipeline import BenchmarkEvaluation

        assert BenchmarkEvaluation.from_dict(data).to_dict() == data

    def test_unknown_machine_file_fails_fast(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="cannot read machine file"):
            main(["evaluate", "swim", "--scale", "0.02", "--machine-file", "warp9"])

    def test_paper_machine_file_token_is_the_default_machine(self, capsys):
        runs = []
        for extra in ([], ["--machine-file", "paper"]):
            assert main(
                ["evaluate", "swim", "--scale", "0.02", "--output", "json"]
                + extra
            ) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestRemovedFlags:
    @pytest.mark.parametrize("verb", ("evaluate swim", "suite", "campaign"))
    def test_stage_plan_flags_are_rejected(self, verb, capsys):
        # The pipeline is fixed, so there is no plan to print.
        for flag in ("--stages", "--explain"):
            with pytest.raises(SystemExit) as raised:
                main(verb.split() + [flag])
            assert raised.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_suite_rejects_workloads(self, capsys):
        # suite runs only the ten built-in profiles, so a pack would be
        # silently ignored.
        with pytest.raises(SystemExit) as raised:
            main(["suite", "--workloads", "stress"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --workloads" in capsys.readouterr().err
        with pytest.raises(SystemExit) as raised:
            main(["trace", "suite", "--workloads", "stress"])
        assert raised.value.code == 2
        assert "--workloads applies to trace evaluate" in capsys.readouterr().err


class TestTable2:
    def test_prints_measured_shares(self, capsys):
        assert main(["table2", "--scale", "0.01"]) == 0
        output = capsys.readouterr().out
        assert "Table 2 (measured)" in output
        assert "171.swim" in output


class TestTrace:
    def test_trace_evaluate_prints_span_tree(self, capsys):
        from repro.telemetry import disable_tracing

        try:
            assert main(
                ["trace", "evaluate", "swim", "--scale", "0.02"]
            ) == 0
        finally:
            disable_tracing()
        captured = capsys.readouterr()
        assert "evaluate" in captured.out
        assert "schedule" in captured.out
        assert "attributed to named spans:" in captured.out
        assert "171.swim:" in captured.err  # the ed2 line -> stderr

    def test_trace_json_output_is_a_span_tree(self, capsys):
        from repro.telemetry import disable_tracing

        try:
            assert main(
                [
                    "trace", "evaluate", "swim",
                    "--scale", "0.02", "--output", "json",
                ]
            ) == 0
        finally:
            disable_tracing()
        tree = json.loads(capsys.readouterr().out)
        assert tree["name"] == "evaluate"
        assert {child["name"] for child in tree["children"]} >= {
            "profile", "schedule",
        }

    def test_trace_evaluate_requires_benchmark(self, capsys):
        assert main(["trace", "evaluate"]) == 2
        assert "benchmark" in capsys.readouterr().err


class TestVerbosityFlags:
    def test_verbose_flag_accepted_before_command(self, capsys):
        assert main(["-v", "list"]) == 0
        assert "200.sixtrack" in capsys.readouterr().out

    def test_quiet_flag_accepted(self, capsys):
        assert main(["-q", "list"]) == 0
        assert "200.sixtrack" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_bus_count(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "swim", "--buses", "3"])
