"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if hasattr(action, "choices") and action.choices)
        expected = {"list-models", "profile-dram", "fit-error-model", "characterize",
                    "boost", "evaluate-cpu", "evaluate-accel", "memsys",
                    "serve", "loadgen", "route", "ecc-sweep", "perf"}
        assert expected <= set(subparsers.choices)
        # Benchmarks run through `perf run`, not their own subcommands.
        assert not {"bench", "parallel-bench", "serve-bench"} & set(subparsers.choices)

    def test_perf_subcommands_registered(self):
        for sub in ("run", "report", "check", "list"):
            args = build_parser().parse_args(["perf", sub])
            assert args.perf_command == sub
            assert args.history == "BENCH_history.jsonl"
            assert args.benchmark is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults_parsed(self):
        args = build_parser().parse_args(["boost"])
        assert args.model == "lenet"
        assert args.vendor == "A"
        assert args.delta_vdd == pytest.approx(0.25)

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["memsys", "--bits", "12"])


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "ResNet101" in out and "YOLO" in out

    def test_profile_dram(self, capsys):
        assert main(["profile-dram", "--points", "3", "--trials", "2", "--rows", "1"]) == 0
        out = capsys.readouterr().out
        assert "BER vs supply voltage" in out
        assert "BER vs tRCD" in out

    def test_fit_error_model(self, capsys):
        assert main(["fit-error-model", "--trials", "2", "--rows", "1"]) == 0
        out = capsys.readouterr().out
        assert "Selected: Error Model" in out

    def test_memsys(self, capsys):
        assert main(["memsys", "--max-accesses", "1500", "--model", "squeezenet1.1"]) == 0
        out = capsys.readouterr().out
        assert "row-buffer hit rate" in out
        assert "DRAM energy" in out

    def test_evaluate_cpu(self, capsys):
        assert main(["evaluate-cpu", "--precisions", "8"]) == 0
        out = capsys.readouterr().out
        assert "DRAM energy reduction" in out
        assert "yolo" in out

    def test_evaluate_accel(self, capsys):
        assert main(["evaluate-accel"]) == 0
        out = capsys.readouterr().out
        assert "eyeriss" in out and "tpu" in out

    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model == "lenet"
        assert args.port == 8080
        assert args.queue_depth == 64
        assert args.deadline_ms is None
        assert args.handler is not None

    def test_loadgen_scenario_choices(self):
        args = build_parser().parse_args(["loadgen", "--scenario", "burst"])
        assert args.scenario == "burst"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--scenario", "bogus"])

    def test_loadgen_self_hosted_steady(self, capsys):
        assert main(["loadgen", "--requests", "24", "--concurrency", "2",
                     "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "loadgen steady" in out
        assert "bit-identical to in-process predict: True" in out
        assert "Serving telemetry" in out

    def test_loadgen_self_hosted_burst_sheds(self, capsys):
        assert main(["loadgen", "--scenario", "burst", "--requests", "32",
                     "--queue-depth", "2", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "burst" in out

    def test_ecc_sweep_registered_with_defaults(self):
        args = build_parser().parse_args(["ecc-sweep"])
        assert args.model == "lenet"
        assert args.error_model == 4
        assert args.correction == "rs72_64"
        assert args.bers == [1e-4, 1e-3, 1e-2]
        assert args.handler is not None

    def test_ecc_sweep_smoke(self, capsys):
        assert main(["ecc-sweep", "--model", "lenet", "--epochs", "1",
                     "--bers", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "corrected" in out and "uncorrectable" in out
        assert "rs72_64" in out

    def test_characterize_parallel_matches_serial(self, capsys):
        assert main(["characterize", "--model", "lenet", "--epochs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["characterize", "--model", "lenet", "--epochs", "1",
                     "--processes", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # The parallel grid prefetch must not change a single reported value.
        assert parallel_out == serial_out

    def test_characterize_small_model(self, capsys):
        assert main(["characterize", "--model", "lenet", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out or "tolerable" in out.lower() or "ber" in out.lower()
