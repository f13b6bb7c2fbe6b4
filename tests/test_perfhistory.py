"""Tests for the perf-history harness (repro.analysis.perfhistory).

Covers the record schema and environment fingerprint, the append-only
history store, the degradation detector (empty history seeds the baseline,
single-entry baselines, environment-mismatch exclusion, exact threshold
boundaries), the hard/advisory enforcement split of ``finish_run`` and
``repro.cli perf run``, and a synthetic injected regression that must fail
``repro.cli perf check``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis import perfhistory as ph
from repro.cli import main as cli_main


def make_env(**overrides) -> ph.EnvFingerprint:
    base = dict(cpu_count=4, python="3.12.1", numpy="2.4.6",
                blas="scipy-openblas", machine="x86_64", git_commit="abc123")
    base.update(overrides)
    return ph.EnvFingerprint(**base)


def make_record(benchmark="injection", metrics=None, env=None):
    return ph.BenchRecord.create(
        benchmark, metrics if metrics is not None else {"headline_speedup": 8.0},
        env=env if env is not None else make_env())


def seeded_history(path, benchmark, metric, values, env=None):
    store = ph.HistoryStore(path)
    for value in values:
        store.append(make_record(benchmark, {metric: value}, env=env))
    return store


class TestEnvFingerprint:
    def test_capture_populates_every_field(self):
        env = ph.EnvFingerprint.capture()
        assert env.cpu_count >= 1
        assert env.python.count(".") == 2
        assert env.numpy
        assert env.machine
        assert env.blas
        assert env.git_commit    # short hash in a git checkout

    def test_commit_never_affects_compatibility(self):
        assert make_env(git_commit="aaa").compatible_with(
            make_env(git_commit="bbb"))

    def test_python_patch_version_is_compatible(self):
        assert make_env(python="3.12.1").compatible_with(
            make_env(python="3.12.9"))
        assert not make_env(python="3.12.1").compatible_with(
            make_env(python="3.11.7"))

    @pytest.mark.parametrize("field,value", [
        ("cpu_count", 1), ("numpy", "1.26.0"), ("blas", "mkl"),
        ("machine", "arm64")])
    def test_any_other_field_mismatch_is_incompatible(self, field, value):
        assert not make_env().compatible_with(make_env(**{field: value}))

    def test_dict_roundtrip(self):
        env = make_env()
        assert ph.EnvFingerprint.from_dict(env.to_dict()) == env


class TestHistoryStore:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert ph.HistoryStore(tmp_path / "none.jsonl").load() == []

    def test_append_only_across_consecutive_runs(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        store = ph.HistoryStore(path)
        store.append(make_record(metrics={"m": 1.0}))
        first_bytes = path.read_bytes()
        store.append(make_record(metrics={"m": 2.0}))
        # The second run only ever adds a line; run 1 stays byte-identical.
        assert path.read_bytes().startswith(first_bytes)
        assert len(store.load()) == 2

    def test_roundtrip_preserves_record(self, tmp_path):
        store = ph.HistoryStore(tmp_path / "hist.jsonl")
        record = ph.BenchRecord.create("serving",
                                       {"bit_identical": True, "speedup": 4.5},
                                       units={"speedup": "x"}, env=make_env())
        store.append(record)
        loaded = store.load()[0]
        assert loaded == record

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        store = ph.HistoryStore(path)
        store.append(make_record())
        with path.open("a") as handle:
            handle.write("{not json\n\n")
        store.append(make_record())
        assert len(store.load()) == 2

    def test_entries_for_filters_benchmark(self, tmp_path):
        store = ph.HistoryStore(tmp_path / "hist.jsonl")
        store.append(make_record("injection"))
        store.append(make_record("serving", {"bit_identical": True}))
        assert [r.benchmark for r in store.entries_for("serving")] == ["serving"]


class TestSnapshot:
    def test_snapshot_keeps_legacy_shape_and_gains_stamp(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record = make_record(metrics={"speedup": 3.0})
        ph.write_snapshot(path, {"benchmark": "x", "headline": {"a": 1}},
                          record)
        data = json.loads(path.read_text())
        assert data["benchmark"] == "x"          # legacy view untouched
        assert data["headline"] == {"a": 1}
        stamp = data["perf"]                     # new: fingerprint + metrics
        assert stamp["env"]["cpu_count"] == 4
        assert stamp["env"]["git_commit"] == "abc123"
        assert stamp["metrics"]["speedup"] == 3.0
        assert stamp["schema"] == ph.SCHEMA_VERSION


SPEEDUP_GATE = ph.GateSpec("g", "speedup", floor=2.0, tolerance=0.25)
TOY_SPEC = ph.BenchmarkSpec("toy", "BENCH_toy.json", "toy_module:measure",
                            "toy", gates=(SPEEDUP_GATE,))


def one_gate(record, prior, gate=SPEEDUP_GATE):
    spec = dataclasses.replace(TOY_SPEC, gates=(gate,))
    results = ph.evaluate_gates(spec, record, prior)
    assert len(results) == 1
    return results[0]


class TestDegradationDetector:
    def test_empty_history_passes_and_seeds(self):
        result = one_gate(make_record("toy", {"speedup": 2.5}), prior=[])
        assert result.status == "pass"
        assert "seeds" in result.reason
        assert result.baseline is None

    def test_single_entry_baseline(self):
        prior = [make_record("toy", {"speedup": 8.0})]
        ok = one_gate(make_record("toy", {"speedup": 6.5}), prior)
        assert ok.status == "pass" and ok.baseline == 8.0
        bad = one_gate(make_record("toy", {"speedup": 5.9}), prior)
        assert bad.failed and "degraded" in bad.reason

    def test_environment_mismatch_excluded_from_window(self):
        # Ten glorious 4-CPU runs must not set the bar for a 1-CPU record.
        prior = [make_record("toy", {"speedup": 50.0}, env=make_env())
                 for _ in range(10)]
        record = make_record("toy", {"speedup": 2.1},
                             env=make_env(cpu_count=1))
        result = one_gate(record, prior)
        assert result.status == "pass"
        assert "seeds" in result.reason      # nothing comparable existed
        # And a compatible entry joins the window regardless of its commit.
        prior.append(make_record("toy", {"speedup": 2.2},
                                 env=make_env(cpu_count=1, git_commit="zzz")))
        result = one_gate(record, prior)
        assert result.baseline == 2.2

    def test_window_takes_most_recent_entries(self):
        values = [10.0, 10.0, 10.0, 4.0, 4.0, 4.0, 4.0, 4.0]
        prior = [make_record("toy", {"speedup": v}) for v in values]
        result = one_gate(make_record("toy", {"speedup": 3.2}), prior)
        # window=5 -> the three old 10.0 runs age out; median is 4.0.
        assert result.baseline == 4.0
        assert result.status == "pass"

    def test_exact_threshold_boundary(self):
        prior = [make_record("toy", {"speedup": 8.0})]
        at_threshold = one_gate(make_record("toy", {"speedup": 6.0}), prior)
        assert at_threshold.threshold == pytest.approx(6.0)
        assert at_threshold.status == "pass"     # value == threshold passes
        below = one_gate(make_record("toy", {"speedup": 5.999}), prior)
        assert below.failed

    def test_absolute_floor_applies_before_baseline(self):
        prior = [make_record("toy", {"speedup": 2.1})]
        result = one_gate(make_record("toy", {"speedup": 1.9}), prior)
        assert result.failed and "floor" in result.reason

    def test_exact_floor_boundary_passes(self):
        result = one_gate(make_record("toy", {"speedup": 2.0}), prior=[])
        assert result.status == "pass"

    def test_min_cpus_skips_not_passes(self):
        gate = dataclasses.replace(SPEEDUP_GATE, min_cpus=4)
        record = make_record("toy", {"speedup": 0.8},
                             env=make_env(cpu_count=1))
        result = one_gate(record, [], gate)
        assert result.status == "skip"
        assert "CPUs" in result.reason
        # With enough CPUs the same gate arms and the floor fails it.
        armed = one_gate(make_record("toy", {"speedup": 0.8}), [], gate)
        assert armed.failed

    def test_identity_gate_is_unconditional(self):
        gate = ph.GateSpec("ident", "bit_identical", kind="identity")
        good = one_gate(make_record("toy", {"bit_identical": True}), [], gate)
        assert good.status == "pass" and gate.hard
        bad = one_gate(make_record("toy", {"bit_identical": False}), [], gate)
        assert bad.failed

    def test_positive_gate(self):
        gate = ph.GateSpec("shed", "burst_shed", kind="positive")
        assert one_gate(make_record("toy", {"burst_shed": 17}), [],
                        gate).status == "pass"
        assert one_gate(make_record("toy", {"burst_shed": 0}), [],
                        gate).failed

    def test_missing_metric_fails(self):
        result = one_gate(make_record("toy", {"other": 1.0}), [])
        assert result.failed and "missing" in result.reason


class TestRegistry:
    def test_all_eight_benchmarks_registered(self):
        assert set(ph.BENCHMARKS) == {"injection", "inference", "serving",
                                      "quantized", "parallel", "server",
                                      "router", "ecc"}

    def test_every_measure_resolves_to_a_callable(self):
        for spec in ph.BENCHMARKS.values():
            assert callable(spec.resolve()), spec.measure

    def test_identity_gates_are_hard_and_floors_match_ci_history(self):
        floors = {name: {g.metric: g.floor for g in spec.gates
                         if g.kind == "speedup"}
                  for name, spec in ph.BENCHMARKS.items()}
        assert floors["injection"]["headline_speedup"] == 3.0
        assert floors["inference"]["sweep_speedup"] == 3.0
        assert floors["serving"]["microbatch_speedup"] == 2.0
        assert floors["quantized"]["speedup"] == 2.0
        assert floors["parallel"]["characterization_sweep_speedup"] == 2.0
        assert floors["router"]["scaleout_speedup"] == 2.0
        for name in ("parallel", "router"):
            speedups = [g for g in ph.BENCHMARKS[name].gates
                        if g.kind == "speedup"]
            assert all(g.min_cpus == 4 for g in speedups), name
        for spec in ph.BENCHMARKS.values():
            for gate in spec.gates:
                assert gate.hard == (gate.kind in ("identity", "positive"))


class TestFinishRun:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # finish_run writes the snapshot here

    def run(self, tmp_path, metrics, spec):
        history = tmp_path / "hist.jsonl"
        code = ph.finish_run(spec, metrics, {"benchmark": "toy"},
                             history=history)
        return code, tmp_path / spec.snapshot, history

    def test_writes_snapshot_and_appends_history(self, tmp_path, capsys):
        code, output, history = self.run(tmp_path, {"speedup": 9.0}, TOY_SPEC)
        assert code == 0
        assert json.loads(output.read_text())["perf"]["metrics"] \
            == {"speedup": 9.0}
        assert len(ph.HistoryStore(history).entries_for("toy")) == 1
        out = capsys.readouterr().out
        assert "perf metrics: toy" in out and "perf gates: toy" in out

    def test_hard_failure_is_fatal(self, tmp_path, capsys):
        spec = dataclasses.replace(TOY_SPEC, gates=(
            ph.GateSpec("ident", "bit_identical", kind="identity"),))
        code, _, _ = self.run(tmp_path, {"bit_identical": False}, spec)
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_speedup_failure_is_advisory_for_scripts(self, tmp_path, capsys):
        code, _, _ = self.run(tmp_path, {"speedup": 1.0}, TOY_SPEC)
        assert code == 0      # a run only dies on hard gates;
        assert "WARN" in capsys.readouterr().err   # perf check enforces it

    def test_failed_run_is_still_recorded(self, tmp_path):
        spec = dataclasses.replace(TOY_SPEC, gates=(
            ph.GateSpec("ident", "bit_identical", kind="identity"),))
        code, _, history = self.run(tmp_path, {"bit_identical": False}, spec)
        assert code == 1
        assert len(ph.HistoryStore(history).load()) == 1


class TestPerfRun:
    def test_run_records_toy_benchmark_and_exit_codes(self, tmp_path,
                                                      monkeypatch, capsys):
        metrics = {"bit_identical": True, "speedup": 9.0}
        monkeypatch.setattr(ph.BenchmarkSpec, "resolve", lambda self: lambda: (
            dict(metrics), {"speedup": "x"}, {"benchmark": "toy"}))
        spec = dataclasses.replace(TOY_SPEC, gates=(
            ph.GateSpec("ident", "bit_identical", kind="identity"),
            SPEEDUP_GATE))
        monkeypatch.setattr(ph, "BENCHMARKS", {"toy": spec})
        monkeypatch.chdir(tmp_path)
        hist = tmp_path / "hist.jsonl"
        argv = ["perf", "run", "--history", str(hist)]

        assert cli_main(argv) == 0
        stamp = json.loads((tmp_path / "BENCH_toy.json").read_text())["perf"]
        assert stamp["benchmark"] == "toy"
        assert stamp["metrics"] == metrics
        assert stamp["units"] == {"speedup": "x"}
        assert len(ph.HistoryStore(hist).entries_for("toy")) == 1

        metrics["speedup"] = 1.0        # below the floor: advisory only
        assert cli_main(argv + ["--benchmark", "toy"]) == 0
        assert "WARN: toy/g" in capsys.readouterr().err

        metrics["bit_identical"] = False
        assert cli_main(argv) == 1      # a hard gate failed
        assert len(ph.HistoryStore(hist).entries_for("toy")) == 3

    def test_unknown_benchmark_fails_before_measuring(self, tmp_path, capsys):
        assert cli_main(["perf", "run", "--history", str(tmp_path / "h"),
                         "--benchmark", "nope"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()


class TestPerfCheck:
    def test_synthetic_regression_fails_perf_check(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()      # compatible with "now"
        seeded_history(hist, "quantized", "speedup",
                       [2.6, 2.5, 2.6], env=env)
        assert cli_main(["perf", "check", "--history", str(hist)]) == 0
        # Inject a regression that breaches the absolute CI floor.
        ph.HistoryStore(hist).append(
            ph.BenchRecord.create("quantized", {"speedup": 1.8}, env=env))
        code = cli_main(["perf", "check", "--history", str(hist)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_regression_below_window_but_above_floor_fails(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        seeded_history(hist, "quantized", "speedup",
                       [4.0, 4.0, 4.0, 2.4], env=env)
        # 2.4 clears the 2.0 floor but is 40% below the median: degradation.
        results, code = ph.check_benchmarks(hist, ["quantized"])
        assert code == 1
        assert results["quantized"][0].failed

    def test_named_benchmark_without_record_fails(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert cli_main(["perf", "check", "--history", str(hist),
                         "--benchmark", "router"]) == 1
        assert "no history entry" in capsys.readouterr().err

    def test_unknown_benchmark_fails(self, tmp_path):
        results, code = ph.check_benchmarks(tmp_path / "h.jsonl", ["bogus"])
        assert code == 1 and not results

    def test_check_uses_latest_entry_per_benchmark(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        store = seeded_history(hist, "injection",
                               "headline_speedup", [9.0, 9.1], env=env)
        store.append(ph.BenchRecord.create(
            "injection", {"bit_identical": True, "headline_speedup": 8.8},
            env=env))
        results, code = ph.check_benchmarks(hist)
        assert code == 0
        by_name = {r.gate.name: r for r in results["injection"]}
        assert by_name["headline_cold_speedup"].value == pytest.approx(8.8)
        assert by_name["headline_cold_speedup"].baseline == pytest.approx(9.05)

    def test_cli_report_and_list(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        env = ph.EnvFingerprint.capture()
        seeded_history(hist, "quantized", "speedup", [2.5, 2.6], env=env)
        assert cli_main(["perf", "report", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "quantized" in out and "2.6" in out and "->" in out
        assert cli_main(["perf", "list", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "quantized" in out and env.git_commit in out
