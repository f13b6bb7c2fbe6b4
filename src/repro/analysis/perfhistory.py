"""Continuous performance history: where every benchmark is defined and run.

Each benchmark is one registry entry here: its measure callable, its
``BENCH_*.json`` snapshot and its regression gates.  This module runs the
benchmarks and owns the record schema, the history and the gates, modeled
on perun-style "performance version systems": per-commit profiles plus
degradation detection against history instead of fixed thresholds.

The pieces
----------

* :class:`EnvFingerprint` — where a measurement ran: CPU count, Python /
  NumPy / BLAS versions, machine, git commit.  Two fingerprints are
  *compatible* when everything but the commit matches, so a 1-CPU container
  run can never be compared against a 4-CPU CI run.
* :class:`BenchRecord` — one benchmark run: flat ``metrics`` (floats and
  bools), ``units``, the fingerprint, a timestamp.
* :class:`HistoryStore` — the append-only per-commit store
  (``BENCH_history.jsonl``, one record per line).  The legacy ``BENCH_*.json``
  snapshots are still written as the latest-run view (see
  :func:`write_snapshot`), now stamped with the fingerprint.
* :class:`GateSpec` / :func:`evaluate_gates` — the degradation detector.
  ``identity``/``positive`` gates are unconditional hard failures;
  ``speedup`` gates compare against the median of a baseline window of
  prior runs from a compatible environment (± tolerance), keep the CI
  floor as an absolute minimum, and *skip* (rather than silently pass)
  when the environment cannot express the measurement — the one documented
  skip policy, see ``docs/benchmarks.md``.
* :data:`BENCHMARKS` — the registry of all eight benchmarks: each
  :class:`BenchmarkSpec` names its measure callable, its snapshot and its
  gates.  ``repro.cli perf run`` measures and records them
  (:func:`run_benchmarks`); ``repro.cli perf {report,check,list}`` renders
  trends and evaluates gates from the history.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

MetricValue = Union[float, int, bool]

#: what a benchmark's measure callable returns: ``(metrics, units, payload)``.
Measurement = Tuple[Mapping[str, MetricValue], Mapping[str, str],
                    Mapping[str, object]]

#: current on-disk schema version of history entries and snapshot stamps.
SCHEMA_VERSION = 1

#: default file the append-only history lives in (one JSON object per line).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: baseline window: how many prior compatible runs feed the median.
DEFAULT_WINDOW = 5

#: tolerated fractional drop below the baseline-window median before a
#: speedup gate fails (shared-runner wall clocks are noisy).
DEFAULT_TOLERANCE = 0.25


def _blas_name() -> str:
    """Best-effort name of the BLAS NumPy was built against.

    Returns the build-dependency name from ``numpy.show_config`` when the
    introspection API exists (NumPy >= 1.26), else ``"unknown"``.
    """
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except Exception:
        return "unknown"


def _git_commit() -> str:
    """Short commit hash of the working tree, or a CI/unknown fallback.

    Returns ``git rev-parse --short=12 HEAD`` when a repository is
    reachable from the current directory, else ``$GITHUB_SHA`` (truncated),
    else ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sha = os.environ.get("GITHUB_SHA", "")
    return sha[:12] if sha else "unknown"


@dataclass(frozen=True)
class EnvFingerprint:
    """Environment a benchmark ran in, for trajectory and compatibility.

    ``cpu_count``, ``python``, ``numpy``, ``blas`` and ``machine`` define
    *compatibility* (measurements are only comparable across runs where all
    five match; ``python`` matches at major.minor); ``git_commit`` stamps
    the trajectory but never affects compatibility.
    """

    cpu_count: int
    python: str
    numpy: str
    blas: str
    machine: str
    git_commit: str

    @classmethod
    def capture(cls) -> "EnvFingerprint":
        """Capture the current process environment as a fingerprint and return it."""
        import numpy as np

        return cls(cpu_count=os.cpu_count() or 1,
                   python=platform.python_version(),
                   numpy=np.__version__,
                   blas=_blas_name(),
                   machine=platform.machine(),
                   git_commit=_git_commit())

    def _python_minor(self) -> str:
        return ".".join(self.python.split(".")[:2])

    def compatible_with(self, other: "EnvFingerprint") -> bool:
        """Return whether measurements from ``other`` are comparable to ours.

        Everything except ``git_commit`` must match; Python versions are
        compared at major.minor granularity.
        """
        return (self.cpu_count == other.cpu_count
                and self._python_minor() == other._python_minor()
                and self.numpy == other.numpy
                and self.blas == other.blas
                and self.machine == other.machine)

    def to_dict(self) -> Dict[str, object]:
        """Return the fingerprint as a JSON-ready dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EnvFingerprint":
        """Rebuild a fingerprint from :meth:`to_dict` output ``data`` and return it."""
        return cls(cpu_count=int(data.get("cpu_count", 0)),
                   python=str(data.get("python", "")),
                   numpy=str(data.get("numpy", "")),
                   blas=str(data.get("blas", "unknown")),
                   machine=str(data.get("machine", "")),
                   git_commit=str(data.get("git_commit", "unknown")))


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run: named metrics, their units, and the environment.

    ``benchmark`` is the registry key (e.g. ``"injection"``), ``metrics`` a
    flat mapping of metric name to float/int/bool, ``units`` an optional
    metric-name → unit-label mapping, ``env`` the fingerprint and
    ``timestamp`` an ISO-8601 UTC stamp.
    """

    benchmark: str
    metrics: Dict[str, MetricValue]
    units: Dict[str, str] = field(default_factory=dict)
    env: EnvFingerprint = field(default_factory=EnvFingerprint.capture)
    timestamp: str = ""

    @classmethod
    def create(cls, benchmark: str, metrics: Mapping[str, MetricValue],
               units: Optional[Mapping[str, str]] = None,
               env: Optional[EnvFingerprint] = None) -> "BenchRecord":
        """Build a record for ``benchmark`` with a fresh timestamp and return it.

        ``metrics`` and ``units`` are copied; ``env`` defaults to
        :meth:`EnvFingerprint.capture`.
        """
        return cls(benchmark=benchmark, metrics=dict(metrics),
                   units=dict(units or {}),
                   env=env if env is not None else EnvFingerprint.capture(),
                   timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))

    def to_dict(self) -> Dict[str, object]:
        """Return the record as a JSON-ready dict (the history-line shape)."""
        return {"schema": SCHEMA_VERSION,
                "benchmark": self.benchmark,
                "timestamp": self.timestamp,
                "env": self.env.to_dict(),
                "metrics": dict(self.metrics),
                "units": dict(self.units)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchRecord":
        """Rebuild a record from a parsed history line ``data`` and return it."""
        return cls(benchmark=str(data.get("benchmark", "")),
                   metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
                   units=dict(data.get("units", {})),      # type: ignore[arg-type]
                   env=EnvFingerprint.from_dict(data.get("env", {})),  # type: ignore[arg-type]
                   timestamp=str(data.get("timestamp", "")))


class HistoryStore:
    """Append-only per-commit benchmark history (``BENCH_history.jsonl``).

    One JSON object per line, oldest first; :meth:`append` only ever adds a
    line, so prior entries are immutable — the degradation detector's
    baseline windows are read from here.  ``path`` is the history file
    location (created on first append).
    """

    def __init__(self, path: Union[str, Path] = DEFAULT_HISTORY) -> None:
        self.path = Path(path)

    def load(self) -> List[BenchRecord]:
        """Return every parseable record in the history, oldest first.

        A missing file is an empty history; unparseable lines are skipped
        rather than poisoning every future gate evaluation.
        """
        if not self.path.exists():
            return []
        records: List[BenchRecord] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(BenchRecord.from_dict(json.loads(line)))
            except (ValueError, TypeError):
                continue
        return records

    def append(self, record: BenchRecord) -> None:
        """Append ``record`` as one new line; existing lines are never touched."""
        with self.path.open("a") as handle:
            handle.write(json.dumps(record.to_dict()) + "\n")

    def entries_for(self, benchmark: str) -> List[BenchRecord]:
        """Return the history entries of ``benchmark`` only, oldest first."""
        return [r for r in self.load() if r.benchmark == benchmark]


def baseline_window(prior: Sequence[BenchRecord], record: BenchRecord,
                    metric: str, window: int = DEFAULT_WINDOW) -> List[float]:
    """Baseline values for ``metric`` of ``record`` from prior runs.

    Filters ``prior`` down to entries of the same benchmark whose
    environment is compatible with ``record.env`` and that carry ``metric``,
    then returns the most recent ``window`` values (oldest first).
    """
    values = [float(entry.metrics[metric]) for entry in prior
              if entry.benchmark == record.benchmark
              and metric in entry.metrics
              and entry.env.compatible_with(record.env)]
    return values[-window:]


@dataclass(frozen=True)
class GateSpec:
    """Declarative regression gate over one metric of one benchmark.

    ``kind`` selects the semantics: ``"identity"`` (metric must be truthy —
    bit-identity style, unconditional hard failure), ``"positive"`` (metric
    must be ``> 0`` — e.g. a burst must shed, also hard), or ``"speedup"``
    (higher-is-better: must clear the absolute ``floor`` when set, and must
    not drop more than ``tolerance`` below the median of the last ``window``
    compatible history entries).  ``name`` labels the gate in reports,
    ``metric`` names the gated metric, and ``min_cpus`` (speedup gates only)
    skips the gate outright on machines with fewer visible CPUs — the
    environment-aware replacement for the old per-script auto-skip hacks.
    """

    name: str
    metric: str
    kind: str = "speedup"
    floor: Optional[float] = None
    min_cpus: Optional[int] = None
    window: int = DEFAULT_WINDOW
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def hard(self) -> bool:
        """Whether this gate is an unconditional hard failure when violated."""
        return self.kind in ("identity", "positive")


@dataclass(frozen=True)
class GateResult:
    """Outcome of evaluating one :class:`GateSpec` against one record.

    ``status`` is ``"pass"``, ``"fail"`` or ``"skip"``; ``reason`` is the
    human-readable explanation; ``value`` the measured metric (``None`` when
    missing); ``baseline`` the window median and ``threshold`` the effective
    pass bar, when a baseline existed.  ``gate`` is the spec evaluated.
    """

    gate: GateSpec
    status: str
    reason: str
    value: Optional[float] = None
    baseline: Optional[float] = None
    threshold: Optional[float] = None

    @property
    def failed(self) -> bool:
        """Whether the gate failed."""
        return self.status == "fail"


def _evaluate_gate(gate: GateSpec, record: BenchRecord,
                   prior: Sequence[BenchRecord]) -> GateResult:
    value = record.metrics.get(gate.metric)
    if value is None:
        return GateResult(gate, "fail",
                          f"metric {gate.metric!r} missing from record")
    if gate.kind == "identity":
        if bool(value):
            return GateResult(gate, "pass", "bit-identity holds", float(bool(value)))
        return GateResult(gate, "fail", "bit-identity violated", 0.0)
    if gate.kind == "positive":
        if float(value) > 0:
            return GateResult(gate, "pass", f"{gate.metric} > 0", float(value))
        return GateResult(gate, "fail", f"{gate.metric} must be > 0",
                          float(value))

    # speedup: environment arming first, then floor, then baseline window.
    value = float(value)
    if gate.min_cpus is not None and record.env.cpu_count < gate.min_cpus:
        return GateResult(
            gate, "skip",
            f"needs >= {gate.min_cpus} CPUs, {record.env.cpu_count} visible",
            value)
    if gate.floor is not None and value < gate.floor:
        return GateResult(gate, "fail",
                          f"below absolute floor {gate.floor:g}x", value,
                          threshold=gate.floor)
    baseline = baseline_window(prior, record, gate.metric, gate.window)
    if not baseline:
        return GateResult(gate, "pass",
                          "no compatible baseline - this run seeds it", value)
    median = statistics.median(baseline)
    threshold = median * (1.0 - gate.tolerance)
    if value >= threshold:
        return GateResult(gate, "pass",
                          f"within {gate.tolerance:.0%} of window median",
                          value, baseline=median, threshold=threshold)
    return GateResult(
        gate, "fail",
        f"degraded: below window median {median:.3g} by more than "
        f"{gate.tolerance:.0%} (n={len(baseline)})",
        value, baseline=median, threshold=threshold)


def evaluate_gates(spec: "BenchmarkSpec", record: BenchRecord,
                   prior: Sequence[BenchRecord]) -> List[GateResult]:
    """Evaluate every gate of ``spec`` against ``record`` and return the results.

    ``prior`` is the history *before* ``record`` was appended (the baseline
    pool); incompatible-environment entries are filtered per gate.
    """
    return [_evaluate_gate(gate, record, prior) for gate in spec.gates]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry for one benchmark.

    ``name`` is the registry key, ``snapshot`` the legacy latest-run JSON
    file, ``measure`` a ``"module:function"`` reference to the callable that
    runs the benchmark, ``title`` a human-readable one-liner and ``gates``
    the regression gates evaluated by ``repro.cli perf run`` and
    ``repro.cli perf check``.  The callable takes no arguments and returns a
    :data:`Measurement`; it is imported only by :meth:`resolve`, so the
    registry never imports the stacks it measures.
    """

    name: str
    snapshot: str
    measure: str
    title: str
    gates: Tuple[GateSpec, ...] = ()

    def resolve(self) -> Callable[[], Measurement]:
        """Import the module named by ``measure`` and return its callable."""
        module, _, function = self.measure.partition(":")
        return getattr(importlib.import_module(module), function)


#: all eight benchmarks and every CI gate decision, in one place.  Floors
#: mirror the historical ``--check-*`` thresholds; the skip policy for
#: ``min_cpus`` gates is documented in ``docs/benchmarks.md``.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in (
        BenchmarkSpec(
            "injection", "BENCH_injection.json",
            "repro.engine.bench:injection_benchmark",
            "packed injection engine vs boolean reference",
            gates=(GateSpec("packed_vs_reference_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("headline_cold_speedup", "headline_speedup",
                            floor=3.0))),
        BenchmarkSpec(
            "inference", "BENCH_inference.json",
            "repro.engine.bench:inference_benchmark",
            "static-store vs per-read characterization sweep",
            gates=(GateSpec("sweep_speedup", "sweep_speedup", floor=3.0),)),
        BenchmarkSpec(
            "serving", "BENCH_serving.json",
            "repro.serve.bench:serving_benchmark",
            "micro-batched gateway vs batch-1 serial",
            gates=(GateSpec("microbatch_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("microbatch_speedup", "microbatch_speedup",
                            floor=2.0))),
        BenchmarkSpec(
            "quantized", "BENCH_quantized.json",
            "repro.engine.bench:quantized_benchmark",
            "fused integer-GEMM plan vs FP32 static store",
            gates=(GateSpec("quantized_speedup", "speedup", floor=2.0),)),
        BenchmarkSpec(
            "parallel", "BENCH_parallel.json",
            "repro.parallel.bench:parallel_benchmark",
            "shared-memory executor vs serial sweeps",
            gates=(GateSpec("characterization_sweep_identity",
                            "characterization_sweep_identical",
                            kind="identity"),
                   GateSpec("device_sweep_identity", "device_sweep_identical",
                            kind="identity"),
                   GateSpec("coarse_characterization_identity",
                            "coarse_characterization_identical",
                            kind="identity"),
                   GateSpec("serving_identity", "serving_identical",
                            kind="identity"),
                   GateSpec("characterization_sweep_speedup",
                            "characterization_sweep_speedup",
                            floor=2.0, min_cpus=4))),
        BenchmarkSpec(
            "server", "BENCH_server.json",
            "repro.serve.bench:server_benchmark",
            "HTTP front end under generated load",
            gates=(GateSpec("steady_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("burst_sheds", "burst_shed", kind="positive"),
                   GateSpec("burst_admitted_correct", "burst_admitted_correct",
                            kind="identity"))),
        BenchmarkSpec(
            "router", "BENCH_router.json",
            "repro.serve.bench:router_benchmark",
            "multi-replica router tier scale-out",
            gates=(GateSpec("router_bit_identity", "bit_identical",
                            kind="identity"),
                   GateSpec("scaleout_speedup", "scaleout_speedup",
                            floor=2.0, min_cpus=4))),
        BenchmarkSpec(
            "ecc", "BENCH_ecc.json",
            "repro.engine.bench:ecc_benchmark",
            "ECC-corrected weight store vs raw burst corruption",
            gates=(GateSpec("corrected_store_identity", "store_bit_identical",
                            kind="identity"),
                   GateSpec("corrected_accounting", "corrected_symbols",
                            kind="positive"))),
    )
}


def write_snapshot(path: Union[str, Path], payload: Mapping[str, object],
                   record: BenchRecord) -> None:
    """Write the legacy latest-run snapshot ``payload`` to ``path``, stamped.

    The snapshot keeps its historical shape (``benchmark``, ``headline``,
    script-specific keys) for backward compatibility and gains a ``perf``
    block carrying the :class:`BenchRecord` — metrics, units, environment
    fingerprint and git commit — so a snapshot alone identifies where it
    was measured.  ``record`` supplies the stamp.
    """
    stamped = dict(payload)
    stamped["perf"] = record.to_dict()
    Path(path).write_text(json.dumps(stamped, indent=2) + "\n")


def format_gate_results(benchmark: str,
                        results: Sequence[GateResult]) -> str:
    """Render gate ``results`` for ``benchmark`` as an aligned text table and return it."""
    from repro.analysis.reporting import format_table

    rows = []
    for result in results:
        value = "-" if result.value is None else f"{result.value:.4g}"
        bar = ""
        if result.threshold is not None:
            bar = f">= {result.threshold:.3g}"
            if result.baseline is not None:
                bar += f" (median {result.baseline:.3g})"
        rows.append((result.gate.name, result.gate.kind, value, bar,
                     result.status.upper(), result.reason))
    return format_table(
        ["gate", "kind", "value", "bar", "status", "reason"], rows,
        title=f"perf gates: {benchmark}")


def finish_run(spec: BenchmarkSpec, metrics: Mapping[str, MetricValue],
               payload: Mapping[str, object],
               units: Optional[Mapping[str, str]] = None, *,
               history: Union[str, Path] = DEFAULT_HISTORY) -> int:
    """Record a benchmark run and evaluate its gates; returns the exit code.

    Captures the environment fingerprint, builds the :class:`BenchRecord`
    from ``metrics``/``units``, writes ``spec.snapshot`` in the current
    directory (legacy ``payload`` + stamp), appends to the ``history``
    store, evaluates ``spec``'s gates against the pre-append baseline and
    prints the metric and gate tables.  Only hard
    (identity/positive) gate failures are fatal; a failing speedup gate
    prints a WARN and is enforced by ``repro.cli perf check``.
    """
    from repro.analysis.reporting import format_table

    record = BenchRecord.create(spec.name, metrics, units)
    store = HistoryStore(history)
    prior = store.load()
    write_snapshot(spec.snapshot, payload, record)
    store.append(record)
    results = evaluate_gates(spec, record, prior)

    print(format_table(["metric", "unit", "value"],
                       [(metric, record.units.get(metric, ""), value)
                        for metric, value in record.metrics.items()],
                       title=f"perf metrics: {spec.name}"))
    print()
    print(format_gate_results(spec.name, results))
    print(f"\nwrote {spec.snapshot}; appended run #"
          f"{len([r for r in prior if r.benchmark == spec.name]) + 1} "
          f"to {store.path} (commit {record.env.git_commit}, "
          f"{record.env.cpu_count} CPU(s))")

    for result in results:
        if result.failed and result.gate.hard:
            print(f"FAIL: {spec.name}/{result.gate.name}: {result.reason}",
                  file=sys.stderr)
        elif result.failed:
            print(f"WARN: {spec.name}/{result.gate.name}: {result.reason} "
                  "(enforced by `repro.cli perf check`)", file=sys.stderr)
    return 1 if any(r.failed and r.gate.hard for r in results) else 0


def run_benchmarks(history: Union[str, Path] = DEFAULT_HISTORY,
                   benchmarks: Optional[Sequence[str]] = None) -> int:
    """Measure and record the selected benchmarks; returns the exit code.

    ``benchmarks`` names registry entries (default: all of them, in
    registry order).  Each one's measure callable runs, then
    :func:`finish_run` records it into ``history``.  Every selected
    benchmark runs even after a failure; the exit code is 1 when a name is
    unknown or any hard gate failed, else 0.
    """
    names = list(BENCHMARKS) if benchmarks is None else list(benchmarks)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        print(f"FAIL: unknown benchmark(s) {', '.join(map(repr, unknown))} "
              f"(known: {', '.join(sorted(BENCHMARKS))})", file=sys.stderr)
        return 1
    exit_code = 0
    for name in names:
        spec = BENCHMARKS[name]
        print(f"== {name}: {spec.title}", flush=True)
        metrics, units, payload = spec.resolve()()
        exit_code |= finish_run(spec, metrics, payload, units,
                                history=history)
        print()
    return exit_code


def check_benchmarks(history: Union[str, Path] = DEFAULT_HISTORY,
                     benchmarks: Optional[Sequence[str]] = None,
                     ) -> Tuple[Dict[str, List[GateResult]], int]:
    """Evaluate every gate of the selected benchmarks' latest history runs.

    ``history`` locates the store; ``benchmarks`` restricts the set (default:
    every registered benchmark that has at least one history entry — naming a
    benchmark explicitly makes a missing record a failure).  Returns
    ``(results_by_benchmark, exit_code)`` where the exit code is non-zero on
    any failed gate of any kind — this is the single CI gate step.
    """
    store = HistoryStore(history)
    entries = store.load()
    explicit = benchmarks is not None
    names = list(benchmarks) if explicit else list(BENCHMARKS)

    all_results: Dict[str, List[GateResult]] = {}
    exit_code = 0
    for name in names:
        spec = BENCHMARKS.get(name)
        if spec is None:
            print(f"FAIL: unknown benchmark {name!r} "
                  f"(known: {', '.join(sorted(BENCHMARKS))})", file=sys.stderr)
            exit_code = 1
            continue
        last_index = max((i for i, r in enumerate(entries)
                          if r.benchmark == name), default=None)
        if last_index is None:
            if explicit:
                print(f"FAIL: no history entry for {name!r} in {store.path}",
                      file=sys.stderr)
                exit_code = 1
            continue
        latest, prior = entries[last_index], entries[:last_index]
        results = evaluate_gates(spec, latest, prior)
        all_results[name] = results
        if any(r.failed for r in results):
            exit_code = 1
    return all_results, exit_code
