"""Analysis helpers: parameter sweeps and regeneration of the paper's artifacts.

* :mod:`repro.analysis.runner`    — the unified sweep/score engine every
  injection experiment runs on (injector reuse, memoized baselines,
  optional process-pool parallelism);
* :mod:`repro.analysis.sweep`     — voltage / tRCD / BER sweep utilities;
* :mod:`repro.analysis.figures`   — data series for each figure of the paper;
* :mod:`repro.analysis.tables`    — structured rows for each table;
* :mod:`repro.analysis.reporting` — plain-text rendering used by the examples
  and the benchmark harness (no plotting dependencies are available offline);
* :mod:`repro.analysis.perfhistory` — the perf-history harness: the
  registry that defines every benchmark and its gates, ``perf run``,
  environment fingerprints, the append-only ``BENCH_history.jsonl`` store,
  and baseline-window degradation gates (see ``docs/benchmarks.md``).
"""

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import ber_sweep, trcd_sweep, voltage_sweep_points
from repro.analysis.reporting import format_series, format_table

__all__ = [
    "ExperimentRunner",
    "ber_sweep",
    "trcd_sweep",
    "voltage_sweep_points",
    "format_series",
    "format_table",
]
