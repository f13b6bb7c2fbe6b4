"""Run one workload of the EDEN end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload char-sweep --seed 0 --seconds 20

Run it from the root of a checkout: the program is imported from ``src/``
(``http-serve`` also starts ``python -m repro.cli serve`` from there).
Workloads (BENCHMARK.json records why each exists):

* ``char-sweep`` — ``ExperimentRunner.ber_sweep`` of a LeNet trained from the
  seed: FP32, Error Model 0, 11 BERs from 1e-7 to 1e-2, 3 repeats, static
  store, serial;
* ``ecc-sweep`` — the same model and grid through ``ecc_sweep`` with burst
  errors (Error Model 4) and RS(72,64) correction;
* ``http-serve`` — int8 LeNet behind ``repro.cli serve``: an open loop at
  50 requests/s, then a closed loop on 2 connections.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Every workload reports all four:

* ``setup_s`` — median of 3 set-ups in the run: building and training the
  model and binding the runner (sweeps), or spawning the server until its
  first healthy ``/healthz`` (``http-serve``);
* ``peak_rss_mb`` — peak resident memory of the process doing the work;
* ``ops_per_s`` — BER points x repeats scored per second (sweeps), or
  closed-loop requests answered per second (``http-serve``);
* ``latency_p50_ms`` — median time of one whole grid sweep, the time to find
  the maximum tolerable BER (sweeps), or median open-loop latency measured
  from each request's due time (``http-serve``).

Operation failures (sweep points that differ from the first sweep at the
seed; non-200 responses and byte mismatches) go to ``failed``.
``--trace 1`` is a separate run that installs timing shims around each
layer's entry points and reports the per-layer metrics, including how much
of the measured time the spans cover and what tracing cost.  Report lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from common import SRC

WORKLOADS = ("char-sweep", "ecc-sweep", "http-serve")

#: end-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: per-layer metrics (``--trace 1``): name -> unit.  A layer a workload does
#: not use reports 0.
PER_LAYER: Dict[str, str] = {
    "dram.apply_calls": "count",
    "dram.apply_s": "s",
    "dram.flip_mask_s": "s",
    "dram.values_loaded": "count",
    "ecc.decode_calls": "count",
    "ecc.decode_s": "s",
    "ecc.codewords": "count",
    "ecc.corrected_codewords": "count",
    "ecc.uncorrectable_codewords": "count",
    "ecc.useful_ratio": "ratio",
    "nn.im2col_s": "s",
    "nn.conv_s": "s",
    "nn.linear_s": "s",
    "nn.pool_s": "s",
    "nn.gemm_macs": "MAC",
    "nn.gemm_bytes": "bytes",
    "int.im2col_s": "s",
    "int.gemm_s": "s",
    "int.requant_s": "s",
    "int.pool_s": "s",
    "int.gemm_macs": "MAC",
    "engine.materialize_s": "s",
    "engine.evaluate_s": "s",
    "engine.predict_s": "s",
    "engine.predict_calls": "count",
    "engine.rows_per_predict": "rows",
    "engine.nonfinite_rows": "rows",
    "serve.server_ms_p50": "ms",
    "serve.server_ms_p99": "ms",
    "serve.outside_ms_p50": "ms",
    "batcher.batches": "count",
    "batcher.mean_occupancy": "rows",
    "batcher.wait_ms_p50": "ms",
    "serve.encode_s": "s",
    "serve.shed": "count",
    "serve.expired": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "quality.nominal_accuracy": "ratio",
    "quality.mean_accuracy": "ratio",
    "quality.max_tolerable_ber": "ratio",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns its :class:`common.Outcome`."""
    if workload == "http-serve":
        import serving

        return serving.run(seed, seconds, trace)
    import sweeps

    return sweeps.run(workload, seed, seconds, trace)


def result_line(outcome, trace: bool) -> str:
    """The final JSON line; raises if the workload missed a metric."""
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    return json.dumps({
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit} for name, unit in units.items()},
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for line in outcome.info:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(result_line(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
