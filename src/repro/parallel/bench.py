"""Parallel-executor measurements behind the ``parallel`` benchmark.

:func:`parallel_benchmark` is the registered measure callable of the
``parallel`` benchmark (``repro.cli perf run --benchmark parallel`` records
``BENCH_parallel.json``).  One call to :func:`measure_parallel` produces:

* **characterization sweep, serial vs N workers** (the headline) — wall
  clock of scoring the coarse characterization's full BER grid (the exact
  grid :func:`repro.core.characterization.coarse_grained_characterization`
  prefetches when it parallelizes: per-read semantics, implausible-value
  corrector, the historical ``seed + repeat * 101`` reseeding) through one
  :class:`~repro.analysis.runner.ExperimentRunner`, serially and through
  the shared-memory executor.  The ratio is the speedup CI gates on —
  *and* the two score dicts must be equal, bit for bit.
* **device sweep** — the same comparison over
  :class:`~repro.dram.device.ApproximateDram` operating points (the
  ``device_sweep`` ``processes`` gap the executor closed).
* **coarse characterization** — the full binary search run serially and
  with ``config.processes = N``; every result field, including the
  ``tested`` memo, must be identical.
* **multi-process serving** — a gateway with ``dispatch_processes`` set,
  its coalesced results compared bit-for-bit against serial dispatch
  through an in-process gateway sharing the same compiled plan fingerprint.

Untrained-but-characterizable networks are trained briefly (accuracy must
move with BER for the characterization search to be non-trivial); every
stream is seeded, so both runs of every comparison are deterministic.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.nn.models import build_model_with_dataset
from repro.nn.tensor import DataKind

#: reseed stride of the characterization's historical repeat convention.
_CHARACTERIZATION_STRIDE = 101


def _coarse_equal(a, b) -> bool:
    return (a.baseline_score == b.baseline_score
            and a.max_tolerable_ber == b.max_tolerable_ber
            and a.accuracy_at_max == b.accuracy_at_max
            and a.tested == b.tested)


def measure_parallel(model_name: str = "lenet", *, processes: int = 4,
                     epochs: int = 2, repeats: int = 2, model_id: int = 0,
                     n_requests: int = 128, max_batch: int = 16,
                     seed: int = 0) -> Dict:
    """Measure serial-vs-parallel wall clocks and verify bit-identity.

    Builds and briefly trains ``model_name`` (``epochs`` epochs), then runs
    the four comparisons described in the module docstring with
    ``processes`` workers: the characterization BER-grid sweep and coarse
    search (error model ``model_id``, ``repeats`` streams per point), a
    vendor-A device sweep, and a serving gateway with
    ``dispatch_processes`` workers serving ``n_requests`` single-sample
    requests coalesced up to ``max_batch``.  ``seed`` fixes every stream.
    Returns a JSON-serializable dict with the timings, the headline
    ``characterization_sweep_speedup`` and the four ``*_identical`` flags.
    """
    # This harness measures the layers that *use* the executor (runner,
    # characterization, gateway), all of which sit above repro.parallel in
    # the layer map — hence the late imports: `import repro.parallel` itself
    # stays free of upward dependencies.
    from repro.analysis.runner import ExperimentRunner
    from repro.core.characterization import coarse_grained_characterization
    from repro.core.config import AccuracyTarget, EdenConfig
    from repro.core.correction import ImplausibleValueCorrector, ThresholdStore
    from repro.nn.training import Trainer
    from repro.serve.gateway import ServeConfig, ServingGateway

    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
    network.eval()

    config = EdenConfig(evaluation_repeats=repeats, seed=seed)
    grid = [float(ber) for ber in config.ber_grid()]
    error_model = make_error_model(model_id, 1e-3, seed=seed)
    thresholds = ThresholdStore.from_network(network, dataset.train_x)
    corrector = ImplausibleValueCorrector(thresholds)
    target = AccuracyTarget.within_one_percent()

    def sweep_with(runner: ExperimentRunner) -> Dict:
        started = time.perf_counter()
        scores = runner.ber_sweep(error_model, grid, bits=config.bits,
                                  corrector=corrector, repeats=repeats,
                                  seed=seed, stride=_CHARACTERIZATION_STRIDE)
        return {"seconds": time.perf_counter() - started, "scores": scores}

    # -- characterization BER grid: serial vs shared-memory executor -------------
    with ExperimentRunner(network, dataset, metric=spec.metric) as runner:
        serial = sweep_with(runner)
    with ExperimentRunner(network, dataset, metric=spec.metric,
                          processes=processes) as runner:
        runner.ber_sweep(error_model, grid[:processes], bits=config.bits,
                         corrector=corrector, repeats=repeats, seed=seed,
                         stride=_CHARACTERIZATION_STRIDE)   # warm the pool
        parallel = sweep_with(runner)

    # -- device operating points: the closed `processes` gap ---------------------
    device = ApproximateDram(vendor="A", seed=seed)
    op_points = [
        DramOperatingPoint.from_reductions(
            delta_vdd=delta, nominal_vdd=device.nominal_vdd,
            nominal_timing=device.nominal_timing)
        for delta in (0.10, 0.15, 0.20, 0.25)
    ]
    with ExperimentRunner(network, dataset, metric=spec.metric) as runner:
        started = time.perf_counter()
        device_serial = runner.device_sweep(device, op_points, repeats=1,
                                            seed=seed)
        device_serial_seconds = time.perf_counter() - started
    with ExperimentRunner(network, dataset, metric=spec.metric,
                          processes=processes) as runner:
        # >= 2 points so the warm-up actually takes the executor branch
        # (one point would run serially and leave the pool cold).
        runner.device_sweep(device, op_points[:2], repeats=1, seed=seed)
        started = time.perf_counter()
        device_parallel = runner.device_sweep(device, op_points, repeats=1,
                                              seed=seed)
        device_parallel_seconds = time.perf_counter() - started

    # -- the full coarse search: serial vs config.processes ----------------------
    started = time.perf_counter()
    coarse_serial = coarse_grained_characterization(
        network, dataset, error_model, target, config, spec.metric, thresholds)
    coarse_serial_seconds = time.perf_counter() - started
    parallel_config = EdenConfig(evaluation_repeats=repeats, seed=seed,
                                 processes=processes)
    started = time.perf_counter()
    coarse_parallel = coarse_grained_characterization(
        network, dataset, error_model, target, parallel_config, spec.metric,
        thresholds)
    coarse_parallel_seconds = time.perf_counter() - started

    # -- serving: multi-process dispatch vs in-process serial dispatch -----------
    injector = BitErrorInjector(error_model, bits=config.bits,
                                data_kinds={DataKind.WEIGHT}, seed=seed)
    requests = np.asarray(dataset.val_x)[:n_requests]
    serve_record: Dict = {}
    with ServingGateway(ServeConfig(max_batch=max_batch, auto_flush=False)
                        ) as reference_gateway:
        reference_gateway.register(model_name, network, dataset,
                                   injector=injector, seed=seed,
                                   metric=spec.metric)
        reference = reference_gateway.predict_many(model_name, requests,
                                                   coalesce=False)
    with ServingGateway(ServeConfig(max_batch=max_batch, auto_flush=False,
                                    dispatch_processes=min(processes, 2))
                        ) as mp_gateway:
        mp_gateway.register(model_name, network, dataset, injector=injector,
                            seed=seed, metric=spec.metric)
        mp_gateway.predict(model_name, requests[0])        # warm the workers
        started = time.perf_counter()
        coalesced = mp_gateway.predict_many(model_name, requests,
                                            coalesce=True)
        serve_record["multiprocess_seconds"] = time.perf_counter() - started
    serve_record["identical"] = (reference.shape == coalesced.shape
                                 and reference.tobytes() == coalesced.tobytes())

    return {
        "model": model_name,
        "processes": int(processes),
        "cpu_count": os.cpu_count(),
        "repeats": int(repeats),
        "ber_grid": grid,
        "characterization_sweep_serial_seconds": serial["seconds"],
        "characterization_sweep_parallel_seconds": parallel["seconds"],
        "characterization_sweep_speedup": serial["seconds"] / parallel["seconds"],
        "characterization_sweep_identical": serial["scores"] == parallel["scores"],
        "device_sweep_serial_seconds": device_serial_seconds,
        "device_sweep_parallel_seconds": device_parallel_seconds,
        "device_sweep_identical": device_serial == device_parallel,
        "coarse_characterization_serial_seconds": coarse_serial_seconds,
        "coarse_characterization_parallel_seconds": coarse_parallel_seconds,
        "coarse_characterization_identical": _coarse_equal(coarse_serial,
                                                           coarse_parallel),
        "coarse_max_tolerable_ber": coarse_serial.max_tolerable_ber,
        "serving_identical": serve_record["identical"],
        "serving_multiprocess_seconds": serve_record["multiprocess_seconds"],
        "n_requests": int(n_requests),
        "max_batch": int(max_batch),
    }


#: the four bit-identity flags of :func:`measure_parallel`, each a hard gate.
_IDENTITY_KEYS = ("characterization_sweep_identical", "device_sweep_identical",
                 "coarse_characterization_identical", "serving_identical")


def parallel_benchmark():
    """The ``parallel`` benchmark: LeNet, serial vs 4 shared-memory workers.

    Runs :func:`measure_parallel` at its defaults.  Returns
    ``(metrics, units, payload)``.
    """
    model, processes = "lenet", 4
    record = measure_parallel(model, processes=processes)
    metrics = {key: bool(record[key]) for key in _IDENTITY_KEYS}
    metrics.update({
        "characterization_sweep_speedup":
            record["characterization_sweep_speedup"],
        "characterization_sweep_serial_seconds":
            record["characterization_sweep_serial_seconds"],
        "characterization_sweep_parallel_seconds":
            record["characterization_sweep_parallel_seconds"],
    })
    units = {
        "characterization_sweep_speedup": "x",
        "characterization_sweep_serial_seconds": "s",
        "characterization_sweep_parallel_seconds": "s",
    }
    payload = {
        "benchmark": "parallel_executor",
        "headline": {
            "name": f"{model}_characterization_sweep_{processes}_workers",
            "speedup": record["characterization_sweep_speedup"],
            "serial_seconds": record["characterization_sweep_serial_seconds"],
            "parallel_seconds":
                record["characterization_sweep_parallel_seconds"],
            "bit_identical": all(record[key] for key in _IDENTITY_KEYS),
        },
        **record,
    }
    return metrics, units, payload
