"""Engine-layer measurements behind the perf-history registry.

Four of the registered benchmarks (:data:`repro.analysis.perfhistory.BENCHMARKS`)
measure this layer; ``repro.cli perf run`` calls their ``*_benchmark``
callables, each returning ``(metrics, units, payload)``:

* :func:`injection_benchmark` — packed injection engine vs the boolean
  reference (:func:`measure_injection`), which must agree bit for bit.
* :func:`inference_benchmark` — :func:`measure_characterization_sweep`, the
  wall clock of a coarse characterization-style BER sweep of the *weight
  store* (weights in approximate DRAM, IFMs in a reliable partition — the
  paper's static DNN storage model) under both read semantics, plus
  :func:`measure_inference_throughput`, images/second at the nominal and an
  approximate operating point per batch size.  Static-store pays the weight
  corruption once per operating point, so its advantage grows as the batch
  size shrinks.
* :func:`quantized_benchmark` — :func:`measure_quantized_throughput`, the
  fused integer-GEMM plan vs the FP32 static store.
* :func:`ecc_benchmark` — :func:`measure_ecc`, corrected-store bit identity
  and a raw vs corrected BER sweep with the codec in the loop.

Throughput numbers use untrained networks: accuracy is irrelevant to timing,
and skipping training keeps the benchmark a pure measurement of the engine.
Only the ECC benchmark trains, because its raw vs corrected accuracy split
must carry signal.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.dram.error_models import DramLayout, make_error_model
from repro.dram.injection import (
    BitErrorInjector,
    inject_bit_errors,
    inject_bit_errors_reference,
)
from repro.engine.session import InferenceSession, ReadSemantics
from repro.nn.models import build_model_with_dataset, get_spec
from repro.nn.tensor import DataKind

#: BER grid of the sweep benchmark: the low / middle / top of the coarse
#: characterization grid, so the measurement covers both sparse and dense
#: flip regimes.
SWEEP_BERS = (1e-4, 1e-3, 1e-2, 1e-1, 0.25)


def _timed_evaluate(session: InferenceSession, **kwargs) -> float:
    start = time.perf_counter()
    session.evaluate(**kwargs)
    return time.perf_counter() - start


def measure_inference_throughput(model_name: str = "resnet101", *,
                                 ber: float = 1e-3, model_id: int = 0,
                                 batch_sizes: Sequence[int] = (1, 16, 64),
                                 seed: int = 0) -> List[Dict]:
    """Images/second per batch size: nominal vs approximate, both semantics.

    ``model_name`` picks the zoo entry, ``ber``/``model_id`` the weight-store
    error model, ``batch_sizes`` the serving batch sizes to time, and
    ``seed`` fixes every stream.  Returns one record dict per batch size
    with nominal / static-store / per-read images-per-second and the
    semantics speedup.
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    images = len(dataset.val_y)
    error_model = make_error_model(model_id, ber, seed=seed)

    rows: List[Dict] = []
    for batch_size in batch_sizes:
        row: Dict = {"model": model_name, "batch_size": int(batch_size), "ber": ber}
        nominal = InferenceSession(network, dataset, metric=spec.metric,
                                   batch_size=batch_size, seed=seed)
        row["nominal_images_per_sec"] = images / _timed_evaluate(nominal)

        for semantics, key in ((ReadSemantics.STATIC_STORE, "static_store"),
                               (ReadSemantics.PER_READ, "per_read")):
            injector = BitErrorInjector(error_model, bits=32,
                                        data_kinds={DataKind.WEIGHT}, seed=seed)
            session = InferenceSession(network, dataset, injector=injector,
                                       semantics=semantics, metric=spec.metric,
                                       batch_size=batch_size, seed=seed)
            session.evaluate()   # warm the weak-cell position caches
            row[f"{key}_images_per_sec"] = images / _timed_evaluate(session)
        row["semantics_speedup"] = (row["static_store_images_per_sec"]
                                    / row["per_read_images_per_sec"])
        rows.append(row)
    return rows


def measure_quantized_throughput(model_name: str = "lenet", *,
                                 ber: float = 1e-3, model_id: int = 0,
                                 dtype: str = "int8", pad_to: int = 16,
                                 n_rows: int = 1024, passes: int = 3,
                                 seed: int = 0) -> Dict:
    """Serving-shaped dispatch rate: fused integer plan vs FP32 static store.

    Both paths serve the same zoo model (``model_name``, weight store at
    ``ber`` with error model ``model_id``, streams fixed by ``seed``) from a
    materialized static store and run ``predict(pad_to=...)`` one
    ``pad_to``-row dispatch at a time — the shape the micro-batcher
    produces.  The FP32 path stores the weights as corrupted float32 (the
    historical serving configuration); the ``dtype`` path stores them as
    integer codes and executes the compiled fused plan.  The best of
    ``passes`` timed passes counts, and each pass covers ``n_rows`` rows.
    Returns a record dict with rows/second for both paths and the headline
    ``speedup`` CI gates on.
    """
    from repro.nn.quantization import QuantizedLoadTransform

    if not dtype.startswith("int"):
        raise ValueError(f"dtype must be an integer precision, got {dtype!r}")
    bits = int(dtype[3:])
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    error_model = make_error_model(model_id, ber, seed=seed)
    val_x = np.asarray(dataset.val_x, dtype=np.float32)
    reps = -(-n_rows // len(val_x))
    rows_in = np.concatenate([val_x] * reps)[:n_rows]

    fp32_injector = BitErrorInjector(error_model, bits=32,
                                     data_kinds={DataKind.WEIGHT}, seed=seed)
    fp32_session = InferenceSession(network, dataset, injector=fp32_injector,
                                    metric=spec.metric, seed=seed)
    int_injector = QuantizedLoadTransform(
        bits, inner=BitErrorInjector(error_model, bits=bits,
                                     data_kinds={DataKind.WEIGHT}, seed=seed))
    int_session = InferenceSession(network, dataset, injector=int_injector,
                                   metric=spec.metric, seed=seed,
                                   execution_mode="integer")

    def dispatch_rate(session: InferenceSession) -> float:
        session.predict(rows_in[:pad_to], pad_to=pad_to)   # compile + warm
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for lo in range(0, n_rows, pad_to):
                session.predict(rows_in[lo:lo + pad_to], pad_to=pad_to)
            best = min(best, time.perf_counter() - start)
        return n_rows / best

    fp32_rate = dispatch_rate(fp32_session)
    int_rate = dispatch_rate(int_session)
    return {
        "model": model_name,
        "dtype": dtype,
        "ber": float(ber),
        "pad_to": int(pad_to),
        "n_rows": int(n_rows),
        "passes": int(passes),
        "fp32_rows_per_sec": fp32_rate,
        f"{dtype}_rows_per_sec": int_rate,
        "quantized_rows_per_sec": int_rate,
        "speedup": int_rate / fp32_rate,
    }


def measure_characterization_sweep(model_name: str = "resnet101", *,
                                   bers: Sequence[float] = SWEEP_BERS,
                                   model_id: int = 0, batch_size: int = 4,
                                   repeats: int = 1, seed: int = 0,
                                   network=None, dataset=None) -> Dict:
    """Wall clock of a weight-store BER sweep under both read semantics.

    Sweeps ``model_name`` (or an explicitly passed ``network``/``dataset``
    pair) over the ``bers`` grid with error model ``model_id``, evaluating
    at ``batch_size`` with ``repeats`` reseeded streams per point from
    ``seed``.  Returns a dict with the per-read and static-store timings,
    the speedup, and the sweep scores — so callers can also check
    static-store determinism (two identically-seeded runs must agree).
    """
    if network is None or dataset is None:
        network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
        metric = spec.metric
    else:
        metric = get_spec(model_name).metric
    network.eval()
    base_model = make_error_model(model_id, 1e-3, seed=seed)

    def run_sweep(semantics: ReadSemantics) -> Dict:
        injector = BitErrorInjector(base_model, bits=32,
                                    data_kinds={DataKind.WEIGHT}, seed=seed)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=semantics, metric=metric,
                                   batch_size=batch_size, seed=seed,
                                   repeats=repeats)
        scores: Dict[float, float] = {}
        start = time.perf_counter()
        for ber in bers:
            injector.set_error_model(base_model.with_ber(ber))
            scores[float(ber)] = session.evaluate()
        return {"seconds": time.perf_counter() - start, "scores": scores}

    legacy = run_sweep(ReadSemantics.PER_READ)
    static = run_sweep(ReadSemantics.STATIC_STORE)
    static_again = run_sweep(ReadSemantics.STATIC_STORE)
    if static["scores"] != static_again["scores"]:
        raise AssertionError("static-store sweep is not deterministic for a "
                             "fixed seed")
    return {
        "model": model_name,
        "bers": [float(b) for b in bers],
        "batch_size": int(batch_size),
        "repeats": int(repeats),
        "per_read_seconds": legacy["seconds"],
        "static_store_seconds": static["seconds"],
        "speedup": legacy["seconds"] / static["seconds"],
        "per_read_scores": legacy["scores"],
        "static_store_scores": static["scores"],
    }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_injection(name: str, *, size: int, bits: int, model_id: int,
                      ber: float, reference_repeats: int = 2,
                      packed_repeats: int = 3) -> Dict:
    """Injection throughput of the packed engine vs the boolean reference.

    Injects error model ``model_id`` at ``ber`` into a ``size``-element
    tensor stored at ``bits`` bits; ``name`` labels the record.  The
    reference path is timed best-of ``reference_repeats``, the packed path
    best-of ``packed_repeats`` both cold (a fresh model per repeat, so the
    weak-cell position cache never engages) and warm (the sweep access
    pattern).  Returns a record dict with values/second for each path, the
    cold and warm speedups and ``bit_identical`` (packed == reference).
    """
    values = np.random.default_rng(1).standard_normal(size).astype(np.float32)
    model = make_error_model(model_id, ber, seed=3)
    layout = DramLayout()

    reference_s = _best_of(
        lambda: inject_bit_errors_reference(values, bits, model, layout,
                                            np.random.default_rng(7)),
        reference_repeats)
    cold_s = _best_of(
        lambda: inject_bit_errors(values, bits,
                                  make_error_model(model_id, ber, seed=3),
                                  layout, np.random.default_rng(7)),
        packed_repeats)
    inject_bit_errors(values, bits, model, layout, np.random.default_rng(7))
    warm_s = _best_of(
        lambda: inject_bit_errors(values, bits, model, layout,
                                  np.random.default_rng(7)),
        packed_repeats)

    # The whole point of the packed engine is that it changes nothing but time.
    reference_out = inject_bit_errors_reference(values, bits, model, layout,
                                                np.random.default_rng(7))
    packed_out = inject_bit_errors(values, bits, model, layout,
                                   np.random.default_rng(7))
    return {
        "name": name,
        "size": size,
        "bits": bits,
        "model_id": model_id,
        "ber": ber,
        "before_values_per_sec": size / reference_s,
        "after_values_per_sec": size / cold_s,
        "after_warm_values_per_sec": size / warm_s,
        "speedup": reference_s / cold_s,
        "warm_speedup": reference_s / warm_s,
        "bit_identical": bool(np.array_equal(reference_out, packed_out,
                                             equal_nan=True)),
    }


def injection_benchmark():
    """The ``injection`` benchmark: four 1M-element injection configs.

    The headline is FP32 at BER 1e-4 under Error Model 0.  Returns
    ``(metrics, units, payload)``.
    """
    size = 1_000_000
    results = [measure_injection(name, size=size, bits=bits,
                                 model_id=model_id, ber=ber)
               for name, bits, model_id, ber in (
                   ("fp32_1M_ber1e-4_model0", 32, 0, 1e-4),
                   ("fp32_1M_ber1e-4_model1", 32, 1, 1e-4),
                   ("fp32_1M_ber1e-4_model3", 32, 3, 1e-4),
                   ("int8_1M_ber1e-3_model0", 8, 0, 1e-3))]
    headline = results[0]
    metrics = {
        "bit_identical": all(r["bit_identical"] for r in results),
        "headline_speedup": headline["speedup"],
        "headline_warm_speedup": headline["warm_speedup"],
        "reference_values_per_sec": headline["before_values_per_sec"],
        "cold_values_per_sec": headline["after_values_per_sec"],
        "warm_values_per_sec": headline["after_warm_values_per_sec"],
    }
    units = {
        "headline_speedup": "x", "headline_warm_speedup": "x",
        "reference_values_per_sec": "values/s",
        "cold_values_per_sec": "values/s", "warm_values_per_sec": "values/s",
    }
    payload = {"benchmark": "injection_throughput", "headline": headline,
               "results": results}
    return metrics, units, payload


def inference_benchmark():
    """The ``inference`` benchmark: ResNet-101 sweep and serving throughput.

    Runs :func:`measure_characterization_sweep` at batch size 4 and
    :func:`measure_inference_throughput` at its defaults.  Returns
    ``(metrics, units, payload)``.
    """
    model = "resnet101"
    sweep = measure_characterization_sweep(model, batch_size=4)
    throughput = measure_inference_throughput(model)
    batch1 = throughput[0]
    metrics = {
        "sweep_speedup": sweep["speedup"],
        "per_read_seconds": sweep["per_read_seconds"],
        "static_store_seconds": sweep["static_store_seconds"],
        "batch1_static_store_images_per_sec":
            batch1["static_store_images_per_sec"],
        "batch1_semantics_speedup": batch1["semantics_speedup"],
    }
    units = {
        "sweep_speedup": "x", "per_read_seconds": "s",
        "static_store_seconds": "s",
        "batch1_static_store_images_per_sec": "img/s",
        "batch1_semantics_speedup": "x",
    }
    payload = {
        "benchmark": "inference_throughput",
        "headline": {
            "name": f"{model}_weight_store_ber_sweep",
            "speedup": sweep["speedup"],
            "per_read_seconds": sweep["per_read_seconds"],
            "static_store_seconds": sweep["static_store_seconds"],
        },
        "sweep": sweep,
        "throughput": throughput,
    }
    return metrics, units, payload


def quantized_benchmark():
    """The ``quantized`` benchmark: int8 LeNet vs FP32, 16-row dispatches.

    Runs :func:`measure_quantized_throughput` with the best of 5 passes.
    Returns ``(metrics, units, payload)``.
    """
    model, dtype = "lenet", "int8"
    record = measure_quantized_throughput(model, dtype=dtype, passes=5)
    metrics = {
        "speedup": record["speedup"],
        "fp32_rows_per_sec": record["fp32_rows_per_sec"],
        "quantized_rows_per_sec": record["quantized_rows_per_sec"],
    }
    units = {"speedup": "x", "fp32_rows_per_sec": "rows/s",
             "quantized_rows_per_sec": "rows/s"}
    payload = {
        "benchmark": "quantized_throughput",
        "headline": {
            "name": f"{model}_{dtype}_dispatch_speedup",
            "speedup": record["speedup"],
            "fp32_rows_per_sec": record["fp32_rows_per_sec"],
            "quantized_rows_per_sec": record["quantized_rows_per_sec"],
        },
        "record": record,
    }
    return metrics, units, payload


def _corrected_store(network, dataset, error_model, seed: int,
                     correction: str):
    """Materialize one corrected static store; return (bytes dict, stats)."""
    session = InferenceSession.from_error_model(
        network, dataset, error_model, bits=32, seed=seed,
        semantics=ReadSemantics.STATIC_STORE, correction=correction)
    store = session.materialize()
    data = {name: tensor.tobytes() for name, tensor in store.items()}
    stats = {key: value for key, value in session.injector.ecc_stats.items()
             if key != "per_tensor"}
    return data, stats


def measure_ecc(model_name: str = "lenet", *, epochs: int = 2,
                seed: int = 0, ber: float = 1e-3,
                bers: Sequence[float] = (1e-4, 1e-3, 1e-2),
                correction: str = "rs72_64") -> Dict:
    """ECC correction in the static weight-store loop.

    Trains ``model_name`` for ``epochs`` epochs, materializes the same
    Error Model 4 (burst) store at ``ber`` twice with the ``correction``
    codec in the loop and compares the corrected bytes, then scores the
    model raw vs corrected over ``bers`` (plus ``ber``) under identical
    injection streams.  ``seed`` fixes every stream.  Returns a dict with
    ``store_bit_identical``, the materialization decode ``stats``, the
    ``sweep`` (keyed by BER, ascending) and its ``sweep_seconds``.
    """
    from repro.analysis.runner import ExperimentRunner
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()

    error_model = make_error_model(4, ber, seed=seed)
    first, stats = _corrected_store(network, dataset, error_model, seed,
                                    correction)
    second, _ = _corrected_store(network, dataset, error_model, seed,
                                 correction)
    bers = sorted(set(bers) | {ber})
    started = time.perf_counter()
    with ExperimentRunner(network, dataset, metric=spec.metric, seed=seed,
                          semantics=ReadSemantics.STATIC_STORE) as runner:
        sweep = runner.ecc_sweep(error_model, bers, correction=correction)
    return {
        "store_bit_identical": first == second,
        "stats": stats,
        "sweep": sweep,
        "sweep_seconds": time.perf_counter() - started,
    }


def ecc_benchmark():
    """The ``ecc`` benchmark: LeNet with RS(72,64) at BER 1e-3.

    Runs :func:`measure_ecc` at its defaults; the headline is the raw vs
    corrected accuracy split at BER 1e-3.  Returns
    ``(metrics, units, payload)``.
    """
    model, correction, ber = "lenet", "rs72_64", 1e-3
    record = measure_ecc(model, ber=ber, correction=correction)
    stats, sweep = record["stats"], record["sweep"]
    headline = sweep[ber]
    metrics = {
        "store_bit_identical": record["store_bit_identical"],
        "corrected_symbols": stats["corrected_symbols"],
        "corrected_codewords": stats["corrected_codewords"],
        "uncorrectable_codewords": stats["uncorrectable_codewords"],
        "raw_accuracy": headline["raw"],
        "corrected_accuracy": headline["corrected"],
        "sweep_seconds": record["sweep_seconds"],
    }
    units = {"sweep_seconds": "s", "raw_accuracy": "frac",
             "corrected_accuracy": "frac"}
    payload = {
        "benchmark": "ecc_correction",
        "headline": {
            "name": f"{model}_{correction}_at_{ber:g}",
            "raw_accuracy": headline["raw"],
            "corrected_accuracy": headline["corrected"],
            "uncorrectable_codewords": headline["uncorrectable_codewords"],
        },
        "store_bit_identical": record["store_bit_identical"],
        "materialization_stats": stats,
        "sweep": {f"{b:g}": point for b, point in sweep.items()},
    }
    return metrics, units, payload
