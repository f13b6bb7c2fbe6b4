"""Regeneration of the paper's tables as structured rows.

Each function returns a list of dictionaries (one per table row) so the
benchmark harness can both print them (via :mod:`repro.analysis.reporting`)
and assert on the qualitative properties the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import AccuracyTarget, EdenConfig
from repro.core.characterization import coarse_grained_characterization
from repro.core.correction import ThresholdStore
from repro.core.offload import reductions_for_ber
from repro.dram.device import ApproximateDram
from repro.dram.error_models import make_error_model
from repro.engine import InferenceSession
from repro.nn.models import MODEL_SPECS, build_model_with_dataset, get_spec
from repro.nn.quantization import QuantizedLoadTransform
from repro.nn.training import Trainer

#: numeric precisions of Table 2 (YOLO models only support int8 / FP32).
TABLE2_PRECISIONS = (4, 8, 16, 32)


def table1_model_zoo(models: Optional[Sequence[str]] = None) -> List[Dict]:
    """Table 1: the model zoo with paper sizes and measured analogue footprints."""
    rows = []
    for name in models or list(MODEL_SPECS):
        spec = get_spec(name)
        network, dataset, _ = build_model_with_dataset(name)
        rows.append({
            "model": spec.paper_name,
            "dataset": spec.dataset,
            "metric": spec.metric,
            "paper_model_size_mb": spec.paper_model_size_mb,
            "paper_ifm_weight_size_mb": spec.paper_ifm_weight_size_mb,
            "analogue_parameters": network.num_parameters(),
            "analogue_footprint_bytes": network.footprint_bytes(),
            "analogue_depth": network.depth,
        })
    return rows


def table2_baseline_accuracy(models: Optional[Sequence[str]] = None,
                             precisions: Sequence[int] = TABLE2_PRECISIONS,
                             epochs: Optional[int] = None,
                             seed: int = 0) -> List[Dict]:
    """Table 2: baseline accuracy of each model at each precision on reliable DRAM."""
    rows = []
    for name in models or list(MODEL_SPECS):
        spec = get_spec(name)
        network, dataset, _ = build_model_with_dataset(name, seed=seed)
        Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
        row: Dict = {"model": spec.paper_name, "metric": spec.metric}
        for bits in precisions:
            if bits == 4 and not spec.supports_int4:
                row[f"int{bits}"] = None
                continue
            if bits == 16 and not spec.supports_int16:
                row[f"int{bits}"] = None
                continue
            # Quantization is deterministic, so the session's default
            # static-store semantics (the weights fake-quantized once, not per
            # batch) is bit-identical to the historical per-load transform —
            # just cheaper.
            transform = None if bits == 32 else QuantizedLoadTransform(bits)
            score = InferenceSession(network, dataset, injector=transform,
                                     metric=spec.metric).evaluate()
            key = "fp32" if bits == 32 else f"int{bits}"
            row[key] = score
        rows.append(row)
    return rows


def table3_coarse_characterization(models: Optional[Sequence[str]] = None,
                                   precisions: Sequence[int] = (32, 8),
                                   device: Optional[ApproximateDram] = None,
                                   target: Optional[AccuracyTarget] = None,
                                   config: Optional[EdenConfig] = None,
                                   epochs: Optional[int] = None,
                                   seed: int = 0,
                                   processes: int = 0) -> List[Dict]:
    """Table 3: per-DNN maximum tolerable BER and the ΔVDD/ΔtRCD it permits.

    For each model and precision: train the baseline, run the coarse-grained
    characterization against Error Model 0, then translate the tolerable BER
    into the most aggressive (ΔVDD, ΔtRCD) of the target device.
    ``processes`` > 1 fans the characterization grid out over the
    shared-memory executor (bit-identical results).
    """
    device = device or ApproximateDram("A", seed=seed)
    target = target or AccuracyTarget.within_one_percent()
    rows = []
    for name in models or list(MODEL_SPECS):
        spec = get_spec(name)
        network, dataset, _ = build_model_with_dataset(name, seed=seed)
        Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
        thresholds = ThresholdStore.from_network(network, dataset.train_x)
        for bits in precisions:
            model_config = config or EdenConfig(evaluation_repeats=1)
            model_config = EdenConfig(
                retrain_epochs=model_config.retrain_epochs,
                ramp_every_epochs=model_config.ramp_every_epochs,
                ber_search_low=model_config.ber_search_low,
                ber_search_high=model_config.ber_search_high,
                ber_search_steps=model_config.ber_search_steps,
                evaluation_repeats=model_config.evaluation_repeats,
                bits=bits,
                seed=seed,
                processes=processes or model_config.processes,
            )
            error_model = make_error_model(0, 1e-3, seed=seed)
            coarse = coarse_grained_characterization(
                network, dataset, error_model, target, model_config,
                metric=spec.metric, thresholds=thresholds,
            )
            delta_vdd, delta_trcd = reductions_for_ber(device, coarse.max_tolerable_ber)
            rows.append({
                "model": spec.paper_name,
                "bits": bits,
                "baseline_score": coarse.baseline_score,
                "max_tolerable_ber": coarse.max_tolerable_ber,
                "score_at_max_ber": coarse.accuracy_at_max,
                "delta_vdd": delta_vdd,
                "delta_trcd_ns": delta_trcd,
            })
    return rows


#: The paper's Table 3 (FP32 columns), used by the system-level benchmarks to
#: evaluate the platforms at the operating points the paper derived on its
#: full-scale networks (our analogues produce their own, smaller-scale Table 3
#: via :func:`table3_coarse_characterization`).
PAPER_TABLE3_FP32: Dict[str, Dict[str, float]] = {
    "resnet101":     {"ber": 0.040, "delta_vdd": 0.30, "delta_trcd_ns": 5.5},
    "mobilenetv2":   {"ber": 0.010, "delta_vdd": 0.25, "delta_trcd_ns": 1.0},
    "vgg16":         {"ber": 0.050, "delta_vdd": 0.35, "delta_trcd_ns": 6.0},
    "densenet201":   {"ber": 0.015, "delta_vdd": 0.25, "delta_trcd_ns": 2.0},
    "squeezenet1.1": {"ber": 0.005, "delta_vdd": 0.10, "delta_trcd_ns": 1.0},
    "alexnet":       {"ber": 0.030, "delta_vdd": 0.30, "delta_trcd_ns": 4.5},
    "yolo":          {"ber": 0.050, "delta_vdd": 0.35, "delta_trcd_ns": 6.0},
    "yolo-tiny":     {"ber": 0.035, "delta_vdd": 0.30, "delta_trcd_ns": 5.0},
}

PAPER_TABLE3_INT8: Dict[str, Dict[str, float]] = {
    "resnet101":     {"ber": 0.040, "delta_vdd": 0.30, "delta_trcd_ns": 5.5},
    "mobilenetv2":   {"ber": 0.005, "delta_vdd": 0.10, "delta_trcd_ns": 1.0},
    "vgg16":         {"ber": 0.050, "delta_vdd": 0.35, "delta_trcd_ns": 6.0},
    "densenet201":   {"ber": 0.015, "delta_vdd": 0.25, "delta_trcd_ns": 2.0},
    "squeezenet1.1": {"ber": 0.005, "delta_vdd": 0.10, "delta_trcd_ns": 1.0},
    "alexnet":       {"ber": 0.030, "delta_vdd": 0.30, "delta_trcd_ns": 4.5},
    "yolo":          {"ber": 0.040, "delta_vdd": 0.30, "delta_trcd_ns": 5.5},
    "yolo-tiny":     {"ber": 0.030, "delta_vdd": 0.30, "delta_trcd_ns": 4.5},
}


def system_configurations() -> List[Dict]:
    """Tables 4-6: the simulated CPU, GPU and accelerator configurations."""
    from repro.arch.accelerator import EYERISS_CONFIG, TPU_CONFIG
    from repro.arch.cpu import CpuConfig
    from repro.arch.gpu import GpuConfig

    cpu, gpu = CpuConfig(), GpuConfig()
    return [
        {"platform": "CPU", "name": cpu.name, "compute_units": cpu.cores,
         "frequency_ghz": cpu.frequency_ghz, "memory": cpu.memory_type},
        {"platform": "GPU", "name": gpu.name, "compute_units": gpu.streaming_multiprocessors,
         "frequency_ghz": gpu.frequency_ghz, "memory": gpu.memory_type},
        {"platform": "Eyeriss", "name": EYERISS_CONFIG.name,
         "compute_units": EYERISS_CONFIG.num_pes,
         "frequency_ghz": EYERISS_CONFIG.frequency_ghz, "memory": EYERISS_CONFIG.memory_type},
        {"platform": "TPU", "name": TPU_CONFIG.name, "compute_units": TPU_CONFIG.num_pes,
         "frequency_ghz": TPU_CONFIG.frequency_ghz, "memory": TPU_CONFIG.memory_type},
    ]
